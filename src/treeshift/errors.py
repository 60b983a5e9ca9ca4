"""Exception hierarchy shared across the package.

Two families matter to callers: ``TreeFormatError`` covers malformed input
(bad JSON schema, illegal vertex identifiers) while ``TreeshiftError``
subclasses signal semantic violations in otherwise well-formed input.
The CLI maps the former to exit code 2 and the latter to exit code 3.
"""


class TreeshiftError(Exception):
    """Base class for semantic errors raised by this package."""


class TreeFormatError(Exception):
    """Malformed tree description (schema or identifier rules)."""


class InvalidVertexId(TreeFormatError):
    """Vertex identifier is empty, non-string, or contains the reserved '~'."""


class CircuitDetected(TreeshiftError):
    """The edge set contains a directed circuit."""


class MultipleParents(TreeshiftError):
    """Some vertex is listed as a child of more than one vertex."""


class MultipleRoots(TreeshiftError):
    """A parentless vertex other than the declared root exists."""


class LeafWithoutRay(TreeshiftError):
    """An explicit vertex has no children and is not marked as a ray leaf."""


class RayLeafHasChildren(TreeshiftError):
    """A vertex marked as a ray leaf also has explicit children."""


class Disconnected(TreeshiftError):
    """Some referenced vertex is not connected to the root."""


class UnknownVertex(TreeshiftError):
    """A vertex identifier does not belong to the tree."""


class HorizonExceeded(TreeshiftError):
    """A query asked for a depth beyond the stated truncation horizon."""


class AncestorOutOfRange(TreeshiftError):
    """An ancestor walk stepped past the root."""


class IndexOutOfRange(TreeshiftError):
    """A finite-difference window does not fit inside the given sequence."""


class InvalidQ(TreeshiftError):
    """The shift parameter q is outside its admissible range (q >= 1)."""


class WrongQ(TreeshiftError):
    """An operation specific to one value of q was called with another."""


class TruncationLoss(TreeshiftError):
    """Applying the operator would push mass beyond the truncation depth."""


class OutsideDisc(TreeshiftError):
    """A kernel evaluation point lies outside the open unit disc."""


class NotEquivalentError(TreeshiftError):
    """A unitary was requested for a pair of shifts that are not equivalent."""

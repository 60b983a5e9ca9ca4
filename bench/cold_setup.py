"""Time one benchmark set-up in a fresh interpreter.

Usage: ``python3 bench/cold_setup.py <workload> <seed> <directory>``.

Runs ``run.setup_once``: import treeshift (and with it numpy), generate
the seeded inputs, write them as JSON and load each once.  Interpreter
start-up and the benchmark's own modules are not timed.  Prints the raw
seconds and the speed factor of ``run.gauge`` runs made just before and
after the set-up, in this interpreter.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402

if "numpy" in sys.modules or "treeshift" in sys.modules:
    sys.exit("cold_setup: numpy or treeshift was imported before the timed set-up")
gauges = [run.gauge() for _ in range(10)]
start = perf_counter()
run.setup_once(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
seconds = perf_counter() - start
gauges += [run.gauge() for _ in range(10)]
print(seconds, run.speed_factor(gauges))

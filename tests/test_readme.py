"""The python code blocks of README.md run as written, so the sketch keeps up with the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        first_line = text.count("\n", 0, block.start(1)) + 1
        exec(compile(block.group(1), f"{README.name}:{first_line}", "exec"), {})

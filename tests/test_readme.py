"""The README's Python examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_blocks() -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    """Every ``python`` block runs, in order, in one namespace, without a warning."""
    blocks = python_blocks()
    assert blocks
    namespace = {"__name__": "readme"}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)

"""The README's Python examples and ``anc-sim`` command lines run as written."""

import os
import re
import shlex

from ancsim.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def blocks(language: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    """Every ``python`` block runs, in order, in one namespace, without a warning."""
    python = blocks("python")
    assert python
    namespace = {"__name__": "readme"}
    for index, block in enumerate(python):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every ``anc-sim`` line of the ``sh`` blocks exits 0, in order, in one
    directory that holds an empty ``experiment.cfg``."""
    commands = [shlex.split(line)[1:] for block in blocks("sh") for line in block.splitlines()
                if line.startswith("anc-sim ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.cfg").write_text("")
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)

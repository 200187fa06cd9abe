"""The README's examples run as written: the library block, and every
``qlax`` line of the command-line examples from the repository root."""

import re
import shlex
from pathlib import Path

from qlax.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(language: str, after: str = "") -> list:
    """The bodies of the ``language`` blocks that follow the text ``after``."""
    return re.findall(rf"{re.escape(after)}\s*```{language}\n(.*?)```", README, re.S)


def test_library_example_runs():
    (block,) = fenced("python")
    exec(compile(block, "README.md", "exec"), {})


def test_command_line_examples_exit_0(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("QLAX_FORMAT", raising=False)
    (block,) = fenced("sh", "Examples:")
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("qlax ")]
    assert len(lines) == 5 and ["qlax", "commutator", "d", "u"] in lines
    for argv in lines:
        assert argv[0] == "qlax"
        assert main(argv[1:]) == 0, shlex.join(argv)
        out = capsys.readouterr().out
        if argv[1:] == ["commutator", "d", "u"]:
            assert out == "[d, u] = u_1\n"

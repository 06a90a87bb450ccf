"""The README's examples run and print what it shows."""

import re
from pathlib import Path

from plantrec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True"
    assert lines[-1].startswith("BoundReport(name='norm_deviation'")


def test_constants_example_prints_what_readme_shows(capsys):
    shown = re.search(
        r"^plantrec constants --p 0\.75 --q 0\.25\n((?:# .*\n)+)", README.read_text(), re.M
    ).group(1)
    assert main(["constants", "--p", "0.75", "--q", "0.25"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line.removeprefix("# ") for line in shown.splitlines()]
    assert len(printed) == 4

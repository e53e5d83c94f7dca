"""The README's library example runs, and the names it lists are public."""

import re
from pathlib import Path

import bayesfuse

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_provided_names_are_exported():
    section = README.split("What it provides:", 1)[1].split("\n## ", 1)[0]
    names = [text for text in re.findall(r"`([^`]+)`", section) if text.isidentifier()]
    assert len(names) >= 10
    assert sorted(set(names) - set(bayesfuse.__all__)) == []

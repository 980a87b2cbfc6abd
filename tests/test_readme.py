"""The README's Python API example runs as written, and its benchmark
command names every flag the benchmark requires."""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 2


def required_flags(path):
    """The flags of every ``add_argument(..., required=True)`` call in a script."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        and any(k.arg == "required" and getattr(k.value, "value", None) is True
                for k in node.keywords)
    }


def test_readme_benchmark_commands_name_every_required_flag():
    flags = required_flags(ROOT / "perfbench" / "run.py")
    assert flags  # the parse found them
    commands = [line for line in README.read_text(encoding="utf-8").splitlines()
                if "perfbench/run.py" in line]
    assert commands
    for line in commands:
        assert flags <= set(line.split("#")[0].split()), line

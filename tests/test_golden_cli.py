"""Every CLI subcommand keeps its recorded outputs to the byte.

The cases, and what each printed, warned, exited with and wrote, are in
``golden_cli.json``; ``golden_cli.py`` defines and runs them.  A mismatch
names the case and the output that changed.
"""
from __future__ import annotations

import json

import pytest

from golden_cli import GOLDEN, run_case, versions

_RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _facts(record: dict, names) -> str:
    """The ``versions()`` facts named by ``names`` as ``record`` holds them."""
    return ", ".join(f"{name} {record.get(name, 'unrecorded')}" for name in names)


@pytest.mark.parametrize("case", _RECORDED["cases"], ids=lambda case: case["name"])
def test_cli_outputs_match_the_golden_record(case, tmp_path):
    now = versions()
    context = f"recorded under {_facts(_RECORDED, now)}; running under {_facts(now, now)}"
    got = run_case(case, tmp_path)
    for key in ("exit", "stdout", "stderr", "warnings"):
        assert got[key] == case[key], f"case {case['name']}: {key} differs ({context})"
    assert sorted(got["files"]) == sorted(case["files"]), (
        f"case {case['name']}: wrote {sorted(got['files'])}, "
        f"recorded {sorted(case['files'])}"
    )
    for name, digest in case["files"].items():
        assert got["files"][name] == digest, (
            f"case {case['name']}: out/{name} differs from its recorded sha256 ({context})"
        )

"""The benchmark's own smoke test, run as part of the test suite.

``perfbench`` wraps ``propagate`` and the kernel's ``rk4_run``; a change that
breaks what it relies on should fail here, not only when the benchmark runs.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    # -B: no bytecode under perfbench/; its scratch output goes to the
    # git-ignored perfbench/_out/.
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: all checks passed" in proc.stdout.splitlines()

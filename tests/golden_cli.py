"""Golden outputs of the command-line interface: the cases and their runner.

Every case runs ``esst.cli.main`` in-process in a fresh directory holding
the case's ``run.ini`` and records the exit code, stdout, stderr, the
distinct warnings raised and the sha256 of every file the run leaves in
``out/``.  ``test_golden_cli.py`` runs the recorded cases again and
compares.  The cases cover every
subcommand under both carrier-phase conventions and both targets, on a
tau0 = 1.5 ns design whose runs have several 4096-step chunks, so the
worker pool is on the path, plus one coarse grid (exit 2) and two guard
trips (exit 3).

Regenerate with

    PYTHONPATH=src python tests/golden_cli.py

only when an output is meant to change; the bytes depend on the Python,
numpy and libm they were made with and on the SIMD code numpy and its
OpenBLAS pick at run time, which the file records.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

_BASE = "[molecule]\npreset = cyclohexylmethanol\n"

# Two or three points per sweep axis; delays and detunings around the
# design point, phases through the stage-1 lattice values.
_SWEEP = """
[sweep]
phase_min_rad = 0.0
phase_max_rad = 4.71238898038469
phase_count = 3
tau_min_ns = 1.25
tau_max_ns = 1.75
tau_count = 2
delay1_min_ns = 9.0
delay1_max_ns = 12.0
delay1_count = 2
delay2_min_ns = 12.0
delay2_max_ns = 15.0
delay2_count = 2
delta_tau_products = 0.5, 1.0
scale_min = 1.0
scale_max = 1.6487212707001282
scale_count = 2
"""


def _design(target: str) -> str:
    return f"\n[design]\ntarget = {target}\ntau0_ns = 1.5\nk = 0\nkprime = 0\nl = 0\n"


def cases() -> list[dict]:
    """Every golden case: a name, its ``run.ini`` text and its argv."""
    out = [{"name": "presets", "config": "", "argv": ["presets"]}]
    for target in ("C", "B"):
        config = _BASE + _design(target) + _SWEEP
        for convention in ("envelope", "absolute"):
            common = ["--config", "run.ini", "--out", "out", "--convention", convention]
            runs = {
                "design": ["design"],
                "areas": ["areas"],
                "propagate-3": ["propagate", "--levels", "3"],
                "trace-4": ["trace", "--levels", "4"],
                "propagate-4-right": ["propagate", "--levels", "4", "--hand", "right"],
                "sweep-phase-3": ["sweep-phase", "--levels", "3"],
                "sweep-delay-4": ["sweep-delay", "--levels", "4"],
                "sweep-detuning-exact-3": ["sweep-detuning", "--levels", "3", "--engine", "exact"],
                "sweep-detuning-analytic": ["sweep-detuning", "--engine", "analytic"],
            }
            for label, argv in runs.items():
                out.append({
                    "name": f"{label}-{target}-{convention}",
                    "config": config,
                    "argv": argv + common,
                })
        out.append({
            "name": f"sweep-detuning-analytic-scale_ac-{target}",
            "config": config.replace("scale_count = 2\n", "scale_count = 3\nmode = scale_ac\n"),
            "argv": ["sweep-detuning", "--config", "run.ini", "--out", "out"],
        })
    design = _BASE + _design("C")
    guards = {
        # 0.05 ns is below the 40 steps-per-period floor: exit 2, no CSV.
        "coarse-grid": design + "\n[grid]\ndt_ns = 0.05\n",
        # An a-pulse area of 1e300 overflows the RK4 stages: exit 3.
        "overflow": design + "\n[pulse.a]\narea_param = 1e300\n",
        # No RK4 run holds its norm to 1e-18: exit 3.
        "drift": design + "\n[grid]\ndrift_tol = 1e-18\n",
    }
    for name, config in guards.items():
        out.append({
            "name": name,
            "config": config,
            "argv": ["propagate", "--config", "run.ini", "--out", "out",
                     "--levels", "3", "--hand", "left"],
        })
    return out


def run_case(case: dict, workdir: Path) -> dict:
    """Run one case in ``workdir``; what it printed, warned and wrote."""
    from esst.cli import main

    (workdir / "run.ini").write_text(case["config"], encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        # Warnings are kept apart from stderr, where they would carry
        # source paths, and each is caught whatever was warned before.
        # Only the distinct ones are kept: each worker range relays its
        # own, so their count follows the CPUs the process may use.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(case["argv"])
    finally:
        os.chdir(here)
    out = workdir / "out"
    files = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
        "files": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in files
        },
    }


def versions() -> dict:
    """What the recorded bytes depend on: Python, numpy, numpy's enabled
    SIMD dispatch targets and the OpenBLAS core that numpy's BLAS picked."""
    import numpy
    from numpy._core import _multiarray_umath as umath

    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):  # not numpy's bundled OpenBLAS
        core = "unknown"
    else:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        "openblas_core": core,
    }


def generate() -> dict:
    recorded = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(cases()):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            recorded.append({**case, **run_case(case, workdir)})
    return {**versions(), "cases": recorded}


if __name__ == "__main__":
    data = generate()
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(data['cases'])} cases to {GOLDEN}", file=sys.stderr)

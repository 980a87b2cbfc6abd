"""Run one esst benchmark workload and print its metrics.

Usage, from the root of a checkout (no build step; esst is imported from
``src/``):

    python3 perfbench/run.py --workload {trace,sweep,design} --seed N \\
        --seconds S --trace {0,1} [--smoke]

With ``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median of
several fresh processes, spawn to ready), and from one more fresh process
that runs the workload for ``--seconds``: ``wall_s`` and ``cpu_s`` (medians
per pass), ``peak_rss_mb`` and ``pass_frac``.  With ``--trace 1`` it prints
the per-layer metrics of a traced run instead.  Every output is checked
against the pinned references; ``correct`` is false if any operation
failed.  The last line of stdout is the result as one JSON object; the line
before it records the machine.  ``--smoke`` runs tiny grids for the
benchmark's own tests (smoke.py).

This file imports nothing from esst: all esst work happens in the child
processes it starts (worker.py), each of which it waits for.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "_out")

WORKLOADS = ("trace", "sweep", "design")

#: Fresh processes timed for setup_s, after one untimed warm-up process.
SETUP_PROBES = 5
#: Everything must be over well within the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def _worker(argv, deadline: float) -> str:
    """Run worker.py to completion and return its stdout."""
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv], stdout=subprocess.PIPE, text=True,
        env=_env(), cwd=ROOT,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with {proc.returncode}")
    return stdout


def _time_setup(argv, deadline: float) -> float:
    """Seconds from spawning a fresh setup process until it reports ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "setup", *argv], stdout=subprocess.PIPE, text=True,
        env=_env(), cwd=ROOT,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup process exited with {proc.returncode}")
    return elapsed


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    if args.smoke:
        common.append("--smoke")
    try:
        setups = []
        if not args.trace:
            # The untimed warm-up process fills the page cache and writes
            # bytecode, as any earlier esst call on the machine would have.
            warmup, probes = (0, 1) if args.smoke else (1, SETUP_PROBES)
            setups = [_time_setup(common, deadline) for _ in range(warmup + probes)][warmup:]
        stdout = _worker(
            ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run = json.loads(stdout.strip().splitlines()[-1])
    run["setups"] = setups
    return run


def result_line(run: dict, traced: bool) -> dict:
    if traced:
        metrics = run["layers"]
    else:
        values = {
            "setup_s": statistics.median(run["setups"]),
            "wall_s": statistics.median(run["walls"]),
            "cpu_s": statistics.median(run["cpus"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "pass_frac": (run["attempted"] - run["failed"]) / run["attempted"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, one pass")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "esst", "__init__.py")):
        print(f"perfbench: no esst package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        run = measure(args)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in run["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    samples = {key: run.get(key) for key in ("setups", "walls", "cpus", "traced_walls")}
    print("perfbench: samples " + json.dumps(samples), file=sys.stderr)
    if "spans_path" in run:
        print(f"perfbench: spans written to {run['spans_path']}", file=sys.stderr)
    print("# machine: " + json.dumps(run["facts"], sort_keys=True))
    print(json.dumps(result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

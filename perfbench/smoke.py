"""Smoke test of the benchmark itself (about a minute).

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload on tiny grids through run.py, untraced and traced,
and requires every metric named in BENCHMARK.json, with its unit.  In this
process it then requires that the correctness gate fires on a perturbed
reference, that a forced NumericalGuardError counts as failed operations
rather than a crash, and that run.py refuses to run without the esst
sources.  It exits non-zero on the first failed check.
"""
from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import esst  # noqa: E402
import esst.cli  # noqa: E402
import esst.experiments  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def run_benchmark(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def check_metrics_printed(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} not correct: {proc.stderr}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label} metrics {got} != BENCHMARK.json {want}")
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{label} has a non-finite metric")
            print(f"smoke: {label}: {len(got)} metrics, correct", flush=True)


def check_gate_fires(workdir: str) -> None:
    references = workloads.load_references()
    # (workload, path to one pinned value, perturbation): 1e-9 against the
    # 1e-12 gate of propagated outputs, 1e-8 against the 1e-9 closed-form one.
    cases = (
        ("trace", ("trace", "left", 3, 1), 1e-9),
        ("sweep", ("sweep", "grid", "left", 0, 0), 1e-9),
        ("design", ("design", "grid", "left", 0, 0), 1e-8),
    )
    for name, path, delta in cases:
        perturbed = copy.deepcopy(references)
        holder = perturbed
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] += delta
        workload = workloads.make(name, 1, True, workdir, perturbed)
        result = workload.check(workload.execute())
        expect(result.failed >= 1, f"{name}: gate did not fire on a {delta:g} perturbation")
        print(f"smoke: {name}: gate fires on a {delta:g} perturbation", flush=True)


def check_guard_is_a_failure(workdir: str) -> None:
    def tripped(*args, **kwargs):
        raise esst.NumericalGuardError("forced by the smoke test")

    references = workloads.load_references()
    for name, module in (("trace", esst.cli), ("sweep", esst.experiments)):
        workload = workloads.make(name, 1, True, workdir, references)
        original = module.propagate
        module.propagate = tripped
        try:
            output = workload.execute()
        finally:
            module.propagate = original
        result = workload.check(output)
        expect(result.attempted > 0 and result.failed == result.attempted,
               f"{name}: forced guard gave {result.failed}/{result.attempted} failed")
        print(f"smoke: {name}: forced NumericalGuardError counted as "
              f"{result.failed}/{result.attempted} failed", flush=True)


def check_refuses_without_sources(workdir: str) -> None:
    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py without sources exited {proc.returncode} with {proc.stdout!r}")
    print("smoke: run.py refuses to run without the esst sources", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_metrics_printed(bench)
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "_out")) as workdir:
        check_gate_fires(workdir)
        check_guard_is_a_failure(workdir)
        check_refuses_without_sources(workdir)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

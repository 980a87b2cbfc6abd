"""One fresh benchmark process: ``setup`` or ``run`` a workload.

``setup`` builds the workload (import esst, load its config, build the first
design), prints ``ready`` and exits; run.py times it from spawn to ``ready``.

``run`` builds the workload and then makes closed-loop passes, one client,
the next pass starting when the previous one has finished, until
``--seconds`` have passed.  It times each pass (wall and process CPU), checks
its outputs outside the timed region, and prints one JSON line with the
samples, the failure counts, the process's peak RSS and the machine facts.
With ``--trace 1`` it alternates untraced and traced passes; the traced ones
give the per-layer metrics and the difference gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import sys
import time

import numpy

import esst
import spans
import workloads

#: Where a traced run leaves its spans (ignored by git).
SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")


def machine_facts() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": esst.resolve_backend(),
        "ESST_THREADS": os.environ.get("ESST_THREADS", "unset"),
    }


def run(args) -> dict:
    references = workloads.load_references()
    workload = workloads.make(args.workload, args.seed, args.smoke, args.workdir, references)
    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}
    cpus = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            output = workload.execute()
        finally:
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.remove()
        result = workload.check(output)
        walls[traced].append(wall1 - wall0)
        if not traced:
            cpus.append(cpu1 - cpu0)
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        index += 1
        if time.perf_counter() - start >= args.seconds and index >= (2 if tracer else 1):
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "walls": walls[False],
        "cpus": cpus,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "facts": machine_facts(),
    }
    if tracer is not None:
        out["traced_walls"] = walls[True]
        layers = spans.layer_metrics(tracer, walls[True], walls[False])
        out["layers"] = {
            name: {"value": value, "unit": spans.PER_LAYER_UNITS[name]}
            for name, value in layers.items()
        }
        path = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, **out["facts"]})
        out["spans_path"] = path
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        workloads.make(args.workload, args.seed, args.smoke, args.workdir, {})
        print("ready", flush=True)
        return 0
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate references.json: this commit's outputs at the default seed.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/make_references.py

Only run this when the pinned outputs are meant to change; the benchmark's
correctness gate compares every later commit with what is stored.
"""
from __future__ import annotations

import json
import shutil
import tempfile

import workloads

HANDS = workloads.HANDS


def _grid(output) -> dict:
    result = output[0]
    if isinstance(result, Exception):
        raise SystemExit(f"cannot pin references: {result!r}")
    return {hand.value: result.populations[hand].tolist() for hand in HANDS}


def main() -> None:
    seed = workloads.DEFAULT_SEED
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as workdir:
        trace = workloads.make("trace", seed, False, workdir, {})
        code, _, trajectories, outdir = trace.execute()
        shutil.rmtree(outdir)
        if code != 0:
            raise SystemExit(f"esst trace exited with {code}")
        sweep = workloads.make("sweep", seed, False, workdir, {})
        design = workloads.make("design", seed, False, workdir, {})
        references = {
            "trace": {
                traj.hand.value: [[float(z.real), float(z.imag)] for z in traj.final_state]
                for traj in trajectories
            },
            "sweep": {
                "phases": sweep.phases.tolist(),
                "taus": sweep.taus.tolist(),
                "grid": _grid(sweep.execute()),
            },
            "design": {
                "deltas": design.deltas.tolist(),
                "scales": design.scales.tolist(),
                "grid": _grid(design.execute()),
            },
        }
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

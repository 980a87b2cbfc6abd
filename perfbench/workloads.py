"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload is built in two steps.  Constructing it is the set-up a user
pays on every call (``import esst``, loading the run config and building the
first design), which ``setup_s`` measures in fresh processes.  ``execute``
is one timed pass through esst's public API, and ``check`` compares what the
pass produced with the pinned references and the physics invariants.  It
runs outside the timed region.

An operation is one trajectory (``trace``, ``sweep``) or one design point
(``design``).  It fails on a numerical-guard error, a non-zero CLI exit, a
mismatch with its reference or a broken invariant.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

import esst
import esst.cli
import esst.experiments

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCES_PATH = os.path.join(HERE, "references.json")

#: The seed whose full output grids are pinned in references.json.
DEFAULT_SEED = 0

#: Propagated outputs must reproduce the reference to this (ROADMAP aim 1).
PROPAGATED_TOL = 1e-12
#: Closed-form outputs: the area quadrature converges to rtol = 1e-10 on
#: areas of modulus up to about pi, so P_target may move by a few 1e-10.
CLOSED_FORM_TOL = 1e-9
#: Populations must sum to 1 and the norm must not drift beyond this.
INVARIANT_TOL = 1e-8

HANDS = esst.experiments.BOTH_HANDS
GUARD_ERRORS = (esst.NumericalGuardError, esst.GridTooCoarseError)


@dataclass
class PassResult:
    """Operations attempted and failed in one pass, with the reasons."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def capture(module, attr):
    """Record every return value of ``module.attr`` while the block runs.

    Costs one list append per call; the values are checked after the pass.
    """
    original = getattr(module, attr)
    seen = []

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    setattr(module, attr, recorder)
    try:
        yield seen
    finally:
        setattr(module, attr, original)


def _trajectory_problems(traj) -> list[str]:
    total = float(np.sum(np.abs(traj.final_state) ** 2))
    drift = esst.norm_drift(traj)
    problems = []
    if not abs(total - 1.0) <= INVARIANT_TOL:
        problems.append(f"{traj.hand.value}: populations sum to {total!r}")
    if not drift <= INVARIANT_TOL:
        problems.append(f"{traj.hand.value}: norm drift {drift!r}")
    return problems


def _grid_mismatches(grids, reference, tol, designed_only):
    """Which entries of ``grids`` are off ``reference`` by more than tol.

    Returns a boolean array (hand, i, j), true where an entry fails, and a
    description of each failure.  With ``designed_only`` only the designed
    point [0, 0] has a reference.
    """
    got = np.array([grids[hand] for hand in HANDS], dtype=float)
    want = np.array([reference[hand.value] for hand in HANDS], dtype=float)
    if designed_only:
        want = want[:, :1, :1]
    if got.ndim != 3 or got.shape[1] < want.shape[1] or got.shape[2] < want.shape[2]:
        return np.ones(got.shape, dtype=bool), [f"grid shape {got.shape} != {want.shape}"]
    bad = np.zeros(got.shape, dtype=bool)
    rows, cols = want.shape[1], want.shape[2]
    bad[:, :rows, :cols] = ~(np.abs(got[:, :rows, :cols] - want) <= tol)
    problems = [
        f"{HANDS[h].value}[{i},{j}]: {got[h, i, j]!r} vs reference {want[h, i, j]!r}"
        for h, i, j in zip(*np.nonzero(bad))
    ]
    return bad, problems


class Trace:
    """``esst trace`` on the default config: cyclohexylmethanol, target C,
    tau0 = 35 ns, 4 levels, both hands, CSVs to a scratch directory.

    The headline user command: two trajectories of 506,112 steps in which
    the RK4 kernel does nearly all the work.  Its input is the pinned
    default config, so the seed changes nothing here.
    """

    name = "trace"
    config = os.path.join(CONFIG_DIR, "trace.ini")

    def __init__(self, seed: int, smoke: bool, workdir: str, reference: dict | None):
        self.workdir = workdir
        self.reference = reference and {
            hand: np.array([complex(re, im) for re, im in reference[hand.value]])
            for hand in HANDS
        }
        spec = esst.load_config(self.config)
        esst.designed_pulses(spec.molecule, spec.design)

    def execute(self):
        outdir = tempfile.mkdtemp(dir=self.workdir)
        stdout = io.StringIO()
        with capture(esst.cli, "propagate") as trajectories, contextlib.redirect_stdout(stdout):
            code = esst.cli.main(["trace", "--config", self.config, "--out", outdir])
        return code, stdout.getvalue(), trajectories, outdir

    def check(self, output) -> PassResult:
        code, stdout, trajectories, outdir = output
        result = PassResult(attempted=len(HANDS))
        try:
            if code != 0:
                result.fail(len(HANDS), f"esst trace exited with {code}")
                return result
            rows = {}
            for line in stdout.splitlines()[1:]:
                hand, _, values = line.partition(",")
                try:
                    rows[hand] = [float(v) for v in values.split(",")]
                except ValueError:
                    pass  # a malformed row fails its hand below
            by_hand = {traj.hand: traj for traj in trajectories}
            for hand in HANDS:
                problems = self._hand_problems(hand, by_hand.get(hand), rows.get(hand.value), outdir)
                if problems:
                    result.fail(1, "; ".join(problems))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return result

    def _hand_problems(self, hand, traj, row, outdir) -> list[str]:
        if traj is None:
            return [f"{hand.value}: no trajectory"]
        want = self.reference[hand]
        problems = _trajectory_problems(traj)
        if traj.final_state.shape != want.shape or not np.all(
            np.abs(traj.final_state - want) <= PROPAGATED_TOL
        ):
            problems.append(f"{hand.value}: final state {traj.final_state!r} off reference")
        pops = dict(zip(traj.basis.labels, np.abs(want) ** 2))
        expected = [pops["A"], pops.get("Bp", 0.0), pops["B"], pops["C"]]
        if row is None or len(row) != 5 or not np.all(
            np.abs(np.array(row[:4]) - expected) <= PROPAGATED_TOL
        ):
            problems.append(f"{hand.value}: printed populations {row!r} off reference")
        csv_path = os.path.join(outdir, f"trace_{hand.value}.csv")
        if not os.path.isfile(csv_path) or os.path.getsize(csv_path) == 0:
            problems.append(f"{hand.value}: {csv_path} missing")
        return problems


class Sweep:
    """``sweep_phase_duration`` at 3 levels, both hands, on a 4 x 3 grid of
    stage-1 phase x tau0 with tau0 of 1.5-3 ns.

    Many short trajectories of different lengths, so per-call overhead,
    chunk tails, the thread pool and the 3x3 kernel shape dominate.  Point
    [0, 0] is the designed point (design phase, tau0 = 3 ns) at every seed;
    the seed draws the other phases anywhere in [0, 2 pi) and jitters the
    other durations by at most 0.01 ns, so the work per pass barely moves.
    """

    name = "sweep"
    config = os.path.join(CONFIG_DIR, "sweep.ini")
    levels = 3
    tau_bases = (1.5, 2.25)

    def __init__(self, seed: int, smoke: bool, workdir: str, reference: dict | None):
        spec = esst.load_config(self.config)
        self.molecule, self.spec = spec.molecule, spec.design
        designed_phase = esst.design_phases(self.spec)[self.spec.stage1_channel]
        rng = np.random.default_rng(seed)
        n_phases, tau_bases = (2, ()) if smoke else (4, self.tau_bases)
        self.phases = np.concatenate(
            [[designed_phase], rng.uniform(0.0, 2.0 * math.pi, n_phases - 1)]
        )
        self.taus = np.array(
            [self.spec.tau0] + [b + rng.uniform(-0.01, 0.01) for b in tau_bases]
        )
        full = seed == DEFAULT_SEED and not smoke
        if reference and full and (self.phases.tolist(), self.taus.tolist()) != (
            reference["phases"], reference["taus"]
        ):
            raise RuntimeError("seed-0 sweep inputs differ from references.json")
        self.reference, self.designed_only = reference, not full
        esst.designed_pulses(self.molecule, self.spec)

    @property
    def operations(self) -> int:
        return self.phases.size * self.taus.size * len(HANDS)

    def execute(self):
        with capture(esst.experiments, "propagate") as trajectories:
            try:
                result = esst.experiments.sweep_phase_duration(
                    self.molecule, self.spec, self.phases, self.taus, levels=self.levels
                )
            except GUARD_ERRORS as exc:
                result = exc
        return result, trajectories

    def check(self, output) -> PassResult:
        result, trajectories = output
        out = PassResult(attempted=self.operations)
        if isinstance(result, Exception):
            out.fail(self.operations, f"sweep raised {result!r}")
            return out
        bad, problems = _grid_mismatches(
            result.populations, self.reference["grid"], PROPAGATED_TOL, self.designed_only
        )
        if problems:
            out.fail(int(bad.sum()), "; ".join(problems))
        for traj in trajectories:
            problems = _trajectory_problems(traj)
            if problems:
                out.fail(1, "; ".join(problems))
        return out


class Design:
    """``sweep_detuning(engine="analytic")`` for target B on a 7 x 7 grid of
    detuning x amplitude scale around acceptance criterion 8's point.

    Closed form only (area quadrature and the two-stage states), no RK4, so
    a kernel change should not move it.  Point [0, 0] is criterion 8's
    compensation point, delta = 1/tau0 and scale = exp(1/2), at every seed;
    the seed draws the other detunings in [0.5, 1.5]/tau0 and the other
    scales in [1, 1.8].
    """

    name = "design"
    config = os.path.join(CONFIG_DIR, "design.ini")

    def __init__(self, seed: int, smoke: bool, workdir: str, reference: dict | None):
        spec = esst.load_config(self.config)
        self.molecule, self.spec = spec.molecule, spec.design
        rng = np.random.default_rng(seed)
        n = 2 if smoke else 7
        tau0 = self.spec.tau0
        self.deltas = np.concatenate([[1.0 / tau0], rng.uniform(0.5, 1.5, n - 1) / tau0])
        self.scales = np.concatenate([[math.exp(0.5)], rng.uniform(1.0, 1.8, n - 1)])
        full = seed == DEFAULT_SEED and not smoke
        if reference and full and (self.deltas.tolist(), self.scales.tolist()) != (
            reference["deltas"], reference["scales"]
        ):
            raise RuntimeError("seed-0 design inputs differ from references.json")
        self.reference, self.designed_only = reference, not full
        esst.designed_pulses(
            self.molecule, self.spec,
            detunings={"b": float(self.deltas[0])}, scales={"b": float(self.scales[0])},
        )

    @property
    def operations(self) -> int:
        return self.deltas.size * self.scales.size

    def execute(self):
        with capture(esst.experiments, "analytic_final_populations") as populations:
            try:
                result = esst.experiments.sweep_detuning(
                    self.molecule, self.spec, self.deltas, self.scales, engine="analytic"
                )
            except GUARD_ERRORS as exc:
                result = exc
        return result, populations

    def check(self, output) -> PassResult:
        result, populations = output
        out = PassResult(attempted=self.operations)
        if isinstance(result, Exception):
            out.fail(self.operations, f"sweep raised {result!r}")
            return out
        bad, problems = _grid_mismatches(
            result.populations, self.reference["grid"], CLOSED_FORM_TOL, self.designed_only
        )
        if problems:
            # A design point is one operation, whichever of its hands is off.
            out.fail(int(bad.any(axis=0).sum()), "; ".join(problems))
        for pops in populations:
            totals = {hand.value: float(np.sum(p)) for hand, p in pops.items()}
            if not all(abs(t - 1.0) <= INVARIANT_TOL for t in totals.values()):
                out.fail(1, f"closed-form populations sum to {totals!r}")
        return out


WORKLOADS = {cls.name: cls for cls in (Trace, Sweep, Design)}


def make(name: str, seed: int, smoke: bool, workdir: str, references: dict):
    """Build a workload: this is the set-up that ``setup_s`` times.

    With ``references`` empty the workload runs unchecked, which is how
    make_references.py produces the pinned outputs.
    """
    return WORKLOADS[name](seed, smoke, workdir, references.get(name))

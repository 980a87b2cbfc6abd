"""Canonical numerical experiments: traces, landscapes and detuning curves.

Every driver here rebuilds its pulse sequence from the design parameters at
each grid point (amplitudes are re-laid-out when the duration changes, phase
parameters are realized under the configured carrier-phase convention), runs
both enantiomers, and reports the target-state population.  Results carry
enough metadata to be serialized to self-describing CSV files; an optional
config snapshot is embedded in the header as comment lines so a result file
can be traced back to the exact run that produced it.

Work is distributed over a thread pool (the jitted kernel releases the GIL);
``ESST_THREADS`` caps the worker count.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytic import analytic_final_populations
from .areas import DesignSpec, designed_pulses, realize_phase
from .config import ConfigError
from .model import Handedness, MoleculeSpec
from .propagator import Trajectory, default_grid, populations, propagate

BOTH_HANDS = (Handedness.LEFT, Handedness.RIGHT)

#: Environment variable capping the sweep worker count.
THREADS_ENV = "ESST_THREADS"

DETUNING_MODES = {"scale_b": ("b",), "scale_ac": ("a", "c")}


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0  # reported below with the other non-positive counts
        if workers < 1:
            raise ConfigError(
                "environment", THREADS_ENV,
                f"must be a positive integer, got {env!r}",
            )
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_jobs))


def _run_parallel(fn, items):
    items = list(items)
    workers = _worker_count(len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _default_levels(molecule: MoleculeSpec, levels: int | None) -> int:
    if levels is not None:
        return levels
    return 4 if molecule.spectator is not None else 3


def _final_target_population(traj: Trajectory, target: str) -> float:
    idx = traj.basis.index(target)
    return float(np.abs(traj.final_state[idx]) ** 2)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def trace_populations(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    *,
    levels: int | None = None,
    backend: str | None = None,
    grid=None,
) -> dict[Handedness, Trajectory]:
    """Propagate the designed sequence for both enantiomers."""
    levels = _default_levels(molecule, levels)
    pulses = designed_pulses(molecule, spec)
    if grid is None:
        grid = default_grid(molecule, pulses, levels)

    def job(hand: Handedness) -> Trajectory:
        return propagate(
            molecule, pulses, hand, levels=levels, grid=grid, backend=backend
        )

    results = _run_parallel(job, BOTH_HANDS)
    return dict(zip(BOTH_HANDS, results))


@dataclass(frozen=True)
class SweepResult:
    """Target population on a 2D parameter grid, per enantiomer."""

    axis1_name: str
    axis2_name: str
    axis1_values: np.ndarray
    axis2_values: np.ndarray
    target: str
    populations: dict[Handedness, np.ndarray]


def sweep_phase_duration(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    phase_values,
    tau_values,
    *,
    levels: int | None = None,
    backend: str | None = None,
) -> SweepResult:
    """Landscape of P_target over the stage-1 phase and the pulse duration.

    At each (phi, tau0) point the whole sequence is re-designed for that
    duration (amplitudes and stage centers track tau0), then the stage-1
    channel's design phase is set to phi.  The designed transfer shows up as
    stripes at the constructive phase-lattice points, independent of tau0.
    """
    levels = _default_levels(molecule, levels)
    phase_values = np.asarray(phase_values, dtype=float)
    tau_values = np.asarray(tau_values, dtype=float)
    channel = spec.stage1_channel
    _, transition = molecule.channel_transition(channel)

    jobs = [
        (i, j, hand)
        for i in range(phase_values.size)
        for j in range(tau_values.size)
        for hand in BOTH_HANDS
    ]

    def job(point):
        i, j, hand = point
        spec_pt = replace(spec, tau0=float(tau_values[j]))
        pulses = designed_pulses(molecule, spec_pt)
        p1 = pulses[channel]
        pulses[channel] = replace(
            p1,
            phase=realize_phase(
                float(phase_values[i]),
                transition,
                p1.carrier,
                p1.center_time,
                p1.convention,
            ),
        )
        traj = propagate(
            molecule, pulses, hand,
            levels=levels,
            grid=default_grid(molecule, pulses, levels),
            backend=backend,
        )
        return _final_target_population(traj, spec.target)

    values = _run_parallel(job, jobs)
    grids = {
        hand: np.zeros((phase_values.size, tau_values.size)) for hand in BOTH_HANDS
    }
    for (i, j, hand), value in zip(jobs, values):
        grids[hand][i, j] = value
    return SweepResult(
        axis1_name=f"phi_{channel}_rad",
        axis2_name="tau0_ns",
        axis1_values=phase_values,
        axis2_values=tau_values,
        target=spec.target,
        populations=grids,
    )


def sweep_delays(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    delay1_values,
    delay2_values,
    *,
    levels: int | None = None,
    backend: str | None = None,
) -> SweepResult:
    """Landscape of P_target over the two stage-2 pulse delays.

    Delays are the stage-2 envelope centers relative to the stage-1 center.
    The pulses' phase *parameters* are held at their design-point values
    while the centers move, so the landscape's structure depends on the
    carrier-phase convention: absolute-phase pulses keep their effective
    phases (a plateau once the stages separate), envelope-referenced pulses
    accumulate carrier phase with the delay and interfere accordingly.
    """
    levels = _default_levels(molecule, levels)
    delay1_values = np.asarray(delay1_values, dtype=float)
    delay2_values = np.asarray(delay2_values, dtype=float)
    base = designed_pulses(molecule, spec)
    ch1, ch2 = spec.stage2_channels

    jobs = [
        (i, j, hand)
        for i in range(delay1_values.size)
        for j in range(delay2_values.size)
        for hand in BOTH_HANDS
    ]

    def job(point):
        i, j, hand = point
        pulses = dict(base)
        pulses[ch1] = replace(
            pulses[ch1],
            center_time=spec.stage1_center + float(delay1_values[i]),
        )
        pulses[ch2] = replace(
            pulses[ch2],
            center_time=spec.stage1_center + float(delay2_values[j]),
        )
        traj = propagate(
            molecule, pulses, hand,
            levels=levels,
            grid=default_grid(molecule, pulses, levels),
            backend=backend,
        )
        return _final_target_population(traj, spec.target)

    values = _run_parallel(job, jobs)
    grids = {
        hand: np.zeros((delay1_values.size, delay2_values.size))
        for hand in BOTH_HANDS
    }
    for (i, j, hand), value in zip(jobs, values):
        grids[hand][i, j] = value
    return SweepResult(
        axis1_name=f"delay_{ch1}_ns",
        axis2_name=f"delay_{ch2}_ns",
        axis1_values=delay1_values,
        axis2_values=delay2_values,
        target=spec.target,
        populations=grids,
    )


@dataclass(frozen=True)
class DetuningResult:
    """P_target versus carrier detuning and amplitude rescaling."""

    delta_values: np.ndarray
    scale_values: np.ndarray
    mode: str
    engine: str
    target: str
    populations: dict[Handedness, np.ndarray]


def sweep_detuning(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    delta_values,
    scale_values,
    *,
    mode: str = "scale_b",
    engine: str = "exact",
    levels: int | None = None,
    backend: str | None = None,
) -> DetuningResult:
    """Detune one channel group off resonance and rescale its amplitude.

    ``mode`` picks the affected channels ('scale_b' or 'scale_ac'); every
    (delta, scale) point detunes those carriers by delta (rad/ns) and
    multiplies their area parameters by scale.  ``engine`` selects the exact
    propagator or the closed-form area-theorem prediction.  The spectral
    roll-off exp(-(delta*tau0)^2/2) costs transfer at scale 1 and is undone
    at the compensation scale exp(+(delta*tau0)^2/2).
    """
    if mode not in DETUNING_MODES:
        raise ValueError(
            f"unknown mode {mode!r}; expected one of {sorted(DETUNING_MODES)}"
        )
    if engine not in ("exact", "analytic"):
        raise ValueError(f"unknown engine {engine!r}; expected exact or analytic")
    levels = _default_levels(molecule, levels)
    delta_values = np.asarray(delta_values, dtype=float)
    scale_values = np.asarray(scale_values, dtype=float)
    channels = DETUNING_MODES[mode]

    jobs = [
        (i, j) for i in range(delta_values.size) for j in range(scale_values.size)
    ]

    def job(point):
        i, j = point
        detunings = {ch: float(delta_values[i]) for ch in channels}
        scales = {ch: float(scale_values[j]) for ch in channels}
        pulses = designed_pulses(molecule, spec, detunings=detunings, scales=scales)
        if engine == "analytic":
            pops = analytic_final_populations(molecule, pulses, spec)
            idx = ("A", "B", "C").index(spec.target)
            return {hand: float(pops[hand][idx]) for hand in BOTH_HANDS}
        out = {}
        for hand in BOTH_HANDS:
            traj = propagate(
                molecule, pulses, hand,
                levels=levels,
                grid=default_grid(molecule, pulses, levels),
                backend=backend,
            )
            out[hand] = _final_target_population(traj, spec.target)
        return out

    values = _run_parallel(job, jobs)
    grids = {
        hand: np.zeros((delta_values.size, scale_values.size))
        for hand in BOTH_HANDS
    }
    for (i, j), value in zip(jobs, values):
        for hand in BOTH_HANDS:
            grids[hand][i, j] = value[hand]
    return DetuningResult(
        delta_values=delta_values,
        scale_values=scale_values,
        mode=mode,
        engine=engine,
        target=spec.target,
        populations=grids,
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def _snapshot_lines(snapshot: str | None) -> list[str]:
    if not snapshot:
        return []
    lines = ["# config:"]
    for line in snapshot.rstrip("\n").split("\n"):
        lines.append(f"# {line}" if line else "#")
    return lines


def read_snapshot(path) -> str:
    """Recover the config snapshot embedded in a result CSV, verbatim."""
    lines: list[str] = []
    in_snapshot = False
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line == "# config:":
                in_snapshot = True
                continue
            if not line.startswith("#"):
                break
            if in_snapshot:
                lines.append(line[2:] if line.startswith("# ") else "")
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace_csv(path, trajectory: Trajectory, snapshot: str | None = None) -> None:
    """Population trace rows: t_ns, hand, P_A, P_Bprime, P_B, P_C, norm_err."""
    pops = populations(trajectory)
    labels = trajectory.basis.labels
    col = {label: k for k, label in enumerate(labels)}
    hand = trajectory.hand.value
    with open(path, "w", encoding="utf-8") as fh:
        for line in _snapshot_lines(snapshot):
            fh.write(line + "\n")
        fh.write("t_ns,hand,P_A,P_Bprime,P_B,P_C,norm_err\n")
        for k in range(trajectory.times.size):
            p_bp = float(pops[k, col["Bp"]]) if "Bp" in col else 0.0
            fh.write(
                f"{float(trajectory.times[k])!r},{hand},"
                f"{float(pops[k, col['A']])!r},{p_bp!r},"
                f"{float(pops[k, col['B']])!r},{float(pops[k, col['C']])!r},"
                f"{float(trajectory.norm_errors[k])!r}\n"
            )


def write_landscape_csv(path, result: SweepResult, snapshot: str | None = None) -> None:
    """Long-format landscape rows: axis1, axis2, hand, P_target."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# axis1 = {result.axis1_name}\n")
        fh.write(f"# axis2 = {result.axis2_name}\n")
        fh.write(f"# target = {result.target}\n")
        for line in _snapshot_lines(snapshot):
            fh.write(line + "\n")
        fh.write("axis1,axis2,hand,P_target\n")
        for i, v1 in enumerate(result.axis1_values):
            for j, v2 in enumerate(result.axis2_values):
                for hand in BOTH_HANDS:
                    fh.write(
                        f"{float(v1)!r},{float(v2)!r},{hand.value},"
                        f"{float(result.populations[hand][i, j])!r}\n"
                    )


def write_detuning_csv(path, result: DetuningResult, snapshot: str | None = None) -> None:
    """Detuning-curve rows: delta, scale, engine, hand, P_target."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# delta in rad/ns\n")
        fh.write(f"# mode = {result.mode}\n")
        fh.write(f"# target = {result.target}\n")
        for line in _snapshot_lines(snapshot):
            fh.write(line + "\n")
        fh.write("delta,scale,engine,hand,P_target\n")
        for i, delta in enumerate(result.delta_values):
            for j, scale in enumerate(result.scale_values):
                for hand in BOTH_HANDS:
                    fh.write(
                        f"{float(delta)!r},{float(scale)!r},{result.engine},"
                        f"{hand.value},{float(result.populations[hand][i, j])!r}\n"
                    )

"""Canonical numerical experiments: traces, landscapes and detuning curves.

Every driver here rebuilds its pulse sequence from the design parameters at
each grid point (amplitudes are re-laid-out when the duration changes, phase
parameters are realized under the configured carrier-phase convention), runs
both enantiomers, and reports the target-state population.  The sweeps share
one core, :func:`_sweep`; each public driver only says how a grid point
changes the designed pulses.  Results carry enough metadata to be serialized
to self-describing CSV files; an optional config snapshot is embedded in the
header as comment lines so a result file can be traced back to the exact run
that produced it.

Every sweep point runs in the calling thread, in order.  Exact propagation
is parallel inside each trajectory instead: the kernel builds a run's chunks
on one forked worker process per usable CPU (see ``esst._rk4_numpy``).  The
exact engine walks its runs through ``propagator.ahead``, which builds the
next run and queues its chunks on those workers while the caller samples
the current one, so they do not wait between runs.  Each trajectory and its
result still come from one ``propagate`` call in the caller, which takes
the queued run without building it again.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analytic import analytic_final_populations
from .areas import DesignSpec, designed_pulses, realize_phase
from .model import Handedness, MoleculeSpec
from .propagator import TRACE_COLUMNS, Trajectory, ahead, propagate, trace_table

BOTH_HANDS = (Handedness.LEFT, Handedness.RIGHT)

#: Channels each detuning mode detunes and rescales.
DETUNING_MODES = {"scale_b": ("b",), "scale_ac": ("a", "c")}

#: Engines of :func:`sweep_detuning`: exact propagation or the closed form.
ENGINES = ("exact", "analytic")


def _default_levels(molecule: MoleculeSpec, levels: int | None) -> int:
    if levels is not None:
        return levels
    return 4 if molecule.spectator is not None else 3


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _sweep(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    values1: np.ndarray,
    values2: np.ndarray,
    pulses_at,
    *,
    engine: str,
    levels: int | None,
) -> dict[Handedness, np.ndarray]:
    """P_target per hand on the ``values1 x values2`` grid.

    ``pulses_at(v1, v2)`` returns one grid point's design and its pulse
    set.  Points run in order in the calling thread.  The exact engine
    propagates both hands of each point on that set's default grid; it
    walks the runs through :func:`ahead`, so the next run is built while
    the current one is sampled.  The analytic engine evaluates each point
    once: its closed form yields both hands at once.  The closed form takes
    its stage windows from the point's design, so a point that changes
    tau0 or another ``DesignSpec`` field must return the design it was
    built from.
    """
    levels = _default_levels(molecule, levels)
    idx = ("A", "B", "C").index(spec.target)

    points = (pulses_at(float(v1), float(v2)) for v1 in values1 for v2 in values2)
    rows = []
    if engine == "analytic":
        for design, pulses in points:
            pops = analytic_final_populations(molecule, pulses, design)
            rows.append([float(pops[hand][idx]) for hand in BOTH_HANDS])
    else:
        runs = ((pulses, hand) for _, pulses in points for hand in BOTH_HANDS)
        for pulses, hand in ahead(molecule, runs, levels):
            traj = propagate(molecule, pulses, hand, levels=levels)
            rows.append(float(np.abs(traj.final_state[traj.basis.index(spec.target)]) ** 2))
    table = np.array(rows, dtype=float).reshape(
        values1.size, values2.size, len(BOTH_HANDS)
    )
    return {hand: table[:, :, k].copy() for k, hand in enumerate(BOTH_HANDS)}


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
) -> SweepResult:
    """Landscape of P_target over the stage-1 phase and the pulse duration.

    At each (phi, tau0) point the whole sequence is re-designed for that
    duration, then the stage-1 channel's design phase is set to phi.  The
    amplitudes track tau0.  Stage 1 stays at ``spec.stage1_center``, and
    stage 2 sits 8 tau0 after it only where ``spec.stage2_center`` is None:
    a set center stays put.  ``load_config`` always sets it, so
    ``esst sweep-phase`` keeps stage 2 at the config's center.  The designed
    transfer shows up as stripes at the constructive phase-lattice points,
    independent of tau0 while the stages stay apart.
    """
    phase_values = np.asarray(phase_values, dtype=float)
    tau_values = np.asarray(tau_values, dtype=float)
    channel = spec.stage1_channel
    _, transition = molecule.channel_transition(channel)

    def pulses_at(phase: float, tau0: float):
        point = replace(spec, tau0=tau0)
        pulses = designed_pulses(molecule, point)
        p1 = pulses[channel]
        pulses[channel] = replace(
            p1,
            phase=realize_phase(
                phase, transition, p1.carrier, p1.center_time, p1.convention
            ),
        )
        return point, pulses

    return SweepResult(
        axis1_name=f"phi_{channel}_rad",
        axis2_name="tau0_ns",
        axis1_values=phase_values,
        axis2_values=tau_values,
        target=spec.target,
        populations=_sweep(
            molecule, spec, phase_values, tau_values, pulses_at,
            engine="exact", levels=levels,
        ),
    )


def sweep_delays(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    delay1_values,
    delay2_values,
    *,
    levels: int | None = None,
) -> SweepResult:
    """Landscape of P_target over the two stage-2 pulse delays.

    Delays are the stage-2 envelope centers relative to the stage-1 center.
    The pulses' phase *parameters* are held at their design-point values
    while the centers move, so the landscape's structure depends on the
    carrier-phase convention: absolute-phase pulses keep their effective
    phases (a plateau once the stages separate), envelope-referenced pulses
    accumulate carrier phase with the delay and interfere accordingly.
    """
    delay1_values = np.asarray(delay1_values, dtype=float)
    delay2_values = np.asarray(delay2_values, dtype=float)
    base = designed_pulses(molecule, spec)
    ch1, ch2 = spec.stage2_channels

    # Off the diagonal the two stage-2 pulses are not simultaneous, which
    # lies outside the two-stage theorem, so this sweep runs the exact
    # engine only.
    def pulses_at(delay1: float, delay2: float):
        pulses = dict(base)
        pulses[ch1] = replace(pulses[ch1], center_time=spec.stage1_center + delay1)
        pulses[ch2] = replace(pulses[ch2], center_time=spec.stage1_center + delay2)
        return spec, pulses

    return SweepResult(
        axis1_name=f"delay_{ch1}_ns",
        axis2_name=f"delay_{ch2}_ns",
        axis1_values=delay1_values,
        axis2_values=delay2_values,
        target=spec.target,
        populations=_sweep(
            molecule, spec, delay1_values, delay2_values, pulses_at,
            engine="exact", levels=levels,
        ),
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
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected {' or '.join(ENGINES)}")
    delta_values = np.asarray(delta_values, dtype=float)
    scale_values = np.asarray(scale_values, dtype=float)
    channels = DETUNING_MODES[mode]

    def pulses_at(delta: float, scale: float):
        return spec, designed_pulses(
            molecule, spec,
            detunings={ch: delta for ch in channels},
            scales={ch: scale for ch in channels},
        )

    return DetuningResult(
        delta_values=delta_values,
        scale_values=scale_values,
        mode=mode,
        engine=engine,
        target=spec.target,
        populations=_sweep(
            molecule, spec, delta_values, scale_values, pulses_at,
            engine=engine, levels=levels,
        ),
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


def write_trace_csv(path, trajectory: Trajectory, snapshot: str | None = None) -> np.ndarray:
    """Population trace rows in the ``TRACE_COLUMNS`` layout, hand as left/right.

    Returns the :func:`trace_table` it wrote, so callers can report rows with
    the same digits as the file.
    """
    hand = trajectory.hand.value
    table = trace_table(trajectory)
    with open(path, "w", encoding="utf-8") as fh:
        for line in _snapshot_lines(snapshot):
            fh.write(line + "\n")
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in table:
            cells = list(map(repr, row.tolist()))
            cells[1] = hand
            fh.write(",".join(cells) + "\n")
    return table


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

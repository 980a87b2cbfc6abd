"""Exact time propagation of the driven loop.

Integrates the interaction-picture Schrodinger equation i psi' = H_I(t) psi
with classical RK4 on a fixed grid, for the three-level loop or the
four-level spectator guard model.  No rotating-wave approximation: the full
oscillating fields enter the Hamiltonian.

One vectorized numpy kernel, ``_rk4_numpy.rk4_run``, does the stepping; its
module docstring says how.  It takes no cos or sin of floating-point times:
every drive phasor comes from an argument reduced mod 2 pi exactly.
Callers of :func:`ahead` pass pulse sets ``(pulses, hands)``, the unit of
exact work: the hands of a set share their pulses and differ only in the
sign of the a-type couplings.  :func:`ahead` queues the sets one ahead:
each set's kernel arguments are built once and submitted to the kernel
as one build, whose drive and fields the kernel evaluates once.  The
generator owns each build and drops it once the set's last run is
yielded.  While it yields a run, the run waits in a thread-local slot
for the ``propagate`` call with exactly its inputs; any other call
builds its own run.

The kernel only integrates; :func:`propagate` judges every run, and this
module holds all three guards.  Grid safety: carriers oscillate at up to
omega_max (fastest of carrier and transition frequencies), and the step
must resolve that: dt <= (2 pi / omega_max) / 40 is enforced
(GridTooCoarseError otherwise); the default grid uses 64 steps per period.
Runs that go non-finite or whose norm drifts beyond
``GridConfig.drift_tol`` raise NumericalGuardError.  A run whose kernel
worker process dies raises PoolError, and the next run forks new workers.
"""
from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _rk4_numpy
from ._rk4_numpy import PoolError
from .model import (
    CHANNELS,
    Handedness,
    LevelBasis,
    MoleculeSpec,
    basis_for_levels,
    loop_couplings,
    require_finite,
)
from .pulses import PhaseConvention, Pulse, support_window

#: Hard floor on carrier resolution; coarser grids are rejected.
MIN_STEPS_PER_PERIOD = 40

#: Default grid: steps per period of the fastest oscillation, and pulse
#: support half-width in standard deviations.
STEPS_PER_PERIOD = 64
PAD_SIGMA = 4.0

#: Trace column of each level's population, in column order.
POPULATION_COLUMNS = {"A": "P_A", "Bp": "P_Bprime", "B": "P_B", "C": "P_C"}
TRACE_COLUMNS = ("t_ns", "hand", *POPULATION_COLUMNS.values(), "norm_err")


class GridTooCoarseError(ValueError):
    """The time step cannot resolve the fastest oscillation in the problem."""


class NumericalGuardError(RuntimeError):
    """The integration produced non-finite values or excessive norm drift."""


@dataclass(frozen=True)
class GridConfig:
    """Uniform integration grid with sampling and a norm-drift guard."""

    t_start: float
    t_end: float
    dt: float
    sample_stride: int = 128
    drift_tol: float = 1e-8

    def __post_init__(self) -> None:
        require_finite(self, "t_start", "t_end", "dt", "drift_tol")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        try:  # a whole number of steps per sample; numpy integers pass
            stride = operator.index(self.sample_stride)
        except TypeError:
            raise ValueError(
                f"sample_stride must be an integer, got {self.sample_stride!r}"
            ) from None
        if stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {stride}")
        object.__setattr__(self, "sample_stride", stride)
        if self.drift_tol <= 0:
            raise ValueError(f"drift_tol must be > 0, got {self.drift_tol}")

    @property
    def n_steps(self) -> int:
        """Step count: ceil(span/dt) rounded up to a stride multiple."""
        raw = max(1, math.ceil((self.t_end - self.t_start) / self.dt - 1e-12))
        return ((raw + self.sample_stride - 1) // self.sample_stride) * self.sample_stride

    @property
    def dt_eff(self) -> float:
        """Actual step used: span / n_steps (never larger than dt)."""
        return (self.t_end - self.t_start) / self.n_steps


def fastest_frequency(
    molecule: MoleculeSpec, pulses, levels: int = 3
) -> float:
    """Largest angular frequency in the interaction-picture Hamiltonian.

    An entry is Omega(t) exp(i dE t) with the field oscillating at its
    carrier, so the counter-rotating component runs at carrier + gap; the
    step size must resolve that sum, not just the larger of the two.
    """
    basis = basis_for_levels(molecule, levels)
    energies = np.asarray(basis.energies)
    gap = float(energies.max() - energies.min())
    carrier = max((p.carrier for p in _pulse_list(pulses)), default=0.0)
    return carrier + gap


def default_grid(molecule: MoleculeSpec, pulses, levels: int = 3) -> GridConfig:
    """Grid covering every pulse's support with a safely resolved step.

    It keeps :class:`GridConfig`'s default sample stride and drift limit.
    """
    plist = _pulse_list(pulses)
    if not plist:
        raise ValueError("default_grid needs at least one pulse")
    windows = [support_window(p, PAD_SIGMA) for p in plist]
    t_start = min(w[0] for w in windows)
    t_end = max(w[1] for w in windows)
    omega_max = fastest_frequency(molecule, plist, levels)
    dt = (2.0 * math.pi / omega_max) / STEPS_PER_PERIOD
    return GridConfig(t_start=t_start, t_end=t_end, dt=dt)


@dataclass(frozen=True)
class Trajectory:
    """Sampled interaction-picture state history for one enantiomer."""

    basis: LevelBasis
    hand: Handedness
    times: np.ndarray
    states: np.ndarray
    norm_errors: np.ndarray
    grid: GridConfig

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def populations(trajectory: Trajectory) -> np.ndarray:
    """|psi|^2 per sample and level, shape (n_samples, dim)."""
    return np.abs(trajectory.states) ** 2


def norm_drift(trajectory: Trajectory) -> float:
    """Largest | <psi|psi> - 1 | over the sampled history."""
    return float(np.max(trajectory.norm_errors))


def resolve_backend() -> str:
    """Name of the one integration kernel, always ``"numpy"``.

    Kept only because the benchmark's ``perfbench/worker.py``
    ``machine_facts()`` records it on every run; it goes together with that
    caller.
    """
    return "numpy"


def _pulse_list(pulses) -> tuple[Pulse, ...]:
    if isinstance(pulses, Pulse):
        return (pulses,)
    if isinstance(pulses, dict):
        return tuple(pulses[key] for key in sorted(pulses))
    return tuple(pulses)


def _run_args(
    molecule: MoleculeSpec,
    pulses,
    hands,
    levels: int,
    grid: GridConfig | None,
) -> tuple[GridConfig, list[tuple]]:
    """The grid of a pulse set's runs, the default one if ``grid`` is None,
    and ``_rk4_numpy.rk4_run``'s positional arguments for each of ``hands``.

    Raises GridTooCoarseError below the step floor.  The pulses are taken
    in :func:`_pulse_list` order; the initial state is the ground state |A>.
    The hands' arguments differ only in the edges' prefactors and share
    every other array, which the kernel only reads.
    """
    plist = _pulse_list(pulses)
    if grid is None:
        grid = default_grid(molecule, plist, levels)
    omega_max = fastest_frequency(molecule, plist, levels)
    dt_max = (2.0 * math.pi / omega_max) / MIN_STEPS_PER_PERIOD
    if grid.dt > dt_max * (1.0 + 1e-12):
        raise GridTooCoarseError(
            f"dt = {grid.dt:g} ns exceeds {dt_max:g} ns "
            f"({MIN_STEPS_PER_PERIOD} steps per period of the fastest "
            f"oscillation, {omega_max:g} rad/ns)"
        )
    basis = basis_for_levels(molecule, levels)
    psi0 = np.zeros(basis.dim, dtype=np.complex128)
    psi0[0] = 1.0
    edges = loop_couplings(molecule, levels)
    head = (
        float(grid.t_start), float(grid.dt_eff), int(grid.n_steps),
        int(grid.sample_stride),
        np.asarray(basis.energies, dtype=np.float64),
        # coupling edges: row, col, channel, then -dipole with each hand's sign
        np.array([e.row for e in edges], dtype=np.int64),
        np.array([e.col for e in edges], dtype=np.int64),
        np.array([CHANNELS.index(e.channel) for e in edges], dtype=np.int64),
    )
    tail = (
        # pulses: channel, area, center, width, carrier, phase, convention
        np.array([CHANNELS.index(p.channel) for p in plist], dtype=np.int64),
        np.array([p.area_param for p in plist], dtype=np.float64),
        np.array([p.center_time for p in plist], dtype=np.float64),
        np.array([p.duration for p in plist], dtype=np.float64),
        np.array([p.carrier for p in plist], dtype=np.float64),
        np.array([p.phase for p in plist], dtype=np.float64),
        np.array(
            [0 if p.convention is PhaseConvention.ABSOLUTE else 1 for p in plist],
            dtype=np.int64,
        ),
        psi0,
    )
    return grid, [
        (*head, np.array(
            [-e.dipole * (hand.sign if e.hand_signed else 1) for e in edges],
            dtype=np.float64,
        ), *tail)
        for hand in hands
    ]


def propagate(
    molecule: MoleculeSpec,
    pulses,
    hand: Handedness,
    *,
    levels: int = 3,
    grid: GridConfig | None = None,
) -> Trajectory:
    """Integrate a pulse sequence for one enantiomer from the ground state |A>.

    ``pulses`` may be a dict keyed by channel, a sequence, or a single
    Pulse; channels may repeat (fields on a channel add) and may be absent.
    The default grid covers all pulse supports at 64 steps per carrier
    period; an explicit grid must still satisfy the 40-steps-per-period
    floor.
    """
    basis = basis_for_levels(molecule, levels)
    plist = _pulse_list(pulses)
    run = _SLOT.run
    if run is not None and run[0] == _run_key(molecule, plist, hand, levels, grid):
        _SLOT.run = None
        _, grid, args, build = run
    else:
        grid, [args] = _run_args(molecule, plist, (hand,), levels, grid)
        build = None
    times, states, norm_err = _rk4_numpy.rk4_run(*args, build=build)
    bad = np.flatnonzero(~np.isfinite(norm_err))
    if bad.size:
        first = int(bad[0])
        raise NumericalGuardError(
            f"state went non-finite at t = {times[first]:g} ns "
            f"(sample {first}); the grid or the pulse set is pathological"
        )
    worst_at = int(np.argmax(norm_err))
    worst = float(norm_err[worst_at])
    if worst > grid.drift_tol:
        raise NumericalGuardError(
            f"norm drift {worst:g} at t = {times[worst_at]:g} ns "
            f"(sample {worst_at}) exceeds tolerance {grid.drift_tol:g}; "
            "refine dt or raise drift_tol if this loss is acceptable"
        )
    return Trajectory(
        basis=basis,
        hand=hand,
        times=times,
        states=states,
        norm_errors=norm_err,
        grid=grid,
    )


class _Slot(threading.local):
    """The run :func:`ahead` is yielding in this thread: its :func:`_run_key`,
    grid, kernel arguments and build.  Thread-local: the kernel serves threads."""

    run = None


_SLOT = _Slot()
_END = object()

if hasattr(os, "fork"):
    # A forked child does not share the parent's kernel workers.
    os.register_at_fork(after_in_child=lambda: setattr(_SLOT, "run", None))


def _run_key(molecule, plist, hand, levels, grid):
    """One ``propagate`` call, with its pulses as a :func:`_pulse_list`,
    under the numpy error state it runs in."""
    return molecule, plist, hand, levels, grid, tuple(sorted(np.geterr().items()))


def _queue(molecule, pulses, hands, levels, grid):
    """Build pulse set ``pulses``'s runs for ``hands`` and submit them as
    one kernel build: each hand's :class:`_Slot` run, or None if the set
    fails (:func:`propagate` then raises it), and the build or None."""
    try:
        plist = _pulse_list(pulses)
        run_grid, runs = _run_args(molecule, plist, hands, levels, grid)
        build = _rk4_numpy.submit(runs)
    except Exception:
        return [None] * len(hands), None
    return [
        (_run_key(molecule, plist, hand, levels, grid), run_grid, args, build and build.take(k))
        for k, (hand, args) in enumerate(zip(hands, runs))
    ], build


def ahead(
    molecule: MoleculeSpec,
    sets,
    levels: int,
    grid: GridConfig | None = None,
):
    """Yield the run ``(pulses, hand)`` of each hand of each pulse set
    ``(pulses, hands)`` of ``sets`` once the next set is queued.

    The hands of a set are queued together: their grid and kernel
    arguments are built once, and they share one kernel build, which this
    generator drops once the set's last run has been yielded, or when it
    is closed.  A run waits in this thread's slot while it is yielded:
    only the ``propagate`` call with the same molecule, pulses, hand,
    levels, grid and numpy error state takes it, and builds nothing again.
    ``sets`` is read one set ahead of the runs yielded; an error it raises
    surfaces once every run of the sets read before it has been yielded.
    """
    sets = iter(sets)
    held = []  # (runs, build) of this set, then of the next set
    try:
        current = next(sets, _END)
        if current is not _END:
            held.append(_queue(molecule, *current, levels, grid))
        while current is not _END:
            error = None
            try:
                following = next(sets, _END)
            except Exception as exc:
                following, error = _END, exc
            if following is not _END:
                held.append(_queue(molecule, *following, levels, grid))
            pulses, hands = current
            for hand, run in zip(hands, held[0][0]):
                _SLOT.run = run
                yield pulses, hand
                _SLOT.run = None  # taken, unless the caller skipped it
            _, build = held.pop(0)
            if build is not None:
                build.drop()
            if error is not None:
                raise error
            current = following
    finally:
        _SLOT.run = None
        for _, build in held:
            if build is not None:
                build.drop()


def trace_table(trajectory: Trajectory) -> np.ndarray:
    """Rows (t_ns, hand_sign, P_A, P_Bprime, P_B, P_C, norm_err).

    Three-level runs report P_Bprime = 0 so the table schema is fixed.
    """
    pops = populations(trajectory)
    n = trajectory.times.size
    table = np.zeros((n, len(TRACE_COLUMNS)))
    table[:, 0] = trajectory.times
    table[:, 1] = trajectory.hand.sign
    for idx, label in enumerate(trajectory.basis.labels):
        table[:, TRACE_COLUMNS.index(POPULATION_COLUMNS[label])] = pops[:, idx]
    table[:, 6] = trajectory.norm_errors
    return table

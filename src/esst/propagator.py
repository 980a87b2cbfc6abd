"""Exact time propagation of the driven loop.

Integrates the interaction-picture Schrodinger equation i psi' = H_I(t) psi
with classical RK4 on a fixed grid, for the three-level loop or the
four-level spectator guard model.  No rotating-wave approximation: the full
oscillating fields enter the Hamiltonian.

One vectorized numpy kernel, ``_rk4_numpy.rk4_run``, does the stepping; its
module docstring says how.  It takes no cos or sin of floating-point times:
every drive phasor comes from an argument reduced mod 2 pi exactly.
:func:`ahead` queues each next run of a sequence, built and submitted to
the kernel, for the ``propagate`` call with exactly its inputs.

Grid safety: carriers oscillate at up to omega_max (fastest of carrier and
transition frequencies), and the step must resolve that:
dt <= (2 pi / omega_max) / 40 is enforced (GridTooCoarseError otherwise);
the default grid uses 64 steps per period.  Runs whose norm drifts beyond
``GridConfig.drift_tol`` or go non-finite raise NumericalGuardError.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _rk4_numpy
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
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")
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


def _kernel_args(
    molecule: MoleculeSpec,
    pulses,
    hand: Handedness,
    levels: int,
    grid: GridConfig,
) -> tuple:
    """``_rk4_numpy.rk4_run``'s positional arguments for one run.

    The pulses are taken in :func:`_pulse_list` order; the initial state is
    the ground state |A>.
    """
    basis = basis_for_levels(molecule, levels)
    psi0 = np.zeros(basis.dim, dtype=np.complex128)
    psi0[0] = 1.0
    edges = loop_couplings(molecule, levels)
    plist = _pulse_list(pulses)
    return (
        float(grid.t_start), float(grid.dt_eff), int(grid.n_steps),
        int(grid.sample_stride),
        np.asarray(basis.energies, dtype=np.float64),
        # coupling edges: row, col, channel, -dipole with the hand's sign
        np.array([e.row for e in edges], dtype=np.int64),
        np.array([e.col for e in edges], dtype=np.int64),
        np.array([CHANNELS.index(e.channel) for e in edges], dtype=np.int64),
        np.array(
            [-e.dipole * (hand.sign if e.hand_signed else 1) for e in edges],
            dtype=np.float64,
        ),
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


def _run_args(
    molecule: MoleculeSpec,
    pulses,
    hand: Handedness,
    levels: int,
    grid: GridConfig | None,
) -> tuple[GridConfig, tuple]:
    """The grid of one run, the default one if ``grid`` is None, and its
    kernel arguments; raises GridTooCoarseError below the step floor."""
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
    return grid, _kernel_args(molecule, plist, hand, levels, grid)


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
    queued = _QUEUED.pop(_run_key(molecule, plist, hand, levels, grid), None) if _QUEUED else None
    grid, args, build = queued or (*_run_args(molecule, plist, hand, levels, grid), None)
    times, states, norm_err, status = _rk4_numpy.rk4_run(*args, build=build)
    if status >= 0:
        raise NumericalGuardError(
            f"state went non-finite at t = {times[status]:g} ns "
            f"(sample {status}); the grid or the pulse set is pathological"
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


#: Runs queued by :func:`ahead`, by :func:`_run_key`: each one's grid,
#: kernel arguments and kernel build.
_QUEUED: dict = {}

_END = object()

if hasattr(os, "fork"):
    # A forked child does not share the parent's kernel workers.
    os.register_at_fork(after_in_child=_QUEUED.clear)


def _run_key(molecule, plist, hand, levels, grid):
    """One ``propagate`` call, with its pulses as a :func:`_pulse_list`,
    under the numpy error state it runs in."""
    return molecule, plist, hand, levels, grid, tuple(sorted(np.geterr().items()))


def _queue(molecule, run, levels, grid):
    """Build and submit one ``(pulses, hand)`` run; its key, or None if it
    is queued already or fails, an error left for :func:`propagate` to
    raise in that run's turn."""
    try:
        plist, hand = _pulse_list(run[0]), run[1]
        key = _run_key(molecule, plist, hand, levels, grid)
        if key in _QUEUED:
            return None
        grid, args = _run_args(molecule, plist, hand, levels, grid)
        _QUEUED[key] = grid, args, _rk4_numpy.submit(args)
        return key
    except Exception:
        return None


def _drop(key) -> None:
    """Forget a queued run that was not taken, cancelling its build."""
    *_, build = _QUEUED.pop(key, (None,))
    for future in build or ():
        future.cancel()


def ahead(
    molecule: MoleculeSpec,
    runs,
    levels: int,
    grid: GridConfig | None = None,
):
    """Yield each ``(pulses, hand)`` of ``runs`` once the run after it is queued.

    A queued run has its grid and kernel arguments built and its kernel
    build submitted, so the workers build it while the caller propagates
    the run before.  Only the ``propagate`` call with the same molecule,
    pulses, hand, levels, grid and numpy error state takes it, and builds
    nothing again.  ``runs`` is read one run ahead; an error it raises
    surfaces after the run before it has been yielded.  Closing the
    generator drops every run it queued that was not taken.
    """
    runs = iter(runs)
    queued = []  # the keys of the run being yielded and the next one
    try:
        run = next(runs, _END)
        if run is not _END:
            queued.append(_queue(molecule, run, levels, grid))
        while run is not _END:
            try:
                following = next(runs, _END)
            except Exception:
                yield run
                raise
            if following is not _END:
                queued.append(_queue(molecule, following, levels, grid))
            yield run
            _drop(queued.pop(0))  # taken, unless the caller skipped it
            run = following
    finally:
        for key in queued:
            _drop(key)


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

"""Exact time propagation of the driven loop.

Integrates the interaction-picture Schrodinger equation i psi' = H_I(t) psi
with classical RK4 on a fixed grid, for the three-level loop or the
four-level spectator guard model.  No rotating-wave approximation: the full
oscillating fields enter the Hamiltonian.

One vectorized numpy kernel, ``_rk4_numpy.rk4_run``, does the stepping; its
module docstring says how.  It takes no cos or sin of floating-point times:
every drive phasor comes from an argument reduced mod 2 pi exactly.

Grid safety: carriers oscillate at up to omega_max (fastest of carrier and
transition frequencies), and the step must resolve that:
dt <= (2 pi / omega_max) / 40 is enforced (GridTooCoarseError otherwise);
the default grid uses 64 steps per period.  Runs whose norm drifts beyond
``GridConfig.drift_tol`` or go non-finite raise NumericalGuardError.
"""
from __future__ import annotations

import math
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


def default_grid(
    molecule: MoleculeSpec,
    pulses,
    levels: int = 3,
    *,
    steps_per_period: int = 64,
    sample_stride: int = 128,
    pad_sigma: float = 4.0,
    drift_tol: float = 1e-8,
) -> GridConfig:
    """Grid covering every pulse's support with a safely resolved step."""
    plist = _pulse_list(pulses)
    if not plist:
        raise ValueError("default_grid needs at least one pulse")
    windows = [support_window(p, pad_sigma) for p in plist]
    t_start = min(w[0] for w in windows)
    t_end = max(w[1] for w in windows)
    omega_max = fastest_frequency(molecule, plist, levels)
    dt = (2.0 * math.pi / omega_max) / steps_per_period
    return GridConfig(
        t_start=t_start,
        t_end=t_end,
        dt=dt,
        sample_stride=sample_stride,
        drift_tol=drift_tol,
    )


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


def _pulse_arrays(plist):
    pchan = np.array([CHANNELS.index(p.channel) for p in plist], dtype=np.int64)
    amp = np.array([p.area_param for p in plist], dtype=np.float64)
    tc = np.array([p.center_time for p in plist], dtype=np.float64)
    tau = np.array([p.duration for p in plist], dtype=np.float64)
    wcar = np.array([p.carrier for p in plist], dtype=np.float64)
    ph = np.array([p.phase for p in plist], dtype=np.float64)
    conv = np.array(
        [0 if p.convention is PhaseConvention.ABSOLUTE else 1 for p in plist],
        dtype=np.int64,
    )
    return pchan, amp, tc, tau, wcar, ph, conv


def _edge_arrays(molecule: MoleculeSpec, levels: int, hand: Handedness):
    edges = loop_couplings(molecule, levels)
    rows = np.array([e.row for e in edges], dtype=np.int64)
    cols = np.array([e.col for e in edges], dtype=np.int64)
    echan = np.array([CHANNELS.index(e.channel) for e in edges], dtype=np.int64)
    prefactor = np.array(
        [-e.dipole * (hand.sign if e.hand_signed else 1) for e in edges],
        dtype=np.float64,
    )
    return rows, cols, echan, prefactor


def propagate(
    molecule: MoleculeSpec,
    pulses,
    hand: Handedness,
    *,
    levels: int = 3,
    grid: GridConfig | None = None,
    initial_state: np.ndarray | None = None,
) -> Trajectory:
    """Integrate a pulse sequence for one enantiomer.

    ``pulses`` may be a dict keyed by channel, a sequence, or a single
    Pulse; channels may repeat (fields on a channel add) and may be absent.
    The default grid covers all pulse supports at 64 steps per carrier
    period; an explicit grid must still satisfy the 40-steps-per-period
    floor.
    """
    basis = basis_for_levels(molecule, levels)
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

    if initial_state is None:
        psi0 = np.zeros(basis.dim, dtype=np.complex128)
        psi0[0] = 1.0
    else:
        psi0 = np.asarray(initial_state, dtype=np.complex128).copy()
        if psi0.shape != (basis.dim,):
            raise ValueError(
                f"initial state has shape {psi0.shape}, expected ({basis.dim},)"
            )

    rows, cols, echan, prefactor = _edge_arrays(molecule, levels, hand)
    pchan, amp, tc, tau, wcar, ph, conv = _pulse_arrays(plist)

    times, states, norm_err, status = _rk4_numpy.rk4_run(
        float(grid.t_start), float(grid.dt_eff), int(grid.n_steps),
        int(grid.sample_stride),
        np.asarray(basis.energies, dtype=np.float64),
        rows, cols, echan, prefactor,
        pchan, amp, tc, tau, wcar, ph, conv,
        psi0,
    )
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

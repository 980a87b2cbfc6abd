"""Exact propagation against an independent adaptive-integrator oracle.

The oracle rebuilds the interaction-picture right-hand side from the
hand-written matrices in ``hamiltonian_oracle`` and hands it to scipy's
DOP853 at tight tolerance -- a completely separate code path from the
fixed-step kernel under test.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from esst import _rk4_numpy
from esst.areas import DesignSpec, design_phases, designed_pulses, realize_phase
from esst.model import Handedness, basis_for_levels
from esst.propagator import (
    GridConfig,
    GridTooCoarseError,
    NumericalGuardError,
    _edge_arrays,
    _pulse_arrays,
    default_grid,
    fastest_frequency,
    norm_drift,
    populations,
    propagate,
    trace_table,
)
from esst.pulses import PhaseConvention, Pulse, field
from hamiltonian_oracle import coupling_matrix_3, coupling_matrix_4, interaction_picture_matrix
from test_rk4_numpy import direct_rk4

L = Handedness.LEFT
R = Handedness.RIGHT
BOTH = (L, R)


@pytest.fixture(scope="module")
def small_seq(molecule):
    """A fast full sequence: tau0 = 2 ns, ~29k steps on the default grid."""
    spec = DesignSpec(target="C", tau0=2.0)
    pulses = designed_pulses(molecule, spec)
    grid = default_grid(molecule, list(pulses.values()), 4)
    return spec, pulses, grid


def kernel_args(molecule, pulses, hand, levels, grid):
    """Positional arguments of the kernel's ``rk4_run``, as propagate builds them."""
    basis = basis_for_levels(molecule, levels)
    psi0 = np.zeros(basis.dim, dtype=np.complex128)
    psi0[0] = 1.0
    plist = list(pulses.values()) if isinstance(pulses, dict) else list(pulses)
    return (
        float(grid.t_start), float(grid.dt_eff), int(grid.n_steps),
        int(grid.sample_stride),
        np.asarray(basis.energies, dtype=np.float64),
        *_edge_arrays(molecule, levels, hand),
        *_pulse_arrays(plist),
        psi0,
    )


def overflow_case(molecule):
    """An a-pulse whose 1e300 area parameter overflows the RK4 stages.

    The grid starts 40 widths before the pulse center, where the envelope
    underflows to zero, so the first samples stay finite and the state goes
    non-finite part-way through the run.
    """
    tau = 0.05
    pulse = Pulse("a", area_param=1e300, center_time=0.0, duration=tau,
                  carrier_mhz=molecule.omega_ab_mhz, phase=0.0)
    grid = GridConfig(t_start=-40 * tau, t_end=0.0, dt=1e-3, sample_stride=16)
    return pulse, grid


def oracle_final_state(molecule, pulses, hand, levels, grid):
    basis = basis_for_levels(molecule, levels)
    dim = basis.dim
    matrix_fn = coupling_matrix_3 if levels == 3 else coupling_matrix_4
    plist = list(pulses.values()) if isinstance(pulses, dict) else list(pulses)

    def rhs(t, y):
        om = {"a": 0.0, "b": 0.0, "c": 0.0}
        for p in plist:
            mu = molecule.channel_transition(p.channel)[0]
            om[p.channel] -= mu * field(p, t)
        h = interaction_picture_matrix(
            matrix_fn(molecule, (om["a"], om["b"], om["c"]), hand),
            basis.energies, t,
        )
        psi = y[:dim] + 1j * y[dim:]
        dpsi = -1j * (h @ psi)
        return np.concatenate([dpsi.real, dpsi.imag])

    y0 = np.zeros(2 * dim)
    y0[0] = 1.0
    sol = solve_ivp(
        rhs, (grid.t_start, grid.t_end), y0,
        method="DOP853", rtol=1e-12, atol=1e-14,
    )
    return sol.y[:dim, -1] + 1j * sol.y[dim:, -1]


# ---------------------------------------------------------------------------
# Grid plumbing
# ---------------------------------------------------------------------------


def test_fastest_frequency_counts_both_lobes(molecule, pulses_c):
    # the interaction-picture integrand oscillates at carrier + gap
    # (counter-rotating), not just at the carrier
    omega = fastest_frequency(molecule, list(pulses_c.values()), 3)
    assert omega == pytest.approx(molecule.omega_ac + molecule.omega_ac)


def test_default_grid_covers_supports_and_respects_rule(molecule, pulses_c):
    grid = default_grid(molecule, list(pulses_c.values()), 4)
    tau = 35.0
    assert grid.t_start <= -4 * tau
    assert grid.t_end >= 8 * tau + 4 * tau
    omega = fastest_frequency(molecule, list(pulses_c.values()), 4)
    assert grid.dt <= (2 * math.pi / omega) / 40


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig(t_start=0.0, t_end=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        GridConfig(t_start=0.0, t_end=1.0, dt=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["t_start", "t_end", "dt", "drift_tol"])
def test_grid_config_rejects_non_finite(name, value):
    kwargs = {"t_start": 0.0, "t_end": 1.0, "dt": 0.1, "drift_tol": 1e-8}
    kwargs[name] = value
    with pytest.raises(ValueError, match=name):
        GridConfig(**kwargs)


@pytest.mark.parametrize("tol", [0.0, -1e-8])
def test_grid_config_rejects_non_positive_drift_tol(tol):
    with pytest.raises(ValueError, match="drift_tol"):
        GridConfig(t_start=0.0, t_end=1.0, dt=0.1, drift_tol=tol)


def test_grid_steps_align_with_stride():
    grid = GridConfig(t_start=0.0, t_end=1.0, dt=0.003, sample_stride=7)
    assert grid.n_steps % 7 == 0
    assert grid.dt_eff * grid.n_steps == pytest.approx(1.0)
    assert grid.dt_eff <= 0.003 + 1e-15


def test_too_coarse_grid_rejected(molecule, pulses_c):
    grid = GridConfig(t_start=-140.0, t_end=420.0, dt=0.05)
    with pytest.raises(GridTooCoarseError):
        propagate(molecule, pulses_c, L, levels=3, grid=grid)


# ---------------------------------------------------------------------------
# Free evolution
# ---------------------------------------------------------------------------


def test_no_pulses_stays_in_ground_state(molecule):
    grid = GridConfig(t_start=0.0, t_end=5.0, dt=1e-3)
    traj = propagate(molecule, [], L, levels=3, grid=grid)
    pops = populations(traj)
    np.testing.assert_allclose(pops[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(pops[:, 1:], 0.0, atol=1e-12)
    assert norm_drift(traj) < 1e-12


def test_zero_area_pulses_equal_free_evolution(molecule, pulses_c):
    zeroed = {ch: replace(p, area_param=0.0) for ch, p in pulses_c.items()}
    grid = GridConfig(t_start=0.0, t_end=2.0, dt=1e-3)
    traj = propagate(molecule, zeroed, R, levels=3, grid=grid)
    assert abs(traj.final_state[0]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("levels,hand", [(3, L), (4, R)])
def test_matches_adaptive_oracle(molecule, small_seq, levels, hand):
    spec, pulses, grid = small_seq
    ref = oracle_final_state(molecule, pulses, hand, levels, grid)
    traj = propagate(molecule, pulses, hand, levels=levels, grid=grid)
    assert np.abs(traj.final_state - ref).max() < 1e-8


def test_stage1_half_half_checkpoint(molecule):
    # a single resonant quarter-pi a-pulse leaves an even A/B split
    pulse = designed_pulses(molecule, DesignSpec(target="C", tau0=35.0))["a"]
    grid = default_grid(molecule, [pulse], 3)
    for hand in BOTH:
        traj = propagate(molecule, {"a": pulse}, hand, levels=3, grid=grid)
        pops = populations(traj)[-1]
        assert pops[0] == pytest.approx(0.5, abs=0.005)
        assert pops[1] == pytest.approx(0.5, abs=0.005)
        assert pops[2] < 1e-6


@settings(max_examples=10, deadline=None)
@given(
    tau0=st.floats(0.3, 1.0),
    hand=st.sampled_from(BOTH),
    k=st.integers(0, 2),
    kprime=st.integers(0, 2),
    l=st.integers(-1, 1),
    convention=st.sampled_from(list(PhaseConvention)),
)
def test_rk4_error_falls_sixteenfold_per_halving(molecule, tau0, hand, k, kprime, l, convention):
    # Classical RK4 is fourth order: from 40 to 80 to 160 steps per period
    # the final-state error against a 640-step run falls about 16x per
    # halving (dt_eff halves to within the stride rounding of n_steps).
    # Target-C designs are asymptotic from the 40-step floor on: 15.9-16.5
    # over 80 random draws.  Some target-B designs read up to 19 at the
    # first halving, so they are not drawn here.
    spec = DesignSpec(target="C", tau0=tau0, k=k, kprime=kprime, l=l, convention=convention)
    pulses = designed_pulses(molecule, spec)
    span = default_grid(molecule, pulses, 3)
    period = 2 * math.pi / fastest_frequency(molecule, pulses, 3)
    final = {}
    for steps in (40, 80, 160, 640):
        grid = GridConfig(span.t_start, span.t_end, dt=period / steps, sample_stride=8, drift_tol=1e-5)
        final[steps] = propagate(molecule, pulses, hand, levels=3, grid=grid).final_state
    err = [np.linalg.norm(final[steps] - final[640]) for steps in (40, 80, 160)]
    for coarse, fine in zip(err, err[1:]):
        assert 14 <= coarse / fine <= 18


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


def test_mirror_law_hand_flip_equals_pi_phase_shift(molecule, small_seq):
    spec, pulses, grid = small_seq
    phases = design_phases(spec)
    _, omega_a = molecule.channel_transition("a")
    shifted_phase = realize_phase(
        phases["a"] + math.pi, omega_a, omega_a,
        spec.stage1_center, spec.convention,
    )
    shifted = dict(pulses)
    shifted["a"] = replace(shifted["a"], phase=shifted_phase)
    traj_r = propagate(molecule, pulses, R, levels=3, grid=grid)
    traj_l = propagate(molecule, shifted, L, levels=3, grid=grid)
    assert np.abs(traj_r.states - traj_l.states).max() < 1e-9


@pytest.mark.parametrize("removed", ["a", "b", "c"])
def test_chirality_blindness_without_closed_loop(molecule, small_seq, removed):
    spec, pulses, grid = small_seq
    open_loop = {ch: p for ch, p in pulses.items() if ch != removed}
    traj_l = propagate(molecule, open_loop, L, levels=3, grid=grid)
    traj_r = propagate(molecule, open_loop, R, levels=3, grid=grid)
    pops_gap = np.abs(populations(traj_l) - populations(traj_r)).max()
    assert pops_gap < 1e-12


def test_determinism(molecule, small_seq):
    spec, pulses, grid = small_seq
    t1 = propagate(molecule, pulses, L, levels=3, grid=grid)
    t2 = propagate(molecule, pulses, L, levels=3, grid=grid)
    np.testing.assert_array_equal(t1.states, t2.states)


@pytest.mark.parametrize("stride", [128, 7])
@pytest.mark.parametrize("hand", BOTH)
def test_numpy_kernel_matches_scalar_kernel(molecule, hand, stride):
    # propagate's trajectory on its default chunking against the
    # step-by-step scalar RK4 of test_rk4_numpy; stride 7 exercises the odd
    # tails of the pairwise composition and a chunk that is not a power of two
    pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=0.3))
    grid = default_grid(molecule, list(pulses.values()), 4, sample_stride=stride)
    traj = propagate(molecule, pulses, hand, levels=4, grid=grid)
    t_ref, s_ref, e_ref = direct_rk4(*kernel_args(molecule, pulses, hand, 4, grid))
    np.testing.assert_array_equal(traj.times, t_ref)
    assert np.abs(traj.norm_errors - e_ref).max() <= 1e-12
    assert np.abs(traj.states - s_ref).max() <= 1e-13
    assert np.abs(s_ref[:, 0]).min() < 0.9  # the comparison is not vacuous


# ---------------------------------------------------------------------------
# Diagnostics and guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk_steps,opens_chunk", [
    pytest.param(4096, False, id="numpy"),  # one chunk holds the run
    pytest.param(160, True, id="numpy-first-of-chunk"),  # 10 samples a chunk
    pytest.param(64, False, id="numpy-mid-chunk"),  # 4 samples a chunk
])
def test_non_finite_guard_names_first_bad_sample(molecule, chunk_steps, opens_chunk):
    # The kernel scans a whole chunk's samples at once; the first bad
    # sample (11) lands on a chunk's first sample or inside a chunk.
    pulse, grid = overflow_case(molecule)
    args = kernel_args(molecule, [pulse], L, 3, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        times, states, norm_err, status = _rk4_numpy.rk4_run(*args, chunk_steps=chunk_steps)
    assert ((status - 1) % (chunk_steps // grid.sample_stride) == 0) == opens_chunk
    finite = np.isfinite(norm_err)
    assert 0 < status < times.size - 1
    assert finite[:status].all() and not finite[status]
    assert np.isfinite(states[:status]).all()
    assert times[status] == pytest.approx(grid.t_start + status * grid.sample_stride * grid.dt_eff)
    # every later sample repeats the first bad one
    np.testing.assert_array_equal(times[status:], times[status])
    np.testing.assert_array_equal(states[status:], np.broadcast_to(states[status], states[status:].shape))
    np.testing.assert_array_equal(norm_err[status:], norm_err[status])


def test_propagate_raises_on_non_finite_state(molecule):
    pulse, grid = overflow_case(molecule)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalGuardError, match="non-finite"):
            propagate(molecule, [pulse], L, levels=3, grid=grid)


def test_numerical_guard_on_drift(molecule, small_seq):
    spec, pulses, grid = small_seq
    paranoid = replace(grid, drift_tol=1e-18)
    with pytest.raises(NumericalGuardError):
        propagate(molecule, pulses, L, levels=3, grid=paranoid)


def test_drift_guard_names_time_of_worst_drift(molecule, small_seq):
    spec, pulses, grid = small_seq
    traj = propagate(molecule, pulses, L, levels=3, grid=grid)
    worst = int(np.argmax(traj.norm_errors))
    assert 0 < worst < traj.times.size - 1  # not trivially the first or last sample
    paranoid = replace(grid, drift_tol=1e-18)
    with pytest.raises(NumericalGuardError) as info:
        propagate(molecule, pulses, L, levels=3, grid=paranoid)
    message = str(info.value)
    assert f"norm drift {traj.norm_errors[worst]:g}" in message
    assert f"at t = {traj.times[worst]:g} ns (sample {worst})" in message


def test_populations_and_norms(molecule, small_seq):
    spec, pulses, grid = small_seq
    traj = propagate(molecule, pulses, L, levels=4, grid=grid)
    pops = populations(traj)
    np.testing.assert_allclose(pops[0], [1.0, 0.0, 0.0, 0.0], atol=1e-10)
    drift = norm_drift(traj)
    assert drift < 1e-8
    np.testing.assert_allclose(pops.sum(axis=1), 1.0, atol=2 * drift + 1e-15)
    assert np.all(np.diff(traj.times) > 0)


def test_trace_table_layout(molecule, small_seq):
    spec, pulses, grid = small_seq
    traj3 = propagate(molecule, pulses, L, levels=3, grid=grid)
    table = trace_table(traj3)
    assert table.shape[1] == 7  # t, hand, P_A, P_Bp, P_B, P_C, norm_err
    np.testing.assert_array_equal(table[:, 0], traj3.times)
    np.testing.assert_array_equal(table[:, 3], 0.0)  # no spectator in 3-level
    traj4 = propagate(molecule, pulses, L, levels=4, grid=grid)
    table4 = trace_table(traj4)
    pops4 = populations(traj4)
    np.testing.assert_array_equal(table4[:, 3], pops4[:, 1])
    np.testing.assert_array_equal(table4[:, 5], pops4[:, 3])


def test_four_level_guard_population_small(molecule, small_seq):
    # tau0 = 2 ns pulses are spectrally ~17x wider than the 35 ns design,
    # so the off-resonant guard level picks up a visibly larger transient
    # (~1e-2 here vs ~2e-5 at 35 ns, which is checked in the experiments
    # tests); it must still stay a spectator, not a participant
    spec, pulses, grid = small_seq
    traj = propagate(molecule, pulses, L, levels=4, grid=grid)
    guard = populations(traj)[:, 1]
    assert guard.max() < 0.05
    assert guard[-1] < 1e-3

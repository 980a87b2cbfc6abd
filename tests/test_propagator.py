"""Exact propagation against an independent adaptive-integrator oracle.

The oracle rebuilds the interaction-picture right-hand side from the
hand-written matrices in ``hamiltonian_oracle`` and hands it to scipy's
DOP853 at tight tolerance -- a completely separate code path from the
fixed-step kernel under test.
"""
from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.integrate import solve_ivp

from esst import _rk4_numpy, propagator
from esst.areas import DesignSpec, design_phases, designed_pulses, realize_phase
from esst.model import Handedness, basis_for_levels
from esst.propagator import (
    GridConfig,
    GridTooCoarseError,
    NumericalGuardError,
    _kernel_args,
    ahead,
    default_grid,
    fastest_frequency,
    norm_drift,
    populations,
    propagate,
    trace_table,
)
from esst.pulses import PhaseConvention, Pulse, field
from hamiltonian_oracle import coupling_matrix_3, coupling_matrix_4, interaction_picture_matrix
from test_rk4_numpy import designed_args, direct_rk4

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


# No shrinking, as for the kernel property in test_rk4_numpy.
@settings(
    max_examples=12, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(
    levels=st.sampled_from([3, 4]),
    hand=st.sampled_from(BOTH),
    target=st.sampled_from(["B", "C"]),
    tau0_64ths=st.integers(19, 38),
)
def test_time_shift_leaves_populations_unchanged(molecule, levels, hand, target, tau0_64ths):
    # Moving envelope-referenced pulses and the grid by T changes H only by
    # the diagonal gauge exp(i E T), which populations cannot see.  Every
    # chunk, and every worker's range, starts from base phasors reduced
    # exactly at t ~ 1e4 ns here.  tau0 in 64ths of a ns keeps every
    # center and grid bound exact after the shift, so both runs take the
    # same dt; the sample times still round at ulp(1e4) ~ 2e-12 ns, which
    # moves a population by at most that times its rate, ~1/tau0.
    shift = 1e4
    pulses = designed_pulses(molecule, DesignSpec(target=target, tau0=tau0_64ths / 64))
    assert all(p.convention is PhaseConvention.ENVELOPE for p in pulses.values())
    grid = default_grid(molecule, pulses, levels)
    moved = {ch: replace(p, center_time=p.center_time + shift) for ch, p in pulses.items()}
    moved_grid = replace(grid, t_start=grid.t_start + shift, t_end=grid.t_end + shift)
    assert moved_grid.n_steps == grid.n_steps > 4096  # more than one chunk
    assert moved_grid.dt_eff == grid.dt_eff
    here = populations(propagate(molecule, pulses, hand, levels=levels, grid=grid))
    there = populations(propagate(molecule, moved, hand, levels=levels, grid=moved_grid))
    assert np.abs(there - here).max() <= 1e-11
    assert np.abs(there[-1] - here[-1]).max() <= 1e-13  # after the pulses


#: Largest norm drift allowed on a small design.  RK4 is not unitary; at
#: 64 steps per period its drift peaks at tau0 = 0.5 ns, where the areas
#: are driven fastest: 1.66e-9 at worst over every target, lattice index,
#: convention, level count and hand there.
SMALL_DESIGN_DRIFT = 3e-9


# No shrinking, as for the kernel property in test_rk4_numpy.
@settings(
    max_examples=16, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(
    tau0=st.floats(0.5, 3.0),
    target=st.sampled_from(["B", "C"]),
    hand=st.sampled_from(BOTH),
    convention=st.sampled_from(list(PhaseConvention)),
    levels=st.sampled_from([3, 4]),
    k=st.integers(0, 1),
    kprime=st.integers(0, 1),
    l=st.integers(-1, 1),
)
def test_norm_drift_stays_small_on_random_designs(molecule, hand, levels, **design):
    traj = propagate(molecule, designed_pulses(molecule, DesignSpec(**design)), hand, levels=levels)
    assert norm_drift(traj) <= SMALL_DESIGN_DRIFT


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
    grid = replace(default_grid(molecule, list(pulses.values()), 4), sample_stride=stride)
    traj = propagate(molecule, pulses, hand, levels=4, grid=grid)
    t_ref, s_ref, e_ref = direct_rk4(*_kernel_args(molecule, pulses, hand, 4, grid))
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
    args = _kernel_args(molecule, [pulse], L, 3, grid)
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


def run_both_paths(monkeypatch, args, chunk_steps):
    """``rk4_run`` on the path it picks, then with one usable CPU.

    Returns both results and, for each run, the ``(first_step, end_step)``
    ranges whose propagators this process built itself.
    """
    if _rk4_numpy._worker_count() > 1:
        _rk4_numpy._pool()  # fork the workers before the spy goes in
    real = _rk4_numpy._propagators
    built = []

    def spy(kernel_args, first_step, end_step, chunk):
        built.append((first_step, end_step))
        return real(kernel_args, first_step, end_step, chunk)

    monkeypatch.setattr(_rk4_numpy, "_propagators", spy)
    results, ranges = [], []
    for one_cpu in (False, True):
        if one_cpu:
            monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 1)
        built.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            results.append(_rk4_numpy.rk4_run(*args, chunk_steps=chunk_steps))
        ranges.append(list(built))
    return results, ranges


@pytest.mark.parametrize("case,chunk_steps", [
    pytest.param("designed", 4096, id="partial-last-chunk"),  # 4,096 + 256 steps
    pytest.param("designed", 8192, id="one-chunk"),
    pytest.param("overflow", 160, id="overflow-160"),  # 13 chunks
    pytest.param("overflow", 64, id="overflow-64"),  # 32 chunks
])
def test_pool_path_gives_in_process_bits(molecule, monkeypatch, case, chunk_steps):
    # The chunk ranges built on the worker processes must give the bits of
    # one in-process build over the whole run.  The designed run's second
    # range is its partial last chunk alone; the overflow runs go
    # non-finite at sample 11 and repeat it to the end.
    if case == "designed":
        args = designed_args(molecule, DesignSpec(target="C", tau0=0.3), 4, L)
    else:
        pulse, grid = overflow_case(molecule)
        args = _kernel_args(molecule, [pulse], L, 3, grid)
    (pooled, alone), (pool_built, alone_built) = run_both_paths(monkeypatch, args, chunk_steps)
    for got, want in zip(pooled[:3], alone[:3]):
        assert got.tobytes() == want.tobytes()
    assert pooled[3] == alone[3] == (-1 if case == "designed" else 11)
    n_steps = args[2]
    assert alone_built == [(0, n_steps)]
    if n_steps <= chunk_steps:
        assert pool_built == [(0, n_steps)]
    elif _rk4_numpy._worker_count() > 1:
        assert pool_built == []  # every range was built by a worker


@pytest.mark.parametrize("one_cpu", [False, True], ids=["pool", "in-process"])
def test_caller_error_state_reaches_the_workers(molecule, monkeypatch, one_cpu):
    # The envelope underflows at the start of the overflow run, and the
    # stages overflow later.  Under the caller's errstate the first raises
    # wherever the chunk is built, and the second warns in the caller.
    if one_cpu:
        monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 1)
    pulse, grid = overflow_case(molecule)
    args = _kernel_args(molecule, [pulse], L, 3, grid)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        _rk4_numpy.rk4_run(*args, chunk_steps=160)
    with np.errstate(over="warn", invalid="ignore"):
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            _rk4_numpy.rk4_run(*args, chunk_steps=160)


KILLED_CALLER = """
import os, signal
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness, get_preset
from esst.propagator import propagate
molecule = get_preset("cyclohexylmethanol")
pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=0.5))
propagate(molecule, pulses, Handedness.LEFT, levels=4)  # two chunks
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_workers_exit_when_their_caller_is_killed():
    # A caller killed outright never shuts its pool down; the workers must
    # notice and leave the caller's process group empty on their own.
    with subprocess.Popen(
        [sys.executable, "-c", KILLED_CALLER], start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ) as proc:
        try:
            assert proc.wait(timeout=120) == -signal.SIGKILL
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail("a worker process outlived its killed caller")
        time.sleep(0.1)


# ---------------------------------------------------------------------------
# Pipelined runs
# ---------------------------------------------------------------------------


#: 10,000 steps: three chunks, so each run below is built on the pool.
PIPE_GRID = GridConfig(t_start=-10.0, t_end=0.0, dt=1e-3, sample_stride=16)


def pipe_runs(molecule):
    """A clean run, one that goes non-finite near t = 0, and one whose
    carrier is too fast for PIPE_GRID's step."""
    clean = Pulse("a", area_param=0.5, center_time=-5.0, duration=1.0,
                  carrier_mhz=molecule.omega_ab_mhz, phase=0.0)
    fast = replace(clean, carrier_mhz=5 * molecule.omega_ab_mhz)
    return ([clean], L), ([overflow_case(molecule)[0]], L), ([fast], L)


@pytest.mark.parametrize("after", ["coarse-grid", "failing-design"])
def test_pipelined_run_raises_its_own_error_first(molecule, monkeypatch, after):
    # The second run goes non-finite.  The third fails while the second is
    # built: queueing it raises GridTooCoarseError, or the run iterable
    # itself raises.  The second run's error must surface first, and no
    # build may stay queued.
    clean, blowup, fast = pipe_runs(molecule)
    real = propagator._run_args
    raised = []

    def spy(*args):
        try:
            return real(*args)
        except Exception as exc:
            raised.append(type(exc))
            raise

    def runs():
        yield clean
        yield blowup
        if after == "failing-design":
            raise ValueError("no design for this point")
        yield fast

    monkeypatch.setattr(propagator, "_run_args", spy)
    done = []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalGuardError, match="non-finite"):
            for pulses, hand in ahead(molecule, runs(), 3, PIPE_GRID):
                propagate(molecule, pulses, hand, levels=3, grid=PIPE_GRID)
                done.append(pulses)
    assert done == [clean[0]]
    assert not propagator._QUEUED
    assert raised == ([GridTooCoarseError] if after == "coarse-grid" else [])


def test_closing_ahead_drops_its_queued_builds(molecule):
    # Leaving the loop early closes the generator, which must drop the
    # builds of the run it yielded and of the run after it.
    (pulses, _), *_ = pipe_runs(molecule)
    other = [replace(pulses[0], phase=1.0)]
    for _ in ahead(molecule, [(pulses, L), (pulses, R), (other, L)], 3, PIPE_GRID):
        queued = len(propagator._QUEUED)
        break
    assert queued == 2
    assert not propagator._QUEUED


def test_a_queued_build_is_taken_only_by_its_exact_call(molecule, monkeypatch):
    # A queued run is keyed by its propagate call: molecule, pulses, hand,
    # levels, grid and numpy error state.  A call that differs in any of
    # them builds its own run and leaves the queued one in place.
    (pulses, _), *_ = pipe_runs(molecule)
    key = propagator._queue(molecule, (pulses, L), 3, PIPE_GRID)
    assert list(propagator._QUEUED) == [key]
    assert propagator._queue(molecule, (pulses, L), 3, PIPE_GRID) is None  # queued already
    with np.errstate(divide="raise"):
        propagate(molecule, pulses, L, levels=3, grid=PIPE_GRID)
    propagate(molecule, pulses, R, levels=3, grid=PIPE_GRID)
    propagate(molecule, pulses, L, levels=4, grid=PIPE_GRID)
    propagate(molecule, pulses, L, levels=3, grid=replace(PIPE_GRID, sample_stride=8))
    assert list(propagator._QUEUED) == [key]

    real, built = propagator._run_args, []
    monkeypatch.setattr(propagator, "_run_args", lambda *args: built.append(args) or real(*args))
    taken = propagate(molecule, pulses, L, levels=3, grid=PIPE_GRID)
    assert not propagator._QUEUED and not built  # the queued run, as it was built
    alone = propagate(molecule, pulses, L, levels=3, grid=PIPE_GRID)
    assert len(built) == 1
    for got, want in ((taken.times, alone.times), (taken.states, alone.states),
                      (taken.norm_errors, alone.norm_errors)):
        assert got.tobytes() == want.tobytes()


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

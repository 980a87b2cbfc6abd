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
import threading
import time
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.integrate import solve_ivp

from esst import _rk4_numpy, propagator
from esst.areas import DesignSpec, design_phases, designed_pulses, realize_phase
from esst.model import basis_for_levels
from esst.propagator import (
    GridConfig,
    GridTooCoarseError,
    NumericalGuardError,
    _run_args,
    ahead,
    default_grid,
    fastest_frequency,
    norm_drift,
    populations,
    propagate,
    trace_table,
)
from esst.pulses import PhaseConvention, field
from hamiltonian_oracle import coupling_matrix_3, coupling_matrix_4, interaction_picture_matrix
from helpers import (
    BOTH, PIPE_GRID, L, R, designed_args, direct_rk4, live, overflow_case, pipe_sets,
    queued_run, raising_spy, run_bytes,
)


@pytest.fixture(scope="module")
def small_seq(molecule):
    """A fast full sequence: tau0 = 2 ns, ~29k steps on the default grid."""
    spec = DesignSpec(target="C", tau0=2.0)
    pulses = designed_pulses(molecule, spec)
    grid = default_grid(molecule, list(pulses.values()), 4)
    return spec, pulses, grid


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


@pytest.mark.parametrize("stride", [1.5, 3.7, 128.0])
def test_grid_config_rejects_a_float_stride(stride):
    # 1.5 made n_steps a float and the run stopped half a step short of
    # t_end; 3.7 failed inside the kernel.  A whole float is refused too.
    with pytest.raises(ValueError, match="sample_stride must be an integer"):
        GridConfig(t_start=0.0, t_end=6.0, dt=1e-3, sample_stride=stride)


def test_grid_config_takes_a_numpy_integer_stride():
    grid = GridConfig(t_start=0.0, t_end=1.0, dt=0.003, sample_stride=np.int64(7))
    assert type(grid.sample_stride) is int and grid == replace(grid, sample_stride=7)
    assert type(grid.n_steps) is int and grid.n_steps % 7 == 0


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
    levels=st.sampled_from([3, 4]),
    k=st.integers(0, 2),
    kprime=st.integers(0, 2),
    l=st.integers(-1, 1),
    convention=st.sampled_from(list(PhaseConvention)),
)
def test_rk4_error_falls_sixteenfold_per_halving(
    molecule, tau0, hand, levels, k, kprime, l, convention
):
    # Classical RK4 is fourth order: from 40 to 80 to 160 steps per period
    # the final-state error against a 640-step run falls about 16x per
    # halving (dt_eff halves to within the stride rounding of n_steps).
    # Target-C designs are asymptotic from the 40-step floor on: 15.9-16.5
    # over 80 random draws at 3 levels; 16 more draws per level count read
    # 15.92-16.23 at 3 levels and 15.95-16.88 at 4.  Some target-B designs
    # read up to 19 at the first halving, so they are not drawn here.
    spec = DesignSpec(target="C", tau0=tau0, k=k, kprime=kprime, l=l, convention=convention)
    pulses = designed_pulses(molecule, spec)
    span = default_grid(molecule, pulses, levels)
    period = 2 * math.pi / fastest_frequency(molecule, pulses, levels)
    final = {}
    for steps in (40, 80, 160, 640):
        grid = GridConfig(span.t_start, span.t_end, dt=period / steps, sample_stride=8, drift_tol=1e-5)
        final[steps] = propagate(molecule, pulses, hand, levels=levels, grid=grid).final_state
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


#: Largest state difference allowed between a right-hand run and the
#: left-hand run with the a-pulse design phase shifted by pi.  The hand
#: flips every a-type edge, (A,B) and at four levels (B',C), and so does
#: the shift, so the two runs differ only by round-off.  Over 40 random
#: designs the largest difference was 7.8e-15 at three levels and 7.0e-15
#: at four.  Most of it comes from realizing the shifted phase, which rounds
#: pi + omega_a t_c once under the envelope convention: by at most
#: ulp(712 rad) / 2 = 5.7e-14 rad for a target-B a-pulse at 8 tau0 = 24 ns.
#: Over 60 such designs (tau0 2-3 ns, k 1-2) the worst rounding was
#: 4.6e-14 rad and moved the states by 3.2e-14.
MIRROR_TOL = 1e-13


# No shrinking, as for the kernel property in test_rk4_numpy.
@pytest.mark.parametrize("levels", [3, 4])
@settings(
    max_examples=6, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(
    tau0=st.floats(0.5, 3.0),
    target=st.sampled_from(["B", "C"]),
    convention=st.sampled_from(list(PhaseConvention)),
    k=st.integers(0, 2),
    kprime=st.integers(0, 2),
    l=st.integers(-1, 1),
)
def test_mirror_law_holds_on_random_designs(molecule, levels, **design):
    spec = DesignSpec(**design)
    pulses = designed_pulses(molecule, spec)
    a = pulses["a"]
    _, omega_a = molecule.channel_transition("a")
    shifted = {**pulses, "a": replace(a, phase=realize_phase(
        design_phases(spec)["a"] + math.pi, omega_a, a.carrier, a.center_time, a.convention
    ))}
    right = propagate(molecule, pulses, R, levels=levels)
    left = propagate(molecule, shifted, L, levels=levels)
    assert np.abs(right.states - left.states).max() <= MIRROR_TOL


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
    _, [args] = _run_args(molecule, pulses, (hand,), 4, grid)
    t_ref, s_ref, e_ref = direct_rk4(*args)
    np.testing.assert_array_equal(traj.times, t_ref)
    assert np.abs(traj.norm_errors - e_ref).max() <= 1e-12
    assert np.abs(traj.states - s_ref).max() <= 1e-13
    assert np.abs(s_ref[:, 0]).min() < 0.9  # the comparison is not vacuous


# ---------------------------------------------------------------------------
# Diagnostics and guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk_steps", [
    pytest.param(4096, id="numpy"),  # one chunk holds the run
    pytest.param(160, id="numpy-first-of-chunk"),  # 10 samples a chunk
    pytest.param(64, id="numpy-mid-chunk"),  # 4 samples a chunk
])
def test_non_finite_guard_names_first_bad_sample(molecule, monkeypatch, chunk_steps):
    # propagate finds the first non-finite sample (11) of the whole run,
    # whether it opens a chunk or lies inside one, on the path rk4_run
    # picks (the pool, for several chunks) and then with one usable CPU.
    monkeypatch.setattr(_rk4_numpy, "rk4_run", partial(_rk4_numpy.rk4_run, chunk_steps=chunk_steps))
    pulse, grid = overflow_case(molecule)
    for one_cpu in (False, True):
        if one_cpu:
            monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalGuardError) as raised:
                propagate(molecule, [pulse], L, levels=3, grid=grid)
        assert str(raised.value) == (
            "state went non-finite at t = -1.824 ns (sample 11); "
            "the grid or the pulse set is pathological"
        )


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


@pytest.mark.parametrize("case,chunk_steps,levels", [
    pytest.param("designed", 4096, 4, id="partial-last-chunk"),  # 4,096 + 256 steps
    pytest.param("designed", 8192, 4, id="one-chunk"),
    pytest.param("designed", 1024, 3, id="three-levels"),
    pytest.param("overflow", 160, 3, id="overflow-160"),  # 13 chunks
    pytest.param("overflow", 64, 3, id="overflow-64"),  # 32 chunks
])
def test_pool_path_gives_in_process_bits(molecule, monkeypatch, case, chunk_steps, levels):
    # The chunk ranges built on the worker processes must give the bits of
    # one in-process build over the whole run.  The designed run's second
    # range is its partial last chunk alone; the overflow runs go
    # non-finite at sample 11, and their non-finite tails must match too.
    # Both paths' states must be those of a per-sample np.matmul chain
    # over the run's propagators, to the byte.
    if case == "designed":
        args = designed_args(molecule, DesignSpec(target="C", tau0=0.3), levels, L)
    else:
        pulse, grid = overflow_case(molecule)
        _, [args] = _run_args(molecule, [pulse], (L,), 3, grid)
    (pooled, alone), (pool_built, alone_built) = run_both_paths(monkeypatch, args, chunk_steps)
    for got, want in zip(pooled, alone):
        assert got.tobytes() == want.tobytes()
    finite = np.isfinite(alone[2])
    assert finite.all() if case == "designed" else finite[:11].all() and not finite[11]
    n_steps = args[2]
    with np.errstate(over="ignore", invalid="ignore"):
        chain = [args[16]]
        chunk = _rk4_numpy._chunk_length(args[3], chunk_steps)
        for p in _rk4_numpy._propagators(args, 0, n_steps, chunk):
            chain.append(np.matmul(p, chain[-1]))
    assert np.array(chain).tobytes() == alone[1].tobytes()
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
    _, [args] = _run_args(molecule, [pulse], (L,), 3, grid)
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


@pytest.mark.parametrize("after", ["coarse-grid", "failing-design"])
def test_pipelined_run_raises_its_own_error_first(molecule, monkeypatch, builds, after):
    # The second set's run goes non-finite.  The third set fails while the
    # second is built: queueing it raises GridTooCoarseError, or the set
    # iterable itself raises.  The second run's error must surface first,
    # and every build must be dropped.
    clean, blowup, fast = pipe_sets(molecule)
    raised = raising_spy(monkeypatch, propagator, "_run_args")

    def sets():
        yield clean
        yield blowup
        if after == "failing-design":
            raise ValueError("no design for this point")
        yield fast

    done = []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalGuardError, match="non-finite"):
            for pulses, hand in ahead(molecule, sets(), 3, PIPE_GRID):
                propagate(molecule, pulses, hand, levels=3, grid=PIPE_GRID)
                done.append(pulses)
    assert done == [clean[0]]
    assert len(builds) == 2 and not live(builds) and queued_run() is None
    assert raised == ([GridTooCoarseError] if after == "coarse-grid" else [])


def test_closing_ahead_drops_its_queued_builds(molecule, builds):
    # Leaving the loop after the first hand of a pulse set, not taken,
    # closes the generator, which must drop that set's build and the next
    # set's, and clear the run it was yielding.
    (pulses, _), *_ = pipe_sets(molecule)
    other = [replace(pulses[0], phase=1.0)]
    for _ in ahead(molecule, [(pulses, BOTH), (other, (L,))], 3, PIPE_GRID):
        waiting, held = queued_run(), live(builds)
        break
    assert waiting[0][2] is L and held == len(builds) == 2
    assert not live(builds) and queued_run() is None


def test_a_dropped_build_sends_none_of_its_unsent_ranges(
    molecule, monkeypatch, builds, fresh_pool
):
    # With one range in flight per worker, the first set's two ranges fill
    # the two workers and the next set's wait in the caller.  Closing the
    # generator drops both builds: the waiting ranges must never reach a
    # worker, and the ranges in flight are read back but not unpickled.
    monkeypatch.setattr(_rk4_numpy, "_DEPTH", 1)
    sent, real = [], _rk4_numpy._Worker.send
    monkeypatch.setattr(_rk4_numpy._Worker, "send", lambda self, task: sent.append(task) or real(self, task))
    (pulses, _), *_ = pipe_sets(molecule)
    other = [replace(pulses[0], phase=1.0)]
    for _ in ahead(molecule, [(pulses, BOTH), (other, BOTH)], 3, PIPE_GRID):
        first, following = (build.tasks for build in builds)
        break
    assert len(first) == len(following) == 2
    assert sent == first
    propagate(molecule, other, L, levels=3, grid=PIPE_GRID)  # frees the workers
    assert len(sent) == 4 and not any(task in sent for task in following)
    # a worker is free for the later run only once its range was read
    assert any(task.done for task in first) and all(task.result is None for task in first)


def test_a_pooled_run_starts_no_thread(molecule, monkeypatch, fresh_pool):
    # The caller forks the pool, sends the ranges and reads the results
    # itself: no thread is started, while the runs go on or after them.
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    before = threading.active_count()
    pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=0.5))
    for run, hand in ahead(molecule, [(pulses, BOTH)], 3):
        assert propagate(molecule, run, hand, levels=3).grid.n_steps > _rk4_numpy.CHUNK_STEPS
        assert threading.active_count() == before
    assert _rk4_numpy._POOL is not None and threading.active_count() == before


def test_a_first_hand_that_raises_leaves_nothing_queued(molecule, builds):
    # Both hands of the overflowing pulse set share one build.  The first
    # hand's run goes non-finite, which closes the generator: the build the
    # second hand would have taken, and the next set's, must be dropped.
    (pulses, _), *_ = pipe_sets(molecule)
    blowup = [overflow_case(molecule)[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalGuardError, match="non-finite"):
            for run, hand in ahead(molecule, [(blowup, BOTH), (pulses, (L,))], 3, PIPE_GRID):
                assert live(builds) == 2
                propagate(molecule, run, hand, levels=3, grid=PIPE_GRID)
    assert len(builds) == 2 and not live(builds) and queued_run() is None


def test_ahead_reads_sets_no_further_than_the_next_one(molecule):
    # Set k + 1 is read, and queued, before set k's first run is yielded,
    # and no set past it; after the last set, the end of the sets is read.
    (pulses, _), *_ = pipe_sets(molecule)
    sets = [([replace(pulses[0], phase=phase)], BOTH) for phase in (0.0, 1.0, 2.0)]
    sets.append((sets[0][0], (L,)))
    read, seen = [], []

    def reading():
        for pulse_set in sets:
            read.append(pulse_set)
            yield pulse_set

    for run, hand in ahead(molecule, reading(), 3, PIPE_GRID):
        seen.append(len(read))
        propagate(molecule, run, hand, levels=3, grid=PIPE_GRID)
    assert seen == [2, 2, 3, 3, 4, 4, 4]


def test_a_single_hand_call_submits_a_one_hand_build(molecule, monkeypatch):
    # Alone or through ahead, one hand of a pulse set builds that hand only.
    real, hands = _rk4_numpy.submit, []
    monkeypatch.setattr(_rk4_numpy, "submit", lambda runs, *a: hands.append(len(runs)) or real(runs, *a))
    (pulses, _), *_ = pipe_sets(molecule)
    propagate(molecule, pulses, R, levels=3, grid=PIPE_GRID)
    for run, hand in ahead(molecule, [(pulses, (L,))], 3, PIPE_GRID):
        propagate(molecule, run, hand, levels=3, grid=PIPE_GRID)
    assert hands == [1, 1]
    for run, hand in ahead(molecule, [(pulses, BOTH)], 3, PIPE_GRID):
        propagate(molecule, run, hand, levels=3, grid=PIPE_GRID)
    assert hands == [1, 1, 2]


def recorded_warnings(run):
    """Every warning ``run()`` raises, as (category, message), in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return [(w.category, str(w.message)) for w in caught]


def test_each_hand_of_a_shared_build_raises_its_lone_warnings(molecule):
    # The overflow run warns while its fields are evaluated (shared) and
    # while each hand's stages are built.  Each hand must raise its lone
    # run's warnings, neither fewer nor the other hand's as well.
    pulse, grid = overflow_case(molecule)
    _, runs = _run_args(molecule, [pulse], BOTH, 3, grid)
    with np.errstate(all="warn"):
        alone = [recorded_warnings(partial(_rk4_numpy.rk4_run, *args, 160)) for args in runs]
        build = _rk4_numpy.submit(runs, 160)
        shared = [
            recorded_warnings(partial(_rk4_numpy.rk4_run, *args, 160, build=build and build.take(k)))
            for k, args in enumerate(runs)
        ]
    assert ("RuntimeWarning", "underflow encountered in exp") in [
        (c.__name__, m) for c, m in alone[0]
    ]  # a warning of the shared part
    assert shared == alone


def test_a_queued_build_is_taken_only_by_its_exact_call(molecule, monkeypatch):
    # A queued run is keyed by its propagate call: molecule, pulses, hand,
    # levels, grid and numpy error state.  A call that differs in any of
    # them builds its own run and leaves the queued one in the slot.
    (pulses, _), *_ = pipe_sets(molecule)
    real, built = propagator._run_args, []
    for run, hand in ahead(molecule, [(pulses, (L,))], 3, PIPE_GRID):
        queued = queued_run()
        with np.errstate(divide="raise"):
            propagate(molecule, pulses, L, levels=3, grid=PIPE_GRID)
        propagate(molecule, pulses, R, levels=3, grid=PIPE_GRID)
        propagate(molecule, pulses, L, levels=4, grid=PIPE_GRID)
        propagate(molecule, pulses, L, levels=3, grid=replace(PIPE_GRID, sample_stride=8))
        assert queued_run() is queued

        monkeypatch.setattr(propagator, "_run_args", lambda *args: built.append(args) or real(*args))
        taken = propagate(molecule, run, hand, levels=3, grid=PIPE_GRID)
        assert queued_run() is None and not built  # the queued run, as it was built
        alone = propagate(molecule, pulses, L, levels=3, grid=PIPE_GRID)
        assert len(built) == 1
    assert run_bytes(taken) == run_bytes(alone)


@pytest.mark.parametrize("levels", [3, 4])
def test_norm_errors_carry_the_bits_of_each_samples_vdot(molecule, monkeypatch, levels):
    # Both hands of a multi-chunk pulse set, built as one on the pool: each
    # sample's |norm - 1| must be abs(vdot(s, s).real - 1) to the bit, though
    # the kernel takes the norms of all samples in one pass.
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=0.5))
    for run, hand in ahead(molecule, [(pulses, BOTH)], levels):
        traj = propagate(molecule, run, hand, levels=levels)
        assert traj.grid.n_steps > _rk4_numpy.CHUNK_STEPS
        want = np.array([abs(np.vdot(s, s).real - 1.0) for s in traj.states])
        assert traj.norm_errors.tobytes() == want.tobytes()
        assert want.max() > 0.0  # the comparison is not vacuous


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

"""Tests for the experiment drivers: traces, landscapes, detuning curves, CSV.

The propagation-backed fixtures are module-scoped, and the designed 4-level
runs are the session's, shared with the acceptance criteria; everything
that can be checked on an already-computed result shares them.  Landscape
grids are kept deliberately tiny (a handful of points) -- the physics
assertions live on lattice-special points (constructive / destructive
phases, coincident delays) where the expected values are known a priori.
"""
from __future__ import annotations

import hashlib
import math
import os
import threading
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esst import _rk4_numpy, experiments, propagator
from esst.areas import DesignSpec, design_amplitudes, designed_pulses
from esst.experiments import (
    DetuningResult,
    SweepResult,
    read_snapshot,
    sweep_delays,
    sweep_detuning,
    sweep_phase_duration,
    write_detuning_csv,
    write_landscape_csv,
    write_trace_csv,
)
from esst.model import basis_for_levels, get_preset, mhz_to_rad_per_ns
from esst.propagator import GridTooCoarseError, NumericalGuardError, populations, propagate
from esst.pulses import PhaseConvention
from helpers import (
    BOTH, PIPE_GRID, TAU0, L, R, live, pipe_sets, queued_run, raising_spy, run_bytes,
)

PHASE_GRID = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])


# ---------------------------------------------------------------------------
# Module-scoped expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_c3(molecule, pulses_c):
    return {hand: propagate(molecule, pulses_c, hand, levels=3) for hand in BOTH}


@pytest.fixture(scope="module")
def phase_sweep(molecule, spec_c):
    """Stage-1 phase scan at the design duration, three-level for speed."""
    return sweep_phase_duration(molecule, spec_c, PHASE_GRID, [TAU0], levels=3)


@pytest.fixture(scope="module")
def delay_sweep(molecule):
    """Stage-2 delay scan under absolute carrier phases (plateau regime)."""
    spec = DesignSpec(target="C", convention=PhaseConvention.ABSOLUTE)
    delays = [0.0, 3.0 * TAU0]
    return sweep_delays(molecule, spec, delays, delays, levels=3)


@pytest.fixture(scope="module")
def detuning_analytic(molecule, spec_c):
    delta = 1.0 / TAU0
    scales = [1.0, math.exp(0.5)]
    return sweep_detuning(
        molecule, spec_c, [delta], scales, mode="scale_b", engine="analytic"
    )


# ---------------------------------------------------------------------------
# Designed trajectories of both hands
# ---------------------------------------------------------------------------


def test_trace_returns_both_hands(trace_c4):
    assert set(trace_c4) == {L, R}
    for traj in trace_c4.values():
        assert traj.basis.dim == 4


def test_trace_intermediate_even_split(trace_c4):
    # Between the stages the first pulse has put the system in the designed
    # 50/50 superposition of |A> and |B>; the target is still empty.
    traj = trace_c4[L]
    boundary = 4.0 * TAU0
    k = int(np.argmin(np.abs(traj.times - boundary)))
    pops = populations(traj)
    assert pops[k, 0] == pytest.approx(0.5, abs=0.005)
    assert pops[k, 2] == pytest.approx(0.5, abs=0.005)
    assert pops[k, 3] < 1e-3


def test_trace_guard_level_stays_dark(trace_c4):
    # At tau0 = 35 ns the pulse bandwidth is ~5e3 times smaller than the
    # detuning of the off-resonant partner level, so leakage never builds up.
    for traj in trace_c4.values():
        guard = populations(traj)[:, 1]
        assert guard.max() < 1e-3


def test_trace_starts_in_ground_state(trace_c4, trace_b4):
    for traj in (*trace_c4.values(), trace_b4):
        pops = populations(traj)
        assert pops[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(traj.times) > 0)


def test_spectator_level_decouples(trace_c4, trace_c3):
    # Dropping the far-detuned partner level moves the answer by less than
    # the advertised guard bound.
    for hand in BOTH:
        p4 = populations(trace_c4[hand])[-1]
        p3 = populations(trace_c3[hand])[-1]
        reduced = np.array([p4[0], p4[2], p4[3]])
        np.testing.assert_allclose(reduced, p3, atol=1e-3)


@pytest.mark.parametrize("engine,calls", [("exact", 4), ("analytic", 2)])
def test_sweep_core_work_items(molecule, monkeypatch, engine, calls):
    # The core looks its workers up in the module namespace: exact sweeps
    # propagate once per (point, hand), analytic ones evaluate once per
    # point, and every call runs on the caller's thread.
    name = "propagate" if engine == "exact" else "analytic_final_populations"
    real = getattr(experiments, name)
    seen = []

    def counting(*args, **kwargs):
        seen.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counting)
    spec = DesignSpec(target="C", tau0=2.0)
    result = sweep_detuning(molecule, spec, [0.1], [1.0, 1.5], engine=engine, levels=3)
    assert seen == [threading.get_ident()] * calls
    for hand in BOTH:
        assert result.populations[hand].shape == (1, 2)


def test_analytic_sweep_makes_one_closed_form_call_per_point(molecule, spec_b, monkeypatch):
    # The design benchmark reads the closed form through this seam: one call
    # per grid point, each giving one population array per hand.
    real = experiments.analytic_final_populations
    calls = []

    def counted(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(experiments, "analytic_final_populations", counted)
    sweep_detuning(
        molecule, spec_b, np.linspace(0.5, 1.5, 7) / spec_b.tau0,
        np.linspace(1.0, 1.8, 7), mode="scale_b", engine="analytic",
    )
    assert len(calls) == 49
    for pops in calls:
        assert list(pops) == list(BOTH)
        for hand in BOTH:
            assert pops[hand].shape == (3,)
            assert pops[hand].sum() == pytest.approx(1.0, abs=1e-12)


def test_analytic_sweep_uses_each_points_design(molecule, spec_c):
    # The points move tau0 from the outer spec's 35 ns to 5 and 6 ns.  The
    # closed form must take its stage windows from each point's design: with
    # the outer spec's windows both hands read P_C ~ 1e-105 or less.
    def pulses_at(phase, tau0):
        point = replace(spec_c, tau0=tau0)
        return point, designed_pulses(molecule, point)

    got = {
        engine: experiments._sweep(
            molecule, spec_c, np.array([0.0]), np.array([5.0, 6.0]), pulses_at,
            engine=engine, levels=3,
        )
        for engine in experiments.ENGINES
    }
    for hand in BOTH:
        np.testing.assert_allclose(got["analytic"][hand], got["exact"][hand], rtol=0, atol=1e-2)
    assert got["exact"][L].min() > 0.99  # the comparison is not vacuous


def test_pipelined_sweep_gives_the_bits_of_single_runs(molecule, monkeypatch, builds):
    # Both hands of each point are queued as one build while the caller
    # samples the point before.  Every trajectory must have the bits of the
    # same call made alone; each call must find its own run waiting, and
    # only this point's build and the next point's may be held.
    real_propagate = experiments.propagate
    runs, depth = [], []

    def recording(molecule, pulses, hand, **kwargs):
        assert queued_run()[0][2] is hand
        depth.append(live(builds))
        runs.append((pulses, hand, kwargs, real_propagate(molecule, pulses, hand, **kwargs)))
        return runs[-1][-1]

    monkeypatch.setattr(experiments, "propagate", recording)
    spec = DesignSpec(target="C", tau0=1.0)  # 4-5 chunks a run
    result = sweep_phase_duration(molecule, spec, [0.0, 2.0], [1.0, 1.25], levels=3)
    assert len(runs) == 8
    assert depth == [2] * 6 + [1] * 2 and len(builds) == 4 and not live(builds)
    for pulses, hand, kwargs, traj in runs:
        assert run_bytes(traj) == run_bytes(propagate(molecule, pulses, hand, **kwargs))
    finals = [float(np.abs(traj.final_state[traj.basis.index("C")]) ** 2) for *_, traj in runs]
    assert [result.populations[hand][i, j] for i in range(2) for j in range(2)
            for hand in BOTH] == finals


def test_sweep_raises_the_error_of_its_failing_point(molecule, monkeypatch, builds):
    # Point 1 goes non-finite; point 2 is too fast for the grid, which
    # shows already when it is queued while point 1 is sampled.  With one
    # hand a point, point 1's run is the last one before point 2, so
    # point 2 is designed and queued.  The sweep must raise point 1's
    # error, not point 2's, and drop every build.
    sets = pipe_sets(molecule)
    designed = []

    def pulses_at(point, _):
        designed.append(int(point))
        return None, sets[int(point)][0]

    monkeypatch.setattr(propagator, "default_grid", lambda *args: PIPE_GRID)
    raised = raising_spy(monkeypatch, propagator, "_run_args")
    monkeypatch.setattr(experiments, "BOTH_HANDS", (L,))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalGuardError, match="non-finite"):
            experiments._sweep(
                molecule, DesignSpec(target="C"), np.arange(3.0), np.zeros(1), pulses_at,
                engine="exact", levels=3,
            )
    assert designed == [0, 1, 2]
    assert raised == [GridTooCoarseError]
    assert len(builds) == 2 and not live(builds)


def test_a_point_that_cannot_be_designed_fails_after_the_point_before(molecule, monkeypatch):
    # Point 2's tau0 fails its design while point 1 is queued, one set
    # ahead.  The sweep must raise that error once both of point 1's runs
    # are propagated, not before them and not a later failure of its own.
    real, hands = experiments.propagate, []

    def counting(molecule, pulses, hand, **kwargs):
        hands.append(hand)
        return real(molecule, pulses, hand, **kwargs)

    monkeypatch.setattr(experiments, "propagate", counting)
    with pytest.raises(ValueError) as raised:
        sweep_phase_duration(molecule, DesignSpec(target="C", tau0=2.0), [0.0], [2.0, -1.0], levels=3)
    assert str(raised.value) == "tau0 must be > 0 ns, got -1.0"
    assert hands == list(BOTH)


def test_a_pipelined_run_builds_its_arguments_once(molecule, monkeypatch):
    # Queuing a point builds its grid and both hands' kernel arguments in
    # one call; each hand's propagate call takes them instead of building
    # them again.
    real, built = propagator._run_args, []
    monkeypatch.setattr(propagator, "_run_args", lambda *args: built.append(args) or real(*args))
    spec = DesignSpec(target="C", tau0=1.0)
    sweep_phase_duration(molecule, spec, [0.0, 2.0], [1.0, 1.25], levels=3)
    assert [tuple(hands) for _, _, hands, *_ in built] == [BOTH] * 4


def test_a_repeated_point_gives_the_bits_of_single_runs(molecule, monkeypatch, builds):
    # Points 0 and 1 are one pulse set, queued while point 0's runs are:
    # each point still has its own build of both hands.  Every trajectory
    # must have the bits of the same call made alone, and every build must
    # be dropped.
    real_submit, real_propagate = _rk4_numpy.submit, experiments.propagate
    submitted, runs = [], []

    def recording(molecule, pulses, hand, **kwargs):
        runs.append((pulses, hand, kwargs, real_propagate(molecule, pulses, hand, **kwargs)))
        return runs[-1][-1]

    monkeypatch.setattr(
        _rk4_numpy, "submit", lambda r, *a: submitted.append(len(r)) or real_submit(r, *a)
    )
    monkeypatch.setattr(experiments, "propagate", recording)
    spec = DesignSpec(target="C", tau0=1.0)
    result = sweep_phase_duration(molecule, spec, [0.5, 0.5, 2.0], [1.0], levels=3)
    assert submitted == [2, 2, 2]
    # both hands took every range of every build, and each build was dropped
    assert all(task.result == [None, None] for build in builds for task in build.tasks)
    assert not live(builds)
    for hand in BOTH:
        assert result.populations[hand][0, 0] == result.populations[hand][1, 0]
    for pulses, hand, kwargs, traj in runs:
        assert run_bytes(traj) == run_bytes(propagate(molecule, pulses, hand, **kwargs))


def test_a_pipelined_sweep_builds_a_points_table_once_per_process(
    molecule, monkeypatch, tmp_path, fresh_pool
):
    # Both hands of a point share its grid, and so its phasor table.  Every
    # process that builds the point's ranges keeps the table from one range
    # to the next, so it builds the table at most once per point: at most
    # 4 times here, where one table per range makes about 8 per process.
    log, real = tmp_path / "tables", _rk4_numpy._phasor_table

    def logged(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(_rk4_numpy, "_phasor_table", logged)  # the fresh workers fork with it
    try:
        spec = DesignSpec(target="C", tau0=1.0)
        sweep_phase_duration(molecule, spec, [0.0, 2.0], [1.0, 1.25], levels=3)
    finally:
        _rk4_numpy._shutdown()
    builds = Counter(log.read_text(encoding="utf-8").split())
    assert builds and max(builds.values()) <= 4


# ---------------------------------------------------------------------------
# sweep_phase_duration
# ---------------------------------------------------------------------------


def test_phase_sweep_metadata(phase_sweep):
    assert isinstance(phase_sweep, SweepResult)
    assert phase_sweep.axis1_name == "phi_a_rad"
    assert phase_sweep.axis2_name == "tau0_ns"
    assert phase_sweep.target == "C"
    for hand in BOTH:
        assert phase_sweep.populations[hand].shape == (PHASE_GRID.size, 1)


def test_phase_sweep_bounds(phase_sweep):
    for hand in BOTH:
        grid = phase_sweep.populations[hand]
        assert np.all(grid >= 0.0)
        assert np.all(grid <= 1.0 + 1e-6)


def test_phase_sweep_constructive_points(phase_sweep):
    # phi_a = pi/2 drives the left enantiomer to the target, phi_a = 3pi/2
    # the right one; each is dark at the other's constructive phase.
    left = phase_sweep.populations[L][:, 0]
    right = phase_sweep.populations[R][:, 0]
    assert left[1] > 0.999
    assert right[3] > 0.999
    assert left[3] < 1e-3
    assert right[1] < 1e-3


def test_phase_sweep_enantiomers_swap_under_pi_shift(phase_sweep):
    # Flipping the signed channel's phase by pi is exactly a handedness flip,
    # so the two grids are each other's half-period translations.
    left = phase_sweep.populations[L][:, 0]
    right = phase_sweep.populations[R][:, 0]
    shifted = np.roll(left, -2)  # phase grid spacing is pi/2
    np.testing.assert_allclose(right, shifted, atol=1e-6)


def test_phase_sweep_achiral_phases(phase_sweep):
    # At phi_a = 0 and pi the two enantiomers are indistinguishable.
    left = phase_sweep.populations[L][:, 0]
    right = phase_sweep.populations[R][:, 0]
    assert abs(left[0] - right[0]) < 1e-3
    assert abs(left[2] - right[2]) < 1e-3


# ---------------------------------------------------------------------------
# sweep_delays
# ---------------------------------------------------------------------------


def test_delay_sweep_metadata(delay_sweep):
    assert delay_sweep.axis1_name == "delay_b_ns"
    assert delay_sweep.axis2_name == "delay_c_ns"
    for hand in BOTH:
        assert delay_sweep.populations[hand].shape == (2, 2)
        assert np.all(delay_sweep.populations[hand] >= 0.0)
        assert np.all(delay_sweep.populations[hand] <= 1.0 + 1e-6)


def test_delay_sweep_plateau_and_overlap(delay_sweep):
    left = delay_sweep.populations[L]
    # Coincident stage-2 pulses, well separated from stage 1: full transfer.
    assert left[1, 1] > 0.999
    # All three pulses simultaneous: the cyclic interference is partially
    # spoiled but most of the population still arrives.
    assert left[0, 0] > 0.90
    assert left[0, 0] < left[1, 1]


def test_delay_sweep_reversed_stage_order_runs(molecule):
    # Stage 2 entirely before stage 1 is a legal (if useless) experiment for
    # the numerical engine; it must produce bounded populations, not errors.
    spec = DesignSpec(target="C", convention=PhaseConvention.ABSOLUTE)
    shift = -12.0 * TAU0
    result = sweep_delays(molecule, spec, [shift], [shift], levels=3)
    for hand in BOTH:
        grid = result.populations[hand]
        assert np.all(np.isfinite(grid))
        assert np.all(grid >= 0.0)
        assert np.all(grid <= 1.0 + 1e-6)


# ---------------------------------------------------------------------------
# sweep_detuning
# ---------------------------------------------------------------------------


def test_detuning_resonant_point_is_perfect(molecule, spec_c):
    result = sweep_detuning(
        molecule, spec_c, [0.0], [1.0], mode="scale_b", engine="analytic"
    )
    assert result.populations[L][0, 0] > 1.0 - 1e-6
    assert result.populations[R][0, 0] < 1e-6


def test_detuning_compensation_restores_transfer(detuning_analytic):
    left = detuning_analytic.populations[L][0]
    # Uncompensated, the detuned channel under-rotates; rescaling by the
    # spectral roll-off inverse restores the designed point.
    assert left[1] > 1.0 - 1e-6
    assert left[1] > left[0] + 1e-3


def test_detuning_metadata(detuning_analytic):
    assert isinstance(detuning_analytic, DetuningResult)
    assert detuning_analytic.mode == "scale_b"
    assert detuning_analytic.engine == "analytic"
    assert detuning_analytic.target == "C"


def test_detuning_rejects_unknown_mode(molecule, spec_c):
    with pytest.raises(ValueError, match="unknown mode"):
        sweep_detuning(molecule, spec_c, [0.0], [1.0], mode="scale_abc")


def test_detuning_rejects_unknown_engine(molecule, spec_c):
    with pytest.raises(ValueError, match="unknown engine"):
        sweep_detuning(molecule, spec_c, [0.0], [1.0], engine="magic")


def _pulse_bits(pulses):
    """Channel order and every field of every pulse, floats as exact hex."""
    return [
        (channel, [
            value.hex() if isinstance(value, float) else value
            for value in (getattr(pulse, f.name) for f in fields(pulse))
        ])
        for channel, pulse in pulses.items()
    ]


# Detunings up to about 2/tau0 and scales up to 2, signed zeros included.
_DELTAS = st.lists(
    st.floats(-0.06, 0.06) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=3
)
_SCALES = st.lists(
    st.floats(0.0, 2.0) | st.sampled_from([1.0, -0.0]), min_size=1, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(sorted(experiments.DETUNING_MODES)),
    target=st.sampled_from(["B", "C"]),
    convention=st.sampled_from(list(PhaseConvention)),
    deltas=_DELTAS,
    scales=_SCALES,
)
def test_detuning_sweep_builds_the_bits_of_a_full_design(
    molecule, mode, target, convention, deltas, scales
):
    # Each point builds only its mode's channels on the base design; its
    # pulses and populations must have the bits of designing every channel
    # again at that point.
    spec = DesignSpec(target=target, convention=convention)
    channels = experiments.DETUNING_MODES[mode]
    real = experiments.analytic_final_populations
    seen = []

    def recording(molecule, pulses, design):
        seen.append(pulses)
        return real(molecule, pulses, design)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "analytic_final_populations", recording)
        result = sweep_detuning(
            molecule, spec, deltas, scales, mode=mode, engine="analytic"
        )

    idx = ("A", "B", "C").index(target)
    amplitudes = design_amplitudes(molecule, spec)
    points = [(d, k) for d in deltas for k in scales]
    assert len(seen) == len(points)
    expected = {hand: [] for hand in BOTH}
    for pulses, (delta, scale) in zip(seen, points):
        full = designed_pulses(
            molecule, spec,
            detunings={ch: delta for ch in channels},
            scales={ch: scale for ch in channels},
        )
        assert _pulse_bits(pulses) == _pulse_bits(full)
        # The detuned channels follow the documented carrier and amplitude
        # rules, so a slip shared by both builds still shows.
        for ch in channels:
            carrier_mhz = (
                molecule.channel_transition_mhz(ch) + delta / mhz_to_rad_per_ns(1.0)
            )
            assert pulses[ch].carrier_mhz.hex() == carrier_mhz.hex()
            assert pulses[ch].area_param.hex() == (amplitudes[ch] * scale).hex()
        pops = real(molecule, full, spec)
        for hand in BOTH:
            expected[hand].append(float(pops[hand][idx]))
    for hand in BOTH:
        want = np.array(expected[hand]).reshape(len(deltas), len(scales))
        assert result.populations[hand].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

SNAPSHOT = "[molecule]\npreset = cyclohexylmethanol\n\n[design]\ntarget = C\n"


def test_snapshot_round_trip(tmp_path, trace_c3):
    path = os.path.join(tmp_path, "snap.csv")
    write_trace_csv(path, trace_c3[L], snapshot=SNAPSHOT)
    assert read_snapshot(path) == SNAPSHOT


def test_snapshot_preserves_blank_lines(tmp_path, detuning_analytic):
    text = "[a]\nx = 1\n\n[b]\ny = 2\n"
    path = os.path.join(tmp_path, "snap2.csv")
    write_detuning_csv(path, detuning_analytic, snapshot=text)
    assert read_snapshot(path) == text


def test_read_snapshot_without_snapshot(tmp_path, phase_sweep):
    path = os.path.join(tmp_path, "bare.csv")
    write_landscape_csv(path, phase_sweep)
    assert read_snapshot(path) == ""


# Hand-built results whose cells cover the float forms a writer must keep:
# signed zeros, a subnormal-adjacent 1e-300 and a large 3e20.
EDGE = np.array([0.0, -0.0, 1e-300, 3e20])


def _edge_trajectory(levels, hand):
    basis = basis_for_levels(get_preset("cyclohexylmethanol"), levels)
    amps = np.array([0.0, -0.0, 1e-150, 1.5e10, 0.5, -0.25j, 1e-160 + 1e-150j, 1.0])
    states = np.resize(amps, (EDGE.size, levels)) + 0j
    grid = propagator.GridConfig(t_start=0.0, t_end=1.0, dt=0.5)
    return propagator.Trajectory(basis, hand, EDGE.copy(), states, EDGE[::-1].copy(), grid)


def _edge_grid(shift):
    return np.roll(EDGE, shift).reshape(2, 2)


EDGE_SWEEP = SweepResult(
    axis1_name="phi_a_rad", axis2_name="tau0_ns",
    axis1_values=EDGE[:2].copy(), axis2_values=EDGE[2:].copy(), target="C",
    populations={L: _edge_grid(1), R: _edge_grid(2)},
)
EDGE_DETUNING = DetuningResult(
    delta_values=EDGE[2:].copy(), scale_values=EDGE[:2].copy(), mode="scale_ac",
    engine="exact", target="B",
    populations={L: _edge_grid(3), R: _edge_grid(0)},
)

# sha256 of each writer's bytes, with (True) and without (False) a snapshot.
WRITER_PINS = {
    ("trace3", L, False): "506f48853a3afebe41ff99428279144781309712f041263f7e233fe8f8697f6e",
    ("trace3", L, True): "fd36b4dc35286dcd68e2fa00d357fdbb8160458f84b97bd4cfa15bebd369e5bd",
    ("trace3", R, False): "e2ca79fd915981bc345cf5d854afa1741d7d6ba5c67ce8399f5af30c555569fc",
    ("trace3", R, True): "917f33436927edac7cd9c3451715dec589d6b9eb5028d4f1a7d602e8f4238095",
    ("trace4", L, False): "7f35aa7a0497513492ffeb7b1b98c22951d72046bd70fa0577d179b1f9ca5b0f",
    ("trace4", L, True): "ac55542d1154ee548d5fd7797bde717084e8a0e85d4c5444d1ad44d1771957dd",
    ("trace4", R, False): "3f47fe357d857f90777f8c05fea8960db2655c207779049c121dae9f71e03b9a",
    ("trace4", R, True): "d2a86e2f3fe9f4af28772b21bdffcf92c28935e172b462f5f7c3adcc8edac2c3",
    ("landscape", None, False): "990875d256e655b4b269be858b864ae627480aa5479d067e23b45575701228f4",
    ("landscape", None, True): "5630eba58e474a9bcf2ed21ce5db1ca282f4eb67b7b4efbd688774fc4277312e",
    ("detuning", None, False): "bd8b8ce4c1d94ab6ec3af531dcebdb61aa57d3465a1e8ecfe8109397142d31ac",
    ("detuning", None, True): "e9760557db64ea4f35b61d9c0eb854a1b0e2a11b77fc3eda8914801b811937d5",
}


@pytest.mark.parametrize("kind,hand,with_snapshot", list(WRITER_PINS))
def test_writers_keep_their_bytes(tmp_path, kind, hand, with_snapshot):
    path = tmp_path / "out.csv"
    snapshot = "[a]\nx = 1\n\n[b]\ny = -0.0\n" if with_snapshot else None
    if kind.startswith("trace"):
        traj = _edge_trajectory(int(kind[-1]), hand)
        table = write_trace_csv(path, traj, snapshot)
        assert table.tobytes() == propagator.trace_table(traj).tobytes()
    elif kind == "landscape":
        assert write_landscape_csv(path, EDGE_SWEEP, snapshot) is None
    else:
        assert write_detuning_csv(path, EDGE_DETUNING, snapshot) is None
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == WRITER_PINS[kind, hand, with_snapshot]

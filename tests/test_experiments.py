"""Tests for the experiment drivers: traces, landscapes, detuning curves, CSV.

The propagation-backed fixtures are module-scoped; everything that can be
checked on an already-computed result shares them.  Landscape grids are kept
deliberately tiny (a handful of points) -- the physics assertions live on
lattice-special points (constructive / destructive phases, coincident delays)
where the expected values are known a priori.
"""
from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from esst import experiments, propagator
from esst.areas import DesignSpec, designed_pulses
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
from esst.model import Handedness
from esst.propagator import (
    GridTooCoarseError, NumericalGuardError, norm_drift, populations, propagate,
)
from esst.pulses import PhaseConvention
from test_propagator import PIPE_GRID, pipe_runs

L, R = Handedness.LEFT, Handedness.RIGHT
BOTH = (L, R)

TAU0 = 35.0
PHASE_GRID = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])


# ---------------------------------------------------------------------------
# Module-scoped expensive runs
# ---------------------------------------------------------------------------


def _both_hands(molecule, spec, levels):
    """The designed sequence propagated for both enantiomers."""
    pulses = designed_pulses(molecule, spec)
    return {hand: propagate(molecule, pulses, hand, levels=levels) for hand in BOTH}


@pytest.fixture(scope="module")
def trace_c4(molecule, spec_c):
    """Full designed sequence, both hands, guard level included."""
    return _both_hands(molecule, spec_c, 4)


@pytest.fixture(scope="module")
def trace_c3(molecule, spec_c):
    return _both_hands(molecule, spec_c, 3)


@pytest.fixture(scope="module")
def trace_b4(molecule, spec_b):
    return _both_hands(molecule, spec_b, 4)


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


def test_trace_left_transfers_to_target(trace_c4):
    pops = populations(trace_c4[L])
    assert pops[-1, 3] > 0.999


def test_trace_right_is_dark(trace_c4):
    pops = populations(trace_c4[R])
    assert pops[-1, 3] < 1e-3


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


def test_trace_norm_drift_small(trace_c4):
    for traj in trace_c4.values():
        assert norm_drift(traj) < 1e-8


def test_trace_starts_in_ground_state(trace_c4):
    for traj in trace_c4.values():
        pops = populations(traj)
        assert pops[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(traj.times) > 0)


def test_trace_target_b_left_transfer(trace_b4):
    traj = trace_b4[L]
    idx = traj.basis.index("B")
    assert idx == 2
    pops = populations(traj)
    assert pops[-1, idx] > 0.99


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


def test_analytic_sweep_runs_in_calling_thread(molecule, monkeypatch):
    # The closed form is pure Python under the interpreter lock; a pool
    # would only add hand-offs, so every point runs on the caller's thread.
    real = experiments.analytic_final_populations
    threads = []

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "analytic_final_populations", recording)
    spec = DesignSpec(target="C", tau0=2.0)
    sweep_detuning(molecule, spec, [0.1, 0.2], [1.0, 1.5], engine="analytic")
    assert threads == [threading.get_ident()] * 4


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


def test_pipelined_sweep_gives_the_bits_of_single_runs(molecule, monkeypatch):
    # Each exact run is queued while the caller samples the run before it.
    # Every trajectory must have the bits of the same call made alone, and
    # at most that run and the next may be queued.
    real_propagate = experiments.propagate
    runs, depth = [], []

    def recording(molecule, pulses, hand, **kwargs):
        depth.append(len(propagator._QUEUED))  # propagate takes its own entry
        runs.append((pulses, hand, kwargs, real_propagate(molecule, pulses, hand, **kwargs)))
        return runs[-1][-1]

    monkeypatch.setattr(experiments, "propagate", recording)
    spec = DesignSpec(target="C", tau0=1.0)  # 4-5 chunks a run
    result = sweep_phase_duration(molecule, spec, [0.0, 2.0], [1.0, 1.25], levels=3)
    assert len(runs) == 8
    assert depth == [2] * 7 + [1]
    for pulses, hand, kwargs, traj in runs:
        alone = propagate(molecule, pulses, hand, **kwargs)
        for got, want in ((traj.times, alone.times), (traj.states, alone.states),
                          (traj.norm_errors, alone.norm_errors)):
            assert got.tobytes() == want.tobytes()
    finals = [float(np.abs(traj.final_state[traj.basis.index("C")]) ** 2) for *_, traj in runs]
    assert [result.populations[hand][i, j] for i in range(2) for j in range(2)
            for hand in BOTH] == finals


def test_sweep_raises_the_error_of_its_failing_point(molecule, monkeypatch):
    # Point 1 goes non-finite; point 2 is too fast for the grid, which
    # shows already when it is queued while point 1 is sampled.  With one
    # hand a point, point 1's run is the last one before point 2, so
    # point 2 is designed and queued.  The sweep must raise point 1's
    # error, not point 2's, and leave no build queued.
    runs = pipe_runs(molecule)
    real = propagator._run_args
    designed, raised = [], []

    def pulses_at(point, _):
        designed.append(int(point))
        return None, runs[int(point)][0]

    def spy(*args):
        try:
            return real(*args)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(propagator, "default_grid", lambda *args: PIPE_GRID)
    monkeypatch.setattr(propagator, "_run_args", spy)
    monkeypatch.setattr(experiments, "BOTH_HANDS", (L,))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalGuardError, match="non-finite"):
            experiments._sweep(
                molecule, DesignSpec(target="C"), np.arange(3.0), np.zeros(1), pulses_at,
                engine="exact", levels=3,
            )
    assert designed == [0, 1, 2]
    assert raised == [GridTooCoarseError]
    assert not propagator._QUEUED


def test_a_pipelined_run_builds_its_arguments_once(molecule, monkeypatch):
    # Queuing a run builds its grid and kernel arguments; its propagate
    # call takes them instead of building them again.
    real, built = propagator._run_args, []
    monkeypatch.setattr(propagator, "_run_args", lambda *args: built.append(args) or real(*args))
    spec = DesignSpec(target="C", tau0=1.0)
    sweep_phase_duration(molecule, spec, [0.0, 2.0], [1.0, 1.25], levels=3)
    assert len(built) == 8


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


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

SNAPSHOT = "[molecule]\npreset = cyclohexylmethanol\n\n[design]\ntarget = C\n"


def _read_rows(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    header, data = rows[0], list(csv.reader(rows[1:]))
    return comments, header, data


def test_trace_csv_layout(tmp_path, trace_c4):
    path = os.path.join(tmp_path, "trace_left.csv")
    traj = trace_c4[L]
    write_trace_csv(path, traj, snapshot=SNAPSHOT)
    comments, header, data = _read_rows(path)
    assert header == "t_ns,hand,P_A,P_Bprime,P_B,P_C,norm_err"
    assert "# config:" in comments
    assert len(data) == traj.times.size
    first = data[0]
    assert first[1] == "left"
    assert float(first[0]) == pytest.approx(traj.times[0])
    pops = populations(traj)
    last = data[-1]
    assert float(last[5]) == pytest.approx(pops[-1, 3], abs=1e-15)
    assert float(last[3]) == pytest.approx(pops[-1, 1], abs=1e-15)


def test_trace_csv_three_level_guard_column_is_zero(tmp_path, trace_c3):
    path = os.path.join(tmp_path, "trace3.csv")
    write_trace_csv(path, trace_c3[R])
    _, header, data = _read_rows(path)
    assert header == "t_ns,hand,P_A,P_Bprime,P_B,P_C,norm_err"
    assert all(float(row[3]) == 0.0 for row in data)
    assert all(row[1] == "right" for row in data)


def test_landscape_csv_layout(tmp_path, phase_sweep):
    path = os.path.join(tmp_path, "phase.csv")
    write_landscape_csv(path, phase_sweep, snapshot=SNAPSHOT)
    comments, header, data = _read_rows(path)
    assert header == "axis1,axis2,hand,P_target"
    assert "# axis1 = phi_a_rad" in comments
    assert "# axis2 = tau0_ns" in comments
    assert "# target = C" in comments
    assert len(data) == PHASE_GRID.size * 1 * 2
    # Row payloads reproduce the in-memory grids exactly (repr round-trip).
    for row in data:
        phi, _tau, hand, value = row
        i = int(np.argmin(np.abs(PHASE_GRID - float(phi))))
        expected = phase_sweep.populations[Handedness(hand)][i, 0]
        assert float(value) == expected


def test_detuning_csv_layout(tmp_path, detuning_analytic):
    path = os.path.join(tmp_path, "detuning.csv")
    write_detuning_csv(path, detuning_analytic, snapshot=SNAPSHOT)
    comments, header, data = _read_rows(path)
    assert header == "delta,scale,engine,hand,P_target"
    assert comments[0] == "# delta in rad/ns"
    assert "# mode = scale_b" in comments
    assert len(data) == 1 * 2 * 2
    assert all(row[2] == "analytic" for row in data)


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

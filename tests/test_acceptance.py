"""Acceptance gate: ten end-to-end criteria for the transfer engine.

Each test checks one advertised capability at its stated tolerance and
prints a single PASS/FAIL line with the measured numbers (visible under
``pytest -rA`` / ``-s``, and in the failure report otherwise).  The heavy
propagation runs are module-scoped fixtures shared across criteria, and
the designed 4-level runs of both targets are the session's, shared with
the experiment tests; every trajectory the criteria read feeds the
norm-drift pool audited by criterion 9.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from esst.analytic import analytic_final_populations, condition_residuals
from esst.areas import (
    ComplexArea,
    DesignSpec,
    complex_area,
    design_phases,
    designed_pulses,
    loop_phase_target,
    realize_phase,
)
from esst.experiments import sweep_delays, sweep_detuning
from esst.propagator import (
    GridConfig,
    default_grid,
    fastest_frequency,
    norm_drift,
    populations,
    propagate,
)
from esst.pulses import PhaseConvention, Pulse, spectral_amplitude
from helpers import BOTH, TAU0, L, R

#: (label, norm drift) for every trajectory the acceptance fixtures read,
#: the shared session runs included; criterion 9 audits the whole pool.
#: The sweep-based criteria (5 and 8, exact engine) enforce the same bound
#: internally through the propagator's drift guard, so their completion is
#: their audit.
DRIFTS: list[tuple[str, float]] = []


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


def _audited(label, traj):
    DRIFTS.append((label, norm_drift(traj)))
    return traj


def _run(molecule, pulses, hand, levels, label):
    grid = default_grid(molecule, list(pulses.values()), levels)
    return _audited(label, propagate(molecule, pulses, hand, levels=levels, grid=grid))


def _final_pops(traj):
    return populations(traj)[-1]


# ---------------------------------------------------------------------------
# Shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crit1(molecule, trace_c4):
    """Four-level target-C runs for both designed phases and both hands;
    the phi_a = pi/2 pair is the session's, and a phi_a = 3pi/2 run is timed."""
    out = {}
    for hand, traj in trace_c4.items():
        out[("quarter", hand)] = _final_pops(_audited(f"c1-quarter-{hand.value}", traj))
    pulses = designed_pulses(molecule, DesignSpec(target="C", hand=R))
    for hand in BOTH:
        t0 = time.perf_counter()
        traj = _run(molecule, pulses, hand, 4, f"c1-threequarter-{hand.value}")
        out.setdefault("elapsed", time.perf_counter() - t0)
        out[("threequarter", hand)] = _final_pops(traj)
    return out


@pytest.fixture(scope="module")
def crit2(molecule, trace_b4):
    """Four-level target-B runs: the session's phi_b = pi/2 run of the left
    hand and a phi_b = 3pi/2 run of the right one."""
    pulses = designed_pulses(molecule, DesignSpec(target="B", hand=R))
    left = _audited("c2-quarter-left", trace_b4)
    right = _run(molecule, pulses, R, 4, "c2-threequarter-right")
    return {tag: (traj.basis.index("B"), _final_pops(traj))
            for tag, traj in (("quarter", left), ("threequarter", right))}


@pytest.fixture(scope="module")
def crit3(molecule):
    """Population histories with one channel's pulse removed, per hand."""
    pulses = designed_pulses(molecule, DesignSpec(target="C"))
    out = {}
    for removed in ("a", "b", "c"):
        subset = {ch: p for ch, p in pulses.items() if ch != removed}
        for hand in BOTH:
            traj = _run(molecule, subset, hand, 4, f"c3-no{removed}-{hand.value}")
            out[(removed, hand)] = populations(traj)
    return out


@pytest.fixture(scope="module")
def crit4(molecule):
    pulses = designed_pulses(molecule, DesignSpec(target="C"))
    stage1 = {"a": pulses["a"]}
    return {
        hand: _final_pops(_run(molecule, stage1, hand, 4, f"c4-{hand.value}"))
        for hand in BOTH
    }


@pytest.fixture(scope="module")
def crit5(molecule):
    delays = [0.0, 2.75 * TAU0, 3.0 * TAU0]
    out = {}
    for convention in (PhaseConvention.ABSOLUTE, PhaseConvention.ENVELOPE):
        spec = DesignSpec(target="C", convention=convention)
        out[convention] = sweep_delays(
            molecule, spec, delays, delays, levels=3
        ).populations[L]
    return out


@pytest.fixture(scope="module")
def crit8(molecule):
    # The reference configuration for detuning compensation: target B, with
    # either the stage-1 channel (scale_b) or the two stage-2 channels
    # (scale_ac) detuned by 1/tau0 and rescaled.  (For target C the exact
    # compensated population actually drops below its scale-1 value - the
    # higher-order response has the opposite sign there - so the headline
    # claim is specific to this protocol.)
    spec = DesignSpec(target="B")
    delta = [1.0 / TAU0]
    scales = [1.0, math.exp(0.5)]
    out = {}
    for mode in ("scale_b", "scale_ac"):
        analytic = sweep_detuning(
            molecule, spec, delta, scales, mode=mode, engine="analytic"
        )
        exact = sweep_detuning(
            molecule, spec, delta, scales, mode=mode, engine="exact", levels=3
        )
        out[mode] = {
            "analytic": analytic.populations[L][0],
            "exact": exact.populations[L][0],
        }
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_designed_transfer_and_phase_swap(crit1):
    p_left = crit1[("quarter", L)][3]
    p_right = crit1[("quarter", R)][3]
    p_left_swap = crit1[("threequarter", L)][3]
    p_right_swap = crit1[("threequarter", R)][3]
    swap_gap = max(abs(p_left - p_right_swap), abs(p_right - p_left_swap))
    elapsed = crit1["elapsed"]
    ok = (
        p_left >= 0.999
        and p_right <= 1e-3
        and swap_gap < 1e-6
        and elapsed < 30.0
    )
    _report(
        1, "four-level designed transfer + phase swap", ok,
        f"P_C(left)={p_left:.7f}, P_C(right)={p_right:.2e}, "
        f"swap gap={swap_gap:.2e}, {elapsed:.2f} s/trajectory",
    )
    assert ok


def test_criterion_02_target_b_transfer(crit2):
    idx, pops_l = crit2["quarter"]
    p_left = pops_l[idx]
    idx_r, pops_r = crit2["threequarter"]
    p_right = pops_r[idx_r]
    ok = p_left >= 0.99 and p_right >= 0.99
    _report(
        2, "intermediate-state target transfer", ok,
        f"P_B(left, quarter-phase)={p_left:.5f}, "
        f"P_B(right, three-quarter phase)={p_right:.5f}",
    )
    assert ok


def test_criterion_03_no_loop_blindness(crit3):
    worst = 0.0
    for removed in ("a", "b", "c"):
        gap = float(np.max(np.abs(crit3[(removed, L)] - crit3[(removed, R)])))
        worst = max(worst, gap)
    ok = worst < 1e-9
    _report(
        3, "handedness blindness without a closed loop", ok,
        f"max |P_left(t) - P_right(t)| over all single-channel removals = "
        f"{worst:.2e}",
    )
    assert ok


def test_criterion_04_stage1_even_split(crit4):
    devs = []
    for hand in BOTH:
        pops = crit4[hand]
        devs.extend([abs(pops[0] - 0.5), abs(pops[2] - 0.5)])
    worst = max(devs)
    ok = worst <= 0.005
    _report(
        4, "stage-1 maximal coherent superposition", ok,
        f"max |P - 0.5| over both hands = {worst:.2e}",
    )
    assert ok


def test_criterion_05_delay_plateau(crit5):
    absolute = crit5[PhaseConvention.ABSOLUTE]
    envelope = crit5[PhaseConvention.ENVELOPE]
    diag_3tau = absolute[2, 2]
    zero_delay = absolute[0, 0]
    abs_plateau = min(absolute[1, 1], absolute[2, 2])
    env_probe = envelope[1, 1]
    ok = diag_3tau > 0.999 and zero_delay > 0.90
    plateau_owner = (
        "absolute" if abs_plateau > 0.999 and env_probe < 0.999 else "unclear"
    )
    _report(
        5, "delay-sweep robustness", ok,
        f"absolute: P(3tau0 diag)={diag_3tau:.6f}, P(0,0)={zero_delay:.4f}, "
        f"plateau min={abs_plateau:.6f}; envelope off-coincidence probe="
        f"{env_probe:.4f} -> plateau reproduced by the {plateau_owner} "
        "convention",
    )
    assert ok


def test_criterion_06_analytic_exact_agreement(molecule):
    rng = np.random.default_rng(20260816)
    worst = 0.0
    n_designs = 20
    for _ in range(n_designs):
        target = ("C", "B")[rng.integers(2)]
        spec = DesignSpec(
            target=target,
            hand=(L, R)[rng.integers(2)],
            tau0=float(rng.uniform(20.0, 50.0)),
            k=int(rng.integers(0, 3)),
            kprime=int(rng.integers(0, 3)),
            l=int(rng.integers(-1, 2)),
        )
        pulses = designed_pulses(molecule, spec)
        # Random lattice-respecting phases: spread the constructive loop
        # phase across all three channels instead of one.
        phi_a = float(rng.uniform(0.0, 2 * math.pi))
        phi_c = float(rng.uniform(0.0, 2 * math.pi))
        phi = {"a": phi_a, "c": phi_c,
               "b": phi_a + phi_c - loop_phase_target(spec)}
        for ch, pulse in pulses.items():
            _, transition = molecule.channel_transition(ch)
            pulses[ch] = replace(
                pulse,
                phase=realize_phase(
                    phi[ch], transition, pulse.carrier, pulse.center_time,
                    pulse.convention,
                ),
            )
        predicted = analytic_final_populations(molecule, pulses, spec)
        for hand in BOTH:
            traj = _run(molecule, pulses, hand, 3, f"c6-{hand.value}")
            gap = float(np.max(np.abs(_final_pops(traj) - predicted[hand])))
            worst = max(worst, gap)
    ok = worst < 1e-2
    _report(
        6, "closed form vs exact propagation", ok,
        f"max per-level gap over {n_designs} random designs x both hands = "
        f"{worst:.2e}",
    )
    assert ok


def test_criterion_07_lattice_residuals(molecule):
    worst_phase = 0.0
    worst_pred = 1.0
    count = 0
    for target in ("C", "B"):
        for hand in BOTH:
            for k in (0, 1):
                for kprime in (0, 1):
                    for l in (-1, 0, 1):
                        spec = DesignSpec(
                            target=target, hand=hand, k=k, kprime=kprime, l=l
                        )
                        phases = design_phases(spec)
                        moduli = {spec.stage1_channel: (kprime + 0.25) * math.pi}
                        for ch in spec.stage2_channels:
                            moduli[ch] = (k + 0.5) * math.pi / math.sqrt(2.0)
                        areas = {}
                        for ch in ("a", "b", "c"):
                            _, freq = molecule.channel_transition(ch)
                            areas[ch] = ComplexArea(
                                value=-moduli[ch]
                                * cmath.exp(-1j * phases[ch]),
                                channel=ch,
                                transition_freq=freq,
                                window=(-1.0, 1.0),
                            )
                        report = condition_residuals(areas, spec)
                        worst_phase = max(worst_phase, report.phase_residual)
                        worst_pred = min(
                            worst_pred, report.predicted_target_population
                        )
                        count += 1
    ok = worst_phase < 1e-9 and worst_pred > 1 - 1e-6
    _report(
        7, "area-theorem lattice residuals", ok,
        f"{count} lattice points: max phase residual={worst_phase:.2e}, "
        f"min predicted target population={worst_pred:.9f}",
    )
    assert ok


def test_criterion_08_detuning_compensation(crit8):
    ok = True
    parts = []
    for mode, rows in crit8.items():
        analytic_scale1, analytic_comp = rows["analytic"]
        exact_scale1, exact_comp = rows["exact"]
        margin_up = exact_comp - exact_scale1
        margin_down = analytic_comp - exact_comp
        ok = ok and (
            analytic_comp > 1 - 1e-6
            and margin_up > 1e-3
            and margin_down > 1e-3
        )
        parts.append(
            f"{mode}: analytic scale1={analytic_scale1:.6f} comp="
            f"{analytic_comp:.9f}; exact scale1={exact_scale1:.6f} comp="
            f"{exact_comp:.6f} (margins +{margin_up:.3f}/+{margin_down:.3f})"
        )
    _report(8, "detuning compensation", ok, " | ".join(parts))
    assert ok


def test_criterion_09_norm_drift_and_convergence(molecule, crit1, crit2, crit3, crit4):
    worst_label, worst_drift = max(DRIFTS, key=lambda item: item[1])
    drift_ok = worst_drift < 1e-8

    # Step-halving study on a short sequence: the global solution error of
    # the 4th-order integrator must fall by 12-20x per halving.  (The norm
    # drift itself shrinks even faster - its leading term cancels - so the
    # convergence factor is measured on the final state against a much finer
    # reference, and the drift is simply required to decrease.)
    spec = DesignSpec(target="C", tau0=2.0, k=1, kprime=1)
    pulses = designed_pulses(molecule, spec)
    plist = list(pulses.values())
    omega_max = fastest_frequency(molecule, plist, 3)
    base = default_grid(molecule, plist, 3)
    finals, drifts = {}, {}
    for spp in (40, 80, 160, 640):
        grid = GridConfig(
            t_start=base.t_start, t_end=base.t_end,
            dt=(2 * math.pi / omega_max) / spp,
            sample_stride=64, drift_tol=1e-6,
        )
        traj = propagate(molecule, pulses, L, levels=3, grid=grid)
        finals[spp] = traj.final_state
        drifts[spp] = norm_drift(traj)
    err = {
        spp: float(np.max(np.abs(finals[spp] - finals[640])))
        for spp in (40, 80, 160)
    }
    ratio1 = err[40] / err[80]
    ratio2 = err[80] / err[160]
    conv_ok = 12.0 < ratio1 < 20.0 and 12.0 < ratio2 < 20.0
    drift_seq_ok = drifts[40] > drifts[80] > drifts[160] and drifts[160] < 1e-8
    ok = drift_ok and conv_ok and drift_seq_ok
    _report(
        9, "norm drift and step-halving convergence", ok,
        f"worst drift {worst_drift:.2e} ({worst_label}) over {len(DRIFTS)} "
        f"runs; error ratios per halving {ratio1:.2f}, {ratio2:.2f}; "
        f"drift sequence {drifts[40]:.1e} > {drifts[80]:.1e} > "
        f"{drifts[160]:.1e}",
    )
    assert ok


def test_criterion_10_spectral_duality(molecule):
    rng = np.random.default_rng(20260816)
    worst = 0.0
    n_pulses = 100
    for _ in range(n_pulses):
        channel = "abc"[rng.integers(3)]
        transition_mhz = molecule.channel_transition_mhz(channel)
        pulse_kwargs = dict(
            channel=channel,
            area_param=float(rng.uniform(0.05, 3.0)),
            center_time=float(rng.uniform(-100.0, 100.0)),
            duration=float(rng.uniform(5.0, 60.0)),
            carrier_mhz=transition_mhz + float(rng.uniform(-50.0, 50.0)),
            phase=float(rng.uniform(0.0, 2 * math.pi)),
            convention=(PhaseConvention.ABSOLUTE, PhaseConvention.ENVELOPE)[
                rng.integers(2)
            ],
        )
        pulse = Pulse(**pulse_kwargs)
        dipole = float(rng.uniform(0.2, 2.0))
        _, omega_t = molecule.channel_transition(channel)
        theta = complex_area(pulse, dipole, omega_t).value
        dual = -dipole * spectral_amplitude(pulse, omega_t)
        worst = max(worst, abs(theta - dual))
    ok = worst < 1e-9
    _report(
        10, "time-domain area equals dipole-weighted spectrum", ok,
        f"max |theta - (-mu S(omega_t))| over {n_pulses} random pulses = "
        f"{worst:.2e}",
    )
    assert ok

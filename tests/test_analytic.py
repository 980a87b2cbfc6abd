"""Closed-form two-stage wavefunctions against independent oracles.

Each stage's closed form is the exponential of its area generator.  The
matrix-exponential oracle writes both generators out as matrices -- Hermitian,
with the complex areas in the lower triangle, conjugated above, and the
handedness sign on the a-type entry -- and exponentiates them with scipy.
The exact RK4 propagator is the oracle for whole designed sequences.
"""
from __future__ import annotations

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from scipy.linalg import expm

from esst import analytic
from esst.analytic import (
    SMALL_AREA,
    analytic_final_populations,
    condition_residuals,
    cosc_area,
    sinc_area,
    two_stage_state,
)
from esst.areas import (
    ComplexArea, DesignSpec, designed_pulses, detuning_compensation, stage_areas,
)
from esst.propagator import GridConfig, default_grid, populations, propagate
from esst.pulses import PhaseConvention, support_window
from helpers import BOTH, L, R
from stage_walk_oracle import reference_stage_states

complex_theta = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=8.0, allow_nan=False, allow_infinity=False
)


def state(th, target, hand):
    return two_stage_state(th, DesignSpec(target=target), hand)


def stage1_only(th1, target, hand):
    """The two-stage state with the stage-1 area ``th1`` and zero stage 2."""
    th = {"a": 0j, "b": 0j, "c": 0j}
    th["a" if target == "C" else "b"] = th1
    return state(th, target, hand)


def expm_state(th, target, hand):
    """exp(-i Theta_2) exp(-i Theta_1) |A> from generators written out here."""
    s = hand.sign
    a, b, c = th["a"], th["b"], th["c"]
    if target == "C":
        gen1 = [[0, s * np.conj(a), 0], [s * a, 0, 0], [0, 0, 0]]
        gen2 = [[0, 0, np.conj(b)], [0, 0, np.conj(c)], [b, c, 0]]
    else:
        gen1 = [[0, 0, np.conj(b)], [0, 0, 0], [b, 0, 0]]
        gen2 = [[0, s * np.conj(a), 0], [s * a, 0, np.conj(c)], [0, c, 0]]
    u1 = expm(-1j * np.array(gen1, dtype=complex))
    u2 = expm(-1j * np.array(gen2, dtype=complex))
    return u2 @ u1 @ np.array([1.0, 0.0, 0.0], dtype=complex)


def rabi_state(th1, target, hand):
    """Stage 1 alone: A rotated against its partner by the area ``th1``."""
    m = abs(th1)
    amp = -1j * math.sin(m) * (th1 / m if m else 1.0)
    if target == "C":
        return np.array([math.cos(m), hand.sign * amp, 0.0], dtype=complex)
    return np.array([math.cos(m), 0.0, amp], dtype=complex)


def lattice_thetas(spec, molecule):
    """Exact designed areas for the three channels, keyed by channel."""
    from esst.areas import design_amplitudes, design_phases

    amps = design_amplitudes(molecule, spec)
    phases = design_phases(spec)
    return {
        ch: -molecule.channel_transition(ch)[0] * amps[ch]
        * cmath.exp(-1j * phases[ch])
        for ch in ("a", "b", "c")
    }


# ---------------------------------------------------------------------------
# Small-area helpers
# ---------------------------------------------------------------------------


def test_sinc_cosc_limits():
    assert sinc_area(0.0) == 1.0
    assert cosc_area(0.0) == -0.5


def high_order_series(theta):
    """8th-order reference series: truncation < 1e-26 for |theta| <= 2e-4."""
    t2 = theta * theta
    s = 1.0 - t2 / 6.0 + t2**2 / 120.0 - t2**3 / 5040.0 + t2**4 / 362880.0
    g = -0.5 + t2 / 24.0 - t2**2 / 720.0 + t2**3 / 40320.0
    return s, g


def test_sinc_cosc_taylor_branch_accuracy():
    # below the switch the implementations track the series to full precision
    for theta in (1e-7, 3e-6, 5e-5, 0.99 * SMALL_AREA):
        s_ref, g_ref = high_order_series(theta)
        assert sinc_area(theta) == pytest.approx(s_ref, abs=1e-12)
        assert cosc_area(theta) == pytest.approx(g_ref, abs=1e-12)


def test_sinc_cosc_branch_jump_bounded():
    # just above the switch the direct (cos-1)/theta^2 carries ~eps/theta^2
    # cancellation noise (~3e-9); the branch jump must stay inside it
    below, above = 0.999999 * SMALL_AREA, 1.000001 * SMALL_AREA
    assert abs(sinc_area(above) - sinc_area(below)) < 1e-12
    assert abs(cosc_area(above) - cosc_area(below)) < 1e-8


def test_sinc_cosc_direct_branch_identity():
    # at moderate argument the direct branch satisfies its own definition
    for theta in (0.05, 0.7, 2.0):
        assert sinc_area(theta) * theta == pytest.approx(math.sin(theta),
                                                         rel=1e-15)
        assert cosc_area(theta) * theta**2 == pytest.approx(
            math.cos(theta) - 1.0, rel=1e-12
        )


# ---------------------------------------------------------------------------
# Stage 1 (zero stage-2 areas)
# ---------------------------------------------------------------------------


def test_stage1_zero_area_is_ground():
    np.testing.assert_array_equal(stage1_only(0.0, "C", L), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("hand", BOTH)
def test_stage1_quarter_pi_splits_evenly(hand):
    psi = stage1_only(-math.pi / 4 * cmath.exp(-1j * math.pi / 2), "C", hand)
    pops = np.abs(psi) ** 2
    assert pops[0] == pytest.approx(0.5, abs=1e-12)
    assert pops[1] == pytest.approx(0.5, abs=1e-12)
    assert pops[2] == 0.0


@pytest.mark.parametrize("hand", BOTH)
def test_stage1_half_pi_full_transfer(hand):
    psi = stage1_only(math.pi / 2, "C", hand)
    assert abs(psi[0]) == pytest.approx(0.0, abs=1e-12)
    assert abs(psi[1]) == pytest.approx(1.0, abs=1e-12)


def test_stage1_channel_b_populates_C():
    psi = stage1_only(math.pi / 4, "B", L)
    assert psi[1] == 0.0
    assert abs(psi[2]) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
    # channel b carries no handedness sign
    np.testing.assert_array_equal(psi, stage1_only(math.pi / 4, "B", R))


def test_stage1_hand_enters_only_as_sign():
    theta = 0.3 + 0.4j
    psi_l = stage1_only(theta, "C", L)
    psi_r = stage1_only(theta, "C", R)
    assert psi_l[0] == psi_r[0]
    assert psi_l[1] == -psi_r[1]


# ---------------------------------------------------------------------------
# Both stages, both targets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("hand", BOTH)
@pytest.mark.parametrize("target", ["B", "C"])
@settings(max_examples=60, deadline=None)
@given(tha=complex_theta, thb=complex_theta, thc=complex_theta)
def test_two_stage_matches_expm_oracle(target, hand, tha, thb, thc):
    th = {"a": tha, "b": thb, "c": thc}
    np.testing.assert_allclose(
        state(th, target, hand), expm_state(th, target, hand), atol=1e-11
    )


@pytest.mark.parametrize("target", ["B", "C"])
@settings(max_examples=40, deadline=None)
@given(tha=complex_theta, thb=complex_theta, thc=complex_theta)
def test_mirror_equals_sign_flip_of_theta_a(target, tha, thb, thc):
    flipped = {"a": -tha, "b": thb, "c": thc}
    np.testing.assert_array_equal(
        state({"a": tha, "b": thb, "c": thc}, target, R),
        state(flipped, target, L),
    )


# Parts of +-0.0, parts small enough that a stage's |theta| falls below
# SMALL_AREA, and parts that put the modulus near 1e3.
walk_part = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-3e-5, 3e-5),
    st.floats(-4.0, 4.0),
    st.floats(-1e3, 1e3),
)
walk_area = st.builds(complex, walk_part, walk_part)


def walk_bytes(psis) -> bytes:
    return np.array(psis, dtype=complex).tobytes()


def residual_report(areas, spec):
    return repr(condition_residuals(
        {ch: ComplexArea(v, ch, 1.0, (0.0, 1.0)) for ch, v in areas.items()}, spec
    ))


@pytest.mark.parametrize("target", ["B", "C"])
@settings(max_examples=300, deadline=None)
@given(tha=walk_area, thb=walk_area, thc=walk_area)
# Where x = sum([...]) starting from 0 rather than from its first term
# flips the sign of a zero in the final state: target B, then target C.
@example(tha=complex(-1.0, -0.0), thb=0j, thc=complex(-1.0, 1.0))
@example(tha=0j, thb=complex(-1.0, -0.0), thc=complex(-1.0, -1.0))
def test_stage_walk_matches_the_reference_walk_bit_for_bit(target, tha, thb, thc):
    # The walk over the per-target layout does what the loop-rescanning walk
    # did, expression for expression, so the bits agree, signed zeros too.
    areas = {"a": tha, "b": thb, "c": thc}
    for hand in BOTH:
        spec = DesignSpec(target=target, hand=hand)
        for hands in ((hand,), (hand, hand.mirror)):
            assert walk_bytes(analytic._stage_states(areas, spec, hands)) == walk_bytes(
                reference_stage_states(areas, spec, hands)
            )
        assert two_stage_state(areas, spec, hand).tobytes() == walk_bytes(
            reference_stage_states(areas, spec, (hand,))[0]
        )
        report = residual_report(areas, spec)
        with mock.patch.object(analytic, "_stage_states", reference_stage_states):
            assert report == residual_report(areas, spec)


# ---------------------------------------------------------------------------
# Stage 2, target C
# ---------------------------------------------------------------------------


def test_targetC_designed_lattice_left_unity(molecule):
    th = lattice_thetas(DesignSpec(target="C", hand=L), molecule)
    psi = state(th, "C", L)
    assert abs(psi[2]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_targetC_designed_lattice_right_destructive(molecule):
    th = lattice_thetas(DesignSpec(target="C", hand=L), molecule)
    psi = state(th, "C", R)
    pops = np.abs(psi) ** 2
    assert pops[2] == pytest.approx(0.0, abs=1e-12)
    # the non-transferred enantiomer ends split evenly across A and B
    assert pops[0] == pytest.approx(0.5, abs=1e-12)
    assert pops[1] == pytest.approx(0.5, abs=1e-12)


def test_targetC_zero_stage2_preserves_stage1():
    th1 = 0.4 - 0.9j
    for hand in BOTH:
        np.testing.assert_allclose(
            stage1_only(th1, "C", hand), rabi_state(th1, "C", hand), atol=1e-15
        )


@settings(max_examples=60, deadline=None)
@given(tha=complex_theta, thb=complex_theta, thc=complex_theta)
def test_targetC_unit_norm(tha, thb, thc):
    for hand in BOTH:
        psi = state({"a": tha, "b": thb, "c": thc}, "C", hand)
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_targetC_small_theta_continuity():
    th1 = 0.2 + 0.1j
    eps = 1e-5  # below the Taylor switch
    for hand in BOTH:
        near = state({"a": th1, "b": eps, "c": eps}, "C", hand)
        limit = stage1_only(th1, "C", hand)
        np.testing.assert_allclose(near, limit, atol=1e-4)
        np.testing.assert_allclose(
            near, expm_state({"a": th1, "b": eps, "c": eps}, "C", hand), atol=1e-12
        )


# ---------------------------------------------------------------------------
# Stage 2, target B
# ---------------------------------------------------------------------------


def test_targetB_designed_lattice_left_unity(molecule):
    th = lattice_thetas(DesignSpec(target="B", hand=L), molecule)
    psi = state(th, "B", L)
    assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_targetB_designed_lattice_right_destructive(molecule):
    th = lattice_thetas(DesignSpec(target="B", hand=L), molecule)
    psi = state(th, "B", R)
    pops = np.abs(psi) ** 2
    assert pops[1] == pytest.approx(0.0, abs=1e-12)
    assert pops[0] + pops[2] == pytest.approx(1.0, abs=1e-12)


def test_targetB_zero_stage2_preserves_stage1():
    th1 = 1.1 + 0.3j
    for hand in BOTH:
        np.testing.assert_allclose(
            stage1_only(th1, "B", hand), rabi_state(th1, "B", hand), atol=1e-15
        )


@settings(max_examples=60, deadline=None)
@given(tha=complex_theta, thb=complex_theta, thc=complex_theta)
def test_targetB_unit_norm(tha, thb, thc):
    for hand in BOTH:
        psi = state({"a": tha, "b": thb, "c": thc}, "B", hand)
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Full-sequence closed form
# ---------------------------------------------------------------------------


def test_final_populations_designed_targetC(molecule, wide_spec_c):
    pulses = designed_pulses(molecule, wide_spec_c)
    pops = analytic_final_populations(molecule, pulses, wide_spec_c)
    np.testing.assert_allclose(pops[L], [0.0, 0.0, 1.0], atol=1e-6)
    assert pops[R][2] == pytest.approx(0.0, abs=1e-6)
    assert pops[R][0] == pytest.approx(0.5, abs=1e-6)
    assert pops[R][1] == pytest.approx(0.5, abs=1e-6)
    assert pops[R].sum() == pytest.approx(1.0, abs=1e-9)


def test_final_populations_zero_area(molecule, spec_c):
    from dataclasses import replace

    pulses = {
        ch: replace(p, area_param=0.0)
        for ch, p in designed_pulses(molecule, spec_c).items()
    }
    pops = analytic_final_populations(molecule, pulses, spec_c)
    for hand in BOTH:
        np.testing.assert_allclose(pops[hand], [1.0, 0.0, 0.0], atol=1e-12)


def test_final_populations_detuned_compensated(molecule, wide_spec_c):
    delta = 1.0 / wide_spec_c.tau0
    scale = detuning_compensation(delta, wide_spec_c.tau0)
    detuned = designed_pulses(
        molecule, wide_spec_c,
        detunings={"b": delta, "c": delta},
        scales={"b": scale, "c": scale},
    )
    resonant = designed_pulses(molecule, wide_spec_c)
    pops_det = analytic_final_populations(molecule, detuned, wide_spec_c)
    pops_res = analytic_final_populations(molecule, resonant, wide_spec_c)
    for hand in BOTH:
        np.testing.assert_allclose(pops_det[hand], pops_res[hand], atol=1e-6)


def test_final_populations_rejects_reversed_stages(molecule, spec_c):
    from dataclasses import replace

    pulses = designed_pulses(molecule, spec_c)
    pulses["b"] = replace(pulses["b"], center_time=-200.0)
    with pytest.raises(ValueError, match="stage"):
        analytic_final_populations(molecule, pulses, spec_c)


def test_closed_form_rejects_a_pulse_under_another_channels_key(molecule, spec_b, pulses_b):
    # The closed form took each pulse's dipole, transition and stage from its
    # key, while the exact propagator reads Pulse.channel: swapped a and c
    # gave the left hand P_B = 4e-13 here and 0.99999995 there.
    swapped = {"a": pulses_b["c"], "b": pulses_b["b"], "c": pulses_b["a"]}
    for evaluate in (stage_areas, analytic_final_populations):
        with pytest.raises(ValueError, match="key 'a' drives channel 'c'"):
            evaluate(molecule, swapped, spec_b)


def test_closed_form_names_the_missing_channels(molecule, spec_b, pulses_b):
    partial = {"b": pulses_b["b"]}
    with pytest.raises(ValueError, match=r"missing \['a', 'c'\]"):
        analytic_final_populations(molecule, partial, spec_b)


# Shrinking reruns exact propagations, so a red run would take minutes;
# the failing draw is reported as found.
@settings(
    max_examples=24, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(
    target=st.sampled_from(["B", "C"]),
    hand=st.sampled_from(BOTH),
    k=st.integers(0, 1),
    kprime=st.integers(0, 1),
    l=st.integers(-1, 1),
    convention=st.sampled_from(list(PhaseConvention)),
    tau0=st.floats(2.0, 6.0),
)
def test_closed_form_matches_exact_on_random_designs(molecule, **draw):
    spec = DesignSpec(**draw)
    pulses = designed_pulses(molecule, spec)
    predicted = analytic_final_populations(molecule, pulses, spec)
    exact = {
        hand: populations(propagate(molecule, pulses, hand))[-1] for hand in BOTH
    }
    for hand in BOTH:
        np.testing.assert_allclose(exact[hand], predicted[hand], rtol=0, atol=1e-3)
    # mirror swap: the designed hand reaches the target, its mirror does not
    target = "ABC".index(spec.target)
    assert exact[spec.hand][target] > 0.99
    assert exact[spec.hand.mirror][target] < 0.01


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize("target", ["B", "C"])
@pytest.mark.parametrize("tau0", [2.0, 5.0])
def test_stage1_tail_term_at_the_stage_boundary(molecule, tau0, target, levels):
    # The exact populations at the stage boundary t1 against the closed
    # form's stage-1 state (the stage-2 areas set to 0) differ by a term
    # that does not fall with tau0: 2.48e-5 to 2.85e-5 at tau0 = 2, 5 and
    # 10 ns, both targets, both hands, 3 and 4 levels.  It is the default
    # grid's start, 4 widths before the stage-1 center: the exact run
    # misses that pulse's leading Phi(-4) = 3.2e-5 of its area, and
    # (pi / 4) Phi(-4) = 2.5e-5 of the population split.  The closed form
    # integrates from 8 widths.  Started there, the exact run comes within
    # 3.7e-6 (tau0 2 ns) and 5.9e-7 (5 ns) of it.
    spec = DesignSpec(target=target, tau0=tau0)
    pulses = designed_pulses(molecule, spec)
    areas = {channel: area.value for channel, area in stage_areas(molecule, pulses, spec).items()}
    areas.update({channel: 0j for channel in spec.stages[1].channels})
    span = default_grid(molecule, pulses, levels)
    window = support_window(pulses[spec.stage1_channel])
    for start, low, high in ((span.t_start, 1.5e-5, 4e-5), (window[0], 0.0, 1e-5)):
        grid = GridConfig(start, spec.stage_boundary, span.dt)
        for hand in BOTH:
            traj = propagate(molecule, pulses, hand, levels=levels, grid=grid)
            exact = populations(traj)[-1][[traj.basis.index(level) for level in "ABC"]]
            closed = np.abs(two_stage_state(areas, spec, hand)) ** 2
            assert low <= np.abs(exact - closed).max() <= high

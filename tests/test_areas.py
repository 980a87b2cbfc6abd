"""Complex pulse areas, design lattice, residual scoring, detuning scale."""
from __future__ import annotations

import cmath
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import wofz

from esst.areas import (
    ComplexArea,
    _faddeeva,
    _panel_quad,
    DesignSpec,
    complex_area,
    condition_residuals,
    design_amplitudes,
    design_phases,
    designed_pulses,
    detuning_compensation,
    loop_phase_target,
    realize_phase,
    stage_areas,
)
from esst.model import CYCLOHEXYLMETHANOL, Handedness, mhz_to_rad_per_ns
from esst.pulses import (
    TWO_PI_DIGITS,
    PhaseConvention,
    Pulse,
    field,
    spectral_amplitude,
    support_window,
)

L = Handedness.LEFT
R = Handedness.RIGHT
ABS = PhaseConvention.ABSOLUTE
SQRT2 = math.sqrt(2.0)


def make_pulse(area, phase=0.0, tc=0.0, tau=35.0, carrier_mhz=4720.0,
               convention=ABS, channel="a"):
    return Pulse(
        channel=channel, area_param=area, center_time=tc, duration=tau,
        carrier_mhz=carrier_mhz, phase=phase, convention=convention,
    )


def area_by_scipy(pulse, dipole, omega_t, window=None):
    """Independent oracle: adaptive quadrature of -mu E(t) exp(i w_t t)."""
    lo, hi = window if window is not None else support_window(pulse)
    re = quad(lambda t: -dipole * field(pulse, t) * math.cos(omega_t * t),
              lo, hi, limit=6000, epsabs=1e-13, epsrel=1e-12)[0]
    im = quad(lambda t: -dipole * field(pulse, t) * math.sin(omega_t * t),
              lo, hi, limit=6000, epsabs=1e-13, epsrel=1e-12)[0]
    return complex(re, im)


def lattice_areas(molecule, spec):
    """Exact designed areas theta = -|theta| e^{-i phi}, no quadrature."""
    amps = design_amplitudes(molecule, spec)
    phases = design_phases(spec)
    out = {}
    for channel in ("a", "b", "c"):
        dipole, omega_t = molecule.channel_transition(channel)
        modulus = dipole * amps[channel]
        theta = -modulus * cmath.exp(-1j * phases[channel])
        out[channel] = ComplexArea(
            value=theta, channel=channel, transition_freq=omega_t,
            window=(0.0, 1.0),
        )
    return out


# ---------------------------------------------------------------------------
# complex_area
# ---------------------------------------------------------------------------


def test_resonant_quarter_pi_area(molecule):
    mu = molecule.mu_a_debye
    p = make_pulse(area=math.pi / (4 * mu))
    omega_t = molecule.omega_ab
    assert omega_t * 35.0 > 1e3  # counter-rotating term suppressed regime
    theta = complex_area(p, mu, omega_t)
    assert abs(theta.value - (-math.pi / 4)) < 1e-6 * (math.pi / 4)
    assert theta.modulus == pytest.approx(math.pi / 4, rel=1e-6)
    assert abs(cmath.phase(theta.value)) == pytest.approx(math.pi, abs=1e-5)
    assert theta.effective_phase == pytest.approx(0.0, abs=1e-5)


def test_zero_area_pulse(molecule):
    p = make_pulse(area=0.0)
    theta = complex_area(p, molecule.mu_a_debye, molecule.omega_ab)
    assert theta.value == 0.0
    assert theta.effective_phase == 0.0


def test_detuned_gaussian_rolloff(molecule):
    tau = 35.0
    mu = molecule.mu_a_debye
    delta = 1.0 / tau
    omega_t = molecule.omega_ab
    carrier_mhz = (omega_t + delta) / mhz_to_rad_per_ns(1.0)
    p = make_pulse(area=1.0, tau=tau, carrier_mhz=carrier_mhz)
    theta = complex_area(p, mu, omega_t)
    assert theta.modulus == pytest.approx(mu * math.exp(-0.5), rel=1e-6)


@pytest.mark.parametrize(
    "area,phase,tc,carrier_mhz,omega_t_mhz",
    [
        (0.9, 0.0, 0.0, 4720.0, 4720.0),
        (1.3, 1.1, 40.0, 2339.0, 2339.0),
        (0.5, 2.7, -15.0, 7059.0, 7100.0),   # detuned
        (2.0, 5.5, 120.0, 4720.0, 4650.0),   # detuned, shifted
    ],
)
def test_quadrature_matches_scipy_oracle(area, phase, tc, carrier_mhz, omega_t_mhz):
    p = make_pulse(area=area, phase=phase, tc=tc, tau=20.0, carrier_mhz=carrier_mhz)
    omega_t = mhz_to_rad_per_ns(omega_t_mhz)
    ours = complex_area(p, 0.8, omega_t).value
    ref = area_by_scipy(p, 0.8, omega_t)
    assert ours == pytest.approx(ref, abs=2e-10)


def test_area_equals_negative_mu_spectral_amplitude(molecule):
    # duality between the time-domain area and the field spectrum
    for convention in (ABS, PhaseConvention.ENVELOPE):
        p = make_pulse(area=1.1, phase=0.77, tc=65.0, tau=22.0,
                       carrier_mhz=4720.0, convention=convention)
        omega_t = molecule.omega_ab
        theta = complex_area(p, 0.4, omega_t).value
        dual = -0.4 * spectral_amplitude(p, omega_t)
        assert theta == pytest.approx(dual, abs=1e-9)


def test_inverted_window_rejected(molecule):
    p = make_pulse(area=1.0)
    with pytest.raises(ValueError):
        complex_area(p, 0.4, molecule.omega_ab, window=(10.0, -10.0))


@settings(max_examples=20, deadline=None)
@given(
    phase=st.floats(0.0, 2 * math.pi),
    delta_phase=st.floats(0.0, 2 * math.pi),
)
def test_phase_covariance(phase, delta_phase):
    """Adding delta to the pulse phase rotates theta by exp(-i delta)."""
    omega_t = mhz_to_rad_per_ns(4720.0)
    base = complex_area(make_pulse(1.0, phase=phase), 0.4, omega_t).value
    shifted = complex_area(
        make_pulse(1.0, phase=phase + delta_phase), 0.4, omega_t
    ).value
    assert shifted == pytest.approx(base * cmath.exp(-1j * delta_phase), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 8.0), mu=st.floats(0.05, 3.0))
def test_linearity_in_area_and_dipole(scale, mu):
    omega_t = mhz_to_rad_per_ns(2339.0)
    base = complex_area(make_pulse(0.7, carrier_mhz=2339.0), 1.0, omega_t).value
    scaled = complex_area(
        make_pulse(0.7 * scale, carrier_mhz=2339.0), mu, omega_t
    ).value
    assert scaled == pytest.approx(base * scale * mu, rel=1e-9)


def test_faddeeva_matches_scipy_wofz():
    """Weideman's expansion vs scipy over the closed upper half-plane."""
    rng = np.random.default_rng(5)
    radius = 10.0 ** rng.uniform(-3.0, 5.0, 4000)
    angle = rng.uniform(0.0, math.pi, 4000)
    points = np.concatenate([
        radius * np.exp(1j * angle),
        np.linspace(-1e5, 1e5, 2001) + 0j,  # real axis, Re w = exp(-x^2)
        np.linspace(-40.0, 40.0, 2001) + 0j,
        # beta/2 + i s of the counter-rotating lobes
        rng.uniform(-3e3, 3e3, 2000) + 1j * rng.uniform(0.0, 8.0, 2000),
        [0j, 1e5j, 1e-12 + 0j],
    ])
    ref = wofz(points)
    ours = np.array([_faddeeva(complex(z)) for z in points])
    worst = np.max(np.abs(ours - ref) / np.abs(ref))
    assert worst <= 1e-13


def _converged_quad(pulse, dipole, omega_t, window):
    """``_panel_quad`` at panels sized to the fastest phase, then doubled."""
    lo, hi = window

    def integrand(t):
        return -dipole * field(pulse, t) * np.exp(1j * omega_t * t)

    fast = pulse.carrier + abs(omega_t)
    panels = int(math.ceil(fast * (hi - lo) / (4.0 * math.pi))) + 8
    coarse = _panel_quad(integrand, lo, hi, panels)
    fine = _panel_quad(integrand, lo, hi, 2 * panels)
    assert abs(fine - coarse) < 1e-12
    return fine


@settings(max_examples=40, deadline=None)
@given(
    tau=st.floats(0.3, 35.0),
    delta_tau=st.floats(-3.0, 3.0),
    tc=st.floats(-500.0, 500.0),
    phase=st.floats(0.0, 2 * math.pi),
    convention=st.sampled_from(list(PhaseConvention)),
    channel=st.sampled_from(["a", "b", "c"]),
    lo=st.floats(-8.0, 6.0),
    width=st.floats(0.5, 16.0),
)
def test_closed_form_matches_panel_quadrature(
    molecule, tau, delta_tau, tc, phase, convention, channel, lo, width
):
    """Random widths, detunings, centers and cut windows, both conventions.

    Cut windows keep the counter-rotating lobe at up to ~1e-5 of the area,
    so dropping or mis-phasing it fails here.
    """
    dipole, omega_t = molecule.channel_transition(channel)
    carrier = omega_t + delta_tau / tau
    pulse = make_pulse(
        area=1.0 / dipole, phase=phase, tc=tc, tau=tau,
        carrier_mhz=carrier / mhz_to_rad_per_ns(1.0),
        convention=convention, channel=channel,
    )
    window = (tc + lo * tau, tc + min(lo + width, 8.0) * tau)
    ours = complex_area(pulse, dipole, omega_t, window).value
    assert abs(ours - _converged_quad(pulse, dipole, omega_t, window)) <= 1e-10


@pytest.mark.parametrize("convention", list(PhaseConvention))
@pytest.mark.parametrize("cuts", [(-8.0, -1.5, 8.0), (-8.0, 0.7, 3.0), (0.2, 1.1, 8.0)])
def test_window_additivity(molecule, convention, cuts):
    """theta over [a, b] plus theta over [b, c] is theta over [a, c]."""
    tau, tc = 2.0, 280.0
    dipole, omega_t = molecule.channel_transition("c")
    pulse = make_pulse(
        area=1.1 / dipole, phase=0.9, tc=tc, tau=tau,
        carrier_mhz=(omega_t + 0.4 / tau) / mhz_to_rad_per_ns(1.0),
        convention=convention, channel="c",
    )
    a, b, c = (tc + x * tau for x in cuts)
    whole = complex_area(pulse, dipole, omega_t, (a, c)).value
    parts = (
        complex_area(pulse, dipole, omega_t, (a, b)).value
        + complex_area(pulse, dipole, omega_t, (b, c)).value
    )
    assert abs(parts - whole) <= 1e-15


def _exp_i_exact(omega, t):
    """exp(i omega t) with omega * t reduced mod 2 pi in exact arithmetic."""
    x = Fraction(omega) * Fraction(t)
    two_pi = Fraction(TWO_PI_DIGITS)
    return cmath.exp(1j * float(x - two_pi * math.floor(x / two_pi)))


@pytest.mark.parametrize("channel", ["a", "b", "c"])
def test_far_shift_multiplies_by_transition_phasor(molecule, channel):
    """Moving an envelope-referenced pulse and its window by T = 1e4 ns
    multiplies theta by exp(i omega_t T), to round-off of the area itself."""
    big_t = 1e4
    dipole, omega_t = molecule.channel_transition(channel)
    env = PhaseConvention.ENVELOPE
    kwargs = dict(area=1.1 / dipole, phase=2.3, tau=35.0, convention=env,
                  channel=channel,
                  carrier_mhz=(omega_t + 0.7 / 35.0) / mhz_to_rad_per_ns(1.0))
    near = make_pulse(tc=280.0, **kwargs)
    far = make_pulse(tc=280.0 + big_t, **kwargs)
    theta_near = complex_area(near, dipole, omega_t).value
    theta_far = complex_area(far, dipole, omega_t).value
    expected = theta_near * _exp_i_exact(omega_t, big_t)
    assert abs(theta_far - expected) <= 1e-14


def test_import_loads_no_scipy_fractions_or_fft():
    code = (
        "import sys, esst\n"
        "print(sorted(m for m in ('scipy', 'fractions', 'numpy.fft', 'numba')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Design lattice
# ---------------------------------------------------------------------------


def test_design_amplitudes_targetC_ground_lattice(molecule):
    amps = design_amplitudes(molecule, DesignSpec(target="C"))
    assert amps["a"] == pytest.approx(math.pi / 1.6, rel=1e-15)
    assert amps["b"] == pytest.approx(math.pi / (2 * SQRT2 * 1.2), rel=1e-15)
    assert amps["c"] == pytest.approx(math.pi / (2 * SQRT2 * 0.8), rel=1e-15)


def test_design_amplitudes_targetC_k1(molecule):
    amps = design_amplitudes(molecule, DesignSpec(target="C", k=1))
    assert 1.2 * amps["b"] == pytest.approx(1.5 * math.pi / SQRT2, rel=1e-15)
    assert 0.8 * amps["c"] == pytest.approx(1.5 * math.pi / SQRT2, rel=1e-15)
    # stage-1 channel untouched by k
    assert 0.4 * amps["a"] == pytest.approx(math.pi / 4, rel=1e-15)


def test_design_amplitudes_targetC_kprime1(molecule):
    amps = design_amplitudes(molecule, DesignSpec(target="C", kprime=1))
    assert 0.4 * amps["a"] == pytest.approx(1.25 * math.pi, rel=1e-15)


def test_design_amplitudes_targetB_roles_swap(molecule):
    amps = design_amplitudes(molecule, DesignSpec(target="B"))
    assert 1.2 * amps["b"] == pytest.approx(math.pi / 4, rel=1e-15)
    assert 0.4 * amps["a"] == pytest.approx(math.pi / (2 * SQRT2), rel=1e-15)
    assert 0.8 * amps["c"] == pytest.approx(math.pi / (2 * SQRT2), rel=1e-15)


def test_design_phases_targetC_left():
    phases = design_phases(DesignSpec(target="C", hand=L))
    assert phases == {"a": pytest.approx(math.pi / 2), "b": 0.0, "c": 0.0}


def test_design_phases_targetC_right_l1():
    phases = design_phases(DesignSpec(target="C", hand=R, l=1))
    assert phases["a"] == pytest.approx(3 * math.pi / 2)
    assert phases["b"] == 0.0 and phases["c"] == 0.0


def test_design_phases_targetB_left():
    phases = design_phases(DesignSpec(target="B", hand=L))
    assert phases["a"] == 0.0 and phases["c"] == 0.0
    assert phases["b"] == pytest.approx(math.pi / 2)


def test_loop_phase_target_values():
    assert loop_phase_target(DesignSpec(target="C", hand=L)) == pytest.approx(
        math.pi / 2
    )
    assert loop_phase_target(DesignSpec(target="C", hand=R)) == pytest.approx(
        -math.pi / 2
    )
    assert loop_phase_target(DesignSpec(target="B", hand=L)) == pytest.approx(
        -math.pi / 2
    )
    assert loop_phase_target(
        DesignSpec(target="C", hand=L, l=1)
    ) == pytest.approx(2 * math.pi + math.pi / 2)


def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(target="D")
    with pytest.raises(ValueError):
        DesignSpec(target="C", tau0=-1.0)
    with pytest.raises(ValueError):
        DesignSpec(target="C", k=-1)
    with pytest.raises(ValueError):
        DesignSpec(target="C", stage2_center=-10.0)  # before stage 1


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["tau0", "stage1_center", "stage2_center"])
def test_design_spec_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        DesignSpec(target="C", **{name: value})


def test_design_spec_stage_roles():
    spec_c = DesignSpec(target="C")
    assert spec_c.stage1_channel == "a"
    assert spec_c.stage2_channels == ("b", "c")
    spec_b = DesignSpec(target="B")
    assert spec_b.stage1_channel == "b"
    assert spec_b.stage2_channels == ("a", "c")


def test_design_spec_default_geometry():
    spec = DesignSpec(target="C", tau0=35.0)
    assert spec.stage2_center_eff == pytest.approx(8 * 35.0)
    assert spec.stage_boundary == pytest.approx(4 * 35.0)


# ---------------------------------------------------------------------------
# realize_phase / designed_pulses
# ---------------------------------------------------------------------------


def test_realize_phase_absolute_resonant():
    # resonant: the parameter equals the design phase under either convention
    omega = mhz_to_rad_per_ns(4720.0)
    assert realize_phase(0.7, omega, omega, 0.0, ABS) == pytest.approx(0.7)
    assert realize_phase(
        0.7, omega, omega, 0.0, PhaseConvention.ENVELOPE
    ) == pytest.approx(0.7)


def test_realize_phase_absolute_detuned():
    omega = 10.0
    delta = 0.25
    got = realize_phase(1.0, omega, omega + delta, 2.0, ABS)
    assert got == pytest.approx((1.0 - delta * 2.0) % (2 * math.pi))


def test_realize_phase_envelope_shifts_by_carrier():
    omega = 10.0
    got = realize_phase(1.0, omega, omega, 2.0, PhaseConvention.ENVELOPE)
    assert got == pytest.approx((1.0 + omega * 2.0) % (2 * math.pi))


def test_designed_pulses_resonant_carriers(molecule, spec_c, pulses_c):
    for channel, pulse in pulses_c.items():
        _, omega_t = molecule.channel_transition(channel)
        assert pulse.carrier == pytest.approx(omega_t, rel=1e-15)
        assert pulse.duration == spec_c.tau0
    assert pulses_c["a"].center_time == 0.0
    assert pulses_c["b"].center_time == pytest.approx(8 * 35.0)
    assert pulses_c["c"].center_time == pytest.approx(8 * 35.0)


def test_designed_pulses_effective_phases_hit_design(molecule, wide_spec_c):
    pulses = designed_pulses(molecule, wide_spec_c)
    areas = stage_areas(molecule, pulses, wide_spec_c)
    phases = design_phases(wide_spec_c)
    for channel in ("a", "b", "c"):
        assert areas[channel].effective_phase == pytest.approx(
            phases[channel], abs=1e-8
        )


def test_designed_pulses_rejects_unknown_channel(molecule, spec_c):
    with pytest.raises(ValueError):
        designed_pulses(molecule, spec_c, detunings={"q": 0.1})
    with pytest.raises(ValueError):
        designed_pulses(molecule, spec_c, scales={"z": 2.0})


def test_designed_pulses_detuning_and_scale(molecule, spec_c):
    delta = 1.0 / spec_c.tau0
    scale = detuning_compensation(delta, spec_c.tau0)
    pulses = designed_pulses(
        molecule, spec_c, detunings={"b": delta}, scales={"b": scale}
    )
    base = designed_pulses(molecule, spec_c)
    assert pulses["b"].carrier == pytest.approx(molecule.omega_ac + delta)
    assert pulses["b"].area_param == pytest.approx(base["b"].area_param * scale)
    assert pulses["a"] == base["a"]


# ---------------------------------------------------------------------------
# stage_areas
# ---------------------------------------------------------------------------


def test_stage_areas_wide_geometry_hits_lattice(molecule, wide_spec_c):
    pulses = designed_pulses(molecule, wide_spec_c)
    areas = stage_areas(molecule, pulses, wide_spec_c)
    assert areas["a"].modulus == pytest.approx(math.pi / 4, abs=1e-9)
    assert areas["b"].modulus == pytest.approx(math.pi / (2 * SQRT2), abs=1e-9)
    assert areas["c"].modulus == pytest.approx(math.pi / (2 * SQRT2), abs=1e-9)


def test_stage_areas_default_geometry_truncation(molecule, spec_c, pulses_c):
    # the stage boundary at 4 sigma clips ~3e-5 of the stage-1 area --
    # a real feature of the finite handoff, not an artifact of the area evaluation
    areas = stage_areas(molecule, pulses_c, spec_c)
    clipped = areas["a"].modulus
    assert clipped < math.pi / 4
    assert math.pi / 4 - clipped < 1e-4


def test_stage_areas_windows(molecule, spec_c, pulses_c):
    areas = stage_areas(molecule, pulses_c, spec_c)
    t1 = spec_c.stage_boundary
    assert areas["a"].window[1] == pytest.approx(t1)
    assert areas["b"].window[0] == pytest.approx(t1)
    assert areas["c"].window[0] == pytest.approx(t1)


def test_stage_areas_delayed_stage1_regression(molecule, spec_c, pulses_c):
    # a stage-1 pulse pushed past the boundary must not produce an
    # empty/inverted window
    from dataclasses import replace

    late = dict(pulses_c)
    late["a"] = replace(late["a"], center_time=spec_c.stage_boundary + 100.0)
    areas = stage_areas(molecule, late, spec_c)
    # only the far tail (t < t1, ~2.9 sigma out) contributes
    assert areas["a"].modulus < 5e-3


# ---------------------------------------------------------------------------
# condition_residuals
# ---------------------------------------------------------------------------


def test_residuals_at_designed_point(molecule, wide_spec_c):
    pulses = designed_pulses(molecule, wide_spec_c)
    areas = stage_areas(molecule, pulses, wide_spec_c)
    rep = condition_residuals(areas["a"], areas["b"], areas["c"], wide_spec_c)
    assert all(r < 1e-6 for r in rep.amplitude_residuals.values())
    assert rep.phase_residual < 1e-6
    assert rep.constructive_residual < 1e-6
    assert rep.destructive_residual < 1e-6
    assert rep.predicted_target_population > 1 - 1e-6


def test_residuals_zero_areas(molecule, spec_c):
    zeros = {
        ch: ComplexArea(
            value=0j, channel=ch,
            transition_freq=molecule.channel_transition(ch)[1],
            window=(0.0, 1.0),
        )
        for ch in ("a", "b", "c")
    }
    rep = condition_residuals(zeros["a"], zeros["b"], zeros["c"], spec_c)
    assert rep.predicted_target_population == 0.0
    assert rep.destructive_residual == 0.0


def test_residuals_pi_flip_swaps_hands(molecule):
    spec_l = DesignSpec(target="C", hand=L)
    spec_r = DesignSpec(target="C", hand=R)
    areas = lattice_areas(molecule, spec_l)
    flipped = dict(areas)
    flipped["a"] = ComplexArea(
        value=-areas["a"].value, channel="a",
        transition_freq=areas["a"].transition_freq, window=areas["a"].window,
    )
    pred = {
        ("orig", "L"): condition_residuals(
            areas["a"], areas["b"], areas["c"], spec_l
        ).predicted_target_population,
        ("orig", "R"): condition_residuals(
            areas["a"], areas["b"], areas["c"], spec_r
        ).predicted_target_population,
        ("flip", "L"): condition_residuals(
            flipped["a"], flipped["b"], flipped["c"], spec_l
        ).predicted_target_population,
        ("flip", "R"): condition_residuals(
            flipped["a"], flipped["b"], flipped["c"], spec_r
        ).predicted_target_population,
    }
    assert pred[("orig", "L")] == pytest.approx(1.0, abs=1e-12)
    assert pred[("orig", "R")] == pytest.approx(0.0, abs=1e-12)
    assert pred[("flip", "L")] == pytest.approx(pred[("orig", "R")], abs=1e-12)
    assert pred[("flip", "R")] == pytest.approx(pred[("orig", "L")], abs=1e-12)


@pytest.mark.parametrize("target", ["B", "C"])
@pytest.mark.parametrize("kpair", [(0, 0), (1, 0), (0, 1)])
def test_lattice_degeneracy(molecule, target, kpair):
    """Neighboring lattice indices are equally valid design points."""
    k, kprime = kpair
    spec = DesignSpec(target=target, k=k, kprime=kprime)
    areas = lattice_areas(molecule, spec)
    rep = condition_residuals(areas["a"], areas["b"], areas["c"], spec)
    assert rep.predicted_target_population > 1 - 1e-6
    assert rep.phase_residual < 1e-9


# ---------------------------------------------------------------------------
# detuning_compensation
# ---------------------------------------------------------------------------


def test_compensation_trivial_and_reference_values():
    assert detuning_compensation(0.0, 35.0) == 1.0
    assert detuning_compensation(1.0 / 35.0, 35.0) == pytest.approx(
        1.6487212707001282, rel=1e-15
    )
    assert detuning_compensation(2.0 / 35.0, 35.0) == pytest.approx(
        7.38905609893065, rel=1e-15
    )


def test_compensation_overflow_guard():
    with pytest.raises(ValueError):
        detuning_compensation(38.0, 1.0)  # exponent 722 > 700


def test_compensated_area_restores_modulus(molecule):
    tau = 35.0
    mu = molecule.mu_b_debye
    omega_t = molecule.omega_ac
    delta = 1.0 / tau
    scale = detuning_compensation(delta, tau)
    resonant = make_pulse(1.0, tau=tau,
                          carrier_mhz=omega_t / mhz_to_rad_per_ns(1.0))
    detuned = make_pulse(scale * 1.0, tau=tau,
                         carrier_mhz=(omega_t + delta) / mhz_to_rad_per_ns(1.0))
    m_res = complex_area(resonant, mu, omega_t).modulus
    m_det = complex_area(detuned, mu, omega_t).modulus
    assert m_det == pytest.approx(m_res, rel=1e-6)

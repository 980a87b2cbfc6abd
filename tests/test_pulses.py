"""Gaussian carrier pulses: envelopes, fields, spectra, support windows."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from esst.model import mhz_to_rad_per_ns
from esst.pulses import (
    PhaseConvention,
    Pulse,
    envelope,
    field,
    spectral_amplitude,
    support_window,
)

ABS = PhaseConvention.ABSOLUTE
ENV = PhaseConvention.ENVELOPE


def make_pulse(
    area=1.0,
    tc=0.0,
    tau=35.0,
    carrier_mhz=4720.0,
    phase=0.0,
    convention=ABS,
    channel="a",
):
    return Pulse(
        channel=channel,
        area_param=area,
        center_time=tc,
        duration=tau,
        carrier_mhz=carrier_mhz,
        phase=phase,
        convention=convention,
    )


def spectral_by_quadrature(pulse: Pulse, omega_eval: float) -> complex:
    """Independent oracle: direct Fourier quadrature of the field."""
    lo, hi = support_window(pulse, 8.0)
    re = quad(
        lambda t: field(pulse, t) * math.cos(omega_eval * t),
        lo, hi, limit=4000, epsabs=1e-13, epsrel=1e-12,
    )[0]
    im = quad(
        lambda t: field(pulse, t) * math.sin(omega_eval * t),
        lo, hi, limit=4000, epsabs=1e-13, epsrel=1e-12,
    )[0]
    return complex(re, im)


# ---------------------------------------------------------------------------
# Pulse invariants
# ---------------------------------------------------------------------------


def test_pulse_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        make_pulse(tau=0.0)
    with pytest.raises(ValueError):
        make_pulse(tau=-1.0)


def test_pulse_rejects_negative_area():
    with pytest.raises(ValueError):
        make_pulse(area=-0.5)


def test_pulse_rejects_nonpositive_carrier():
    with pytest.raises(ValueError):
        make_pulse(carrier_mhz=0.0)


def test_pulse_rejects_an_unknown_channel():
    with pytest.raises(ValueError, match=r"^channel must be one of \('a', 'b', 'c'\), got 'd'$"):
        make_pulse(channel="d")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "name, keyword",
    [("area_param", "area"), ("center_time", "tc"), ("duration", "tau"),
     ("carrier_mhz", "carrier_mhz"), ("phase", "phase")],
)
def test_pulse_rejects_non_finite(name, keyword, value):
    with pytest.raises(ValueError, match=name):
        make_pulse(**{keyword: value})


def test_pulse_convention_coercion_from_string():
    p = Pulse(
        channel="b", area_param=1.0, center_time=0.0, duration=10.0,
        carrier_mhz=100.0, phase=0.0, convention="envelope",
    )
    assert p.convention is ENV


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


def test_envelope_peak_value():
    p = make_pulse(area=2.0, tc=5.0, tau=35.0)
    assert envelope(p, 5.0) == pytest.approx(
        math.sqrt(2.0 / math.pi) * 2.0 / 35.0, rel=1e-15
    )


def test_envelope_zero_area_vanishes():
    p = make_pulse(area=0.0)
    ts = np.linspace(-100, 100, 11)
    assert np.all(envelope(p, ts) == 0.0)


def test_envelope_integral_is_twice_area():
    p = make_pulse(area=1.375, tc=12.0, tau=21.0)
    lo, hi = support_window(p, 8.0)
    total, _ = quad(lambda t: envelope(p, t), lo, hi, limit=400)
    assert total == pytest.approx(2.0 * 1.375, rel=1e-10)


def test_envelope_tail_truncation_negligible():
    p = make_pulse(area=1.0, tc=0.0, tau=35.0)
    tail, _ = quad(lambda t: envelope(p, t), 8 * 35.0, 40 * 35.0, limit=400)
    assert tail < 1e-14 * 2.0


@settings(max_examples=30, deadline=None)
@given(
    tc=st.floats(-50, 50),
    tau=st.floats(1.0, 80.0),
    dt=st.floats(0.0, 200.0),
)
def test_envelope_even_about_center(tc, tau, dt):
    p = make_pulse(area=1.0, tc=tc, tau=tau)
    assert envelope(p, tc + dt) == pytest.approx(envelope(p, tc - dt), rel=1e-12)


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------


def test_field_peak_under_envelope_convention():
    p = make_pulse(area=1.0, tc=7.0, phase=0.0, convention=ENV)
    assert field(p, 7.0) == pytest.approx(envelope(p, 7.0), rel=1e-15)


def test_field_pi_phase_flips_sign():
    p0 = make_pulse(phase=0.3)
    p1 = make_pulse(phase=0.3 + math.pi)
    ts = np.linspace(-80, 80, 257)
    np.testing.assert_allclose(field(p1, ts), -field(p0, ts), atol=1e-15)


def test_field_2pi_phase_identical():
    p0 = make_pulse(phase=0.3)
    p1 = make_pulse(phase=0.3 + 2 * math.pi)
    ts = np.linspace(-80, 80, 257)
    np.testing.assert_allclose(field(p1, ts), field(p0, ts), atol=1e-12)


def test_conventions_agree_after_phase_shift():
    # absolute phase = envelope phase - omega * t_c reproduces the same field
    tc, phi_env = 40.0, 1.1
    carrier = mhz_to_rad_per_ns(4720.0)
    p_env = make_pulse(tc=tc, phase=phi_env, convention=ENV)
    p_abs = make_pulse(tc=tc, phase=phi_env - carrier * tc, convention=ABS)
    ts = np.linspace(tc - 100, tc + 100, 401)
    np.testing.assert_allclose(field(p_abs, ts), field(p_env, ts), atol=1e-12)


def test_absolute_phase_property():
    tc, phi = 40.0, 0.25
    carrier = mhz_to_rad_per_ns(1000.0)
    p_abs = make_pulse(tc=tc, phase=phi, carrier_mhz=1000.0, convention=ABS)
    p_env = make_pulse(tc=tc, phase=phi, carrier_mhz=1000.0, convention=ENV)
    assert p_abs.absolute_phase == phi
    assert p_env.absolute_phase == pytest.approx(phi - carrier * tc)


# ---------------------------------------------------------------------------
# Spectral amplitude
# ---------------------------------------------------------------------------


def test_spectral_resonant_modulus_is_area():
    p = make_pulse(area=1.7, tau=35.0, carrier_mhz=4720.0, phase=0.4)
    value = spectral_amplitude(p, p.carrier)
    assert abs(value) == pytest.approx(1.7, rel=1e-10)


def test_spectral_zero_area():
    p = make_pulse(area=0.0)
    assert spectral_amplitude(p, p.carrier) == 0.0


def test_spectral_detuned_gaussian_rolloff():
    tau = 35.0
    p = make_pulse(area=1.0, tau=tau, carrier_mhz=4720.0)
    delta = 1.0 / tau
    ratio = abs(spectral_amplitude(p, p.carrier + delta)) / abs(
        spectral_amplitude(p, p.carrier)
    )
    assert ratio == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_spectral_modulus_peaks_on_resonance():
    p = make_pulse(area=1.0, tau=20.0, carrier_mhz=3000.0)
    peak = abs(spectral_amplitude(p, p.carrier))
    for delta in (-0.3, -0.05, 0.05, 0.3):
        assert abs(spectral_amplitude(p, p.carrier + delta)) < peak


@pytest.mark.parametrize(
    "tc,phase,convention,omega_mhz",
    [
        (0.0, 0.0, ABS, 4720.0),
        (25.0, 1.3, ABS, 2339.0),
        (280.0, 0.7, ENV, 7059.0),
        (-12.0, 4.0, ENV, 4720.0),
    ],
)
def test_spectral_closed_form_matches_quadrature(tc, phase, convention, omega_mhz):
    p = make_pulse(
        area=1.2, tc=tc, tau=18.0, carrier_mhz=omega_mhz,
        phase=phase, convention=convention,
    )
    for omega_eval in (p.carrier, p.carrier * 1.002, p.carrier * 0.97):
        closed = spectral_amplitude(p, omega_eval)
        direct = spectral_by_quadrature(p, omega_eval)
        assert closed == pytest.approx(direct, abs=5e-10)


# ---------------------------------------------------------------------------
# Support window
# ---------------------------------------------------------------------------


def test_support_window_example():
    p = make_pulse(tc=0.0, tau=35.0)
    assert support_window(p, 4.0) == (-140.0, 140.0)


def test_support_window_edge_ratio():
    p = make_pulse(tc=3.0, tau=11.0)
    for n in (1.0, 2.5, 4.0):
        lo, hi = support_window(p, n)
        ratio = envelope(p, hi) / envelope(p, 3.0)
        assert ratio == pytest.approx(math.exp(-n * n / 2.0), rel=1e-12)
        assert lo == pytest.approx(3.0 - n * 11.0)


def test_support_window_rejects_nonpositive_sigma():
    p = make_pulse()
    with pytest.raises(ValueError):
        support_window(p, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    area=st.floats(0.0, 10.0),
    tc=st.floats(-100.0, 300.0),
    tau=st.floats(0.5, 60.0),
    phase=st.floats(0.0, 2 * math.pi),
)
def test_field_bounded_by_envelope(area, tc, tau, phase):
    p = make_pulse(area=area, tc=tc, tau=tau, phase=phase)
    ts = np.linspace(tc - 4 * tau, tc + 4 * tau, 101)
    assert np.all(np.abs(field(p, ts)) <= envelope(p, ts) + 1e-15)

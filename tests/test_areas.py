"""Complex pulse areas, design lattice, residual scoring, detuning scale."""
from __future__ import annotations

import cmath
import math
import struct
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import wofz

from esst.analytic import condition_residuals
from esst.areas import (
    _LOBE_KEY,
    ComplexArea,
    _faddeeva,
    _lobe_sum,
    _panel_quad,
    DesignSpec,
    complex_area,
    design_amplitudes,
    design_phases,
    designed_pulses,
    detuning_compensation,
    loop_phase_target,
    realize_phase,
    stage_areas,
)
from esst.experiments import sweep_detuning
from esst.model import mhz_to_rad_per_ns
from esst.pulses import (
    TWO_PI_DIGITS,
    PhaseConvention,
    Pulse,
    field,
    spectral_amplitude,
    support_window,
)
from helpers import L, R

ABS, ENV = PhaseConvention.ABSOLUTE, PhaseConvention.ENVELOPE
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


@pytest.mark.parametrize("value", [complex(-2.0, 5e-324), complex(-1e300, 1e-300)])
def test_effective_phase_of_an_area_whose_angle_underflows(value):
    # cmath.phase raised OverflowError for these, though the angle is just 0.
    area = ComplexArea(value, "c", 1.0, (0.0, 1.0))
    assert area.effective_phase == 0.0


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_effective_phase_has_the_bits_of_cmath_phase(value):
    # Where cmath.phase gives an angle, its bits; where it raises, the
    # underflowed angle.
    try:
        expected = 0.0 if value == 0 else -cmath.phase(-value)
    except OverflowError:
        expected = -math.atan2(-value.imag, -value.real)
    got = ComplexArea(value, "a", 1.0, (0.0, 1.0)).effective_phase
    assert struct.pack("<d", got) == struct.pack("<d", expected)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", ["dipole", "transition_freq"])
def test_non_finite_dipole_or_transition_rejected(molecule, argument, bad):
    # Unchecked, a NaN or infinite dipole gave a NaN or infinite area, and a
    # NaN or infinite transition failed inside the exact phase reduction.
    p = make_pulse(area=1.0)
    args = {"dipole": 0.4, "transition_freq": molecule.omega_ab, argument: bad}
    lookups = _lobe_sum.cache_info()
    with pytest.raises(ValueError, match=f"^{argument} must be finite"):
        complex_area(p, **args)
    after = _lobe_sum.cache_info()
    assert (after.hits, after.misses) == (lookups.hits, lookups.misses)


@pytest.mark.parametrize("tc", [0.0, 120.0])
def test_full_line_resonant_area_is_minus_mu_a_phasor(tc):
    # The module docstring's theta = -mu A e^{-i phi}, on a window whose
    # ends are infinite or so far out that s * s overflows.
    mu, area, phi = 0.5, 1.3, 0.7
    p = make_pulse(area, phase=phi, tc=tc)
    expected = -mu * area * cmath.exp(-1j * phi)
    for window in [(-math.inf, math.inf), (-1e308, 1e308)]:
        theta = complex_area(p, mu, p.carrier, window).value
        assert abs(theta - expected) <= 1e-14, window


def test_half_infinite_window_matches_the_support_window():
    p = make_pulse(1.3, phase=0.7)
    lo, hi = support_window(p)
    omega_t = p.carrier
    assert complex_area(p, 0.5, omega_t, (-200.0, math.inf)).value == pytest.approx(
        complex_area(p, 0.5, omega_t, (-200.0, hi)).value, abs=1e-14
    )
    assert complex_area(p, 0.5, omega_t, (-math.inf, 200.0)).value == pytest.approx(
        complex_area(p, 0.5, omega_t, (lo, 200.0)).value, abs=1e-14
    )


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
    # Nor the process machinery: the kernel's pool is created on the first
    # multi-chunk run, so a program that only designs pulses never loads it.
    code = (
        "import sys, esst\n"
        "print(sorted(m for m in ('scipy', 'fractions', 'numpy.fft', 'numba',"
        " 'multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# The lobe-sum cache behind complex_area
# ---------------------------------------------------------------------------


def _bits(z: complex) -> bytes:
    return struct.pack("<2d", z.real, z.imag)


def _uncached_area(pulse, dipole, omega_t, window=None):
    lo, hi = window if window is not None else support_window(pulse)
    key = _LOBE_KEY.pack(
        omega_t, pulse.carrier, pulse.center_time, pulse.duration, pulse.phase,
        lo, hi, pulse.convention is ABS,
    )
    return complex(-0.5 * dipole * pulse.area_param * _lobe_sum.__wrapped__(key))


@st.composite
def _windows(draw):
    if draw(st.booleans()):
        return None
    lo = draw(st.one_of(st.just(-math.inf), st.floats(-1e3, 1e3)))
    hi = draw(st.one_of(st.just(math.inf), st.floats(-1e3, 1e3)))
    assume(hi > lo)
    return (lo, hi)


@settings(max_examples=200, deadline=None)
@given(
    area=st.floats(0.0, 10.0),
    dipole=st.floats(-3.0, 3.0),
    omega_t=st.floats(0.0, 60.0),
    carrier_mhz=st.floats(1.0, 1e4),
    tc=st.floats(-500.0, 500.0),
    tau=st.floats(0.05, 100.0),
    phase=st.floats(-100.0, 100.0),
    convention=st.sampled_from(list(PhaseConvention)),
    window=_windows(),
)
def test_cached_area_has_the_bits_of_the_uncached_one(
    area, dipole, omega_t, carrier_mhz, tc, tau, phase, convention, window
):
    p = make_pulse(area, phase=phase, tc=tc, tau=tau, carrier_mhz=carrier_mhz,
                   convention=convention)
    want = _bits(_uncached_area(p, dipole, omega_t, window))
    _lobe_sum.cache_clear()
    cold = complex_area(p, dipole, omega_t, window).value
    warm = complex_area(p, dipole, omega_t, window).value
    assert _lobe_sum.cache_info().hits == 1
    assert _bits(cold) == want
    assert _bits(warm) == want


_BASE = dict(area=1.0, phase=0.5, tc=40.0, tau=20.0, carrier_mhz=4720.0,
             convention=ABS)
_BASE_OMEGA = mhz_to_rad_per_ns(4700.0)
_BASE_WINDOW = (-100.0, 150.0)


@pytest.mark.parametrize(
    "pulse_change,omega_t,window",
    [
        ({}, math.nextafter(_BASE_OMEGA, 1.0), _BASE_WINDOW),
        ({"carrier_mhz": math.nextafter(4720.0, 1e4)}, _BASE_OMEGA, _BASE_WINDOW),
        ({"tc": math.nextafter(40.0, 0.0)}, _BASE_OMEGA, _BASE_WINDOW),
        ({"tau": math.nextafter(20.0, 0.0)}, _BASE_OMEGA, _BASE_WINDOW),
        ({"phase": math.nextafter(0.5, 1.0)}, _BASE_OMEGA, _BASE_WINDOW),
        ({"convention": PhaseConvention.ENVELOPE}, _BASE_OMEGA, _BASE_WINDOW),
        ({}, _BASE_OMEGA, (math.nextafter(-100.0, 0.0), 150.0)),
        ({}, _BASE_OMEGA, (-100.0, math.nextafter(150.0, 0.0))),
    ],
    ids=["transition", "carrier", "center", "width", "phase", "convention",
         "window_lo", "window_hi"],
)
def test_one_keyed_field_apart_never_shares_an_entry(pulse_change, omega_t, window):
    base = make_pulse(**_BASE)
    other = make_pulse(**{**_BASE, **pulse_change})
    _lobe_sum.cache_clear()
    complex_area(base, 0.4, _BASE_OMEGA, _BASE_WINDOW)
    complex_area(other, 0.4, omega_t, window)
    info = _lobe_sum.cache_info()
    assert (info.hits, info.misses) == (0, 2)


@pytest.mark.parametrize(
    "tc,windows",
    [
        ((0.0, -0.0), ((-100.0, 150.0), (-100.0, 150.0))),
        ((40.0, 40.0), ((0.0, 150.0), (-0.0, 150.0))),
        ((40.0, 40.0), ((-100.0, 0.0), (-100.0, -0.0))),
    ],
    ids=["center", "window_lo", "window_hi"],
)
def test_signed_zeros_get_their_own_entries(tc, windows):
    _lobe_sum.cache_clear()
    for center, window in zip(tc, windows):
        complex_area(make_pulse(**{**_BASE, "tc": center}), 0.4, _BASE_OMEGA, window)
    info = _lobe_sum.cache_info()
    assert (info.hits, info.misses) == (0, 2)


def test_amplitude_dipole_and_channel_changes_hit_the_cache():
    base = make_pulse(**_BASE)
    _lobe_sum.cache_clear()
    first = complex_area(base, 0.4, _BASE_OMEGA, _BASE_WINDOW)
    scaled = complex_area(make_pulse(**{**_BASE, "area": 2.5}), 0.4, _BASE_OMEGA, _BASE_WINDOW)
    other_dipole = complex_area(base, 1.1, _BASE_OMEGA, _BASE_WINDOW)
    other_channel = complex_area(
        make_pulse(**_BASE, channel="c"), 0.4, _BASE_OMEGA, _BASE_WINDOW
    )
    info = _lobe_sum.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    assert scaled.value == pytest.approx(2.5 * first.value, rel=1e-15)
    assert other_dipole.value == pytest.approx(1.1 / 0.4 * first.value, rel=1e-15)
    assert other_channel.channel == "c"
    assert _bits(other_channel.value) == _bits(first.value)


def test_detuning_sweep_evaluates_each_distinct_area_once(molecule, spec_b):
    # 7 x 7 (delta, scale) points x 3 channels = 147 areas: channels a and
    # c never change, b changes with delta only.
    tau0 = spec_b.tau0
    _lobe_sum.cache_clear()
    sweep_detuning(
        molecule, spec_b, np.linspace(0.5, 1.5, 7) / tau0, np.linspace(1.0, 1.8, 7),
        mode="scale_b", engine="analytic",
    )
    info = _lobe_sum.cache_info()
    assert (info.misses, info.hits) == (9, 138)


# ---------------------------------------------------------------------------
# Design lattice
# ---------------------------------------------------------------------------


#: The preset's dipoles, in the units ``design_amplitudes`` divides by.
MU = {"a": 0.4, "b": 1.2, "c": 0.8}
#: |theta| of the stage-1 channel at kprime = 0 and of a stage-2 one at k = 0.
SPLIT, CLOSE = math.pi / 4, math.pi / (2 * SQRT2)


@pytest.mark.parametrize("design,moduli", [
    pytest.param({}, {"a": SPLIT, "b": CLOSE, "c": CLOSE}, id="targetC-ground-lattice"),
    # the stage-1 channel is untouched by k
    pytest.param({"k": 1}, {"b": 3 * CLOSE, "c": 3 * CLOSE, "a": SPLIT}, id="targetC-k1"),
    pytest.param({"kprime": 1}, {"a": 5 * SPLIT}, id="targetC-kprime1"),
    pytest.param({"target": "B"}, {"b": SPLIT, "a": CLOSE, "c": CLOSE}, id="targetB-roles-swap"),
])
def test_design_amplitudes_sit_on_the_area_lattice(molecule, design, moduli):
    # dipole x amplitude = |theta|: (kprime + 1/4) pi for the stage-1
    # channel, (k + 1/2) pi / sqrt(2) for each stage-2 channel
    amps = design_amplitudes(molecule, DesignSpec(**{"target": "C", **design}))
    for channel, modulus in moduli.items():
        assert MU[channel] * amps[channel] == pytest.approx(modulus, rel=1e-15)


@pytest.mark.parametrize("design,phases", [
    pytest.param({"target": "C", "hand": L}, {"a": pytest.approx(math.pi / 2), "b": 0.0, "c": 0.0},
                 id="targetC-left"),
    pytest.param({"target": "C", "hand": R, "l": 1},
                 {"a": pytest.approx(3 * math.pi / 2), "b": 0.0, "c": 0.0}, id="targetC-right-l1"),
    pytest.param({"target": "B", "hand": L}, {"a": 0.0, "b": pytest.approx(math.pi / 2), "c": 0.0},
                 id="targetB-left"),
])
def test_design_phases_put_the_loop_phase_on_the_split_channel(design, phases):
    assert design_phases(DesignSpec(**design)) == phases


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


@pytest.mark.parametrize("name,value", [("k", 0.5), ("kprime", 0.25), ("l", 0.3), ("l", math.nan)])
def test_design_spec_rejects_a_lattice_index_that_is_not_an_integer(name, value):
    # k = 0.5 designed stage-2 amplitudes between the k = 0 and k = 1
    # lattice points; l = nan failed later, inside Pulse, without naming l
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        DesignSpec(target="C", **{name: value})


def test_design_spec_stores_a_numpy_integer_index_as_an_int():
    spec = DesignSpec(target="C", k=np.int64(1), kprime=np.int64(0), l=np.int64(-1))
    assert [type(index) for index in (spec.k, spec.kprime, spec.l)] == [int, int, int]
    assert spec == DesignSpec(target="C", k=1, l=-1)


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


@pytest.mark.parametrize(
    "target, split, closing", [("C", "a", ("b", "c")), ("B", "b", ("a", "c"))]
)
def test_stage_table_lays_out_the_design(target, split, closing):
    spec = DesignSpec(target=target, tau0=2.0, k=3, kprime=5, stage1_center=1.0)
    first, second = spec.stages
    assert (first.hub, first.channels, first.index, first.center) == ("A", (split,), 5, 1.0)
    assert (second.hub, second.channels, second.index, second.center) == (target, closing, 3, 17.0)
    # |theta| = (kprime + 1/4) pi and (k + 1/2) pi / sqrt(2)
    assert (first.offset, first.divisor) == (0.25, 1.0)
    assert (second.offset, second.divisor) == (0.5, math.sqrt(2.0))
    assert all(spec.stage_of(ch) is first for ch in first.channels)
    assert all(spec.stage_of(ch) is second for ch in second.channels)
    assert spec.stage_boundary == 9.0
    # the table is the design's, not a shared one: a new design builds its own
    assert replace(spec, k=0).stages[1].index == 0


def test_design_spec_default_geometry():
    spec = DesignSpec(target="C", tau0=35.0)
    assert spec.stage2_center_eff == pytest.approx(8 * 35.0)
    assert spec.stage_boundary == pytest.approx(4 * 35.0)


# ---------------------------------------------------------------------------
# realize_phase / designed_pulses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("args,phase", [
    # resonant: the parameter equals the design phase under either convention
    pytest.param((0.7, mhz_to_rad_per_ns(4720.0), mhz_to_rad_per_ns(4720.0), 0.0, ABS), 0.7,
                 id="absolute-resonant"),
    pytest.param((0.7, mhz_to_rad_per_ns(4720.0), mhz_to_rad_per_ns(4720.0), 0.0, ENV), 0.7,
                 id="envelope-resonant"),
    pytest.param((1.0, 10.0, 10.0 + 0.25, 2.0, ABS), (1.0 - 0.25 * 2.0) % (2 * math.pi),
                 id="absolute-detuned"),
    pytest.param((1.0, 10.0, 10.0, 2.0, ENV), (1.0 + 10.0 * 2.0) % (2 * math.pi),
                 id="envelope-shifts-by-carrier"),
])
def test_realize_phase(args, phase):
    assert realize_phase(*args) == pytest.approx(phase)


def test_designed_pulses_resonant_carriers(molecule, spec_c, pulses_c):
    for channel, pulse in pulses_c.items():
        _, omega_t = molecule.channel_transition(channel)
        assert pulse.carrier == pytest.approx(omega_t, rel=1e-15)
        assert pulse.duration == spec_c.tau0
    assert pulses_c["a"].center_time == 0.0
    assert pulses_c["b"].center_time == pytest.approx(8 * 35.0)
    assert pulses_c["c"].center_time == pytest.approx(8 * 35.0)


@pytest.mark.parametrize("detunings", [None, {"a": 0.0, "b": 0.0, "c": 0.0}])
@pytest.mark.parametrize("target", ["B", "C"])
def test_designed_resonant_carrier_is_exactly_the_transition(molecule, target, detunings):
    # In MHz, as the config states it: 7059.0, not a round trip through rad/ns
    pulses = designed_pulses(molecule, DesignSpec(target=target), detunings=detunings)
    for channel, pulse in pulses.items():
        assert pulse.carrier_mhz == molecule.channel_transition_mhz(channel)


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
    rep = condition_residuals(areas, wide_spec_c)
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
    rep = condition_residuals(zeros, spec_c)
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
        (name, hand): condition_residuals(source, spec).predicted_target_population
        for name, source in (("orig", areas), ("flip", flipped))
        for hand, spec in (("L", spec_l), ("R", spec_r))
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
    rep = condition_residuals(areas, spec)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", ["delta", "tau0"])
def test_compensation_rejects_non_finite_input(argument, bad):
    # Unchecked, NaN gave NaN and an infinite tau0 reported an overflowing
    # exponent; the message must name the argument instead.
    args = {"delta": 0.01, "tau0": 35.0, argument: bad}
    with pytest.raises(ValueError, match=f"^{argument} must be finite"):
        detuning_compensation(**args)


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

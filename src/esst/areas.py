"""Complex pulse areas and the closed-loop transfer design rules.

The central quantity is the complex pulse area of a coupling channel,

    theta_x(t) = integral_{t0}^{t} Omega_x(t') exp(i omega_t t') dt',

with Omega_x(t) = -mu_x E_x(t) and omega_t the channel's transition
frequency.  No rotating-wave approximation is made.  For a Gaussian pulse
the integral over any window has a closed form in the Faddeeva function,
one term per lobe of the cosine carrier, so the counter-rotating lobe is
included exactly (it is exponentially small for smooth pulses over their
full support, not on a window cut near the pulse).

For a resonant Gaussian pulse with area parameter A and carrier phase phi the
full-window area is theta = -mu A exp(-i phi): the modulus is mu*A and the
phase bookkeeping follows the convention theta = -|theta| exp(-i phi_eff),
i.e. phi_eff = -arg(-theta).

A two-stage transfer sequence is designed on top of these areas:

* stage 1 drives the A<->(partner) transition to a quarter-ish area
  |theta| = (k' + 1/4) pi, splitting the ground state into an equal
  superposition;
* stage 2 drives the remaining two channels simultaneously with equal moduli
  |theta| = (k + 1/2) pi / sqrt(2) each, closing the interference loop.

Whether the population lands in the target or returns is controlled by the
loop phase Phi = phi_a + phi_c - phi_b, whose constructive values form a
lattice with period 2 pi that depends on target level and handedness.  The
helpers below produce lattice-exact design parameters, realize them as pulse
parameters under either carrier-phase convention, and measure how far a
given pulse set deviates from the design manifold.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CHANNELS,
    Handedness,
    MoleculeSpec,
    mhz_to_rad_per_ns,
    require_finite,
)
from .pulses import PhaseConvention, Pulse, phase_mod_two_pi, support_window

TWO_PI = 2.0 * math.pi
_SQRT_2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

#: Gauss-Legendre rule of :func:`_panel_quad`.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: Below this |theta| the sinc-type helpers switch to their Taylor expansions.
SMALL_AREA = 1e-4


@dataclass(frozen=True)
class ComplexArea:
    """A complex pulse area together with how it was evaluated."""

    value: complex
    channel: str
    transition_freq: float
    window: tuple[float, float]

    @property
    def modulus(self) -> float:
        return abs(self.value)

    @property
    def effective_phase(self) -> float:
        """phi_eff in (-pi, pi] from the convention theta = -|theta| e^{-i phi}."""
        if self.value == 0:
            return 0.0
        return -cmath.phase(-self.value)


def _as_complex(theta) -> complex:
    return complex(theta.value) if isinstance(theta, ComplexArea) else complex(theta)


def complex_area(
    pulse: Pulse,
    dipole: float,
    transition_freq: float,
    window: tuple[float, float] | None = None,
) -> ComplexArea:
    """Omega(t) exp(i omega_t t) integrated over a window, exactly, without RWA.

    The cosine carrier splits the integrand into two Gaussian lobes, one per
    kappa = omega_t +- omega (counter-rotating and co-rotating).  With
    u = (t - tc)/tau, s = u/sqrt(2) and beta = sqrt(2) kappa tau, each lobe
    integrates in closed form,

        tau exp(i kappa tc) int_{u_lo}^{u_hi} exp(-u^2/2 + i kappa tau u) du
            = tau sqrt(pi/2) exp(i kappa tc) [G(s_lo) - G(s_hi)],

    with G(s) = exp(-s^2 + i beta s) w(beta/2 + i s) and w the Faddeeva
    function (see :func:`_lobe`).  The constant lobe phases, omega_t tc plus
    or minus the carrier's phase at tc, run to thousands of radians for a
    pulse centered hundreds of ns from t = 0; they are reduced mod 2 pi
    exactly before the exponential is taken.
    """
    if window is None:
        window = support_window(pulse)
    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ValueError(f"empty integration window {window}")

    tc, tau, omega = pulse.center_time, pulse.duration, pulse.carrier
    # The carrier is cos(omega (t - shift) + phi).
    shift = 0.0 if pulse.convention is PhaseConvention.ABSOLUTE else tc
    s_lo = (t_lo - tc) / tau * _SQRT_HALF
    s_hi = (t_hi - tc) / tau * _SQRT_HALF
    value = 0j
    for sign in (1.0, -1.0):
        kappa = transition_freq + sign * omega
        beta = _SQRT_2 * kappa * tau
        phase = phase_mod_two_pi(
            ((transition_freq, tc), (sign * omega, tc), (-sign * omega, shift),
             (sign, pulse.phase))
        )
        value += cmath.exp(1j * phase) * (_lobe(beta, s_lo) - _lobe(beta, s_hi))
    # sqrt(2/pi) (A / tau) from the envelope, 1/2 from the cosine and
    # tau sqrt(pi/2) from the lobe integral leave A / 2.
    return ComplexArea(
        value=complex(-0.5 * dipole * pulse.area_param * value),
        channel=pulse.channel,
        transition_freq=float(transition_freq),
        window=(float(t_lo), float(t_hi)),
    )


def _lobe(beta: float, s: float) -> complex:
    """G(s) = exp(-s^2 + i beta s) w(beta/2 + i s), w taken where Im z >= 0.

    For s < 0 the reflection w(z) = 2 exp(-z^2) - w(-z) gives
    G(s) = 2 exp(-beta^2/4) - exp(-s^2 + i beta s) w(-beta/2 - i s).  Either
    way w is evaluated in the closed upper half-plane, where |w| <= 1, so
    nothing overflows however large beta is.
    """
    gauss = cmath.exp(complex(-s * s, beta * s))
    if s >= 0.0:
        return gauss * _faddeeva(complex(0.5 * beta, s))
    return 2.0 * math.exp(-0.25 * beta * beta) - gauss * _faddeeva(
        complex(-0.5 * beta, -s)
    )


#: Terms of the rational expansion behind :func:`_faddeeva`.
_FADDEEVA_TERMS = 48


@functools.lru_cache(maxsize=None)
def _faddeeva_coefficients() -> tuple[float, tuple[float, ...]]:
    """Weideman's scale L and coefficients a_N, ..., a_1 (highest first).

    a_n is the n-th cosine coefficient of f(t) = exp(-t^2) (L^2 + t^2) under
    the map t = L tan(theta/2), sampled at theta = pi k / M, |k| < M = 2N.
    The transform is a direct cosine sum, so no FFT module is loaded.
    """
    n_terms = _FADDEEVA_TERMS
    m = 2 * n_terms
    scale = math.sqrt(n_terms / math.sqrt(2.0))
    ks = range(-m + 1, m)
    samples = []
    for k in ks:
        t = scale * math.tan(0.5 * math.pi * k / m)
        samples.append(math.exp(-t * t) * (scale * scale + t * t))
    coefficients = [
        math.fsum(f * math.cos(math.pi * n * k / m) for f, k in zip(samples, ks))
        / (2 * m)
        for n in range(n_terms, 0, -1)
    ]
    return scale, tuple(coefficients)


def _faddeeva(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z) for Im z >= 0.

    Weideman's rational expansion (SIAM J. Numer. Anal. 31, 1994) with
    N = 48 terms:

        w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)),
        Z = (L + i z) / (L - i z),  p(Z) = sum_{n=1}^{N} a_n Z^(n-1).

    Good to about 2e-14 relative in the closed upper half-plane, out to
    |z| = 1e5 at least; the expansion is not valid below the real axis.
    """
    scale, coefficients = _faddeeva_coefficients()
    denom = scale - 1j * z
    ratio = (scale + 1j * z) / denom
    poly = 0j
    for a in coefficients:
        poly = poly * ratio + a
    return 2.0 * poly / (denom * denom) + _INV_SQRT_PI / denom


def _panel_quad(fn, t_lo: float, t_hi: float, panels: int) -> complex:
    """Composite 16-node Gauss-Legendre rule of ``fn`` over equal panels.

    Not used by the area code: the tests integrate against it as an
    independent check of :func:`complex_area`, and ``perfbench/spans.py``
    still counts its nodes by name.
    """
    edges = np.linspace(t_lo, t_hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    ts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = fn(ts.ravel()).reshape(panels, _GL_NODES.size)
    return complex(np.dot(vals @ _GL_WEIGHTS, half))


# ---------------------------------------------------------------------------
# Design parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to lay out a two-stage transfer sequence.

    ``target`` is the level ('B' or 'C') that the ``hand`` enantiomer should
    reach with unit probability while its mirror twin returns to A.  ``k``
    and ``kprime`` pick the stage-2 / stage-1 area lattice points, ``l``
    picks the loop-phase lattice point.  Stage centers default to 0 and
    8 tau0; the stage boundary sits halfway between the centers.
    """

    target: str
    hand: Handedness = Handedness.LEFT
    tau0: float = 35.0
    k: int = 0
    kprime: int = 0
    l: int = 0
    stage1_center: float = 0.0
    stage2_center: float | None = None
    convention: PhaseConvention = PhaseConvention.ENVELOPE

    def __post_init__(self) -> None:
        if self.target not in ("B", "C"):
            raise ValueError(f"target must be 'B' or 'C', got {self.target!r}")
        require_finite(self, "tau0", "stage1_center")
        if self.stage2_center is not None:
            require_finite(self, "stage2_center")
        if self.tau0 <= 0:
            raise ValueError(f"tau0 must be > 0 ns, got {self.tau0}")
        if self.k < 0 or self.kprime < 0:
            raise ValueError("area lattice indices k and kprime must be >= 0")
        object.__setattr__(
            self, "convention", PhaseConvention.coerce(self.convention)
        )
        if not isinstance(self.hand, Handedness):
            object.__setattr__(self, "hand", Handedness(str(self.hand).lower()))
        if self.stage2_center_eff <= self.stage1_center:
            raise ValueError(
                "stage-2 center must come after the stage-1 center "
                f"({self.stage2_center_eff} <= {self.stage1_center})"
            )

    @property
    def stage2_center_eff(self) -> float:
        if self.stage2_center is not None:
            return self.stage2_center
        return self.stage1_center + 8.0 * self.tau0

    @property
    def stage_boundary(self) -> float:
        """Handoff time t1 between the stages: midpoint of the two centers."""
        return 0.5 * (self.stage1_center + self.stage2_center_eff)

    @property
    def stage1_channel(self) -> str:
        return "a" if self.target == "C" else "b"

    @property
    def stage2_channels(self) -> tuple[str, str]:
        return ("b", "c") if self.target == "C" else ("a", "c")


def loop_phase_target(spec: DesignSpec) -> float:
    """Constructive lattice value of Phi = phi_a + phi_c - phi_b (rad).

    The lattice is Phi = (2 l + sigma/2) pi with sigma = +1 for
    (target C, left) and (target B, right), and sigma = -1 for the other two
    combinations; the mirror enantiomer of a constructive point is exactly
    destructive.
    """
    sigma = spec.hand.sign if spec.target == "C" else -spec.hand.sign
    return (2.0 * spec.l + 0.5 * sigma) * math.pi


def design_amplitudes(molecule: MoleculeSpec, spec: DesignSpec) -> dict[str, float]:
    """Area parameters A_x (rad/Debye) hitting the amplitude lattice.

    The stage-1 channel gets |theta| = (kprime + 1/4) pi and each stage-2
    channel |theta| = (k + 1/2) pi / sqrt(2); since a resonant pulse has
    |theta| = mu * A, the amplitudes are those moduli divided by the dipole.
    """
    stage1_area = (spec.kprime + 0.25) * math.pi
    stage2_area = (spec.k + 0.5) * math.pi / math.sqrt(2.0)
    out: dict[str, float] = {}
    for channel in CHANNELS:
        dipole, _ = molecule.channel_transition(channel)
        target_area = stage1_area if channel == spec.stage1_channel else stage2_area
        out[channel] = target_area / dipole
    return out


def design_phases(spec: DesignSpec) -> dict[str, float]:
    """Canonical effective phases (rad, in [0, 2 pi)) realizing the design.

    The whole loop phase is carried by one channel: phi_a for target C and
    phi_b for target B (with the sign flip from Phi = phi_a + phi_c - phi_b);
    the other two channels sit at zero.
    """
    phi0 = loop_phase_target(spec)
    phases = {channel: 0.0 for channel in CHANNELS}
    if spec.target == "C":
        phases["a"] = phi0 % TWO_PI
    else:
        phases["b"] = (-phi0) % TWO_PI
    return phases


def realize_phase(
    phi_design: float,
    transition_freq: float,
    carrier: float,
    center_time: float,
    convention: PhaseConvention,
) -> float:
    """Pulse phase parameter that realizes a design (spectral) phase.

    The design phase is the effective phase of the resulting complex area,
    phi_eff = phi_abs + (carrier - transition) * center.  Solving for the
    parameter under each convention:

    * absolute:  phi = phi_design - (carrier - transition) * center
    * envelope:  phi = phi_design + transition * center

    At zero detuning both conventions produce identical physical fields.
    The result is wrapped into [0, 2pi) in floating point, so the realized
    phase carries a few ulp of ``transition * center`` (about 1e-12 rad
    at a 280 ns center).  That error belongs to the pulse; its areas are
    then evaluated exactly.
    """
    convention = PhaseConvention.coerce(convention)
    delta = carrier - transition_freq
    if convention is PhaseConvention.ABSOLUTE:
        phase = phi_design - delta * center_time
    else:
        phase = phi_design + transition_freq * center_time
    return phase % (2.0 * math.pi)


def designed_pulses(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    *,
    detunings: dict[str, float] | None = None,
    scales: dict[str, float] | None = None,
) -> dict[str, Pulse]:
    """Build the three-pulse sequence realizing a design.

    ``detunings`` (rad/ns, per channel) shift carriers off their transitions;
    ``scales`` multiply the designed area parameters.  Phases are realized so
    that each channel's effective spectral phase equals the design value at
    the given detuning, under ``spec.convention``.
    """
    detunings = dict(detunings or {})
    scales = dict(scales or {})
    for mapping, label in ((detunings, "detunings"), (scales, "scales")):
        for key in mapping:
            if key not in CHANNELS:
                raise ValueError(f"{label} has unknown channel {key!r}")
    amplitudes = design_amplitudes(molecule, spec)
    phases = design_phases(spec)
    out: dict[str, Pulse] = {}
    for channel in CHANNELS:
        _, transition = molecule.channel_transition(channel)
        delta = float(detunings.get(channel, 0.0))
        carrier = transition + delta
        center = (
            spec.stage1_center
            if channel == spec.stage1_channel
            else spec.stage2_center_eff
        )
        phase = realize_phase(
            phases[channel], transition, carrier, center, spec.convention
        )
        out[channel] = Pulse(
            channel=channel,
            area_param=amplitudes[channel] * float(scales.get(channel, 1.0)),
            center_time=center,
            duration=spec.tau0,
            carrier_mhz=carrier / mhz_to_rad_per_ns(1.0),
            phase=phase,
            convention=spec.convention,
        )
    return out


def stage_areas(
    molecule: MoleculeSpec,
    pulses: dict[str, Pulse],
    spec: DesignSpec,
) -> dict[str, ComplexArea]:
    """Per-channel complex areas over their stage windows.

    The stage-1 channel is integrated from the start of its support up to the
    stage boundary t1 (its area "at t1"); each stage-2 channel is integrated
    from t1 to the end of its support.
    """
    t1 = spec.stage_boundary
    out: dict[str, ComplexArea] = {}
    for channel, pulse in pulses.items():
        dipole, transition = molecule.channel_transition(channel)
        lo, hi = support_window(pulse)
        if channel == spec.stage1_channel:
            window = (min(lo, t1 - pulse.duration), t1)
        else:
            window = (t1, max(hi, t1 + pulse.duration))
        out[channel] = complex_area(pulse, dipole, transition, window)
    return out


# ---------------------------------------------------------------------------
# Condition residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """How far a pulse set sits from the exact-transfer design manifold.

    ``constructive_residual`` is | |LHS_1| - 1 | for the designed hand and
    ``destructive_residual`` is |LHS_2| for its mirror; both are zero on the
    design manifold.  ``predicted_target_population`` = |LHS_1|^2 is the
    closed-form transfer probability for the designed hand.
    """

    amplitude_residuals: dict[str, float]
    phase_residual: float
    constructive_residual: float
    destructive_residual: float
    predicted_target_population: float


def sinc_area(theta: float) -> float:
    """S(theta) = sin(theta)/theta with a Taylor branch near zero."""
    if abs(theta) < SMALL_AREA:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return math.sin(theta) / theta


def _lattice_residual(modulus: float, step: float, offset: float) -> float:
    """Distance from ``modulus`` to the nearest (n + offset) * step, n >= 0."""
    n = max(0, round(modulus / step - offset))
    return abs(modulus - (n + offset) * step)


def condition_residuals(
    theta_a,
    theta_b,
    theta_c,
    spec: DesignSpec,
) -> ConditionReport:
    """Evaluate the exact-transfer conditions for a set of stage areas.

    ``theta_a``/``theta_b``/``theta_c`` are the per-channel areas over their
    stage windows (as returned by :func:`stage_areas`); the stage-1 channel's
    entry must be its area at the stage boundary.  Accepts
    :class:`ComplexArea` or plain complex values.
    """
    areas = {"a": theta_a, "b": theta_b, "c": theta_c}
    values = {ch: _as_complex(areas[ch]) for ch in CHANNELS}
    s = spec.hand.sign

    th1 = values[spec.stage1_channel]
    m1 = abs(th1)
    u1 = th1 / m1 if m1 > 0 else 1.0 + 0.0j
    c1 = math.cos(m1)
    s1 = math.sin(m1)

    ch2a, ch2c = spec.stage2_channels  # ('b','c') for C, ('a','c') for B
    th2a = values[ch2a]
    th2c = values[ch2c]
    theta_f = math.hypot(abs(th2a), abs(th2c))
    s_fac = sinc_area(theta_f)

    if spec.target == "C":
        # target amplitude: a_C = -S [ i c1 theta_b + s s1 u theta_c ]
        def lhs(sign: int) -> float:
            return abs(s_fac * (1j * c1 * th2a + sign * s1 * u1 * th2c))
    else:
        # target amplitude: a_B = -S [ s1 w conj(theta_c) + s i c1 theta_a ]
        def lhs(sign: int) -> float:
            return abs(s_fac * (s1 * u1 * th2c.conjugate() + sign * 1j * c1 * th2a))

    lhs_designed = lhs(s)
    lhs_mirror = lhs(-s)

    amp_resid: dict[str, float] = {}
    for channel in CHANNELS:
        modulus = abs(values[channel])
        if channel == spec.stage1_channel:
            amp_resid[channel] = _lattice_residual(modulus, math.pi, 0.25)
        else:
            amp_resid[channel] = _lattice_residual(
                modulus, math.pi / math.sqrt(2.0), 0.5
            )

    phi = sum(
        sign * _effective_phase(values[ch])
        for ch, sign in (("a", 1.0), ("c", 1.0), ("b", -1.0))
    )
    phase_dist = abs(_wrap_pi(phi - loop_phase_target(spec)))

    return ConditionReport(
        amplitude_residuals=amp_resid,
        phase_residual=phase_dist,
        constructive_residual=abs(lhs_designed - 1.0),
        destructive_residual=lhs_mirror,
        predicted_target_population=lhs_designed * lhs_designed,
    )


def _effective_phase(value: complex) -> float:
    return -cmath.phase(-value) if value != 0 else 0.0


def _wrap_pi(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def detuning_compensation(delta: float, tau0: float) -> float:
    """Amplitude scale exp((delta*tau0)^2 / 2) undoing the spectral roll-off.

    A carrier detuned by ``delta`` (rad/ns) reduces a Gaussian pulse's area
    modulus by exp(-(delta*tau0)^2/2); multiplying the area parameter by this
    factor restores the designed modulus.  Raises ``ValueError`` once the
    exponent would overflow (the compensation is no longer physical anyway).
    """
    if tau0 <= 0:
        raise ValueError(f"tau0 must be > 0 ns, got {tau0}")
    exponent = 0.5 * (delta * tau0) ** 2
    if exponent > 700.0:
        raise ValueError(
            f"compensation factor exp({exponent:.1f}) overflows; "
            "detuning-duration product out of range"
        )
    return math.exp(exponent)

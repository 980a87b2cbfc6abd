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

A two-stage transfer sequence is designed on top of these areas.  Its
layout is defined once, as the stage table :attr:`DesignSpec.stages`, one
:class:`Stage` per row:

* stage 1, hub A: the one channel that does not touch the target drives
  |theta| = (k' + 1/4) pi, splitting the ground state into an equal
  superposition;
* stage 2, hub = target: the two channels that touch it drive equal moduli
  |theta| = (k + 1/2) pi / sqrt(2) simultaneously, closing the loop.

Whether the population lands in the target or returns is controlled by the
loop phase Phi = phi_a + phi_c - phi_b (:data:`LOOP_PHASE_SIGNS`), whose
constructive values form a lattice with period 2 pi that depends on target
level and handedness.  The helpers below read the table to produce
lattice-exact design parameters, realize them as pulse parameters under
either carrier-phase convention, and integrate each channel over its stage
window (:func:`stage_areas`).  :mod:`esst.analytic` walks the same table
once for both hands to turn those stage areas into closed-form states, and
scores them against the design conditions.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .model import (
    CHANNELS,
    THREE_LEVEL_LOOP,
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
_RAD_PER_NS_PER_MHZ = mhz_to_rad_per_ns(1.0)

#: Gauss-Legendre rule of :func:`_panel_quad`.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
        # cmath.phase raises OverflowError where the angle underflows.
        return -math.atan2(-self.value.imag, -self.value.real)


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
    exactly before the exponential is taken.  A window end may be infinite.

    The area is linear in the amplitude, so the lobe sum, which is all of
    the work, is taken from :func:`_lobe_sum`: a bounded cache keyed on the
    exact bits of every other input.  A sweep that only rescales amplitudes
    evaluates each distinct lobe sum once, and the area has the same bits
    whether its lobe sum was cached or not.  A non-finite ``dipole`` or
    ``transition_freq`` raises ``ValueError``.
    """
    if not math.isfinite(dipole):
        raise ValueError(f"dipole must be finite, got {dipole}")
    if not math.isfinite(transition_freq):
        raise ValueError(f"transition_freq must be finite, got {transition_freq}")
    if window is None:
        window = support_window(pulse)
    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ValueError(f"empty integration window {window}")
    value = _lobe_sum(_LOBE_KEY.pack(
        transition_freq, pulse.carrier, pulse.center_time, pulse.duration,
        pulse.phase, t_lo, t_hi, pulse.convention is PhaseConvention.ABSOLUTE,
    ))
    # sqrt(2/pi) (A / tau) from the envelope, 1/2 from the cosine and
    # tau sqrt(pi/2) from the lobe integral leave A / 2.
    return ComplexArea(
        complex(-0.5 * dipole * pulse.area_param * value), pulse.channel,
        float(transition_freq), (float(t_lo), float(t_hi)),
    )


#: Key of :func:`_lobe_sum`: transition, carrier, center, width, phase and
#: window ends as raw doubles, then whether the phase is absolute.  Packing
#: keeps -0.0 apart from +0.0, which float ``==`` and ``hash`` merge though
#: they can flip the sign of a zero imaginary part (and so an effective
#: phase between -pi and pi).
_LOBE_KEY = struct.Struct("<7d?")


# 1024 entries is about 0.3 MB.  A sweep reuses an area only while the
# other axis runs, so the reusable entries are few: 9 on a 7 x 7 detuning
# grid, 128 (two fixed channels per tau0) on a 64 x 64 phase x tau0 grid,
# where at most 192 lookups separate two uses of one entry.
@functools.lru_cache(maxsize=1024)
def _lobe_sum(key: bytes) -> complex:
    """The lobe sum of :func:`complex_area` for one packed ``_LOBE_KEY``.

    sum over sign = +-1 of exp(i phase_sign) (G(s_lo) - G(s_hi)), with both
    phases reduced exactly; the area is -dipole A / 2 times this.
    """
    transition_freq, omega, tc, tau, pulse_phase, t_lo, t_hi, absolute = (
        _LOBE_KEY.unpack(key)
    )
    # The carrier is cos(omega (t - shift) + phi).
    shift = 0.0 if absolute else tc
    s_lo = (t_lo - tc) / tau * _SQRT_HALF
    s_hi = (t_hi - tc) / tau * _SQRT_HALF
    value = 0j
    for sign in (1.0, -1.0):
        kappa = transition_freq + sign * omega
        beta = _SQRT_2 * kappa * tau
        phase = phase_mod_two_pi(
            ((transition_freq, tc), (sign * omega, tc), (-sign * omega, shift),
             (sign, pulse_phase))
        )
        value += cmath.exp(1j * phase) * (_lobe(beta, s_lo) - _lobe(beta, s_hi))
    return value


def _lobe(beta: float, s: float) -> complex:
    """G(s) = exp(-s^2 + i beta s) w(beta/2 + i s), w taken where Im z >= 0.

    For s < 0 the reflection w(z) = 2 exp(-z^2) - w(-z) gives
    G(s) = 2 exp(-beta^2/4) - exp(-s^2 + i beta s) w(-beta/2 - i s).  Either
    way w is evaluated in the closed upper half-plane, where |w| <= 1, so
    nothing overflows however large beta is.  Once exp(-s^2) is 0 (|s| above
    about 27, an infinite s or an s whose square overflows) G is at its
    limit: 0 as s -> +inf and 2 exp(-beta^2/4) as s -> -inf.
    """
    if math.exp(-s * s) == 0.0:
        return 0j if s > 0.0 else complex(2.0 * math.exp(-0.25 * beta * beta))
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


#: Sign of each channel's phase in the loop phase Phi = phi_a + phi_c - phi_b,
#: in the order the phases are summed.
LOOP_PHASE_SIGNS = {"a": 1.0, "c": 1.0, "b": -1.0}


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: ``channels`` coupling ``hub`` to the
    other levels, centered at ``center``, each with its area modulus on the
    lattice (n + ``offset``) pi / ``divisor``, at n = ``index`` by design."""

    hub: str
    channels: tuple[str, ...]
    index: int
    offset: float
    divisor: float
    center: float


@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to lay out a two-stage transfer sequence.

    ``target`` is the level ('B' or 'C') that the ``hand`` enantiomer should
    reach with unit probability while its mirror twin returns to A.  ``k``
    and ``kprime`` pick the stage-2 / stage-1 area lattice points, ``l``
    picks the loop-phase lattice point.  Stage centers default to 0 and
    8 tau0; the stage boundary sits halfway between the centers.  The
    stage table :attr:`stages` lays the design out.
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
        for name in ("k", "kprime", "l"):
            value = getattr(self, name)
            try:  # a lattice index is a whole number; numpy integers pass
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
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

    # Kept in the instance __dict__, which fields, == and hash ignore.
    @functools.cached_property
    def stages(self) -> tuple[Stage, Stage]:
        """The stage table: stage 1 splits A through the channel that does
        not touch the target, stage 2 closes the loop at the target through
        the two that do."""
        target = "ABC".index(self.target)
        closing = tuple(ch for row, col, ch, _ in THREE_LEVEL_LOOP if target in (row, col))
        return (
            Stage("A", tuple(ch for ch in CHANNELS if ch not in closing),
                  self.kprime, 0.25, 1.0, self.stage1_center),
            Stage(self.target, closing, self.k, 0.5, _SQRT_2, self.stage2_center_eff),
        )

    def stage_of(self, channel: str) -> Stage:
        """The stage that drives ``channel``."""
        first, second = self.stages
        return first if channel in first.channels else second

    @property
    def stage_boundary(self) -> float:
        """Handoff time t1 between the stages: midpoint of the two centers."""
        first, second = self.stages
        return 0.5 * (first.center + second.center)

    @property
    def stage1_channel(self) -> str:
        return self.stages[0].channels[0]

    @property
    def stage2_channels(self) -> tuple[str, str]:
        return self.stages[1].channels


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

    Each channel gets its stage's lattice point, (index + offset) pi /
    divisor; since a resonant pulse has |theta| = mu * A, the amplitudes
    are those moduli divided by the dipole.
    """
    out: dict[str, float] = {}
    for channel in CHANNELS:
        stage = spec.stage_of(channel)
        area = (stage.index + stage.offset) * math.pi / stage.divisor
        out[channel] = area / molecule.channel_transition(channel)[0]
    return out


def design_phases(spec: DesignSpec) -> dict[str, float]:
    """Canonical effective phases (rad, in [0, 2 pi)) realizing the design.

    The whole loop phase is carried by the stage-1 channel, with its sign
    in Phi = phi_a + phi_c - phi_b (phi_a for target C, -phi_b for target
    B); the other two channels sit at zero.
    """
    channel = spec.stage1_channel
    phases = dict.fromkeys(CHANNELS, 0.0)
    phases[channel] = (LOOP_PHASE_SIGNS[channel] * loop_phase_target(spec)) % TWO_PI
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
    return phase % TWO_PI


def designed_pulses(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    *,
    detunings: dict[str, float] | None = None,
    scales: dict[str, float] | None = None,
) -> dict[str, Pulse]:
    """Build the three-pulse sequence realizing a design.

    ``detunings`` (rad/ns, per channel) shift carriers off their transitions;
    ``scales`` multiply the designed area parameters.  Each carrier is its
    transition in MHz plus the detuning, so a resonant carrier is exactly
    the transition.  Phases are realized so that each channel's effective
    spectral phase equals the design value at that carrier, under
    ``spec.convention``.
    """
    detunings = dict(detunings or {})
    scales = dict(scales or {})
    for mapping, label in ((detunings, "detunings"), (scales, "scales")):
        for key in mapping:
            if key not in CHANNELS:
                raise ValueError(f"{label} has unknown channel {key!r}")
    amplitudes = design_amplitudes(molecule, spec)
    phases = design_phases(spec)
    return {
        channel: _designed_pulse(
            molecule, spec, channel, amplitudes[channel], phases[channel],
            detunings.get(channel, 0.0), scales.get(channel, 1.0),
        )
        for channel in CHANNELS
    }


def _carrier_mhz(molecule: MoleculeSpec, channel: str, detuning: float) -> float:
    """A channel's carrier in MHz, ``detuning`` rad/ns off its transition."""
    return molecule.channel_transition_mhz(channel) + float(detuning) / _RAD_PER_NS_PER_MHZ


def _designed_pulse(
    molecule: MoleculeSpec,
    spec: DesignSpec,
    channel: str,
    amplitude: float,
    phase: float,
    detuning: float,
    scale: float,
) -> Pulse:
    """One channel of :func:`designed_pulses`.

    ``amplitude`` and ``phase`` are the channel's entries of
    :func:`design_amplitudes` and :func:`design_phases`; ``detuning``
    (rad/ns) and ``scale`` apply to this channel only.  A detuning of 0.0
    and a scale of 1.0 give the resonant designed pulse bit for bit.
    """
    _, transition = molecule.channel_transition(channel)
    carrier_mhz = _carrier_mhz(molecule, channel, detuning)
    center = spec.stage_of(channel).center
    return Pulse(
        channel=channel,
        area_param=amplitude * float(scale),
        center_time=center,
        duration=spec.tau0,
        carrier_mhz=carrier_mhz,
        phase=realize_phase(
            phase, transition, mhz_to_rad_per_ns(carrier_mhz), center, spec.convention
        ),
        convention=spec.convention,
    )


def stage_areas(
    molecule: MoleculeSpec,
    pulses: dict[str, Pulse],
    spec: DesignSpec,
) -> dict[str, ComplexArea]:
    """Per-channel complex areas over their stage windows.

    The stage-1 channel is integrated from the start of its support up to the
    stage boundary t1 (its area "at t1"); each stage-2 channel is integrated
    from t1 to the end of its support.  A pulse whose channel is not its key
    raises ``ValueError``.
    """
    t1 = spec.stage_boundary
    first = spec.stages[0].channels
    out: dict[str, ComplexArea] = {}
    for channel, pulse in pulses.items():
        if pulse.channel != channel:
            raise ValueError(
                f"the pulse under key {channel!r} drives channel {pulse.channel!r}"
            )
        dipole, transition = molecule.channel_transition(channel)
        # tc -+ 8 tau is the support window, as support_window computes it.
        tc, tau = pulse.center_time, pulse.duration
        if channel in first:
            window = (min(tc - 8.0 * tau, t1 - tau), t1)
        else:
            window = (t1, max(tc + 8.0 * tau, t1 + tau))
        out[channel] = complex_area(pulse, dipole, transition, window)
    return out


def detuning_compensation(delta: float, tau0: float) -> float:
    """Amplitude scale exp((delta*tau0)^2 / 2) undoing the spectral roll-off.

    A carrier detuned by ``delta`` (rad/ns) reduces a Gaussian pulse's area
    modulus by exp(-(delta*tau0)^2/2); multiplying the area parameter by this
    factor restores the designed modulus.  Raises ``ValueError`` for a
    non-finite argument and once the exponent would overflow (the
    compensation is no longer physical anyway).
    """
    for name, value in (("delta", delta), ("tau0", tau0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if tau0 <= 0:
        raise ValueError(f"tau0 must be > 0 ns, got {tau0}")
    exponent = 0.5 * (delta * tau0) ** 2
    if exponent > 700.0:
        raise ValueError(
            f"compensation factor exp({exponent:.1f}) overflows; "
            "detuning-duration product out of range"
        )
    return math.exp(exponent)

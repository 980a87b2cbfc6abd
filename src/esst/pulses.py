"""Gaussian microwave pulses: time-domain fields and closed-form spectra.

A pulse is a cosine carrier under a Gaussian envelope,

    E(t) = sqrt(2/pi) * (A / tau0) * exp(-(t - tc)^2 / (2 tau0^2)) * cos(...),

normalized so that the envelope integrates to 2A over the full line; A is the
"area parameter" in rad/Debye, which makes mu*A the resonant pulse-area
modulus directly.

Two carrier-phase conventions are supported and matter once pulses are
detuned or delayed:

* ``ABSOLUTE``:   cos(omega t + phi)          - phi is a lab-frame phase.
* ``ENVELOPE``:   cos(omega (t - tc) + phi)   - phi rides with the envelope.

Both describe the same family of fields; they differ in which quantity stays
fixed when the center time tc or carrier omega is varied while phi is held.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import CHANNELS, mhz_to_rad_per_ns, require_finite

#: Envelope normalization prefactor sqrt(2/pi).
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

#: 2 pi to 100 significant digits, for the exact phase reductions.
TWO_PI_DIGITS = (
    "6.283185307179586476925286766559005768394338798750"
    "211641949889184615632812572417997256069650684234136"
)
_TWO_PI_NUMERATOR = int(TWO_PI_DIGITS.replace(".", ""))
_TWO_PI_DENOMINATOR = 10 ** (len(TWO_PI_DIGITS) - 2)


def _dyadic_sum(products) -> tuple[int, int]:
    """Sum of a * b over float pairs (a, b) as n / 2**e, exactly.

    Every float is a dyadic rational, so the sum carries no rounding error
    however large its terms are.
    """
    terms = []
    for a, b in products:
        na, da = float(a).as_integer_ratio()
        nb, db = float(b).as_integer_ratio()
        terms.append((na * nb, (da * db).bit_length() - 1))
    e = max(k for _, k in terms)
    return sum(n << (e - k) for n, k in terms), e


def _two_pi_scaled(bits: int) -> int:
    """2 pi * 2**bits, rounded down to an integer, from the 100 digits."""
    return (_TWO_PI_NUMERATOR << bits) // _TWO_PI_DENOMINATOR


def phase_mod_two_pi(products) -> float:
    """Sum of a * b over float pairs, reduced into [0, 2 pi) and rounded once.

    The exact sum n / 2**e is reduced as the integer n * 2**128 against
    2 pi * 2**(e + 128), with 2 pi to 100 digits, so the result is good to
    half an ulp, where the float sum of a phase like omega * t would carry
    ulp(omega * t), about 1e-12 rad at 8,000 rad.
    """
    n, e = _dyadic_sum(products)
    bits = e + 128
    return ((n << 128) % _two_pi_scaled(bits)) / (1 << bits)


class PhaseConvention(enum.Enum):
    ABSOLUTE = "absolute"
    ENVELOPE = "envelope"

    @classmethod
    def coerce(cls, value) -> "PhaseConvention":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            options = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown phase convention {value!r}; expected one of {options}"
            )


@dataclass(frozen=True)
class Pulse:
    """One Gaussian carrier pulse on a named coupling channel.

    Parameters
    ----------
    channel:
        'a', 'b' or 'c'; selects which dipole component the field drives.
    area_param:
        Envelope area parameter A in rad/Debye (>= 0).
    center_time:
        Envelope center tc in ns.
    duration:
        Gaussian width tau0 in ns (> 0); the envelope is effectively zero
        beyond a few tau0.
    carrier_mhz:
        Carrier frequency in cyclic MHz (> 0).
    phase:
        Carrier phase phi in rad, interpreted per ``convention``.
    """

    channel: str
    area_param: float
    center_time: float
    duration: float
    carrier_mhz: float
    phase: float
    convention: PhaseConvention = PhaseConvention.ABSOLUTE

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(
                f"channel must be one of {CHANNELS}, got {self.channel!r}"
            )
        require_finite(
            self, "area_param", "center_time", "duration", "carrier_mhz", "phase"
        )
        if self.area_param < 0:
            raise ValueError(f"area_param must be >= 0, got {self.area_param}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0 ns, got {self.duration}")
        if self.carrier_mhz <= 0:
            raise ValueError(f"carrier_mhz must be > 0, got {self.carrier_mhz}")
        object.__setattr__(
            self, "convention", PhaseConvention.coerce(self.convention)
        )

    @property
    def carrier(self) -> float:
        """Carrier angular frequency in rad/ns."""
        return mhz_to_rad_per_ns(self.carrier_mhz)

    @property
    def absolute_phase(self) -> float:
        """The lab-frame phase phi_abs with cos(omega t + phi_abs)."""
        if self.convention is PhaseConvention.ABSOLUTE:
            return self.phase
        return self.phase - self.carrier * self.center_time


def envelope(pulse: Pulse, t):
    """Gaussian envelope sqrt(2/pi) (A/tau0) exp(-(t-tc)^2 / (2 tau0^2))."""
    t = np.asarray(t, dtype=float)
    u = (t - pulse.center_time) / pulse.duration
    value = (
        SQRT_2_OVER_PI
        * (pulse.area_param / pulse.duration)
        * np.exp(-0.5 * u * u)
    )
    return value if value.ndim else float(value)


def field(pulse: Pulse, t):
    """Physical field E(t) = envelope(t) * cos(carrier phase)."""
    t = np.asarray(t, dtype=float)
    if pulse.convention is PhaseConvention.ABSOLUTE:
        arg = pulse.carrier * t + pulse.phase
    else:
        arg = pulse.carrier * (t - pulse.center_time) + pulse.phase
    value = envelope(pulse, t) * np.cos(arg)
    return value if value.ndim else float(value)


def spectral_amplitude(pulse: Pulse, omega_eval):
    """Fourier-side amplitude S(w) = integral E(t') exp(i w t') dt'.

    Evaluated in closed form over the full line (the Gaussian tails are
    negligible beyond the support window).  Writing phi_abs for the lab-frame
    phase, the cosine splits into two Gaussian lobes centered at -omega and
    +omega:

        S(w) = exp(i w tc) * A * [  exp(+i(omega tc + phi_abs))
                                      * exp(-(w + omega)^2 tau0^2 / 2)
                                  + exp(-i(omega tc + phi_abs))
                                      * exp(-(w - omega)^2 tau0^2 / 2) ]

    On resonance (w = omega) the counter-rotating lobe is suppressed by
    exp(-2 omega^2 tau0^2), so |S| -> A with phase tc*(w - omega) - phi_abs,
    which is where the complex pulse-area convention comes from.
    """
    w = np.asarray(omega_eval, dtype=float)
    omega = pulse.carrier
    tc = pulse.center_time
    tau = pulse.duration
    phi_abs = pulse.absolute_phase
    lobe_minus = np.exp(1j * (omega * tc + phi_abs)) * np.exp(
        -0.5 * (w + omega) ** 2 * tau * tau
    )
    lobe_plus = np.exp(-1j * (omega * tc + phi_abs)) * np.exp(
        -0.5 * (w - omega) ** 2 * tau * tau
    )
    value = np.exp(1j * w * tc) * pulse.area_param * (lobe_minus + lobe_plus)
    return value if value.ndim else complex(value)


def support_window(pulse: Pulse, n_sigma: float = 8.0) -> tuple[float, float]:
    """(t_min, t_max) beyond which the envelope is numerically negligible."""
    if n_sigma <= 0:
        raise ValueError(f"n_sigma must be positive, got {n_sigma}")
    half = n_sigma * pulse.duration
    return (pulse.center_time - half, pulse.center_time + half)

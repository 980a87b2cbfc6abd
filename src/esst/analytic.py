"""Closed-form two-stage states from the cyclic pulse-area theorem.

When the two stages of the transfer sequence are well separated in time, the
exact dynamics reduces to two matrix exponentials of "area generators": each
stage's evolution is exp(-i Theta) where Theta is Hermitian, carries the
channel's complex area theta_x in the lower triangle (conjugated above) and
the handedness sign on the a-type entries.  Both exponentials have closed
forms because Theta^2 is block diagonal; they are expressed through

    S(theta) = sin(theta) / theta,
    G(theta) = (cos(theta) - 1) / theta^2,

evaluated with Taylor fallbacks near zero.  State vectors are plain complex
ndarrays in the fixed order (A, B, C).
"""
from __future__ import annotations

import math

import numpy as np

from .areas import SMALL_AREA, DesignSpec, sinc_area, stage_areas, _as_complex
from .model import Handedness, MoleculeSpec
from .pulses import Pulse


def cosc_area(theta: float) -> float:
    """G(theta) = (cos(theta) - 1)/theta^2 with a Taylor branch near zero."""
    if abs(theta) < SMALL_AREA:
        t2 = theta * theta
        return -0.5 + t2 / 24.0 - t2 * t2 / 720.0
    return (math.cos(theta) - 1.0) / (theta * theta)


def _unit(theta: complex) -> complex:
    modulus = abs(theta)
    return theta / modulus if modulus > 0 else 1.0 + 0.0j


def stage1_state(theta, hand: Handedness, channel: str = "a") -> np.ndarray:
    """State after stage 1 from ground |A>, given the stage-1 area.

    Channel 'a' splits A against B (and carries the handedness sign);
    channel 'b' splits A against C (sign-free).  For |theta| = pi/4 the
    result is an equal superposition.
    """
    th = _as_complex(theta)
    m = abs(th)
    u = _unit(th)
    c = math.cos(m)
    s = math.sin(m)
    if channel == "a":
        return np.array([c, -1j * hand.sign * u * s, 0.0], dtype=complex)
    if channel == "b":
        return np.array([c, 0.0, -1j * u * s], dtype=complex)
    raise ValueError(f"stage 1 drives channel 'a' or 'b', got {channel!r}")


def stage2_state_targetC(
    theta_a_t1,
    theta_b,
    theta_c,
    hand: Handedness,
) -> np.ndarray:
    """Final state for the C-targeting sequence (stage 1 on channel a).

    ``theta_a_t1`` is the stage-1 area at the handoff time; ``theta_b`` and
    ``theta_c`` are the full stage-2 areas.  Writing c1 = cos|theta_a|,
    s1 = sin|theta_a|, u = theta_a/|theta_a|, s = handedness sign,
    theta = sqrt(|theta_b|^2 + |theta_c|^2), G = G(theta), S = S(theta) and
    zeta = theta_c conj(theta_b) G:

        a_A = c1 (1 + |theta_b|^2 G) - s i s1 u zeta
        a_B = c1 conj(zeta)          - s i s1 u (1 + |theta_c|^2 G)
        a_C = -S ( i c1 theta_b + s s1 u theta_c )
    """
    th1 = _as_complex(theta_a_t1)
    thb = _as_complex(theta_b)
    thc = _as_complex(theta_c)
    s = hand.sign
    m1 = abs(th1)
    u = _unit(th1)
    c1 = math.cos(m1)
    s1 = math.sin(m1)
    theta = math.hypot(abs(thb), abs(thc))
    g = cosc_area(theta)
    sf = sinc_area(theta)
    zeta = thc * thb.conjugate() * g
    a_a = c1 * (1.0 + abs(thb) ** 2 * g) - s * 1j * s1 * u * zeta
    a_b = c1 * zeta.conjugate() - s * 1j * s1 * u * (1.0 + abs(thc) ** 2 * g)
    a_c = -sf * (1j * c1 * thb + s * s1 * u * thc)
    return np.array([a_a, a_b, a_c], dtype=complex)


def stage2_state_targetB(
    theta_b_t1,
    theta_a,
    theta_c,
    hand: Handedness,
) -> np.ndarray:
    """Final state for the B-targeting sequence (stage 1 on channel b).

    ``theta_b_t1`` is the stage-1 area at the handoff time; ``theta_a`` and
    ``theta_c`` are the full stage-2 areas.  With w = theta_b/|theta_b|,
    c1 = cos|theta_b|, s1 = sin|theta_b|, s = handedness sign,
    theta = sqrt(|theta_a|^2 + |theta_c|^2), G, S as above and
    xi = theta_c theta_a G:

        a_A = c1 (1 + |theta_a|^2 G) - s i s1 w conj(xi)
        a_B = -S ( s1 w conj(theta_c) + s i c1 theta_a )
        a_C = s c1 xi - i s1 w (1 + |theta_c|^2 G)
    """
    th1 = _as_complex(theta_b_t1)
    tha = _as_complex(theta_a)
    thc = _as_complex(theta_c)
    s = hand.sign
    m1 = abs(th1)
    w = _unit(th1)
    c1 = math.cos(m1)
    s1 = math.sin(m1)
    theta = math.hypot(abs(tha), abs(thc))
    g = cosc_area(theta)
    sf = sinc_area(theta)
    xi = thc * tha * g
    a_a = c1 * (1.0 + abs(tha) ** 2 * g) - s * 1j * s1 * w * xi.conjugate()
    a_b = -sf * (s1 * w * thc.conjugate() + s * 1j * c1 * tha)
    a_c = s * c1 * xi - 1j * s1 * w * (1.0 + abs(thc) ** 2 * g)
    return np.array([a_a, a_b, a_c], dtype=complex)


def analytic_final_populations(
    molecule: MoleculeSpec,
    pulses: dict[str, Pulse],
    spec: DesignSpec,
    *,
    hands: tuple[Handedness, ...] = (Handedness.LEFT, Handedness.RIGHT),
) -> dict[Handedness, np.ndarray]:
    """Closed-form final populations (A, B, C) for each requested hand.

    Computes the stage areas of the given pulses in closed form (see
    :func:`esst.areas.complex_area`), then applies the two-stage closed
    forms.  Valid when the stages are well separated; overlapping stages are
    outside the area theorem's assumptions and are the exact propagator's
    job.  A sequence whose stage-2 pulses are centered
    before the stage-1 pulse violates the protocol ordering outright and is
    rejected (the exact propagator will still happily integrate it).
    """
    t1_center = pulses[spec.stage1_channel].center_time
    for channel in spec.stage2_channels:
        if pulses[channel].center_time < t1_center:
            raise ValueError(
                f"stage-2 pulse {channel!r} is centered at "
                f"{pulses[channel].center_time} ns, before the stage-1 "
                f"pulse at {t1_center} ns; the closed form assumes the "
                "two-stage ordering"
            )
    areas = stage_areas(molecule, pulses, spec)
    return {hand: np.abs(_final_state(areas, spec, hand)) ** 2 for hand in hands}


def _final_state(areas: dict, spec: DesignSpec, hand: Handedness) -> np.ndarray:
    """Closed-form final amplitudes (A, B, C) from per-channel stage areas.

    ``areas`` maps each channel to its area over its stage window
    (:class:`esst.areas.ComplexArea` or complex), as :func:`stage_areas`
    returns them; the design's target picks the two-stage closed form.
    """
    stage2 = stage2_state_targetC if spec.target == "C" else stage2_state_targetB
    ch2a, ch2c = spec.stage2_channels
    return stage2(areas[spec.stage1_channel], areas[ch2a], areas[ch2c], hand)

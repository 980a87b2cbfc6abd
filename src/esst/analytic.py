"""Closed-form two-stage states and the exact-transfer conditions they score.

When the two stages of the transfer sequence are well separated in time, the
exact dynamics reduces to one matrix exponential per stage, exp(-i Theta) of
an "area generator" Theta.  Theta is Hermitian: each channel driven in the
stage puts its complex area theta_x, times the handedness sign on the a-type
channel, at the lower-triangle entry of its coupling in
:data:`esst.model.THREE_LEVEL_LOOP`, and the conjugate above.

Every coupling of a stage touches one shared level, the hub: A in stage 1
and the target level in stage 2.  With c_k = Theta[hub, leaf_k] and
theta^2 = sum_k |c_k|^2 this gives Theta^3 = theta^2 Theta, so

    exp(-i Theta) = 1 - i S(theta) Theta + G(theta) Theta^2,
    S(theta) = sin(theta) / theta,   G(theta) = (cos(theta) - 1) / theta^2,

and with x = sum_k c_k psi[leaf_k] one stage maps psi to

    hub:     cos(theta) psi[hub] - i S x,
    leaf k:  psi[leaf_k] + conj(c_k) (-i S psi[hub] + G x).

S and G switch to Taylor series near zero.  State vectors are complex
ndarrays in the fixed order (A, B, C).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .areas import TWO_PI, ComplexArea, DesignSpec, loop_phase_target, stage_areas
from .model import CHANNELS, THREE_LEVEL_LOOP, Handedness, MoleculeSpec
from .pulses import Pulse

#: Below this |theta| the sinc-type helpers switch to their Taylor expansions.
SMALL_AREA = 1e-4


def sinc_area(theta: float) -> float:
    """S(theta) = sin(theta)/theta with a Taylor branch near zero."""
    if abs(theta) < SMALL_AREA:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return math.sin(theta) / theta


def cosc_area(theta: float) -> float:
    """G(theta) = (cos(theta) - 1)/theta^2 with a Taylor branch near zero."""
    if abs(theta) < SMALL_AREA:
        t2 = theta * theta
        return -0.5 + t2 / 24.0 - t2 * t2 / 720.0
    return (math.cos(theta) - 1.0) / (theta * theta)


def two_stage_state(
    areas: dict[str, complex], spec: DesignSpec, hand: Handedness
) -> np.ndarray:
    """Closed-form final amplitudes (A, B, C) of the sequence started in |A>.

    ``areas`` maps each channel to its complex area over its stage window,
    the ``.value`` of the :func:`esst.areas.stage_areas` entries; the
    stage-1 channel's area is taken at the stage boundary.  Zero stage-2
    areas leave the stage-1 state.
    """
    psi = [1.0 + 0.0j, 0.0j, 0.0j]
    target = "ABC".index(spec.target)
    for hub, channels in ((0, (spec.stage1_channel,)), (target, spec.stage2_channels)):
        couplings = []
        for row, col, channel, signed in THREE_LEVEL_LOOP:
            if channel in channels:
                lower = hand.sign * areas[channel] if signed else areas[channel]
                # Theta[col, row] = lower and Theta[row, col] = conj(lower)
                if hub == row:
                    couplings.append((col, lower.conjugate()))
                else:
                    couplings.append((row, lower))
        _apply_stage(psi, hub, couplings)
    return np.array(psi, dtype=complex)


def _apply_stage(psi: list, hub: int, couplings: list) -> None:
    """psi <- exp(-i Theta) psi in place, for (leaf_k, c_k) couplings."""
    theta = math.hypot(*[abs(c) for _, c in couplings])
    s = sinc_area(theta)
    x = sum([c * psi[leaf] for leaf, c in couplings])
    kick = -1j * s * psi[hub] + cosc_area(theta) * x
    psi[hub] = math.cos(theta) * psi[hub] - 1j * s * x
    for leaf, c in couplings:
        psi[leaf] += c.conjugate() * kick


def analytic_final_populations(
    molecule: MoleculeSpec,
    pulses: dict[str, Pulse],
    spec: DesignSpec,
) -> dict[Handedness, np.ndarray]:
    """Closed-form final populations (A, B, C) for both hands.

    Computes the stage areas of the given pulses in closed form (see
    :func:`esst.areas.complex_area`), then applies :func:`two_stage_state`.
    Valid when the stages are well separated; overlapping stages are
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
    values = {
        channel: area.value
        for channel, area in stage_areas(molecule, pulses, spec).items()
    }
    return {
        hand: np.abs(two_stage_state(values, spec, hand)) ** 2 for hand in Handedness
    }


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


def _lattice_residual(modulus: float, step: float, offset: float) -> float:
    """Distance from ``modulus`` to the nearest (n + offset) * step, n >= 0."""
    n = max(0, round(modulus / step - offset))
    return abs(modulus - (n + offset) * step)


def condition_residuals(
    areas: dict[str, ComplexArea], spec: DesignSpec
) -> ConditionReport:
    """Evaluate the exact-transfer conditions for a set of stage areas.

    ``areas`` maps each channel to its :class:`esst.areas.ComplexArea` over
    its stage window, as :func:`esst.areas.stage_areas` returns them; the
    stage-1 channel's entry must be its area at the stage boundary.  |LHS|
    is the modulus of the target amplitude of :func:`two_stage_state`.
    """
    values = {ch: areas[ch].value for ch in CHANNELS}
    target = "ABC".index(spec.target)

    def lhs(hand: Handedness) -> float:
        return abs(complex(two_stage_state(values, spec, hand)[target]))

    lhs_designed = lhs(spec.hand)
    lhs_mirror = lhs(spec.hand.mirror)

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
        sign * areas[ch].effective_phase
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


def _wrap_pi(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped

"""Closed-form two-stage states and the exact-transfer conditions they score.

When the two stages of the transfer sequence are well separated in time, the
exact dynamics reduces to one matrix exponential per stage, exp(-i Theta) of
an "area generator" Theta.  Theta is Hermitian: each channel driven in the
stage puts its complex area theta_x, times the handedness sign on the a-type
channel, at the lower-triangle entry of its coupling in
:data:`esst.model.THREE_LEVEL_LOOP`, and the conjugate above.

The stages are the rows of the one stage table,
:attr:`esst.areas.DesignSpec.stages`.  Every coupling of a stage touches
its hub: A in stage 1 and the target level in stage 2.  With
c_k = Theta[hub, leaf_k] and theta^2 = sum_k |c_k|^2 this gives
Theta^3 = theta^2 Theta, so

    exp(-i Theta) = 1 - i S(theta) Theta + G(theta) Theta^2,
    S(theta) = sin(theta) / theta,   G(theta) = (cos(theta) - 1) / theta^2,

and with x = sum_k c_k psi[leaf_k] one stage maps psi to

    hub:     cos(theta) psi[hub] - i S x,
    leaf k:  psi[leaf_k] + conj(c_k) (-i S psi[hub] + G x).

S and G switch to Taylor series near zero.  A hand only flips the sign
of the a-type couplings, so theta, S, G and cos(theta) serve both hands,
and one walk of the table gives both hands' states.  The walk's layout,
each stage's hub and couplings, depends on the target alone and is built
once per target at import.  State vectors are complex ndarrays in the
fixed order (A, B, C).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .areas import (
    LOOP_PHASE_SIGNS, TWO_PI, ComplexArea, DesignSpec, loop_phase_target, stage_areas,
)
from .model import BOTH_HANDS, CHANNELS, THREE_LEVEL_LOOP, Handedness, MoleculeSpec
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

    The one-hand view of the stage walk that :func:`analytic_final_populations`
    and :func:`condition_residuals` make for both hands at once.  ``areas``
    maps each channel to its complex area over its stage window, the
    ``.value`` of the :func:`esst.areas.stage_areas` entries; the stage-1
    channel's area is taken at the stage boundary.  Zero stage-2 areas
    leave the stage-1 state.
    """
    return np.array(_stage_states(areas, spec, (hand,))[0], dtype=complex)


def _walk(target: str) -> tuple:
    """Per row of ``target``'s stage table: the hub index and the couplings
    (leaf, channel, signed, conjugated), with Theta[hub, leaf] the (signed)
    area, conjugated where the hub is the coupling's row."""
    walk = []
    for stage in DesignSpec(target=target).stages:
        hub = "ABC".index(stage.hub)
        walk.append((hub, tuple(
            (col, ch, signed, True) if hub == row else (row, ch, signed, False)
            for row, col, ch, signed in THREE_LEVEL_LOOP if ch in stage.channels
        )))
    return tuple(walk)


#: The stage walk of each target, which depends on nothing else.
_WALKS = {target: _walk(target) for target in ("B", "C")}


def _stage_states(areas: dict[str, complex], spec: DesignSpec, hands) -> list:
    """Closed-form final amplitudes [A, B, C], one list per hand of ``hands``.

    One walk of the target's stages serves every hand: a hand only flips the
    sign of the a-type couplings, so each stage's theta, S(theta), G(theta)
    and cos(theta) are the same for all of them.
    """
    signs = [hand.sign for hand in hands]
    psis = [[1.0 + 0.0j, 0.0j, 0.0j] for _ in hands]
    for hub, layout in _WALKS[spec.target]:
        per_hand = []  # per hand, (leaf_k, c_k = Theta[hub, leaf_k])
        for sign in signs:
            couplings = []
            for leaf, channel, signed, conjugated in layout:
                lower = sign * areas[channel] if signed else areas[channel]
                couplings.append((leaf, lower.conjugate() if conjugated else lower))
            per_hand.append(couplings)
        theta = math.hypot(*[abs(c) for _, c in per_hand[0]])
        cos, s, g = math.cos(theta), sinc_area(theta), cosc_area(theta)
        for psi, couplings in zip(psis, per_hand):  # psi <- exp(-i Theta) psi
            x = sum([c * psi[leaf] for leaf, c in couplings])
            kick = -1j * s * psi[hub] + g * x
            psi[hub] = cos * psi[hub] - 1j * s * x
            for leaf, c in couplings:
                psi[leaf] += c.conjugate() * kick
    return psis


def analytic_final_populations(
    molecule: MoleculeSpec,
    pulses: dict[str, Pulse],
    spec: DesignSpec,
) -> dict[Handedness, np.ndarray]:
    """Closed-form final populations (A, B, C) for both hands.

    Computes the stage areas of the given pulses in closed form (see
    :func:`esst.areas.complex_area`), then walks the stage table once for
    both hands (:func:`two_stage_state` is the one-hand view).  Valid when
    the stages are well separated; overlapping stages are outside the area
    theorem's assumptions and are the exact propagator's job.  A sequence
    whose stage-2 pulses are centered before the stage-1 pulse violates the
    protocol ordering outright and is rejected (the exact propagator will
    still happily integrate it), as is a set that lacks a channel or keys a
    pulse under another channel.  The arrays are rows of one (2, 3) array.
    """
    missing = [channel for channel in CHANNELS if channel not in pulses]
    if missing:
        raise ValueError(f"the closed form needs a pulse on every channel; missing {missing}")
    areas = stage_areas(molecule, pulses, spec)
    first, second = spec.stages
    t1_center = pulses[first.channels[0]].center_time
    for channel in second.channels:
        if pulses[channel].center_time < t1_center:
            raise ValueError(
                f"stage-2 pulse {channel!r} is centered at "
                f"{pulses[channel].center_time} ns, before the stage-1 "
                f"pulse at {t1_center} ns; the closed form assumes the "
                "two-stage ordering"
            )
    values = {channel: area.value for channel, area in areas.items()}
    states = np.array(_stage_states(values, spec, BOTH_HANDS), dtype=complex)
    return dict(zip(BOTH_HANDS, np.abs(states) ** 2))


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
    is the modulus of the target amplitude of :func:`two_stage_state`,
    taken for the designed hand and its mirror in one walk of the stages.
    Each channel's amplitude lattice is its stage's.
    """
    values = {ch: areas[ch].value for ch in CHANNELS}
    target = "ABC".index(spec.target)
    designed, mirror = _stage_states(values, spec, (spec.hand, spec.hand.mirror))
    lhs_designed, lhs_mirror = abs(designed[target]), abs(mirror[target])

    amp_resid: dict[str, float] = {}
    for channel in CHANNELS:
        stage = spec.stage_of(channel)
        amp_resid[channel] = _lattice_residual(
            abs(values[channel]), math.pi / stage.divisor, stage.offset
        )

    phi = sum(
        sign * areas[ch].effective_phase for ch, sign in LOOP_PHASE_SIGNS.items()
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

"""The closed form's stage walk as it read before its layout was tabulated.

A reference kept apart from ``esst.analytic._stage_states``, which walks a
per-target layout built once at import.  This walk rescans
``THREE_LEVEL_LOOP`` for every stage and reads each hand's sign as it goes;
``test_analytic.py`` checks that both walks give the same bits.
"""
from __future__ import annotations

import math

from esst.analytic import cosc_area, sinc_area
from esst.model import THREE_LEVEL_LOOP


def reference_stage_states(areas, spec, hands) -> list:
    """Closed-form final amplitudes [A, B, C], one list per hand of ``hands``."""
    psis = [[1.0 + 0.0j, 0.0j, 0.0j] for _ in hands]
    for stage in spec.stages:
        hub = "ABC".index(stage.hub)
        per_hand = [[] for _ in hands]  # (leaf_k, c_k = Theta[hub, leaf_k])
        for row, col, channel, signed in THREE_LEVEL_LOOP:
            if channel in stage.channels:
                for hand, couplings in zip(hands, per_hand):
                    lower = hand.sign * areas[channel] if signed else areas[channel]
                    # Theta[col, row] = lower and Theta[row, col] = conj(lower)
                    couplings.append((col, lower.conjugate()) if hub == row else (row, lower))
        theta = math.hypot(*[abs(c) for _, c in per_hand[0]])
        cos, s, g = math.cos(theta), sinc_area(theta), cosc_area(theta)
        for psi, couplings in zip(psis, per_hand):  # psi <- exp(-i Theta) psi
            x = sum([c * psi[leaf] for leaf, c in couplings])
            kick = -1j * s * psi[hub] + g * x
            psi[hub] = cos * psi[hub] - 1j * s * x
            for leaf, c in couplings:
                psi[leaf] += c.conjugate() * kick
    return psis

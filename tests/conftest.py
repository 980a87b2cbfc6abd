"""Shared fixtures: the bundled molecule and a couple of designed sequences.

Anything expensive enough to matter (propagations, wide-window quadrature)
is session-scoped so the whole suite pays for it once.
"""
from __future__ import annotations

import pytest

from esst import propagator
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness, get_preset


@pytest.fixture(autouse=True)
def no_queued_run():
    """Fail a test that leaves a queued run behind, and drop it."""
    yield
    left = list(propagator._QUEUED)
    for key in left:
        propagator._drop(key)
    if left:
        pytest.fail(f"{len(left)} queued run(s) left behind")


@pytest.fixture(scope="session")
def molecule():
    return get_preset("cyclohexylmethanol")


@pytest.fixture(scope="session")
def spec_c():
    """Default target-C design: tau0 = 35 ns, envelope-referenced phases."""
    return DesignSpec(target="C")


@pytest.fixture(scope="session")
def spec_b():
    return DesignSpec(target="B")


@pytest.fixture(scope="session")
def pulses_c(molecule, spec_c):
    return designed_pulses(molecule, spec_c)


@pytest.fixture(scope="session")
def pulses_b(molecule, spec_b):
    return designed_pulses(molecule, spec_b)


@pytest.fixture(scope="session")
def wide_spec_c():
    """Target-C design with stages separated far enough (t1 = 8 tau0) that
    window truncation sits at round-off instead of ~1e-5."""
    return DesignSpec(target="C", stage2_center=16 * 35.0)


BOTH = (Handedness.LEFT, Handedness.RIGHT)

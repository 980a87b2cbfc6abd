"""Shared fixtures: the bundled molecule, the default designs and their
4-level runs.

Anything expensive enough to matter (propagations, wide-window quadrature)
is session-scoped so the whole suite pays for it once.
"""
from __future__ import annotations

import pytest

from esst import _rk4_numpy
from esst.areas import DesignSpec, designed_pulses
from esst.model import get_preset
from esst.propagator import propagate
from helpers import BOTH, L, drop_left_behind


@pytest.fixture(autouse=True)
def no_queued_run():
    """Fail a test that leaves a queued run or a pending build behind, and
    drop it."""
    yield
    left = drop_left_behind()
    if left:
        pytest.fail(f"{left} left behind")


@pytest.fixture
def builds(monkeypatch):
    """Every build ``_rk4_numpy.submit`` returns, in order, on a pool of
    two workers."""
    made, real = [], _rk4_numpy.submit
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    monkeypatch.setattr(_rk4_numpy, "submit", lambda runs: made.append(real(runs)) or made[-1])
    return made


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


@pytest.fixture(scope="session")
def trace_c4(molecule, pulses_c):
    """The default target-C design at 4 levels, both hands: criterion 1's
    designed pair, which the experiment tests read as well."""
    return {hand: propagate(molecule, pulses_c, hand, levels=4) for hand in BOTH}


@pytest.fixture(scope="session")
def trace_b4(molecule, pulses_b):
    """The default target-B design at 4 levels, for the left hand it is
    designed for: criterion 2's run."""
    return propagate(molecule, pulses_b, L, levels=4)


@pytest.fixture
def fresh_pool():
    """Shut the kernel's pool down, so that the test's runs fork new
    workers, with the test's patches in place."""
    _rk4_numpy._shutdown()

"""Shared fixtures: the bundled molecule and a couple of designed sequences.

Anything expensive enough to matter (propagations, wide-window quadrature)
is session-scoped so the whole suite pays for it once.
"""
from __future__ import annotations

import pytest

from esst import _rk4_numpy, propagator
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness, get_preset


def drop_left_behind() -> str:
    """Drop every range task the kernel's pool still holds undropped, whose
    build no run took or dropped, and clear this thread's queued run; say
    what was left, or return '' if nothing was."""
    pool = _rk4_numpy._POOL
    held = [*pool.unsent, *(task for worker in pool.workers for task in worker.sent)] if pool else []
    pending = [task for task in held if not task.dropped]
    for task in pending:
        task.dropped = True
    slot = propagator._SLOT.run is not None
    propagator._SLOT.run = None
    left = [f"{len(pending)} pending range task(s) of a build"] * bool(pending)
    left += ["a queued run"] * slot
    return " and ".join(left)


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
    monkeypatch.setattr(_rk4_numpy, "submit", lambda runs, *a: made.append(real(runs, *a)) or made[-1])
    return made


def live(builds) -> int:
    """How many of ``builds`` are not dropped."""
    return sum(not all(task.dropped for task in build.tasks) for build in builds)


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

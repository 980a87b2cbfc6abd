"""The numpy kernel's phasor-table drive against exact and direct phases.

The kernel never evaluates cos or sin at the grid times.  It multiplies a
per-chunk base phasor, whose argument is reduced exactly, by a fixed table
exp(i w j dt).  These tests check those phasors against arguments reduced
exactly here, and the whole kernel against a direct cos/sin RK4.
"""
from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from esst import _rk4_numpy
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness
from esst.propagator import _kernel_args, default_grid
from esst.pulses import SQRT_2_OVER_PI

#: 2 pi to 60 digits, independent of the kernel's own constant.
TWO_PI = Fraction("6.28318530717958647692528676655900576839433879875021164194989")


def exact_phasor(w, origin, phase, steps, dt):
    """exp(i (w (origin + steps dt) + phase)), the argument reduced exactly."""
    arg = Fraction(w) * (origin + steps * Fraction(dt)) + Fraction(phase)
    reduced = float(arg % TWO_PI)
    return complex(math.cos(reduced), math.sin(reduced))


carrier_rows = st.tuples(
    st.floats(0.5, 80.0),  # carrier, rad/ns
    st.booleans(),  # envelope-referenced phase convention
    st.floats(-500.0, 500.0),  # pulse center, ns
    st.floats(-2 * math.pi, 2 * math.pi),  # carrier phase
)


@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=5),
    carriers=st.lists(carrier_rows, max_size=4),
    detuning=st.floats(-5.0, 5.0),
    t0=st.floats(-500.0, 500.0),
    steps_per_period=st.integers(40, 128),
    chunk=st.sampled_from([7, 128, 4096]),
    full_chunks=st.integers(0, 3),
    tail=st.floats(0.01, 0.99),
)
def test_table_phasors_match_exact_phases(
    gaps, carriers, detuning, t0, steps_per_period, chunk, full_chunks, tail
):
    freqs = [w + detuning for w, *_ in carriers] + gaps
    shifts = [tc if envelope else 0.0 for _, envelope, tc, _ in carriers] + [0.0] * len(gaps)
    phases = [phase for *_, phase in carriers] + [0.0] * len(gaps)
    dt = 2 * math.pi / (max(abs(w) for w in freqs + [1.0]) * steps_per_period)
    partial = max(1, int(tail * chunk))  # the last chunk is always partial
    n_steps = full_chunks * chunk + partial

    exact = _rk4_numpy._exact_arguments(np.array(freqs), t0, shifts, phases, dt)
    table = _rk4_numpy._phasor_table(np.array(freqs), dt, min(chunk, n_steps) + 1)
    for step0 in range(0, n_steps, chunk):
        nc = min(chunk, n_steps - step0)
        bases = _rk4_numpy._base_phasors(exact, step0)
        # starts j = 0..nc use bases[:, 0], midpoints j + 1/2 use bases[:, 1]
        for j, half in {(0, 0), (1, 0), (nc // 2, 0), (nc, 0), (0, 1), (nc - 1, 1)}:
            got = bases[:, half] * table[:, j]
            for r, w in enumerate(freqs):
                origin = Fraction(t0) - Fraction(shifts[r])
                want = exact_phasor(w, origin, phases[r], step0 + j + Fraction(half, 2), dt)
                assert abs(got[r] - want) <= 1e-14


def test_table_reduction_beats_the_plain_product():
    # j * (w * dt) carries j ulps of w dt; the split reduction does not
    w, dt, size = 71.3, 2 * math.pi / (71.3 * 40), 4097
    table = _rk4_numpy._phasor_table(np.array([w]), dt, size)
    want = np.array([exact_phasor(w, 0, 0.0, j, dt) for j in range(size)])
    plain = np.exp(1j * (w * dt) * np.arange(size))
    assert np.abs(table[0] - want).max() <= 1e-14
    assert np.abs(plain - want).max() > 1e-14  # the test can tell them apart


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(_rk4_numpy.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert _rk4_numpy._worker_count() == 3
    # Without an affinity API the CPU count stands in.
    monkeypatch.delattr(_rk4_numpy.os, "sched_getaffinity")
    monkeypatch.setattr(_rk4_numpy.os, "cpu_count", lambda: None)
    assert _rk4_numpy._worker_count() == 1


def test_a_submitted_build_gives_the_bytes_of_a_fresh_one(molecule):
    # Two chunks: built on the pool with two or more CPUs, else in the caller.
    args = designed_args(molecule, DesignSpec(target="C", tau0=0.3), 4, Handedness.LEFT)
    build = _rk4_numpy.submit(args)
    assert (build is None) == (_rk4_numpy._worker_count() < 2)
    taken = _rk4_numpy.rk4_run(*args, build=build)
    alone = _rk4_numpy.rk4_run(*args)
    assert taken[3] == alone[3] == -1
    for got, want in zip(taken[:3], alone[:3]):
        assert got.tobytes() == want.tobytes()


ONE_CHUNK_RUN = """
import sys
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness, get_preset
from esst.propagator import default_grid, propagate
molecule = get_preset("cyclohexylmethanol")
pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=0.2))
assert default_grid(molecule, pulses, 3).n_steps <= 4096
propagate(molecule, pulses, Handedness.LEFT, levels=3)
print("fractions" in sys.modules)
"""


def test_a_run_built_in_the_caller_loads_no_fractions():
    # The exact phase reductions work on integers alone.
    proc = subprocess.run(
        [sys.executable, "-c", ONE_CHUNK_RUN], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def direct_rk4(
    t0, dt, n_steps, stride,
    energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv,
    psi0,
):
    """Classical RK4 on the state, every coupling from cos/sin at its time.

    Returns the sample times, states and |<psi|psi> - 1| at ``t0`` and
    every ``stride`` steps, as ``rk4_run`` does.
    """
    ts = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)  # every half-step time
    u = ts[None, :] - tc[:, None]
    env = SQRT_2_OVER_PI * (amp / tau)[:, None] * np.exp(-0.5 * (u / tau[:, None]) ** 2)
    arg = np.where((conv == 0)[:, None], wcar[:, None] * ts[None, :], wcar[:, None] * u)
    fields = np.zeros((3, ts.size))
    np.add.at(fields, pchan, env * np.cos(arg + ph[:, None]))
    gap = (energies[rows] - energies[cols])[:, None] * ts[None, :]
    h = prefactor[:, None] * fields[echan] * (np.cos(gap) + 1j * np.sin(gap))
    gen = np.zeros((ts.size, psi0.size, psi0.size), dtype=np.complex128)
    gen[:, rows, cols] = -1j * h.T
    gen[:, cols, rows] = -1j * np.conj(h.T)

    psi = psi0.astype(np.complex128)
    times, states = [t0], [psi]
    for i in range(n_steps):
        a1, a2, a3 = gen[2 * i], gen[2 * i + 1], gen[2 * i + 2]
        k1 = a1 @ psi
        k2 = a2 @ (psi + 0.5 * dt * k1)
        k3 = a2 @ (psi + 0.5 * dt * k2)
        k4 = a3 @ (psi + dt * k3)
        psi = psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % stride == 0:
            times.append(t0 + (i + 1) * dt)
            states.append(psi)
    states = np.array(states)
    return np.array(times), states, np.abs(np.linalg.norm(states, axis=1) ** 2 - 1.0)


def assert_kernel_matches_direct(args, chunk_steps):
    """``rk4_run`` against ``direct_rk4``; returns the direct states."""
    times, states, norm_err, status = _rk4_numpy.rk4_run(*args, chunk_steps=chunk_steps)
    want_times, want, want_norm_err = direct_rk4(*args)
    assert status == -1
    np.testing.assert_array_equal(times, want_times)
    assert np.abs(norm_err - want_norm_err).max() <= 1e-12
    assert np.abs(states - want).max() <= 1e-13
    return want


def designed_args(molecule, spec, levels, hand, sample_stride=128):
    """``rk4_run``'s positional arguments for a designed sequence on its grid."""
    pulses = designed_pulses(molecule, spec)
    grid = replace(default_grid(molecule, pulses, levels), sample_stride=sample_stride)
    return _kernel_args(molecule, pulses, hand, levels, grid)


@pytest.mark.parametrize("chunk_steps,stride", [
    pytest.param(4096, 128, id="4096"),
    pytest.param(1000, 128, id="1000"),
    pytest.param(4096, 7, id="4096-stride7"),
    pytest.param(1000, 7, id="1000-stride7"),
])
@pytest.mark.parametrize("hand", [Handedness.LEFT, Handedness.RIGHT])
def test_kernel_matches_direct_cos_sin_rk4(molecule, hand, chunk_steps, stride):
    # At stride 128, 4,352 steps: one full 4096-step chunk and a partial
    # one, or four 896-step chunks and a partial one.  Stride 7 rounds the
    # chunks to 4,095 and 994 steps, so the composition tree carries an odd
    # tail and the chunk is not a power of two.
    args = designed_args(molecule, DesignSpec(target="C", tau0=0.3), 4, hand, stride)
    assert args[2] % (chunk_steps // stride * stride)  # a partial last chunk
    want = assert_kernel_matches_direct(args, chunk_steps)
    assert np.abs(want[:, 0]).min() < 0.9  # the comparison is not vacuous


@pytest.mark.parametrize("edges,same_bytes", [
    (((0, 2), (2, 3), (0, 3), (0, 1), (1, 3)), True),  # the four-level loop
    # a chain: entries of A2 A1 with no term are +0, where the dense form's
    # sum of zero products may be -0
    (((0, 1), (1, 2), (2, 3)), False),
])
def test_sparse_k2_equals_dense_stage(edges, same_bytes):
    # K2 = A2 + h/2 A2 K1 with K1 = A1 sparse must give the dense form's
    # values, whose extra terms multiply exact zeros of K1
    rng = np.random.default_rng(5)
    rows, cols = np.array(edges).T
    entries = _rk4_numpy._generator_rows(rows, cols, 4)
    values = rng.normal(size=(4, len(edges), 33)) + 1j * rng.normal(size=(4, len(edges), 33))
    a1, a2 = (_rk4_numpy._sparse_rows(entries, v, w, slice(None)) for v, w in (values[:2], values[2:]))
    dense_k1 = np.zeros((4, 4, 33), dtype=np.complex128)
    _rk4_numpy._add_sparse(dense_k1, a1)
    tmp = np.empty((4, 33), dtype=np.complex128)
    want = _rk4_numpy._stage(a2, dense_k1, 0.37, np.empty_like(dense_k1), tmp)
    got = _rk4_numpy._sparse_stage(a2, a1, 0.37, np.empty_like(dense_k1), tmp[0])
    np.testing.assert_array_equal(got, want)
    if same_bytes:
        assert got.tobytes() == want.tobytes()


def kernel_chunk_steps(args, draw):
    """A ``chunk_steps`` that leaves the run's last chunk partial.

    ``chunk_groups`` in [0, 1] picks the whole samples per chunk between 1
    and all but one; ``spare`` adds steps short of one more stride, which the
    kernel rounds off.
    """
    stride = args[3]
    groups = args[2] // stride
    per_chunk = 1 + int(draw["chunk_groups"] * (groups - 2))
    while groups % per_chunk == 0:  # would end on a full chunk
        per_chunk += 1
    return per_chunk * stride + draw["spare"] % stride


# No shrinking: each shrink step reruns the pure-Python oracle, which turned
# a red run into minutes; the failing draw is reported as found.
@settings(
    max_examples=12, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(
    levels=st.sampled_from([3, 4]),
    hand=st.sampled_from(list(Handedness)),
    target=st.sampled_from(["B", "C"]),
    tau0=st.floats(0.3, 0.6),
    stride=st.sampled_from([1, 2, 7, 96, 128]),
    chunk_groups=st.floats(0.0, 1.0),
    spare=st.integers(0, 127),
)
def test_kernel_matches_direct_rk4_on_random_designs(molecule, **draw):
    # strides 7 and 96 carry an odd factor through the composition tree;
    # stride 1 composes nothing
    spec = DesignSpec(target=draw["target"], tau0=draw["tau0"])
    args = designed_args(molecule, spec, draw["levels"], draw["hand"], draw["stride"])
    chunk_steps = kernel_chunk_steps(args, draw)
    assert args[2] % (chunk_steps // draw["stride"] * draw["stride"])  # a partial last chunk
    assert_kernel_matches_direct(args, chunk_steps)

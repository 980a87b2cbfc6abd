"""The numpy kernel's phasor-table drive against exact and direct phases.

The kernel never evaluates cos or sin at the grid times.  It multiplies a
per-chunk base phasor, whose argument is reduced exactly, by a fixed table
exp(i w j dt).  These tests check those phasors against arguments reduced
exactly here, and the whole kernel against a direct cos/sin RK4.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esst import _rk4_numpy
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness, basis_for_levels
from esst.propagator import _edge_arrays, _pulse_arrays, default_grid
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


def direct_rk4(
    t0, dt, n_steps, stride,
    energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv,
    psi0,
):
    """Classical RK4 on the state, every coupling from cos/sin at its time."""
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
    states = [psi]
    for i in range(n_steps):
        a1, a2, a3 = gen[2 * i], gen[2 * i + 1], gen[2 * i + 2]
        k1 = a1 @ psi
        k2 = a2 @ (psi + 0.5 * dt * k1)
        k3 = a2 @ (psi + 0.5 * dt * k2)
        k4 = a3 @ (psi + dt * k3)
        psi = psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % stride == 0:
            states.append(psi)
    return np.array(states)


@pytest.mark.parametrize("chunk_steps", [4096, 1000])
@pytest.mark.parametrize("hand", [Handedness.LEFT, Handedness.RIGHT])
def test_kernel_matches_direct_cos_sin_rk4(molecule, hand, chunk_steps):
    # 4,352 steps: one full 4096-step chunk and a partial one, or four
    # 896-step chunks and a partial one
    pulses = list(designed_pulses(molecule, DesignSpec(target="C", tau0=0.3)).values())
    grid = default_grid(molecule, pulses, 4)
    assert grid.n_steps % chunk_steps
    basis = basis_for_levels(molecule, 4)
    psi0 = np.zeros(basis.dim, dtype=np.complex128)
    psi0[0] = 1.0
    args = (
        float(grid.t_start), float(grid.dt_eff), int(grid.n_steps),
        int(grid.sample_stride), np.asarray(basis.energies, dtype=np.float64),
        *_edge_arrays(molecule, 4, hand), *_pulse_arrays(pulses), psi0,
    )
    _, states, _, status = _rk4_numpy.rk4_run(*args, chunk_steps=chunk_steps)
    want = direct_rk4(*args)
    assert status == -1
    assert np.abs(states - want).max() <= 1e-13
    assert np.abs(want[:, 0]).min() < 0.9  # the comparison is not vacuous

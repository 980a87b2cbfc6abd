"""JIT-compiled RK4 kernel for the interaction-picture Schrodinger equation.

The hot loop is written flat (explicit element loops, preallocated buffers)
so numba can compile it to machine code; if numba is missing the same source
still runs as plain Python, but the package selects the vectorized numpy
backend instead in that case.

Argument layout (all arrays contiguous):

* ``energies[n]``: level energies, rad/ns.
* Edge arrays (one entry per non-zero coupling): ``rows``/``cols`` level
  indices, ``echan`` channel index (0=a, 1=b, 2=c), ``prefactor`` the full
  field-to-coupling factor -dipole * handedness_sign.
* Pulse arrays (one entry per pulse): ``pchan`` channel index, ``amp``,
  ``tc``, ``tau``, ``wcar``, ``ph``, and ``conv`` (0 absolute, 1 envelope).

The kernel samples the state every ``stride`` steps (``n_steps`` must be a
multiple of ``stride``) and reports the first sample index at which the norm
stopped being finite via ``status`` (-1 means the run stayed clean).
"""
from __future__ import annotations

import numpy as np

from .pulses import SQRT_2_OVER_PI

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn

        return wrap


@njit(cache=True, nogil=True)
def _channel_fields(t, pchan, amp, tc, tau, wcar, ph, conv, out):
    out[0] = 0.0
    out[1] = 0.0
    out[2] = 0.0
    for p in range(amp.shape[0]):
        u = t - tc[p]
        env = SQRT_2_OVER_PI * amp[p] / tau[p] * np.exp(-0.5 * (u / tau[p]) ** 2)
        if conv[p] == 0:
            carrier = np.cos(wcar[p] * t + ph[p])
        else:
            carrier = np.cos(wcar[p] * u + ph[p])
        out[pchan[p]] += env * carrier


@njit(cache=True, nogil=True)
def _hamiltonian_entries(
    t, energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv, fields, hvals,
):
    _channel_fields(t, pchan, amp, tc, tau, wcar, ph, conv, fields)
    for e in range(rows.shape[0]):
        omega = prefactor[e] * fields[echan[e]]
        dw = energies[rows[e]] - energies[cols[e]]
        hvals[e] = omega * (np.cos(dw * t) + 1j * np.sin(dw * t))


@njit(cache=True, nogil=True)
def _schrodinger_rhs(hvals, rows, cols, psi, dpsi):
    for i in range(psi.shape[0]):
        dpsi[i] = 0.0 + 0.0j
    for e in range(rows.shape[0]):
        r = rows[e]
        c = cols[e]
        h = hvals[e]
        dpsi[r] += -1j * h * psi[c]
        dpsi[c] += -1j * np.conj(h) * psi[r]


@njit(cache=True, nogil=True)
def rk4_run(
    t0, dt, n_steps, stride,
    energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv,
    psi0,
):
    n = psi0.shape[0]
    n_edges = rows.shape[0]
    n_samples = n_steps // stride + 1

    times = np.empty(n_samples)
    states = np.empty((n_samples, n), dtype=np.complex128)
    norm_err = np.empty(n_samples)

    psi = psi0.copy()
    fields = np.empty(3)
    h_lo = np.empty(n_edges, dtype=np.complex128)
    h_mid = np.empty(n_edges, dtype=np.complex128)
    h_hi = np.empty(n_edges, dtype=np.complex128)
    k1 = np.empty(n, dtype=np.complex128)
    k2 = np.empty(n, dtype=np.complex128)
    k3 = np.empty(n, dtype=np.complex128)
    k4 = np.empty(n, dtype=np.complex128)
    work = np.empty(n, dtype=np.complex128)

    status = -1
    sample = 0
    norm = 0.0
    for i in range(n):
        norm += psi[i].real ** 2 + psi[i].imag ** 2
    times[0] = t0
    states[0] = psi
    norm_err[0] = abs(norm - 1.0)

    _hamiltonian_entries(
        t0, energies, rows, cols, echan, prefactor,
        pchan, amp, tc, tau, wcar, ph, conv, fields, h_lo,
    )
    for step in range(n_steps):
        t = t0 + step * dt
        _hamiltonian_entries(
            t + 0.5 * dt, energies, rows, cols, echan, prefactor,
            pchan, amp, tc, tau, wcar, ph, conv, fields, h_mid,
        )
        _hamiltonian_entries(
            t + dt, energies, rows, cols, echan, prefactor,
            pchan, amp, tc, tau, wcar, ph, conv, fields, h_hi,
        )
        _schrodinger_rhs(h_lo, rows, cols, psi, k1)
        for i in range(n):
            work[i] = psi[i] + 0.5 * dt * k1[i]
        _schrodinger_rhs(h_mid, rows, cols, work, k2)
        for i in range(n):
            work[i] = psi[i] + 0.5 * dt * k2[i]
        _schrodinger_rhs(h_mid, rows, cols, work, k3)
        for i in range(n):
            work[i] = psi[i] + dt * k3[i]
        _schrodinger_rhs(h_hi, rows, cols, work, k4)
        for i in range(n):
            psi[i] = psi[i] + (dt / 6.0) * (
                k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]
            )
        for i in range(n_edges):
            h_lo[i] = h_hi[i]

        if (step + 1) % stride == 0:
            sample += 1
            norm = 0.0
            for i in range(n):
                norm += psi[i].real ** 2 + psi[i].imag ** 2
            times[sample] = t0 + (step + 1) * dt
            states[sample] = psi
            norm_err[sample] = abs(norm - 1.0)
            if not np.isfinite(norm):
                status = sample
                for j in range(sample + 1, n_samples):
                    times[j] = times[sample]
                    states[j] = psi
                    norm_err[j] = norm_err[sample]
                break

    return times, states, norm_err, status

"""Vectorized pure-numpy RK4 backend in a structure-of-arrays layout.

A classical RK4 step of the linear system psi' = A(t) psi can be written as a
single update matrix applied to the state,

    M(t) = I + (dt/6) (K1 + 2 K2 + 2 K3 + K4),
    K1 = A1,  K2 = A2 (I + dt/2 K1),  K3 = A2 (I + dt/2 K2),
    K4 = A3 (I + dt K3),

with A1/A2/A3 the generator -iH evaluated at the step's start, midpoint and
end.  This backend builds the M matrices for whole chunks of steps at once
and stores every matrix stack as an ``(n, n, steps)`` array, so each matrix
element is one contiguous vector over the steps of the chunk:

* The Hamiltonian is kept as its coupling values, one row per edge.  It is
  evaluated once per chunk at the 2N+1 half-step times (the N+1 step
  starts, then the N midpoints); the end of step i is the start of
  step i+1, so no time is evaluated twice.
* A has a zero diagonal and one entry pair per coupled edge (3 edges at
  three levels, 5 at four).  Each stage is formed as K' = A + h (A K), an
  edge-sparse times dense product that costs one vector multiply-add per
  generator entry and column.
* Each sample stride's worth of M matrices is composed into one propagator
  by an order-preserving pairwise reduction over ``(n, n, groups, k)``
  blocks, multiplied with explicit element loops.

None of this uses a batched ``np.matmul``, which hands each tiny matrix to
BLAS separately and costs several times the arithmetic.  The numerical
result is RK4 exactly: the arithmetic per step matches the loop form, only
reassociated across steps at the matrix level.
"""
from __future__ import annotations

import numpy as np

from .pulses import SQRT_2_OVER_PI

HAS_NUMBA = False  # mirrors the kernel-module interface


def _hamiltonian_batch(
    ts,
    energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv,
):
    """Interaction-picture couplings H[rows[e], cols[e]] at each time.

    Returns shape (n_edges, len(ts)).  H is Hermitian with a zero diagonal,
    so these values define it: H[cols[e], rows[e]] is the conjugate.
    """
    u = ts[None, :] - tc[:, None]
    env = (
        SQRT_2_OVER_PI
        * (amp / tau)[:, None]
        * np.exp(-0.5 * (u / tau[:, None]) ** 2)
    )
    arg = np.where(
        (conv == 0)[:, None],
        wcar[:, None] * ts[None, :],
        wcar[:, None] * u,
    ) + ph[:, None]
    pulse_fields = env * np.cos(arg)  # (n_pulses, n_times)

    fields = np.zeros((3, ts.shape[0]))
    np.add.at(fields, pchan, pulse_fields)

    omega = prefactor[:, None] * fields[echan]
    phase = (energies[rows] - energies[cols])[:, None] * ts[None, :]
    values = np.empty(omega.shape, dtype=np.complex128)
    values.real = omega * np.cos(phase)
    values.imag = omega * np.sin(phase)
    return values


def _generator_rows(rows, cols, n):
    """Nonzero entries of A per matrix row: [(m, edge, mirrored), ...].

    Each row lists its columns in ascending order, the summation order of a
    dense row-times-column product.
    """
    entries = [[] for _ in range(n)]
    for e in range(rows.shape[0]):
        entries[rows[e]].append((int(cols[e]), e, False))
        entries[cols[e]].append((int(rows[e]), e, True))
    return [sorted(row) for row in entries]


def _sparse_rows(entries, upper, mirrored, span):
    """A over the steps in ``span``, as sparse rows of (m, values)."""
    return [
        [(m, (mirrored if mir else upper)[e, span]) for m, e, mir in row]
        for row in entries
    ]


def _stage(a, k, scale, out, tmp):
    """out = A + scale * (A @ k) for A given as sparse rows of (m, values).

    Every level of the loop models is coupled, so no row is empty.
    """
    for i, row in enumerate(a):
        (m, am), *rest = row
        np.multiply(am, k[m], out=out[i])
        for m, am in rest:
            np.multiply(am, k[m], out=tmp)
            out[i] += tmp
    out *= scale
    for i, row in enumerate(a):
        for m, am in row:
            out[i, m] += am
    return out


def _product(left, right, out, tmp):
    """out = left @ right over leading (n, n) axes, elementwise behind them."""
    n = left.shape[0]
    for i in range(n):
        np.multiply(left[i, 0], right[0], out=out[i])
        for m in range(1, n):
            np.multiply(left[i, m], right[m], out=tmp)
            out[i] += tmp
    return out


def _compose_ordered(mats: np.ndarray) -> np.ndarray:
    """Product mats[..., -1] @ ... @ mats[..., 0] per group.

    ``mats`` has shape (n, n, groups, k); the result has shape (n, n,
    groups).  Pairwise reduction that keeps temporal order: later steps
    always end up on the left.  An odd tail is carried unmerged to the next
    round so the latest factor stays latest.
    """
    while mats.shape[-1] > 1:
        k = mats.shape[-1]
        half = k // 2
        body = np.empty(mats.shape[:-1] + (half,), dtype=mats.dtype)
        tmp = np.empty(body.shape[1:], dtype=mats.dtype)
        _product(mats[..., 1 : 2 * half : 2], mats[..., 0 : 2 * half : 2], body, tmp)
        mats = np.concatenate([body, mats[..., -1:]], axis=-1) if k % 2 else body
    return mats[..., 0]


def rk4_run(
    t0, dt, n_steps, stride,
    energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv,
    psi0,
    chunk_steps: int = 4096,
):
    """Same contract as the jitted kernel: (times, states, norm_err, status)."""
    n = psi0.shape[0]
    n_samples = n_steps // stride + 1

    times = np.empty(n_samples)
    states = np.empty((n_samples, n), dtype=np.complex128)
    norm_err = np.empty(n_samples)

    psi = psi0.astype(np.complex128).copy()
    times[0] = t0
    states[0] = psi
    norm_err[0] = abs(float(np.vdot(psi, psi).real) - 1.0)
    status = -1

    chunk = max(stride, (int(chunk_steps) // stride) * stride)
    args = (energies, rows, cols, echan, prefactor,
            pchan, amp, tc, tau, wcar, ph, conv)
    entries = _generator_rows(rows, cols, n)
    k1 = np.zeros((n, n, chunk), dtype=np.complex128)
    k2 = np.empty_like(k1)
    k3 = np.empty_like(k1)
    k4 = np.empty_like(k1)
    tmp = np.empty((n, chunk), dtype=np.complex128)

    sample = 0
    step0 = 0
    while step0 < n_steps and status < 0:
        nc = min(chunk, n_steps - step0)
        starts = t0 + (step0 + np.arange(nc + 1)) * dt
        upper = -1j * _hamiltonian_batch(
            np.concatenate([starts, starts[:-1] + 0.5 * dt]), *args
        )
        mirrored = -np.conj(upper)  # -i conj(H), the transposed entries
        a1 = _sparse_rows(entries, upper, mirrored, slice(0, nc))  # starts
        a2 = _sparse_rows(entries, upper, mirrored, slice(nc + 1, None))  # midpoints
        a3 = _sparse_rows(entries, upper, mirrored, slice(1, nc + 1))  # ends
        c1, c2, c3, c4 = (k[..., :nc] for k in (k1, k2, k3, k4))
        t = tmp[:, :nc]
        for i, row in enumerate(a1):
            for m, am in row:
                c1[i, m] = am
        _stage(a2, c1, 0.5 * dt, c2, t)
        _stage(a2, c2, 0.5 * dt, c3, t)
        _stage(a3, c3, dt, c4, t)

        # M = I + dt/6 (K1 + 2 K2 + 2 K3 + K4), summed in that order
        step_mats = np.multiply(c2, 2.0, out=c2)
        for i, row in enumerate(a1):
            for m, am in row:
                step_mats[i, m] += am
        step_mats += np.multiply(c3, 2.0, out=c3)
        step_mats += c4
        step_mats *= dt / 6.0
        for i in range(n):
            step_mats[i, i] += 1.0

        groups = nc // stride
        per_sample = _compose_ordered(step_mats.reshape(n, n, groups, stride))
        per_sample = np.ascontiguousarray(np.moveaxis(per_sample, -1, 0))
        for g in range(groups):
            psi = per_sample[g] @ psi
            sample += 1
            norm = float(np.vdot(psi, psi).real)
            times[sample] = t0 + (step0 + (g + 1) * stride) * dt
            states[sample] = psi
            norm_err[sample] = abs(norm - 1.0)
            if not np.isfinite(norm):
                status = sample
                times[sample + 1 :] = times[sample]
                states[sample + 1 :] = psi
                norm_err[sample + 1 :] = norm_err[sample]
                break
        step0 += nc

    return times, states, norm_err, status

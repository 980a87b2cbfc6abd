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
* No cos or sin is taken at those times.  Each edge value is
  Omega(t) exp(i dE t), and each pulse field is envelope times
  cos(w t + phi).  The grid is uniform, so every such phasor is a base
  phasor times an entry of a fixed table exp(i w j dt), j = 0..chunk.  The
  table is built once per run and has one row per carrier and one per edge
  gap.  The base phasors are computed once per chunk, at the chunk's first
  start and first midpoint, from arguments reduced mod 2 pi in exact
  integer arithmetic.  The carrier phase and the -i of the generator are
  folded into them.  The table's own arguments are reduced without
  rounding error too, so each phasor is good to a few ulp at any time,
  where cos(w t) of a floating-point t carries ulp(t) * w.  Only the
  Gaussian envelopes still take an exp per pulse and time.
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
reassociated across steps at the matrix level, and the drive differs from
direct cos/sin only in round-off.
"""
from __future__ import annotations

import math

import numpy as np

from .pulses import SQRT_2_OVER_PI

HAS_NUMBA = False  # mirrors the kernel-module interface

#: 2 pi to 100 significant digits, for the exact phase reductions.
_TWO_PI = (
    "6.283185307179586476925286766559005768394338798750"
    "211641949889184615632812572417997256069650684234136"
)


def _exact_arguments(freqs, t0, shifts, phases, dt):
    """Drive arguments w (t0 - shift + s dt/2) + phase, exact in integers.

    Every float is a dyadic rational, so row r's argument at half-step s is
    (start[r] + s * half[r]) / scale with integer start and half and a
    power-of-two scale.  ``period`` is 2 pi * scale to the nearest integer,
    so ``(start + s * half) % period`` reduces the argument exactly (up to
    the 100 digits of 2 pi) however far the run is from t = 0.
    """
    from fractions import Fraction  # not needed on the ``import esst`` path

    start = [
        Fraction(w) * (Fraction(t0) - Fraction(shift)) + Fraction(phase)
        for w, shift, phase in zip(freqs, shifts, phases)
    ]
    half = [Fraction(w) * Fraction(dt) / 2 for w in freqs]
    bits = max(128, *(x.denominator.bit_length() for x in start + half))
    scale = 1 << bits
    period = round(Fraction(_TWO_PI) * scale)
    return (
        [int(x * scale) for x in start], [int(x * scale) for x in half],
        period, scale,
    )


def _base_phasors(exact, step):
    """exp(i argument) at a chunk's first start and first midpoint.

    ``step`` is the index of the chunk's first step; the result has shape
    (rows, 2).  Python's int / int division rounds the reduced argument
    correctly, so each phasor is good to an ulp or two.
    """
    start, half, period, scale = exact
    args = [
        [((a + s * b) % period) / scale for s in (2 * step, 2 * step + 1)]
        for a, b in zip(start, half)
    ]
    return np.exp(1j * np.array(args))


def _split(x, bits):
    """A rational x as hi + lo: hi a float of ``bits`` significant bits."""
    from fractions import Fraction

    if not x:
        return 0.0, 0.0
    shift = bits - math.frexp(float(x))[1]
    hi = math.ldexp(round(x * Fraction(2) ** shift), -shift)
    return hi, float(x - Fraction(hi))


def _phasor_table(freqs, dt, size):
    """exp(i w j dt) for j = 0..size-1, one row per frequency w.

    The argument j w dt is reduced mod 2 pi without rounding error:
    w dt = hi + lo with hi short enough that j hi is exact, and
    2 pi = c1 + c2 with c1 short enough that k c1 is exact for every
    multiple k taken off.  Entries are then good to a few ulp at any j,
    where the plain product j * (w * dt) would carry j ulps of w dt.
    """
    from fractions import Fraction

    j = np.arange(size, dtype=np.float64)
    steps = [Fraction(w) * Fraction(dt) for w in freqs]
    hi, lo = np.array([_split(x, 53 - (size - 1).bit_length()) for x in steps]).T
    x = hi[:, None] * j
    k = np.rint(x / (2.0 * math.pi))
    c1, c2 = _split(Fraction(_TWO_PI), 53 - int(np.abs(k).max(initial=0)).bit_length())
    r = x - k * c1
    r += lo[:, None] * j - k * c2
    table = np.empty(r.shape, dtype=np.complex128)
    np.cos(r, out=table.real)
    np.sin(r, out=table.imag)
    return table


def _hamiltonian_batch(
    ts, bases, table,
    pchan, amp, tc, tau, echan, prefactor,
    buffers,
):
    """Generator entries -i H[rows[e], cols[e]] at each time of ``ts``.

    ``ts`` holds a chunk's nc + 1 step starts, then its nc midpoints.  Rows
    of ``bases`` and ``table`` are the pulse carriers, then the edge gaps;
    the drive phasor of row r is bases[r, 0] * table[r, j] at start j and
    bases[r, 1] * table[r, j] at midpoint j.  Carrier phases and the -i of
    the generator are folded into ``bases``.

    ``buffers`` is the scratch (phasor, fields, work, values): one complex
    drive row, the three channel fields, one real row and the result, each
    at least len(ts) long.  Returns shape (n_edges, len(ts)), a view into
    ``values``.  H is Hermitian with a zero diagonal, so these values
    define it: the generator's transposed entry is the negated conjugate.
    """
    phasor, fields, work, values = buffers
    n_t = ts.shape[0]
    nc = n_t // 2
    drive = phasor[:n_t]

    def rotate(r):
        """The drive phasor of row r at every time, in ``drive``."""
        np.multiply(bases[r, 0], table[r, : nc + 1], out=drive[: nc + 1])
        np.multiply(bases[r, 1], table[r, :nc], out=drive[nc + 1 :])
        return drive

    field = fields[:, :n_t]
    field[...] = 0.0
    w = work[:n_t]
    n_pulses = amp.shape[0]
    for p in range(n_pulses):  # pulses on one channel add in order
        np.subtract(ts, tc[p], out=w)
        w /= tau[p]
        np.square(w, out=w)
        w *= -0.5
        np.exp(w, out=w)
        w *= SQRT_2_OVER_PI * (amp[p] / tau[p])
        w *= rotate(p).real
        field[pchan[p]] += w

    out = values[:, :n_t]
    for e in range(echan.shape[0]):
        np.multiply(field[echan[e]], prefactor[e], out=w)
        rotate(n_pulses + e)
        np.multiply(drive.real, w, out=out[e].real)
        np.multiply(drive.imag, w, out=out[e].imag)
    return out


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
    longest = min(chunk, n_steps)
    n_pulses = amp.shape[0]
    gaps = energies[rows] - energies[cols]
    freqs = np.concatenate([wcar, gaps])
    exact = _exact_arguments(
        freqs, t0,
        np.concatenate([np.where(conv == 0, 0.0, tc), np.zeros_like(gaps)]),
        np.concatenate([ph, np.zeros_like(gaps)]),
        dt,
    )
    table = _phasor_table(freqs, dt, longest + 1)
    n_times = 2 * longest + 1
    buffers = (
        np.empty(n_times, dtype=np.complex128),
        np.empty((3, n_times)),
        np.empty(n_times),
        np.empty((rows.shape[0], n_times), dtype=np.complex128),
    )
    flipped = np.empty((rows.shape[0], n_times), dtype=np.complex128)
    entries = _generator_rows(rows, cols, n)
    k1 = np.zeros((n, n, longest), dtype=np.complex128)
    k2 = np.empty_like(k1)
    k3 = np.empty_like(k1)
    k4 = np.empty_like(k1)
    tmp = np.empty((n, longest), dtype=np.complex128)

    sample = 0
    step0 = 0
    while step0 < n_steps and status < 0:
        nc = min(chunk, n_steps - step0)
        starts = t0 + (step0 + np.arange(nc + 1)) * dt
        bases = _base_phasors(exact, step0)
        bases[n_pulses:] *= -1j  # the generator is -i H
        upper = _hamiltonian_batch(
            np.concatenate([starts, starts[:-1] + 0.5 * dt]), bases, table,
            pchan, amp, tc, tau, echan, prefactor, buffers,
        )
        # -i conj(H), the transposed entries
        mirrored = np.conjugate(upper, out=flipped[:, : upper.shape[1]])
        np.negative(mirrored, out=mirrored)
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

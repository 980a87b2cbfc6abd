"""The vectorized numpy RK4 kernel, in a structure-of-arrays layout.

A classical RK4 step of the linear system psi' = A(t) psi can be written as a
single update matrix applied to the state,

    M(t) = I + (dt/6) (K1 + 2 K2 + 2 K3 + K4),
    K1 = A1,  K2 = A2 (I + dt/2 K1),  K3 = A2 (I + dt/2 K2),
    K4 = A3 (I + dt K3),

with A1/A2/A3 the generator -iH evaluated at the step's start, midpoint and
end.  The kernel builds the M matrices for whole chunks of steps at once
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
  three levels, 5 at four), kept as sparse rows.  K1 = A1 is never stored
  densely.  K2 = A2 + (dt/2) A2 A1 is a sparse times sparse product: each
  entry sums only its nonzero terms, in ascending m, which is the dense
  product's order with its exact zeros left out.  K3 and K4 are
  edge-sparse times dense, one vector multiply-add per generator entry and
  column.
* Three dense ``(n, n, chunk)`` buffers hold a chunk's stages: K2 (later
  overwritten by K4), K3, and M, which is summed in its own buffer as
  ((2 K2 + K1) + 2 K3) + K4, then scaled by dt/6, then given its identity.
* Each sample stride's worth of M matrices is composed into one propagator
  by an order-preserving pairwise reduction over ``(n, n, groups, k)``
  blocks.  Each level is one broadcast multiply, whose n**3 terms per
  product go into the K2/K3 buffers (free once M is summed), and one
  ``sum`` over m, which adds the terms in ascending m.
* Per sample only the matrix-vector product and the norm are computed.
  Sample times, |norm - 1| and the scan for a non-finite norm run once per
  run or per chunk, over whole arrays.

None of this uses a batched ``np.matmul``, which hands each tiny matrix to
BLAS separately and costs several times the arithmetic.  The numerical
result is RK4 exactly: the arithmetic per step matches the loop form, only
reassociated across steps at the matrix level, and the drive differs from
direct cos/sin only in round-off.
"""
from __future__ import annotations

import math

import numpy as np

from .pulses import SQRT_2_OVER_PI, TWO_PI_DIGITS, exact_sum


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
        exact_sum(((w, t0), (-w, shift), (phase, 1.0)))
        for w, shift, phase in zip(freqs, shifts, phases)
    ]
    half = [exact_sum(((w, dt),)) / 2 for w in freqs]
    bits = max(128, *(x.denominator.bit_length() for x in start + half))
    scale = 1 << bits
    period = round(Fraction(TWO_PI_DIGITS) * scale)
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
    steps = [exact_sum(((w, dt),)) for w in freqs]
    hi, lo = np.array([_split(x, 53 - (size - 1).bit_length()) for x in steps]).T
    x = hi[:, None] * j
    k = np.rint(x / (2.0 * math.pi))
    c1, c2 = _split(Fraction(TWO_PI_DIGITS), 53 - int(np.abs(k).max(initial=0)).bit_length())
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


def _sum_products(pairs, out, tmp):
    """out = the sum of x * y over ``pairs`` of (x, y), added in order."""
    (x, y), *rest = pairs
    np.multiply(x, y, out=out)
    for x, y in rest:
        np.multiply(x, y, out=tmp)
        out += tmp
    return out


def _stage(a, k, scale, out, tmp):
    """out = A + scale * (A @ k) for A given as sparse rows of (m, values).

    Every level of the loop models is coupled, so no row is empty.
    """
    for i, row in enumerate(a):
        _sum_products([(am, k[m]) for m, am in row], out[i], tmp)
    out *= scale
    return _add_sparse(out, a)


def _sparse_stage(a, b, scale, out, tmp):
    """out = A + scale * (A @ B) for A and B both given as sparse rows.

    Each entry sums its nonzero terms A[i, m] B[m, j] in ascending m.  That
    is the dense product's order, whose other terms are exact zeros; an
    entry with no nonzero term is zero.
    """
    for i, row in enumerate(a):
        terms = [[] for _ in b]
        for m, am in row:
            for j, bm in b[m]:
                terms[j].append((am, bm))
        for j, pairs in enumerate(terms):
            if pairs:
                _sum_products(pairs, out[i, j], tmp)
            else:
                out[i, j] = 0.0
    out *= scale
    return _add_sparse(out, a)


def _add_sparse(out, a):
    """out += A for A given as sparse rows."""
    for i, row in enumerate(a):
        for m, am in row:
            out[i, m] += am
    return out


def _compose_ordered(mats: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Product mats[..., -1] @ ... @ mats[..., 0] per group.

    ``mats`` has shape (n, n, groups, k); the result has shape (n, n,
    groups).  Pairwise reduction that keeps temporal order: later steps
    always end up on the left.  An odd tail is carried unmerged to the next
    round so the latest factor stays latest.

    Each round forms every term left[i, m] right[m, j] in one broadcast
    multiply into ``scratch``, a flat buffer of at least n**3 groups k / 2
    elements, and adds them with one ``sum`` over m.  A reduction over an
    axis that is not the innermost adds its slices in order, so every entry
    is ((t0 + t1) + t2) + ..., the order of an explicit loop over m.
    """
    n = mats.shape[0]
    while mats.shape[-1] > 1:
        k = mats.shape[-1]
        half = k // 2
        left, right = mats[..., 1 : 2 * half : 2], mats[..., 0 : 2 * half : 2]
        terms = scratch[: n * left.size].reshape((n,) + left.shape)
        np.multiply(left[:, :, None], right[None], out=terms)
        body = terms.sum(axis=1)
        mats = np.concatenate([body, mats[..., -1:]], axis=-1) if k % 2 else body
    return mats[..., 0]


def rk4_run(
    t0, dt, n_steps, stride,
    energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv,
    psi0,
    chunk_steps: int = 4096,
):
    """Propagate ``psi0`` over ``n_steps`` RK4 steps of ``dt`` from ``t0``.

    * ``energies[n]``: level energies, rad/ns.
    * Edge arrays (one entry per non-zero coupling): ``rows``/``cols``
      level indices, ``echan`` channel index (0=a, 1=b, 2=c),
      ``prefactor`` the full field-to-coupling factor
      -dipole * handedness_sign.
    * Pulse arrays (one entry per pulse): ``pchan`` channel index,
      ``amp``, ``tc``, ``tau``, ``wcar``, ``ph``, and ``conv``
      (0 absolute, 1 envelope).

    Returns ``(times, states, norm_err, status)``, sampled every ``stride``
    steps (``n_steps`` must be a multiple of ``stride``) and at ``t0``.
    ``status`` is the first sample whose norm is not finite, -1 if the run
    stayed clean; every later sample repeats that one.
    """
    n = psi0.shape[0]
    n_samples = n_steps // stride + 1

    times = np.empty(n_samples)
    states = np.empty((n_samples, n), dtype=np.complex128)
    norm_err = np.empty(n_samples)

    psi = psi0.astype(np.complex128).copy()
    times[0] = t0
    times[1:] = t0 + (np.arange(1, n_samples) * stride) * dt
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
    m_buf = np.empty((n, n, longest), dtype=np.complex128)
    # K2 (then K4) and K3; free again once M is summed, when they hold the
    # composition's terms, n**3 longest / 2 elements at most
    stages = np.empty((max(2, (n + 1) // 2), n, n, longest), dtype=np.complex128)
    k24, k3 = stages[0], stages[1]
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
        step_mats, c24, c3 = (k[..., :nc] for k in (m_buf, k24, k3))
        t = tmp[:, :nc]
        _sparse_stage(a2, a1, 0.5 * dt, c24, t[0])  # K2
        _stage(a2, c24, 0.5 * dt, c3, t)  # K3

        # M = I + dt/6 (((2 K2 + K1) + 2 K3) + K4)
        _add_sparse(np.multiply(c24, 2.0, out=step_mats), a1)
        _stage(a3, c3, dt, c24, t)  # K4 over K2
        step_mats += np.multiply(c3, 2.0, out=c3)
        step_mats += c24
        step_mats *= dt / 6.0
        for i in range(n):
            step_mats[i, i] += 1.0

        groups = nc // stride
        per_sample = _compose_ordered(
            step_mats.reshape(n, n, groups, stride), stages.reshape(-1)
        )
        per_sample = np.ascontiguousarray(np.moveaxis(per_sample, -1, 0))
        block = slice(sample + 1, sample + groups + 1)
        for s, p in enumerate(per_sample, block.start):
            psi = np.matmul(p, psi, out=states[s])
            norm_err[s] = np.vdot(psi, psi).real
        err = norm_err[block]
        np.abs(np.subtract(err, 1.0, out=err), out=err)
        bad = np.flatnonzero(~np.isfinite(err))
        if bad.size:
            status = block.start + int(bad[0])
            times[status + 1 :] = times[status]
            states[status + 1 :] = states[status]
            norm_err[status + 1 :] = norm_err[status]
        sample += groups
        step0 += nc

    return times, states, norm_err, status

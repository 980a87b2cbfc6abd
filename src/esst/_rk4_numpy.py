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
  step i+1, so no time is evaluated twice.  The hands of one pulse set
  differ only in the sign of the a-type couplings, so a chunk's envelopes,
  drive phasors and channel fields are evaluated once for all of them;
  each hand then multiplies them into its own edge values.
* No cos or sin is taken at those times.  Each edge value is
  Omega(t) exp(i dE t), and each pulse field is envelope times
  cos(w t + phi).  The grid is uniform, so every such phasor is a base
  phasor times an entry of a fixed table exp(i w j dt), j = 0..chunk.  The
  table has one row per carrier and one per edge gap; it is built once per
  grid and kept, read-only, for the next build with the same grid.  The
  base phasors are computed once per chunk, at the chunk's first start and
  first midpoint, from arguments reduced mod 2 pi in exact integer
  arithmetic.  The carrier phase and the -i of the generator are
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
  blocks.  Each level writes its products into the K2/K3 buffers (free
  once M is summed): one broadcast multiply for m = 0, then a multiply and
  an add for each further m, so every entry adds its terms in ascending m.
* Per sample only the matrix-vector product is computed, by
  ``ndarray.dot``: the same BLAS ``zgemv`` as ``np.matmul``, so the same
  bits, at half the call overhead.  Sample times,
  the norms and |norm - 1| are taken once per run, over whole arrays; the
  norms by ``np.vecdot``, which calls the same BLAS ``zdotc`` as a
  per-sample ``np.vdot`` and so gives its bits.  The kernel judges no run:
  ``propagator.propagate`` holds the guards.
* Everything up to the per-sample propagators depends on the chunk's
  first step, never on the state.  One build, the runs of the hands of a
  pulse set, is therefore cut into contiguous ranges of whole chunks, and
  a pool of forked worker processes builds each range for every hand in
  one task.  There is one range per CPU in the process's affinity mask,
  more only where a range's result would pass ``_RANGE_BYTES``, and never
  more than there are chunks.  Each worker builds the phasor table rather
  than receive it, and keeps it for its next range: the ranges and hands
  of a build share one grid.  Each thread also keeps its chunk buffers
  for the next build of the same shape, about 3.5 MB at three levels and
  5.8 MB at four, so a warm range pays no set-up but the drive's exact
  arguments.  Chunk boundaries and the table's size are those of a serial
  run, so every chunk does the same arithmetic and the result is the same
  to the bit.  The sample loop stays in the calling process and runs in
  order.  On one CPU, for a one-chunk run or without ``fork``, the caller
  builds every chunk itself.  A build's arguments and the caller's numpy
  error state are pickled once and sent, as bytes, with each range.  A
  worker hands back only a clean range: one whose arithmetic would warn
  or raise in the caller comes back marked, and the caller builds it
  again, hand by hand, as a lone run would, so that it warns or raises
  there from the lines that computed it.
* The pool is driven by the calling thread alone; it starts no thread.
  Each worker has its own task pipe and result pipe.  The caller writes
  a range's task to the least loaded worker, with at most ``_DEPTH`` in
  flight per worker, and holds the other ranges itself, so a dropped
  build's unsent ranges never run.  Whenever it submits or waits, it
  reads every result that is ready and sends the next ranges.  On Linux
  a result pipe holds two capped results, so a worker seldom waits on an
  unread one.  A worker ignores Ctrl-C, which is the caller's, and exits when
  its task pipe ends: when the caller closes it at exit, or dies.  A
  worker that dies fails the runs waiting on the pool with a
  :class:`PoolError` that names it, and the next build forks a new pool.
* :func:`submit` starts a pulse set's build without waiting for it; the
  caller owns the :class:`_Build` and drops it once no run will read it.
  ``rk4_run(..., build=b.take(k))`` samples hand k, so a caller can hand
  the workers the next pulse set early (``propagator.ahead``).

None of this uses a batched ``np.matmul``, which hands each tiny matrix to
BLAS separately and costs several times the arithmetic.  The numerical
result is RK4 exactly: the arithmetic per step matches the loop form, only
reassociated across steps at the matrix level, and the drive differs from
direct cos/sin only in round-off.
"""
from __future__ import annotations

import atexit
import math
import os
import pickle
import select
import signal
import threading
import warnings
from collections import deque

import numpy as np

from .pulses import SQRT_2_OVER_PI, _dyadic_sum, _two_pi_scaled
from .pulses import _TWO_PI_DENOMINATOR, _TWO_PI_NUMERATOR


#: Steps per chunk, the unit of work of one Hamiltonian batch.
CHUNK_STEPS = 4096


def _exact_arguments(freqs, t0, shifts, phases, dt):
    """Drive arguments w (t0 - shift + s dt/2) + phase, exact in integers.

    Every float is a dyadic rational, so row r's argument at half-step s is
    (start[r] + s * half[r]) / scale with integer start and half and a
    power-of-two scale, above every argument's denominator in lowest
    terms.  ``period`` is 2 pi * scale to the nearest integer, so
    ``(start + s * half) % period`` reduces the argument exactly (up to
    the 100 digits of 2 pi) however far the run is from t = 0.
    """
    start = [
        _lowest_terms(*_dyadic_sum(((w, t0), (-w, shift), (phase, 1.0))))
        for w, shift, phase in zip(freqs, shifts, phases)
    ]
    half = [_lowest_terms(n, e + 1) for n, e in (_dyadic_sum(((w, dt),)) for w in freqs)]
    bits = max(128, *(e + 1 for _, e in start + half))
    return (
        [n << (bits - e) for n, e in start], [n << (bits - e) for n, e in half],
        (_two_pi_scaled(bits + 1) + 1) >> 1, 1 << bits,  # 2 pi * scale, never a tie
    )


def _lowest_terms(n, e):
    """n / 2**e as (n', e') with the common factors of two cancelled."""
    twos = min(e, (n & -n).bit_length() - 1) if n else e
    return n >> twos, e - twos


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


def _split(n, d, bits):
    """n / d as hi + lo: hi rounded half to even to ``bits`` significant
    bits, lo the exact rest rounded once."""
    if not n:
        return 0.0, 0.0
    shift = bits - math.frexp(n / d)[1]
    num, den = n << max(shift, 0), d << max(-shift, 0)  # n / d * 2**shift
    q, r = divmod(num, den)
    q += 2 * r > den or (2 * r == den and q & 1)
    rest = (num - q * den) << max(-shift, 0)
    return math.ldexp(q, -shift), rest / (den << max(shift, 0))


def _phasor_table(freqs, dt, size):
    """exp(i w j dt) for j = 0..size-1, one row per frequency w.

    The argument j w dt is reduced mod 2 pi without rounding error:
    w dt = hi + lo with hi short enough that j hi is exact, and
    2 pi = c1 + c2 with c1 short enough that k c1 is exact for every
    multiple k taken off.  Entries are then good to a few ulp at any j,
    where the plain product j * (w * dt) would carry j ulps of w dt.
    """
    j = np.arange(size, dtype=np.float64)
    steps = [_dyadic_sum(((w, dt),)) for w in freqs]
    hi, lo = np.array([_split(n, 1 << e, 53 - (size - 1).bit_length()) for n, e in steps]).T
    x = hi[:, None] * j
    k = np.rint(x / (2.0 * math.pi))
    c1, c2 = _split(
        _TWO_PI_NUMERATOR, _TWO_PI_DENOMINATOR,
        53 - int(np.abs(k).max(initial=0)).bit_length(),
    )
    r = x - k * c1
    r += lo[:, None] * j - k * c2
    table = np.empty(r.shape, dtype=np.complex128)
    np.cos(r, out=table.real)
    np.sin(r, out=table.imag)
    return table


def _hamiltonian_batch(ts, bases, table, pchan, amp, tc, tau, buffers):
    """The channel fields and the edge gaps' drive phasors at each time of ``ts``.

    ``ts`` holds a chunk's nc + 1 step starts, then its nc midpoints.  Rows
    of ``bases`` and ``table`` are the pulse carriers, then the edge gaps;
    the drive phasor of row r is bases[r, 0] * table[r, j] at start j and
    bases[r, 1] * table[r, j] at midpoint j.  Carrier phases and the -i of
    the generator are folded into ``bases``.

    ``buffers`` is the scratch (phasor, fields, work, drives): one complex
    drive row, the three channel fields, one real row and one complex row
    per edge, each at least len(ts) long.  Returns the fields, shape
    (3, len(ts)), and the gaps' phasors, shape (n_edges, len(ts)), views
    into ``fields`` and ``drives``.  Nothing here depends on the hand:
    :func:`_edge_values` makes each hand's generator entries from them.
    """
    phasor, fields, work, drives = buffers
    n_t = ts.shape[0]
    nc = n_t // 2

    def rotate(r, out):
        """The drive phasor of row r at every time, in ``out``."""
        np.multiply(bases[r, 0], table[r, : nc + 1], out=out[: nc + 1])
        np.multiply(bases[r, 1], table[r, :nc], out=out[nc + 1 :])
        return out

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
        w *= rotate(p, phasor[:n_t]).real
        field[pchan[p]] += w

    gaps = drives[:, :n_t]
    for e in range(gaps.shape[0]):
        rotate(n_pulses + e, gaps[e])
    return field, gaps


def _edge_values(fields, drives, echan, prefactor, work, values):
    """One hand's generator entries -i H[rows[e], cols[e]] at every time.

    Edge e's value is its channel's field times ``prefactor[e]``, times its
    gap's drive phasor, from :func:`_hamiltonian_batch`.  Returns a view
    into ``values``.  H is Hermitian with a zero diagonal, so these values
    define it: the generator's transposed entry is the negated conjugate.
    """
    n_t = drives.shape[1]
    w = work[:n_t]
    out = values[:, :n_t]
    for e in range(echan.shape[0]):
        np.multiply(fields[echan[e]], prefactor[e], out=w)
        np.multiply(drives[e].real, w, out=out[e].real)
        np.multiply(drives[e].imag, w, out=out[e].imag)
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

    ``scratch`` is a flat buffer of at least 2 n**2 groups k elements: a
    round's terms, the products of a round with a tail, and two round
    results, which the rounds take in turn.  Each entry is the sum
    ((+0 + t0) + t1) + ... of its terms t_m = left[i, m] right[m, j], in
    ascending m from numpy's additive identity, as ``np.sum`` adds them:
    :func:`_sum_products` over m, then +0.0 added to the result.  That last
    add turns a -0, which no sum from +0 gives, into +0 and leaves every
    other value as it is.
    """
    n, _, groups, k = mats.shape
    if k == 1:
        return mats[..., 0]
    size = n * n * groups
    room = size * (k // 2)  # one round's products
    slot = size * -(-k // 2)  # one round's result, its tail included
    turn = 0
    while k > 1:
        half, odd = k // 2, k % 2
        left, right = mats[..., 1 : 2 * half : 2], mats[..., 0 : 2 * half : 2]
        start = 2 * room + turn * slot
        result = scratch[start : start + size * (half + odd)]
        product = (scratch[room : room + size * half] if odd else result).reshape(left.shape)
        term = scratch[: size * half].reshape(left.shape)
        _sum_products([(left[:, m, None], right[None, m]) for m in range(n)], product, term)
        body = result.reshape(n, n, groups, half + odd)
        if odd:
            body[..., :half] = product
            body[..., half] = mats[..., -1]
        mats, k, turn = body, half + odd, 1 - turn
    mats += 0.0
    return mats[..., 0]


_KEPT = threading.local()

#: A build's ufunc buffer, in elements.  numpy's 8,192 gives the composition's
#: broadcast products fresh buffers of up to 0.2 MB a call; 16 gives none.
_BUFSIZE = 16


def _scratch(n, n_edges, longest):
    """This thread's buffers for chunks of up to ``longest`` steps.

    Kept until a build of another shape asks, so a warm build allocates
    no scratch.  Each thread keeps its own: a worker keeps one set, and a
    calling thread keeps one once it has built a run itself.
    """
    key = (n, n_edges, longest)
    kept = getattr(_KEPT, "scratch", None)
    if kept is None or kept[0] != key:
        _KEPT.scratch = None  # free the old set before the new one is made
        n_times = 2 * longest + 1
        hamiltonian = (
            np.empty(n_times, dtype=np.complex128),
            np.empty((3, n_times)),
            np.empty(n_times),
            np.empty((n_edges, n_times), dtype=np.complex128),  # gap phasors
        )
        kept = _KEPT.scratch = (key, (
            hamiltonian,
            np.empty((n_edges, n_times), dtype=np.complex128),  # -i H of a hand
            np.empty((n_edges, n_times), dtype=np.complex128),  # -i conj(H)
            np.empty((n, n, longest), dtype=np.complex128),  # M
            # K2 (then K4) and K3; free again once M is summed, when they
            # hold the composition's products, 2 n**2 longest elements
            np.empty((2, n, n, longest), dtype=np.complex128),
            np.empty((n, longest), dtype=np.complex128),
            np.arange(longest + 1.0), np.empty(n_times),  # step offsets, half-step times
        ))
    return kept[1]


def _table(freqs, dt, size):
    """:func:`_phasor_table`, read-only, kept for the next call of this
    thread with the same frequencies, step and size.

    One entry is enough: the hands and ranges of a run share its grid, and
    a worker takes a pipelined sweep's ranges in order, one point after the
    other.
    """
    key = (freqs.tobytes(), dt, size)
    kept = getattr(_KEPT, "table", None)
    if kept is None or kept[0] != key:
        table = _phasor_table(freqs, dt, size)
        table.flags.writeable = False
        kept = _KEPT.table = (key, table)
    return kept[1]


def _shared_propagators(kernel_args, prefactors, first_step, end_step, chunk):
    """Per-sample propagators of each hand over the chunks in [first_step, end_step).

    ``kernel_args`` are :func:`rk4_run`'s positional arguments; the hands
    differ from them only in ``prefactors``, one per hand.  ``chunk`` is
    the chunk length in steps, a multiple of the stride, and
    ``first_step`` starts a chunk.  Each chunk's drive and fields are
    evaluated once, then each hand does the operations of a one-hand build.

    Returns one array per hand, shape (samples, n, n), entry s taking
    sample s to sample s + 1 of the range.  Nothing here depends on the
    state, so ranges can be built in any order and process.  The phasor
    table has the size a run of that chunk length would give it, whichever
    range asks, so every chunk does the same arithmetic.
    """
    (
        t0, dt, n_steps, stride,
        energies, rows, cols, echan, _,
        pchan, amp, tc, tau, wcar, ph, conv,
        psi0,
    ) = kernel_args
    n = psi0.shape[0]
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
    table = _table(freqs, dt, longest + 1)
    buffers, values, flipped, m_buf, stages, tmp, offsets, times = _scratch(n, len(rows), longest)
    entries = _generator_rows(rows, cols, n)
    k24, k3 = stages[0], stages[1]
    samples = (end_step - first_step) // stride
    hands = [np.empty((samples, n, n), dtype=np.complex128) for _ in prefactors]

    for step0 in range(first_step, end_step, chunk):
        nc = min(chunk, end_step - step0)
        ts = times[: 2 * nc + 1]  # t0 + (step0 + j) dt, then the midpoints
        starts = np.add(offsets[: nc + 1], step0, out=ts[: nc + 1])
        starts *= dt
        starts += t0
        np.add(starts[:-1], 0.5 * dt, out=ts[nc + 1 :])
        bases = _base_phasors(exact, step0)
        bases[n_pulses:] *= -1j  # the generator is -i H
        fields, drives = _hamiltonian_batch(ts, bases, table, pchan, amp, tc, tau, buffers)
        for props, prefactor in zip(hands, prefactors):
            upper = _edge_values(fields, drives, echan, prefactor, buffers[2], values)
            # -i conj(H), the transposed entries
            mirrored = flipped[:, : upper.shape[1]]
            np.negative(upper.real, out=mirrored.real)
            np.copyto(mirrored.imag, upper.imag)
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
            first = (step0 - first_step) // stride
            props[first : first + groups] = np.moveaxis(
                _compose_ordered(step_mats.reshape(n, n, groups, stride), stages.reshape(-1)),
                -1, 0,
            )
    return hands


def _propagators(kernel_args, first, end, chunk):
    """One hand's :func:`_shared_propagators`, built in this thread under
    its numpy error state and warning filters: its propagators, shape
    (samples, n, n)."""
    with np.errstate():  # which restores the buffer size on exit
        np.setbufsize(_BUFSIZE)
        (props,) = _shared_propagators(kernel_args, (kernel_args[8],), first, end, chunk)
    return props


def _range_propagators(blob, bounds):
    """One range's :func:`_shared_propagators`, or None if it warned or failed.

    ``blob`` is the build's (kernel_args, prefactors, chunk, error state),
    pickled once by :func:`submit` for all of its ranges.  Every floating
    point error that the caller's state does not ignore raises here, and so
    does every warning, so that only a range the caller would build without
    a word comes back.
    """
    kernel_args, prefactors, chunk, err = pickle.loads(blob)
    raised = {kind: "ignore" if how == "ignore" else "raise" for kind, how in err.items()}
    try:
        with np.errstate(**raised), warnings.catch_warnings():
            np.setbufsize(_BUFSIZE)
            warnings.simplefilter("error")
            return _shared_propagators(kernel_args, prefactors, *bounds, chunk)
    except Exception:  # the caller builds it again, and raises it there
        return None


def _worker_count() -> int:
    """Usable CPUs: those in the process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


#: Ranges sent to a worker and not yet read back: one to build and one
#: waiting in its task pipe.  The caller holds the rest.
_DEPTH = 2


class PoolError(RuntimeError):
    """A worker process of the kernel's pool died, so the run that waits
    on it cannot be finished."""


class _Task:
    """One range of a build: its job until sent, then its result once
    read: :func:`_range_propagators`' propagators of every hand, None for
    a range that warned or failed, or the PoolError that stopped it."""

    __slots__ = ("blob", "bounds", "done", "dropped", "result")

    def __init__(self, blob, bounds):
        self.blob, self.bounds = blob, bounds
        self.done = self.dropped = False
        self.result = None


def _read(fd, size):
    """``size`` bytes from ``fd``, or None if it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    while view:
        got = os.readv(fd, [view])
        if not got:
            return None
        view = view[got:]
    return data


def _write(fd, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(tasks, results) -> None:
    """A worker's loop: build each range read from ``tasks`` and write its
    result to ``results``, until ``tasks`` ends.

    A task is its blob's length and the range's bounds, 8 bytes each, then
    the blob; a result is its length, 8 bytes, then its pickle.
    """
    while (head := _read(tasks, 24)) is not None:
        size, first, end = (int.from_bytes(head[i : i + 8], "little") for i in (0, 8, 16))
        blob = _read(tasks, size)
        if blob is None:
            return
        data = pickle.dumps(_range_propagators(blob, (first, end)), pickle.HIGHEST_PROTOCOL)
        _write(results, len(data).to_bytes(8, "little"))
        _write(results, data)


class _Worker:
    """A forked worker process: its pid, this process's ends of its task
    and result pipes, and the tasks sent to it and not yet read back, in
    the order it builds them."""

    def __init__(self):
        import fcntl

        task_r, self.tasks = os.pipe()
        self.results, result_w = os.pipe()
        try:  # room for a whole result, so the worker goes on to its next range
            fcntl.fcntl(result_w, fcntl.F_SETPIPE_SZ, 2 * _RANGE_BYTES)
        except (AttributeError, OSError):  # not Linux, or over the user's pipe quota
            pass
        self.sent = deque()
        try:
            self.pid = os.fork()
        except BaseException:  # EAGAIN or ENOMEM: no worker, so no pipes
            for fd in (task_r, self.tasks, self.results, result_w):
                os.close(fd)
            raise
        if self.pid == 0:  # the at-fork hook has closed the other workers' pipes
            code = 1
            try:
                os.close(self.tasks)
                os.close(self.results)
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's
                _serve(task_r, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)

    def send(self, task) -> None:
        self.sent.append(task)  # first, so that a failed write fails the task too
        head = b"".join(x.to_bytes(8, "little") for x in (len(task.blob), *task.bounds))
        _write(self.tasks, head + task.blob)

    def receive(self):
        """The next result, unpickled unless its task was dropped."""
        head = _read(self.results, 8)
        data = head and _read(self.results, int.from_bytes(head, "little"))
        if data is None:
            raise self.died()
        task = self.sent.popleft()
        task.done = True
        if not task.dropped:
            task.result = pickle.loads(data)

    def died(self) -> PoolError:
        """The error for this worker, whose pipe has closed; reaps it."""
        try:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except ChildProcessError:  # reaped elsewhere
            how = "ended"
        else:  # a real-time signal has no name of its own
            name = next((s.name for s in signal.Signals if s == -code), f"signal {-code}")
            how = f"was killed by {name}" if code < 0 else f"exited with status {code}"
        return PoolError(f"kernel worker process {self.pid} {how} before its range was built")


class _Pool:
    """The forked workers that build chunk ranges, driven by the calling
    thread: it writes each task to a worker's pipe and reads each result
    itself, and no thread serves the pool.  Every method runs under
    ``_LOCK``."""

    def __init__(self):
        self.workers = []
        self.unsent = deque()  # tasks held back until a worker has room

    def serve(self, task=None) -> None:
        """Read every result that is ready, then send unsent tasks to the
        least loaded workers; with ``task``, go on, waiting for results,
        until it is done.

        A worker found dead shuts the pool down, and every task not done
        fails with the PoolError that names it, raised in its run's turn;
        an interrupt shuts the pool down too.
        """
        try:
            timeout = 0
            while True:
                busy = {worker.results: worker for worker in self.workers if worker.sent}
                ready = select.poll()  # select() fails on an fd of 1024 or more
                for fd in busy:  # POLLHUP or POLLERR, a dead worker, is ready too
                    ready.register(fd, select.POLLIN)
                for fd, _ in ready.poll(timeout) if busy else ():
                    busy[fd].receive()
                self._send()
                if task is None or task.done:
                    return
                timeout = None
        except PoolError as exc:
            _shutdown(exc)
        except BaseException:
            _shutdown()
            raise

    def _send(self) -> None:
        while self.unsent:
            worker = min(self.workers, key=lambda w: len(w.sent))
            if len(worker.sent) >= _DEPTH:
                return
            task = self.unsent.popleft()
            if task.dropped:
                task.done = True  # never sent
                continue
            try:
                worker.send(task)
            except BrokenPipeError:
                raise worker.died() from None

    def close(self, error) -> None:
        """Close every pipe, so that each worker exits once its range is
        built, and reap the workers; each task not done fails with ``error``."""
        for worker in self.workers:
            os.close(worker.tasks)
            os.close(worker.results)
        for worker in self.workers:
            try:
                os.waitpid(worker.pid, 0)
            except ChildProcessError:  # reaped already
                pass
            for task in worker.sent:
                task.done, task.result = True, error
        for task in self.unsent:
            task.done, task.result = True, error


_POOL = None
_LOCK = threading.RLock()


def _pool() -> _Pool:
    """The pool, forked on first use with one worker per usable CPU.

    Its workers start with this module loaded and cost no import.  esst
    starts no thread of its own, so the fork copies no lock held by
    another esst thread.
    """
    global _POOL
    with _LOCK:
        if _POOL is None:
            _POOL = _Pool()
            try:
                for _ in range(_worker_count()):
                    _POOL.workers.append(_Worker())
            except BaseException:  # no fork: keep no part of a pool
                _shutdown()
                raise
        return _POOL


def _shutdown(error=None) -> None:
    """Stop the pool's workers and wait for them; a later run forks anew.
    A task not yet done fails with ``error``, by default a PoolError."""
    global _POOL
    with _LOCK:
        pool, _POOL = _POOL, None
        if pool is not None:
            pool.close(error or PoolError("the kernel's worker pool was shut down"))


def _leave_pool() -> None:
    # A forked child, a worker or any other, must not hold the parent's
    # pipe ends: a worker sees its caller go only when its task pipe ends.
    # The child's copy of the lock may be held by a thread it does not have.
    global _POOL, _LOCK
    for worker in _POOL.workers if _POOL is not None else ():
        os.close(worker.tasks)
        os.close(worker.results)
    _POOL, _LOCK = None, threading.RLock()


# Reap the workers at exit, so that no process outlives the caller.
atexit.register(_shutdown)
if hasattr(os, "fork"):
    os.register_at_fork(after_in_child=_leave_pool)


def _chunk_ranges(n_steps, chunk, parts):
    """[first, end) step bounds of ``parts`` runs of whole chunks."""
    n_chunks = -(-n_steps // chunk)
    bounds = [min(n_steps, i * n_chunks // parts * chunk) for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _chunk_length(stride):
    """Steps per chunk: :data:`CHUNK_STEPS` cut down to a stride multiple."""
    return max(stride, (CHUNK_STEPS // stride) * stride)


#: Largest propagator result, all hands together, that one range returns:
#: a one-hand range of the 4-level default design on two CPUs, so a shared
#: build adds no larger message than a lone run's for the caller to hold.
_RANGE_BYTES = 1 << 19


class _Build:
    """The range tasks, in order, of one pool build of the hands ``runs``
    of a pulse set, in chunks of ``chunk`` steps."""

    def __init__(self, tasks, runs, chunk):
        self.tasks, self.runs, self.chunk = tasks, runs, chunk

    def take(self, hand):
        """Hand ``hand``'s propagators of each range, in order, each freed
        from the range's result as it is taken.  A range that warned or
        failed on the pool is built again here, for this hand alone, so
        that it warns or raises as in a lone run."""
        for task in self.tasks:
            with _LOCK:
                if _POOL is not None:  # a task not done is the pool's
                    _POOL.serve(task)
            hands = task.result
            if isinstance(hands, PoolError):
                raise hands
            if hands is None:
                mine = _propagators(self.runs[hand], *task.bounds, self.chunk)
            else:
                mine, hands[hand] = hands[hand], None
            yield mine

    def drop(self):
        """Drop every task: never sent, or read but not unpickled."""
        for task in self.tasks:
            task.dropped = True


def submit(runs):
    """Start one build of ``rk4_run(*args)`` for every ``args`` of ``runs``.

    ``runs`` are the hands of one pulse set: their arguments differ only
    in ``prefactor``.  Each range is built on the pool under the caller's
    numpy error state.  Returns the :class:`_Build`, which the caller
    drops once no run will read it, or None where the caller builds each
    run itself: one usable CPU, one chunk or no ``fork``.
    """
    kernel_args = runs[0]
    n_steps, stride, psi0 = kernel_args[2], kernel_args[3], kernel_args[16]
    chunk = _chunk_length(stride)
    n_chunks = -(-n_steps // chunk)
    workers = _worker_count()
    if workers < 2 or n_chunks < 2 or not hasattr(os, "fork"):
        return None
    result = len(runs) * (n_steps // stride) * psi0.shape[0] ** 2 * 16  # complex128
    parts = min(n_chunks, max(workers, -(-result // _RANGE_BYTES)))
    prefactors = tuple(args[8] for args in runs)
    # Pickled here once, so that each range is sent the same bytes.
    blob = pickle.dumps((kernel_args, prefactors, chunk, np.geterr()), pickle.HIGHEST_PROTOCOL)
    tasks = [_Task(blob, bounds) for bounds in _chunk_ranges(n_steps, chunk, parts)]
    with _LOCK:
        pool = _pool()
        pool.unsent.extend(tasks)
        pool.serve()
    return _Build(tasks, runs, chunk)


def rk4_run(
    t0, dt, n_steps, stride,
    energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv,
    psi0,
    *,
    build=None,
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

    Returns ``(times, states, norm_err)``, sampled every ``stride`` steps
    (``n_steps`` must be a multiple of ``stride``) and at ``t0``;
    ``norm_err`` is |<psi|psi> - 1|.  Every step is taken, and a state
    that goes non-finite stays so for the caller to judge.

    A run of several chunks is cut into ranges of whole chunks, and the
    ranges' propagators are built on the forked process pool; the samples
    are then taken here, in order.  With one CPU, one chunk or no
    ``fork``, this process builds them all.  ``build``, this run's
    ``take(k)`` of a build submitted under the same numpy error state, is
    read instead of submitting the run again.
    """
    kernel_args = (
        t0, dt, n_steps, stride,
        energies, rows, cols, echan, prefactor,
        pchan, amp, tc, tau, wcar, ph, conv,
        psi0,
    )
    n = psi0.shape[0]
    n_samples = n_steps // stride + 1

    times = np.empty(n_samples)
    states = np.empty((n_samples, n), dtype=np.complex128)
    norm_err = np.empty(n_samples)

    psi = psi0.astype(np.complex128).copy()
    times[0] = t0
    times[1:] = t0 + (np.arange(1, n_samples) * stride) * dt
    states[0] = psi

    own = None if build is not None else submit([kernel_args])
    if own is not None:
        build = own.take(0)
    elif build is None:
        build = [_propagators(kernel_args, 0, n_steps, _chunk_length(stride))]
    try:
        sample = 1  # the next sample to take
        for props in build:
            for p, row in zip(props, states[sample:]):
                psi = p.dot(psi, out=row)
            sample += len(props)
    finally:
        if own is not None:
            own.drop()
    # The norms raise and warn nothing of their own: vecdot, a gufunc,
    # would flag a finite state whose |psi|^2 overflows.
    with np.errstate(all="ignore"):
        norm_err[:] = np.vecdot(states, states).real
    np.abs(np.subtract(norm_err, 1.0, out=norm_err), out=norm_err)
    return times, states, norm_err

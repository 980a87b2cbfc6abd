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
* Everything up to the per-sample propagators depends on the chunk's
  first step, never on the state.  A run of several chunks is therefore
  cut into one contiguous range of whole chunks per CPU in the process's
  affinity mask, and a pool of forked worker processes builds the ranges'
  propagators.  Each worker rebuilds the phasor table (about 2 ms) rather
  than receive it.  Chunk boundaries and the table's size are those of a
  serial run, so every chunk does the same arithmetic and the result is
  the same to the bit.  The sample loop and the non-finite scan stay in
  the calling process and run in order.  On one CPU, for a one-chunk run
  or without ``fork``, the caller builds every chunk itself.  Each range
  carries the caller's numpy error state, and its warnings come back to be
  raised in the caller.  The workers leave Ctrl-C to the caller, exit when
  it dies and are shut down at interpreter exit.
* :func:`submit` starts a run's build without waiting for it, and
  ``rk4_run(..., build=...)`` samples it, so a caller with several runs can
  keep the workers busy with the next one (``propagator.ahead``).

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
import signal
import threading
import time
import warnings
from functools import partial

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


def _propagators(kernel_args, first_step, end_step, chunk):
    """Per-sample propagators of the chunks in steps [first_step, end_step).

    ``kernel_args`` are :func:`rk4_run`'s positional arguments; ``chunk``
    is its chunk length in steps, a multiple of the stride, and
    ``first_step`` starts a chunk.  Returns shape (samples, n, n): entry s
    takes the state at sample s to sample s + 1 of the range.  Nothing here
    depends on the state, so ranges can be built in any order and process.
    The phasor table has the size a run of that chunk length would give it,
    whichever range asks, so every chunk does the same arithmetic.
    """
    (
        t0, dt, n_steps, stride,
        energies, rows, cols, echan, prefactor,
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
    out = np.empty(((end_step - first_step) // stride, n, n), dtype=np.complex128)

    for step0 in range(first_step, end_step, chunk):
        nc = min(chunk, end_step - step0)
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
        first = (step0 - first_step) // stride
        out[first : first + groups] = np.moveaxis(
            _compose_ordered(step_mats.reshape(n, n, groups, stride), stages.reshape(-1)),
            -1, 0,
        )
    return out


def _range_propagators(kernel_args, chunk, err, bounds):
    """One range's :func:`_propagators`, built under the caller's error state.

    Also returns the (category, message) of every warning the range raised,
    for the caller to raise again under its own filters.
    """
    with np.errstate(**err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        props = _propagators(kernel_args, *bounds, chunk)
    return props, [(w.category, str(w.message)) for w in caught]


def _worker_count() -> int:
    """Usable CPUs: those in the process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """The process pool that builds chunk ranges, created on first use.

    Its workers are forked, so they start with this module loaded and cost
    no import.  esst starts no thread of its own, so the fork copies no
    lock held by another esst thread.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            _POOL = ProcessPoolExecutor(
                _worker_count(), mp_context=multiprocessing.get_context("fork"),
                initializer=_worker_start, initargs=(os.getpid(),),
            )
        return _POOL


def _worker_start(parent: int) -> None:
    """Leave Ctrl-C to the caller, and exit once the caller is gone.

    A caller killed outright never shuts the pool down, and its workers
    would wait for work forever.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def _shutdown() -> None:
    """Stop the pool's workers and wait for them; a later run starts anew."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


def _forget_pool() -> None:
    # A forked child shares the parent's pool handle but not its workers,
    # and its copy of the lock may be held by a thread it does not have.
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


# Shut the pool down before interpreter teardown, which otherwise reports
# errors from the pool's own clean-up.
atexit.register(_shutdown)
if hasattr(os, "fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _chunk_ranges(n_steps, chunk, parts):
    """[first, end) step bounds of ``parts`` runs of whole chunks."""
    n_chunks = -(-n_steps // chunk)
    bounds = [min(n_steps, i * n_chunks // parts * chunk) for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _collect(futures):
    """Each range's result, in order.

    The ranges not yet taken are cancelled once the caller stops.
    """
    try:
        for future in futures:
            yield future.result()
    finally:
        for future in futures:
            future.cancel()


def _chunk_length(stride, chunk_steps):
    """Steps per chunk: ``chunk_steps`` cut down to a stride multiple."""
    return max(stride, (int(chunk_steps) // stride) * stride)


def submit(kernel_args, chunk_steps: int = CHUNK_STEPS):
    """Start the build of ``rk4_run(*kernel_args)`` on the pool.

    Returns its range futures, in order, built under the caller's numpy
    error state, for ``rk4_run``'s ``build``.  None where the caller builds
    the run itself: one usable CPU, one chunk or no ``fork``.  A build that
    is not passed on is dropped by cancelling its futures.
    """
    n_steps = kernel_args[2]
    chunk = _chunk_length(kernel_args[3], chunk_steps)
    parts = min(_worker_count(), -(-n_steps // chunk))
    if parts < 2 or not hasattr(os, "fork"):
        return None
    job = partial(_range_propagators, kernel_args, chunk, np.geterr())
    pool = _pool()
    return [pool.submit(job, bounds) for bounds in _chunk_ranges(n_steps, chunk, parts)]


def rk4_run(
    t0, dt, n_steps, stride,
    energies, rows, cols, echan, prefactor,
    pchan, amp, tc, tau, wcar, ph, conv,
    psi0,
    chunk_steps: int = CHUNK_STEPS,
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

    Returns ``(times, states, norm_err, status)``, sampled every ``stride``
    steps (``n_steps`` must be a multiple of ``stride``) and at ``t0``.
    ``status`` is the first sample whose norm is not finite, -1 if the run
    stayed clean; every later sample repeats that one.

    A run of several chunks is cut into one range of whole chunks per
    usable CPU, and the ranges' propagators are built on the forked
    process pool; the samples are then taken here, in order.  With one
    CPU, one chunk or no ``fork``, this process builds them all.
    ``build`` is what :func:`submit` returned for these same arguments,
    under the same numpy error state and ``chunk_steps``; it is taken as
    it is instead of submitting the run again.
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
    norm_err[0] = abs(float(np.vdot(psi, psi).real) - 1.0)

    chunk = _chunk_length(stride, chunk_steps)
    futures = submit(kernel_args, chunk_steps) if build is None else build
    if futures is None:
        results = [(_propagators(kernel_args, 0, n_steps, chunk), [])]
    else:
        results = _collect(futures)

    per_chunk = chunk // stride
    sample = 1  # the next sample to take
    for props, caught in results:
        for category, message in caught:
            warnings.warn(message, category)
        for first in range(0, len(props), per_chunk):
            block = props[first : first + per_chunk]
            for s, p in enumerate(block, sample):
                psi = np.matmul(p, psi, out=states[s])
                norm_err[s] = np.vdot(psi, psi).real
            err = norm_err[sample : sample + len(block)]
            np.abs(np.subtract(err, 1.0, out=err), out=err)
            bad = np.flatnonzero(~np.isfinite(err))
            if bad.size:
                status = sample + int(bad[0])
                times[status + 1 :] = times[status]
                states[status + 1 :] = states[status]
                norm_err[status + 1 :] = norm_err[status]
                return times, states, norm_err, status
            sample += len(block)
    return times, states, norm_err, -1

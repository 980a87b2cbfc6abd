"""The numpy kernel's phasor-table drive against exact and direct phases.

The kernel never evaluates cos or sin at the grid times.  It multiplies a
per-chunk base phasor, whose argument is reduced exactly, by a fixed table
exp(i w j dt).  These tests check those phasors against arguments reduced
exactly here, and the whole kernel against a direct cos/sin RK4.
"""
from __future__ import annotations

import errno
import hashlib
import math
import os
import resource
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from esst import PoolError, _rk4_numpy
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness
from esst.propagator import _run_args, default_grid
from esst.pulses import PhaseConvention
from helpers import (
    BOTH, L, designed_args, direct_rk4, drop_left_behind, queued_run, run_bytes, set_queued_run,
)

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
    args = designed_args(molecule, DesignSpec(target="C", tau0=0.3), 4, L)
    build = _rk4_numpy.submit([args])
    assert (build is None) == (_rk4_numpy._worker_count() < 2)
    taken = _rk4_numpy.rk4_run(*args, build=build and build.take(0))
    alone = _rk4_numpy.rk4_run(*args)
    for got, want in zip(taken, alone):
        assert got.tobytes() == want.tobytes()


def hand_args(molecule, levels, sample_stride=128, **design):
    """``designed_args`` of both hands of one designed pulse set."""
    spec = DesignSpec(target="C", **design)
    return [designed_args(molecule, spec, levels, hand, sample_stride) for hand in Handedness]


@pytest.mark.parametrize("convention", list(PhaseConvention))
@pytest.mark.parametrize("levels", [3, 4])
def test_each_hand_of_a_shared_build_has_its_lone_bytes(molecule, levels, convention):
    # Both hands share one build's drive and fields; each hand's run must
    # give the bytes of its lone run, which submits a one-hand build, and
    # free its part of every range result once it has sampled it.
    runs = hand_args(molecule, levels, tau0=0.5, convention=convention)
    assert runs[0][2] > 4096  # more than one chunk
    build = _rk4_numpy.submit(runs)
    assert (build is None) == (_rk4_numpy._worker_count() < 2)
    taken = [_rk4_numpy.rk4_run(*args, build=build and build.take(k)) for k, args in enumerate(runs)]
    for task in build.tasks if build else ():
        assert task.result == [None, None]
    for args, got in zip(runs, taken):
        assert run_bytes(got) == run_bytes(_rk4_numpy.rk4_run(*args))
    assert run_bytes(taken[0]) != run_bytes(taken[1])  # the hands differ


def test_a_capped_shared_build_has_the_lone_bytes(molecule, monkeypatch):
    # At stride 1 both hands' 4,338 propagators of 4 levels take 2.2 MB,
    # so the size cap cuts the 9 chunks of 512 steps into 5 ranges, more
    # than one per CPU; each hand still gives its lone run's bytes.
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    monkeypatch.setattr(_rk4_numpy, "CHUNK_STEPS", 512)
    runs = hand_args(molecule, 4, sample_stride=1, tau0=0.3)
    build = _rk4_numpy.submit(runs)
    assert len(build.tasks) == 5
    for k, args in enumerate(runs):
        taken = _rk4_numpy.rk4_run(*args, build=build.take(k))
        assert run_bytes(taken) == run_bytes(_rk4_numpy.rk4_run(*args))


def test_a_build_has_no_more_ranges_than_chunks(molecule, monkeypatch):
    # The size cap asks for 5 ranges of this 2-chunk, 4-level, two-hand
    # build at stride 1; the pool must get the 2 chunks, none empty.
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    runs = hand_args(molecule, 4, sample_stride=1, tau0=0.3)
    n_steps = runs[0][2]
    assert 4096 < n_steps < 8192
    build = _rk4_numpy.submit(runs)
    assert [task.bounds for task in build.tasks] == [(0, 4096), (4096, n_steps)]
    for k, args in enumerate(runs):
        assert run_bytes(_rk4_numpy.rk4_run(*args, build=build.take(k))) == run_bytes(_rk4_numpy.rk4_run(*args))


def test_a_build_is_cancelled_once_no_run_uses_it():
    # Tasks not yet sent: taking one hand's ranges must leave them to the
    # build, and dropping the build drops them; a pool with room for them
    # then sends neither.
    tasks = [_rk4_numpy._Task(b"", (0, 1)), _rk4_numpy._Task(b"", (1, 2))]
    build = _rk4_numpy._Build(tasks, runs=[], chunk=1)
    build.take(0)
    assert not any(task.dropped for task in tasks)
    build.drop()
    assert all(task.dropped for task in tasks)
    pool, sent = _rk4_numpy._Pool(), []
    pool.workers.append(SimpleNamespace(sent=sent, send=sent.append))
    pool.unsent.extend(tasks)
    pool.serve()
    assert sent == [] and not pool.unsent


def test_a_build_left_undropped_fails_the_test_that_left_it(molecule):
    # A build submitted while a run of it waits in the slot, neither taken
    # nor dropped: its ranges stay pending on the pool, which the autouse
    # fixture reports and drops, with the queued run.
    runs = hand_args(molecule, 3, tau0=1.0)
    build = _rk4_numpy.submit(runs)
    if build is None:
        pytest.skip("no pool with one usable CPU")
    set_queued_run(object())
    left = f"{len(build.tasks)} pending range task(s) of a build and a queued run"
    assert drop_left_behind() == left
    assert all(task.dropped for task in build.tasks) and queued_run() is None
    assert drop_left_behind() == ""


#: A real-time signal, which has no name of its own, kills as SIGKILL does.
REALTIME = int(signal.SIGRTMIN) + 6 if hasattr(signal, "SIGRTMIN") else None
NEEDS_REALTIME = pytest.mark.skipif(REALTIME is None, reason="no real-time signals")


@pytest.mark.parametrize("mid_run, signum, name", [
    pytest.param(False, signal.SIGKILL, "SIGKILL", id="between-runs"),
    pytest.param(True, signal.SIGKILL, "SIGKILL", id="mid-run"),
    pytest.param(False, REALTIME, f"signal {REALTIME}", id="between-runs-SIGRTMIN+6",
                 marks=NEEDS_REALTIME),
    pytest.param(True, REALTIME, f"signal {REALTIME}", id="mid-run-SIGRTMIN+6",
                 marks=NEEDS_REALTIME),
])
def test_a_killed_worker_fails_one_run_and_the_next_forks_anew(molecule, monkeypatch, mid_run, signum, name):
    # A worker killed, as by the out-of-memory killer, between two runs
    # (the next run finds its task pipe broken) or while it builds a range
    # (the run finds its result pipe closed): that run raises one error
    # that names the worker and the signal, and the next run forks a new
    # pool, reaps the old one and gives the first run's bytes.
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    args = designed_args(molecule, DesignSpec(target="C", tau0=0.5), 4, L)
    first = _rk4_numpy.rk4_run(*args)
    old = [worker.pid for worker in _rk4_numpy._pool().workers]
    build = None
    if mid_run:  # stopped, the worker cannot finish its range before it dies
        os.kill(old[0], signal.SIGSTOP)
        os.waitid(os.P_PID, old[0], os.WSTOPPED | os.WNOWAIT)
        build = _rk4_numpy.submit([args])
    os.kill(old[0], signum)
    os.kill(old[0], signal.SIGCONT)  # a stopped worker takes the signal once it goes on
    os.waitid(os.P_PID, old[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    with pytest.raises(PoolError, match=f"^kernel worker process {old[0]} was killed by {name} "):
        _rk4_numpy.rk4_run(*args, build=build and build.take(0))
    again = _rk4_numpy.rk4_run(*args)
    assert not {worker.pid for worker in _rk4_numpy._POOL.workers} & set(old)
    for pid in old:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # reaped
    assert run_bytes(again) == run_bytes(first)


def test_a_pool_with_pipes_above_fd_1024_gives_the_lone_bytes(
    molecule, monkeypatch, fresh_pool
):
    # select() cannot wait on an fd of 1024 or more.  A process that holds
    # that many files must still get a pooled run, with its lone bytes.
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
        pytest.skip("the soft open-file limit is too low to reach fd 1024")
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    args = designed_args(molecule, DesignSpec(target="C", tau0=0.5), 4, L)
    held = []  # the fresh pool forks past the files held
    try:
        while not held or held[-1] < 1024:
            held.append(os.open(os.devnull, os.O_RDONLY))
        pooled = _rk4_numpy.rk4_run(*args)
        assert min(worker.results for worker in _rk4_numpy._POOL.workers) > 1024
    finally:
        for fd in held:
            os.close(fd)
        _rk4_numpy._shutdown()
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 1)  # built in this process
    assert run_bytes(pooled) == run_bytes(_rk4_numpy.rk4_run(*args))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
def test_a_failed_fork_leaves_no_pool_and_no_open_pipe(monkeypatch, fresh_pool):
    # The second worker's fork fails, as it does with EAGAIN at the
    # process limit: the error reaches the caller, the first worker is
    # reaped, and neither worker's pipes stay open.
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    real, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    before = open_fds()
    monkeypatch.setattr(_rk4_numpy.os, "fork", fork)
    with pytest.raises(OSError) as raised:
        _rk4_numpy._pool()
    assert raised.value.errno == errno.EAGAIN and len(forks) == 2
    assert _rk4_numpy._POOL is None
    assert open_fds() == before


def test_the_norm_pass_raises_nothing_of_its_own(molecule):
    # Zero-amplitude pulses leave psi0 = 1e200 |A> finite and unchanged,
    # but |psi|^2 overflows.  The per-sample vdot never flagged that; the
    # one norm pass must not either, even where every error raises.
    args = list(designed_args(molecule, DesignSpec(target="C", tau0=3.0), 3, L))
    assert args[2] >= 2 * _rk4_numpy.CHUNK_STEPS
    args[10] = np.zeros_like(args[10])  # amp
    args[16] = 1e200 * args[16]  # psi0
    with np.errstate(all="raise"):
        _, states, norm_err = _rk4_numpy.rk4_run(*args)
    assert np.isfinite(states).all()
    want = np.array([abs(np.vdot(s, s).real - 1.0) for s in states])
    assert norm_err.tobytes() == want.tobytes()


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


def reference_compose(mats):
    """The pairwise product tree of ``_compose_ordered``, entry by entry.

    Each entry starts from +0 and adds left[i, m] right[m, j] for m = 0, 1,
    ... in turn; an odd tail is carried to the next round unmerged.
    """
    n = mats.shape[0]
    level = [mats[..., s] for s in range(mats.shape[-1])]
    while len(level) > 1:
        merged = []
        for right, left in zip(level[0::2], level[1::2]):
            product = np.zeros_like(left)
            for i in range(n):
                for j in range(n):
                    for m in range(n):
                        product[i, j] = product[i, j] + left[i, m] * right[m, j]
            merged.append(product)
        level = merged + level[len(merged) * 2 :]
    return level[0]


@pytest.mark.parametrize("stride", [1, 2, 3, 7, 128])
@pytest.mark.parametrize("n", [3, 4])
def test_composition_adds_in_ascending_m(n, stride):
    # Groups 0-7 are random, 8-15 random with half their parts -0, and
    # 16-31 zeros of random sign: the products must carry the reference's
    # bits, the sign of every zero included.
    rng = np.random.default_rng(n * 1000 + stride)
    shape = (n, n, 32, stride)
    mats = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for part in (mats.real, mats.imag):
        part[:, :, 8:16][rng.random((n, n, 8, stride)) < 0.5] = -0.0
        part[:, :, 16:] = np.where(rng.random((n, n, 16, stride)) < 0.5, -0.0, 0.0)
    scratch = np.empty(2 * mats.size, dtype=np.complex128)
    got = _rk4_numpy._compose_ordered(mats.copy(), scratch)
    assert got.shape == shape[:3]
    assert got.tobytes() == reference_compose(mats).tobytes()


def test_kept_phasor_table_is_a_fresh_one_and_read_only():
    freqs, dt = np.array([50.0, 31.7, -18.25]), 0.0011
    calls = [
        (freqs, dt, 4097), (freqs, dt * 1.001, 4097), (freqs[::-1].copy(), dt, 4097),
        (freqs, dt, 1001), (freqs, dt, 4097),
    ]
    for args in calls:
        table = _rk4_numpy._table(*args)
        assert table is _rk4_numpy._table(*args)  # kept for the next call
        assert table.tobytes() == _rk4_numpy._phasor_table(*args).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


WARM_BUILDS = """
import resource
from esst import _rk4_numpy
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness, get_preset
from esst.propagator import _run_args, default_grid
molecule = get_preset("cyclohexylmethanol")
pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=0.2))
grid = default_grid(molecule, pulses, 3)
_, [args] = _run_args(molecule, pulses, (Handedness.LEFT,), 3, grid)
who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
_rk4_numpy._propagators(args, 0, args[2], args[2])  # one chunk, on fresh scratch
before = resource.getrusage(who).ru_minflt
for _ in range(10):
    _rk4_numpy._propagators(args, 0, args[2], args[2])
faults = resource.getrusage(who).ru_minflt - before
"""


#: glibc settings under which every buffer of a page or more that a build
#: makes and frees faults in anew, wherever it sits in the heap: freed heap
#: pages at the top go back at once, and each such buffer gets its own mapping.
PINNED_MALLOC = {"MALLOC_TRIM_THRESHOLD_": "0", "MALLOC_MMAP_THRESHOLD_": "4096"}


@pytest.mark.parametrize("malloc", [None, PINNED_MALLOC], ids=["here", "pinned-malloc"])
def test_a_warm_build_takes_no_fresh_memory(malloc):
    # A build on fresh scratch faults in about 900 pages; ten warm builds
    # may fault in at most 50 pages in all, in this process and in a fresh
    # one under PINNED_MALLOC.
    if malloc is None:
        scope = {}
        exec(WARM_BUILDS, scope)
        faults = scope["faults"]
        assert np.getbufsize() == 8192  # numpy's default: a build sets its own
    else:
        proc = subprocess.run(
            [sys.executable, "-c", WARM_BUILDS + "print(faults)"],
            capture_output=True, text=True, timeout=120, env={**os.environ, **malloc},
        )
        assert proc.returncode == 0, proc.stderr
        faults = int(proc.stdout)
    assert faults <= 50


ALONE_RUN = """
import hashlib, sys
from esst import _rk4_numpy
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness, get_preset
from esst.propagator import _run_args, default_grid
molecule = get_preset("cyclohexylmethanol")
tau0, levels = float(sys.argv[1]), int(sys.argv[2])
pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=tau0))
grid = default_grid(molecule, pulses, levels)
_, [args] = _run_args(molecule, pulses, (Handedness.LEFT,), levels, grid)
for chunk in (args[2], _rk4_numpy.CHUNK_STEPS):  # one chunk, then the kernel's
    _rk4_numpy.CHUNK_STEPS = chunk
    run = _rk4_numpy.rk4_run(*args)
    print(hashlib.sha256(b"".join(a.tobytes() for a in run)).hexdigest())
"""


def run_digest(args):
    """sha256 of a run's times, states and norms."""
    run = _rk4_numpy.rk4_run(*args)
    return hashlib.sha256(b"".join(a.tobytes() for a in run)).hexdigest()


def test_kept_set_up_gives_the_bits_of_a_lone_run(molecule, monkeypatch):
    # A short run, a long one, four levels, then three on another grid,
    # each built in one chunk in this thread and then in the kernel's
    # chunks (on the pool with two or more CPUs): every run, made after the
    # others, must give the bits of the same run made first in a fresh
    # process.
    kernel_chunk = _rk4_numpy.CHUNK_STEPS
    for tau0, levels in ((0.2, 3), (1.5, 3), (1.5, 4), (2.25, 3)):
        pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=tau0))
        grid = default_grid(molecule, pulses, levels)
        _, [args] = _run_args(molecule, pulses, (L,), levels, grid)
        here = []
        for chunk_steps in (args[2], kernel_chunk):
            monkeypatch.setattr(_rk4_numpy, "CHUNK_STEPS", chunk_steps)
            here.append(run_digest(args))
        proc = subprocess.run(
            [sys.executable, "-c", ALONE_RUN, str(tau0), str(levels)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == here, (tau0, levels)


def test_threads_building_at_once_keep_their_own_scratch(molecule, monkeypatch):
    # Both hands' one-chunk runs have the same scratch shape.  Each thread
    # waits for the other once its Hamiltonian is in scratch, so the two
    # builds are under way at once; each must still give its lone run's bits.
    runs = [designed_args(molecule, DesignSpec(target="C", tau0=0.2), 3, hand) for hand in Handedness]
    monkeypatch.setattr(_rk4_numpy, "CHUNK_STEPS", runs[0][2])
    alone = [run_digest(args) for args in runs]
    barrier, real = threading.Barrier(len(runs), timeout=60), _rk4_numpy._sparse_stage

    def meet(*args):
        barrier.wait()
        return real(*args)

    monkeypatch.setattr(_rk4_numpy, "_sparse_stage", meet)
    got = [None] * len(runs)

    def build(k):
        got[k] = run_digest(runs[k])

    threads = [threading.Thread(target=build, args=(k,)) for k in range(len(runs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == alone


def test_threads_sharing_the_pool_each_get_their_own_bits(molecule, monkeypatch, fresh_pool):
    # Four threads on two workers submit and take multi-chunk builds at
    # once, switching often: every run must come back whole, with the
    # bits of its lone run, and the pool must be left with nothing in
    # flight.  A lost update to the pool's queues would hang or mix runs.
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)  # a fresh pool: no range in flight
    runs = [designed_args(molecule, DesignSpec(target="C", tau0=tau0), 3, L)
            for tau0 in (0.5, 0.75, 1.0, 1.25)]
    alone = [run_digest(args) for args in runs]
    got = [[] for _ in runs]

    def build(k):
        for _ in range(5):
            got[k].append(run_digest(runs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[digest] * 5 for digest in alone]
    assert not any(worker.sent for worker in _rk4_numpy._POOL.workers)


def assert_kernel_matches_direct(args):
    """``rk4_run`` against ``direct_rk4``; returns the direct states."""
    times, states, norm_err = _rk4_numpy.rk4_run(*args)
    want_times, want, want_norm_err = direct_rk4(*args)
    np.testing.assert_array_equal(times, want_times)
    assert np.abs(norm_err - want_norm_err).max() <= 1e-12
    assert np.abs(states - want).max() <= 1e-13
    return want


@pytest.mark.parametrize("chunk_steps,stride", [
    pytest.param(4096, 128, id="4096"),
    pytest.param(1000, 128, id="1000"),
    pytest.param(4096, 7, id="4096-stride7"),
    pytest.param(1000, 7, id="1000-stride7"),
])
@pytest.mark.parametrize("hand", BOTH)
def test_kernel_matches_direct_cos_sin_rk4(molecule, monkeypatch, hand, chunk_steps, stride):
    # At stride 128, 4,352 steps: one full 4096-step chunk and a partial
    # one, or four 896-step chunks and a partial one.  Stride 7 rounds the
    # chunks to 4,095 and 994 steps, so the composition tree carries an odd
    # tail and the chunk is not a power of two.
    args = designed_args(molecule, DesignSpec(target="C", tau0=0.3), 4, hand, stride)
    assert args[2] % (chunk_steps // stride * stride)  # a partial last chunk
    monkeypatch.setattr(_rk4_numpy, "CHUNK_STEPS", chunk_steps)
    want = assert_kernel_matches_direct(args)
    assert np.abs(want[:, 0]).min() < 0.9  # the comparison is not vacuous


@pytest.mark.parametrize("edges,same_bytes", [
    (((0, 2), (2, 3), (0, 3), (0, 1), (1, 3)), True),  # the four-level loop
    # a chain: entries of A2 A1 with no term are +0, where the dense form's
    # sum of zero products may be -0
    (((0, 1), (1, 2), (2, 3)), False),
    # the path A-B-C: A and B, like B and C, share no neighbour
    (((0, 1), (1, 2)), True),
])
def test_sparse_k2_equals_dense_stage(edges, same_bytes):
    # K2 = A2 + h/2 A2 K1 with K1 = A1 sparse must give the dense form's
    # values, whose extra terms multiply exact zeros of K1
    rng = np.random.default_rng(5)
    rows, cols = np.array(edges).T
    n = int(np.max(edges)) + 1
    entries = _rk4_numpy._generator_rows(rows, cols, n)
    values = rng.normal(size=(4, len(edges), 33)) + 1j * rng.normal(size=(4, len(edges), 33))
    a1, a2 = (_rk4_numpy._sparse_rows(entries, v, w, slice(None)) for v, w in (values[:2], values[2:]))
    dense_k1 = np.zeros((n, n, 33), dtype=np.complex128)
    _rk4_numpy._add_sparse(dense_k1, a1)
    tmp = np.empty((n, 33), dtype=np.complex128)
    want = _rk4_numpy._stage(a2, dense_k1, 0.37, np.empty_like(dense_k1), tmp)
    got = _rk4_numpy._sparse_stage(a2, a1, 0.37, np.empty_like(dense_k1), tmp[0])
    np.testing.assert_array_equal(got, want)
    if same_bytes:
        assert got.tobytes() == want.tobytes()


def kernel_chunk_steps(args, draw):
    """A ``CHUNK_STEPS`` that leaves the run's last chunk partial.

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
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_rk4_numpy, "CHUNK_STEPS", chunk_steps)
        assert_kernel_matches_direct(args)


POOLED_RUN = """
import sys, threading
from esst import _rk4_numpy
from esst.areas import DesignSpec, designed_pulses
from esst.model import Handedness, get_preset
from esst.propagator import default_grid, propagate
_rk4_numpy._worker_count = lambda: 2  # a pool even on one CPU
molecule = get_preset("cyclohexylmethanol")
pulses = designed_pulses(molecule, DesignSpec(target="C", tau0=0.5))
assert default_grid(molecule, pulses, 3).n_steps > 4096
propagate(molecule, pulses, Handedness.LEFT, levels=3)
assert len(_rk4_numpy._POOL.workers) == 2
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
print(threading.active_count())
"""


def test_a_pooled_run_loads_no_executor():
    # The caller forks its workers and drives their pipes itself: a run
    # built on the pool imports neither concurrent.futures nor
    # multiprocessing and leaves the caller with its main thread alone.
    proc = subprocess.run(
        [sys.executable, "-c", POOLED_RUN], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "1"]

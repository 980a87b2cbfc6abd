"""What several test modules share: the hand pair, the kernel's argument
builder and its direct-RK4 oracle, the pipelined-run cases, and the one
place that reads the pipeline's private state (the kernel's pool and the
queued run of ``propagator``).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from esst import _rk4_numpy, propagator
from esst.areas import designed_pulses
from esst.model import BOTH_HANDS, Handedness
from esst.propagator import GridConfig, _run_args, default_grid
from esst.pulses import SQRT_2_OVER_PI, Pulse

L, R = Handedness.LEFT, Handedness.RIGHT
BOTH = BOTH_HANDS

#: The default design's pulse duration, ns.
TAU0 = 35.0


# ---------------------------------------------------------------------------
# The pipeline's private state
# ---------------------------------------------------------------------------


def queued_run():
    """The run ``ahead`` queued for the next ``propagate`` call, or None."""
    return propagator._SLOT.run


def set_queued_run(run) -> None:
    propagator._SLOT.run = run


def drop_left_behind() -> str:
    """Drop every range task the kernel's pool still holds undropped, whose
    build no run took or dropped, and clear this thread's queued run; say
    what was left, or return '' if nothing was."""
    pool = _rk4_numpy._POOL
    held = [*pool.unsent, *(task for worker in pool.workers for task in worker.sent)] if pool else []
    pending = [task for task in held if not task.dropped]
    for task in pending:
        task.dropped = True
    slot = queued_run() is not None
    set_queued_run(None)
    left = [f"{len(pending)} pending range task(s) of a build"] * bool(pending)
    left += ["a queued run"] * slot
    return " and ".join(left)


def live(builds) -> int:
    """How many of ``builds`` are not dropped."""
    return sum(not all(task.dropped for task in build.tasks) for build in builds)


def run_bytes(run) -> list[bytes]:
    """The bytes of a trajectory's times, states and norm errors, or of
    each array ``rk4_run`` returns."""
    if isinstance(run, propagator.Trajectory):
        run = (run.times, run.states, run.norm_errors)
    return [a.tobytes() for a in run]


# ---------------------------------------------------------------------------
# The kernel's arguments and its direct oracle
# ---------------------------------------------------------------------------


def designed_args(molecule, spec, levels, hand, sample_stride=128):
    """``rk4_run``'s positional arguments for a designed sequence on its grid."""
    pulses = designed_pulses(molecule, spec)
    grid = replace(default_grid(molecule, pulses, levels), sample_stride=sample_stride)
    _, [args] = _run_args(molecule, pulses, (hand,), levels, grid)
    return args


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


# ---------------------------------------------------------------------------
# Pipelined-run cases
# ---------------------------------------------------------------------------


def overflow_case(molecule):
    """An a-pulse whose 1e300 area parameter overflows the RK4 stages.

    The grid starts 40 widths before the pulse center, where the envelope
    underflows to zero, so the first samples stay finite and the state goes
    non-finite part-way through the run.
    """
    tau = 0.05
    pulse = Pulse("a", area_param=1e300, center_time=0.0, duration=tau,
                  carrier_mhz=molecule.omega_ab_mhz, phase=0.0)
    grid = GridConfig(t_start=-40 * tau, t_end=0.0, dt=1e-3, sample_stride=16)
    return pulse, grid


#: 10,000 steps: three chunks, so each run below is built on the pool.
PIPE_GRID = GridConfig(t_start=-10.0, t_end=0.0, dt=1e-3, sample_stride=16)


def pipe_sets(molecule):
    """One-hand pulse sets: a clean one, one that goes non-finite near
    t = 0, and one whose carrier is too fast for PIPE_GRID's step."""
    clean = Pulse("a", area_param=0.5, center_time=-5.0, duration=1.0,
                  carrier_mhz=molecule.omega_ab_mhz, phase=0.0)
    fast = replace(clean, carrier_mhz=5 * molecule.omega_ab_mhz)
    return ([clean], (L,)), ([overflow_case(molecule)[0]], (L,)), ([fast], (L,))


def raising_spy(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so that each exception it raises is recorded,
    by type, in the returned list, and raised on."""
    real, raised = getattr(module, name), []

    def spy(*args):
        try:
            return real(*args)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(module, name, spy)
    return raised

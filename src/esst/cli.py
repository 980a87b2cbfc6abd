"""Command-line interface.

Subcommands:

* ``presets``         - list built-in molecules
* ``design``          - resolve a config into concrete pulse parameters
* ``areas``           - stage pulse areas and design-condition residuals
* ``propagate``       - integrate the configured pulses, write trace CSVs
* ``trace``           - the same as ``propagate``; one handler serves both
                        and names the CSVs after the command
* ``sweep-phase``     - P_target over (stage-1 phase, duration)
* ``sweep-delay``     - P_target over the two stage-2 delays
* ``sweep-detuning``  - P_target over (detuning, amplitude scale)

Exit codes: 0 success; 2 configuration or grid-resolution errors (also used
by argparse for unknown flags); 3 numerical-guard failures during
integration; 4 a kernel worker process that died during a run.  Result
CSVs embed the resolved config as comment lines so any output file can be
reproduced exactly.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .analytic import condition_residuals
from .areas import designed_pulses, stage_areas
from .config import (
    ConfigError,
    GridSection,
    RunSpec,
    load_config,
    resolve_grid,
    serialize_config,
)
from .experiments import (
    BOTH_HANDS,
    ENGINES,
    _default_levels,
    sweep_delays,
    sweep_detuning,
    sweep_phase_duration,
    write_detuning_csv,
    write_landscape_csv,
    write_trace_csv,
)
from .model import CHANNELS, PRESETS, Handedness
from .propagator import (
    POPULATION_COLUMNS,
    TRACE_COLUMNS,
    GridTooCoarseError,
    NumericalGuardError,
    PoolError,
    ahead,
    norm_drift,
    propagate,
)
from .pulses import PhaseConvention

_HAND_CHOICES = {
    "left": (Handedness.LEFT,),
    "right": (Handedness.RIGHT,),
    "both": BOTH_HANDS,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esst",
        description="Pulse-area design and exact propagation of "
        "enantioselective state transfer in cyclic three-level systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", required=True, help="run configuration (INI)")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument(
            "--levels", type=int, choices=(3, 4), default=None,
            help="3-level loop or 4-level spectator guard model",
        )
        sp.add_argument(
            "--convention", choices=("absolute", "envelope"), default=None,
            help="override the carrier-phase convention",
        )

    sp = sub.add_parser("presets", help="list built-in molecules")
    sp.set_defaults(func=cmd_presets)

    sp = sub.add_parser("design", help="print the resolved pulse parameters")
    common(sp)
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("areas", help="stage areas and condition residuals")
    common(sp)
    sp.set_defaults(func=cmd_areas)

    for name in ("propagate", "trace"):
        sp = sub.add_parser(name, help=f"{name} and write population traces")
        common(sp)
        sp.add_argument(
            "--hand", choices=sorted(_HAND_CHOICES), default="both",
            help="which enantiomer(s) to run",
        )
        sp.set_defaults(func=cmd_propagate)

    sp = sub.add_parser("sweep-phase", help="phase/duration landscape")
    common(sp)
    sp.set_defaults(func=cmd_sweep_phase)

    sp = sub.add_parser("sweep-delay", help="stage-2 delay landscape")
    common(sp)
    sp.set_defaults(func=cmd_sweep_delay)

    sp = sub.add_parser("sweep-detuning", help="detuning/scale curves")
    common(sp)
    sp.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="override the [sweep] engine",
    )
    sp.set_defaults(func=cmd_sweep_detuning)

    return parser


def _load(args) -> RunSpec:
    overrides = {}
    if getattr(args, "convention", None):
        overrides["convention"] = args.convention
    return load_config(args.config, design_overrides=overrides or None)


def _load_sweep(args, *names: str) -> tuple[RunSpec, int, str]:
    """A sweep's run config, levels and output directory for ``names``.

    Sweeps design their pulses and grid afresh at every point, so the
    sections a sweep would ignore are rejected first.
    """
    spec = _load(args)
    designed = designed_pulses(spec.molecule, spec.design)
    ignored = [f"pulse.{ch}" for ch in CHANNELS if spec.pulses[ch] != designed[ch]]
    if spec.grid != GridSection():
        ignored.append("grid")
    if ignored:
        raise ConfigError(
            ignored[0], None, "sweeps design pulses and grid per point and ignore it"
        )
    return spec, _levels(args, spec), _outdir(args, spec, *names)


def _levels(args, spec: RunSpec) -> int:
    if args.levels == 4 and spec.molecule.spectator is None:
        raise ConfigError(
            "molecule", None,
            "4-level run requested but the molecule has no spectator keys",
        )
    return _default_levels(spec.molecule, args.levels)


def _outdir(args, spec: RunSpec, *names: str) -> str:
    """The output directory, made if need be, checked before any run for
    the result files ``names``: one that exists must be a regular file."""
    out = args.out if args.out is not None else spec.output_dir
    key = "dir" if args.out is None else "--out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output", key, f"cannot make directory {out!r}: {exc.strerror}")
    for path in (os.path.join(out, name) for name in names):
        if os.path.exists(path) and not os.path.isfile(path):
            raise ConfigError("output", key, f"cannot write {path!r}: not a regular file")
    return out


def cmd_presets(args) -> int:
    print(
        "name,omega_ab_mhz,omega_bc_mhz,omega_ac_mhz,"
        "mu_a_debye,mu_b_debye,mu_c_debye,spectator"
    )
    for name in sorted(PRESETS):
        m = PRESETS[name]
        print(
            f"{m.name},{m.omega_ab_mhz!r},{m.omega_bc_mhz!r},{m.omega_ac_mhz!r},"
            f"{m.mu_a_debye!r},{m.mu_b_debye!r},{m.mu_c_debye!r},"
            f"{'yes' if m.spectator is not None else 'no'}"
        )
    return 0


def cmd_design(args) -> int:
    spec = _load(args)
    print(
        "channel,area_param,center_time_ns,duration_ns,"
        "carrier_mhz,phase_rad,convention"
    )
    for channel in CHANNELS:
        p = spec.pulses[channel]
        print(
            f"{channel},{p.area_param!r},{p.center_time!r},{p.duration!r},"
            f"{p.carrier_mhz!r},{p.phase!r},{p.convention.value}"
        )
    return 0


def cmd_areas(args) -> int:
    spec = _load(args)
    areas = stage_areas(spec.molecule, spec.pulses, spec.design)
    report = condition_residuals(areas, spec.design)
    header = (
        "theta_abs_a,theta_phase_a,theta_abs_b,theta_phase_b,"
        "theta_abs_c,theta_phase_c,amp_resid_a,amp_resid_b,amp_resid_c,"
        "phase_resid,constructive_resid,destructive_resid,predicted_P_target"
    )
    print(header)
    row = []
    for channel in CHANNELS:
        row.append(repr(areas[channel].modulus))
        row.append(repr(areas[channel].effective_phase))
    for channel in CHANNELS:
        row.append(repr(report.amplitude_residuals[channel]))
    row.append(repr(report.phase_residual))
    row.append(repr(report.constructive_residual))
    row.append(repr(report.destructive_residual))
    row.append(repr(report.predicted_target_population))
    print(",".join(row))
    return 0


def cmd_propagate(args) -> int:
    """``propagate`` and ``trace``: each names its CSVs after itself."""
    spec = _load(args)
    levels = _levels(args, spec)
    names = {hand: f"{args.command}_{hand.value}.csv" for hand in _HAND_CHOICES[args.hand]}
    outdir = _outdir(args, spec, *names.values())
    grid = resolve_grid(spec, levels)
    snapshot = serialize_config(spec)
    print(",".join(("hand", *POPULATION_COLUMNS.values(), "norm_drift")))
    for pulses, hand in ahead(spec.molecule, [(spec.pulses, tuple(names))], levels, grid):
        traj = propagate(spec.molecule, pulses, hand, levels=levels, grid=grid)
        path = os.path.join(outdir, names[hand])
        last = write_trace_csv(path, traj, snapshot)[-1].tolist()
        pops = [last[TRACE_COLUMNS.index(c)] for c in POPULATION_COLUMNS.values()]
        print(f"{hand.value},{','.join(map(repr, pops))},{norm_drift(traj)!r}")
    return 0


def cmd_sweep_phase(args) -> int:
    spec, levels, outdir = _load_sweep(args, "sweep_phase.csv")
    result = sweep_phase_duration(
        spec.molecule, spec.design,
        spec.sweep.phase_values(), spec.sweep.tau_values(),
        levels=levels,
    )
    path = os.path.join(outdir, "sweep_phase.csv")
    write_landscape_csv(path, result, serialize_config(spec))
    print(f"wrote {path}")
    return 0


def cmd_sweep_delay(args) -> int:
    # The delay landscape is the one study whose answer depends on the
    # carrier-phase convention (an absolute-time phase is delay-invariant,
    # an envelope-referenced one is not), so it is run under both and each
    # convention gets its own CSV for side-by-side comparison.
    names = {c: f"sweep_delay_{c.value}.csv" for c in PhaseConvention}
    spec, levels, outdir = _load_sweep(args, *names.values())
    paths = []
    other = [c for c in PhaseConvention if c is not spec.design.convention]
    for convention in (spec.design.convention, *other):
        design = replace(spec.design, convention=convention)
        result = sweep_delays(
            spec.molecule, design,
            spec.sweep.delay1_values(), spec.sweep.delay2_values(),
            levels=levels,
        )
        snapshot = serialize_config(replace(
            spec, design=design, pulses=designed_pulses(spec.molecule, design)
        ))
        path = os.path.join(outdir, names[convention])
        write_landscape_csv(path, result, snapshot)
        paths.append(path)
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def cmd_sweep_detuning(args) -> int:
    spec, levels, outdir = _load_sweep(args, "sweep_detuning.csv")
    engine = args.engine if args.engine else spec.sweep.engine
    result = sweep_detuning(
        spec.molecule, spec.design,
        spec.sweep.delta_values(spec.design.tau0),
        spec.sweep.scale_values(),
        mode=spec.sweep.mode,
        engine=engine,
        levels=levels,
    )
    path = os.path.join(outdir, "sweep_detuning.csv")
    write_detuning_csv(path, result, serialize_config(spec))
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GridTooCoarseError as exc:
        print(f"grid too coarse: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard tripped: {exc}", file=sys.stderr)
        return 3
    except PoolError as exc:
        print(f"worker pool failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""INI run configuration: parsing, resolution and exact serialization.

A run file has up to eight sections - [molecule], [design], [pulse.a],
[pulse.b], [pulse.c], [grid], [sweep] and [output] - every one optional with
documented defaults.  Most pulse-level keys accept the literal value ``auto``,
meaning "derive from the design": carriers default to their channel's
transition frequency, amplitudes and phases to the lattice-exact design
values, centers to the stage layout.

:func:`parse_config` resolves a file into a fully concrete :class:`RunSpec`
(auto values are materialized, except grid bounds which legitimately depend
on later pulse edits); :func:`serialize_config` renders a RunSpec back to
canonical INI with round-trip-exact floats (``repr``), so that a config
snapshot embedded in a result file reproduces the run bit for bit.

All parse-time problems raise :class:`ConfigError` carrying the section and
key they were found in.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .areas import DesignSpec, design_amplitudes, design_phases, realize_phase
from .model import (
    CHANNELS,
    Handedness,
    MoleculeSpec,
    SpectatorSpec,
    get_preset,
    mhz_to_rad_per_ns,
)
from .propagator import GridConfig, default_grid
from .pulses import PhaseConvention, Pulse

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """A malformed or inconsistent run configuration."""

    def __init__(self, section: str, key: str | None, message: str) -> None:
        self.section = section
        self.key = key
        self.message = message
        where = f"[{section}] {key}" if key else f"[{section}]"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class GridSection:
    """The [grid] section; ``None`` fields mean "derive from the pulses"."""

    dt_ns: float | None = None
    t_start_ns: float | None = None
    t_end_ns: float | None = None
    sample_stride: int = 128
    drift_tol: float = 1e-8


@dataclass(frozen=True)
class SweepSection:
    """The [sweep] section with ranges for all three sweep commands."""

    phase_min_rad: float = 0.0
    phase_max_rad: float = TWO_PI
    phase_count: int = 64
    tau_min_ns: float = 5.0
    tau_max_ns: float = 50.0
    tau_count: int = 64
    delay1_min_ns: float = 140.0
    delay1_max_ns: float = 420.0
    delay1_count: int = 33
    delay2_min_ns: float = 140.0
    delay2_max_ns: float = 420.0
    delay2_count: int = 33
    delta_tau_products: tuple[float, ...] = (0.25, 0.5, 1.0)
    scale_min: float = 0.5
    scale_max: float = 2.5
    scale_count: int = 33
    mode: str = "scale_b"
    engine: str = "exact"

    def phase_values(self) -> np.ndarray:
        return np.linspace(self.phase_min_rad, self.phase_max_rad, self.phase_count)

    def tau_values(self) -> np.ndarray:
        return np.linspace(self.tau_min_ns, self.tau_max_ns, self.tau_count)

    def delay1_values(self) -> np.ndarray:
        return np.linspace(self.delay1_min_ns, self.delay1_max_ns, self.delay1_count)

    def delay2_values(self) -> np.ndarray:
        return np.linspace(self.delay2_min_ns, self.delay2_max_ns, self.delay2_count)

    def delta_values(self, tau0: float) -> np.ndarray:
        """Detunings in rad/ns from the dimensionless delta*tau0 products."""
        return np.asarray(self.delta_tau_products, dtype=float) / tau0

    def scale_values(self) -> np.ndarray:
        return np.linspace(self.scale_min, self.scale_max, self.scale_count)


@dataclass(frozen=True)
class RunSpec:
    """A fully resolved run: molecule, design, pulses, grid, sweep, output."""

    molecule: MoleculeSpec
    design: DesignSpec
    pulses: dict[str, Pulse]
    grid: GridSection = field(default_factory=GridSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    output_dir: str = "."


_SECTIONS = (
    "molecule", "design", "pulse.a", "pulse.b", "pulse.c",
    "grid", "sweep", "output",
)

_MOLECULE_CORE_KEYS = (
    "omega_ab_mhz", "omega_bc_mhz", "omega_ac_mhz",
    "mu_a_debye", "mu_b_debye", "mu_c_debye",
)
_MOLECULE_SPECTATOR_KEYS = (
    "omega_abp_mhz", "omega_bpc_mhz", "mu_a_prime_debye", "mu_c_prime_debye",
)
_MOLECULE_KEYS = ("preset", "name") + _MOLECULE_CORE_KEYS + _MOLECULE_SPECTATOR_KEYS
_DESIGN_KEYS = (
    "target", "hand", "tau0_ns", "k", "kprime", "l",
    "stage1_center_ns", "stage2_center_ns", "convention",
)
_PULSE_KEYS = (
    "area_param", "center_time_ns", "duration_ns",
    "carrier_mhz", "phase_rad", "convention",
)
_GRID_KEYS = ("dt_ns", "t_start_ns", "t_end_ns", "sample_stride", "drift_tol")
_SWEEP_KEYS = (
    "phase_min_rad", "phase_max_rad", "phase_count",
    "tau_min_ns", "tau_max_ns", "tau_count",
    "delay1_min_ns", "delay1_max_ns", "delay1_count",
    "delay2_min_ns", "delay2_max_ns", "delay2_count",
    "delta_tau_products", "scale_min", "scale_max", "scale_count",
    "mode", "engine",
)
_OUTPUT_KEYS = ("dir",)

_KEYS_BY_SECTION = {
    "molecule": _MOLECULE_KEYS,
    "design": _DESIGN_KEYS,
    "pulse.a": _PULSE_KEYS,
    "pulse.b": _PULSE_KEYS,
    "pulse.c": _PULSE_KEYS,
    "grid": _GRID_KEYS,
    "sweep": _SWEEP_KEYS,
    "output": _OUTPUT_KEYS,
}


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(section, key, f"expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(section, key, f"expected a finite number, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(section, key, f"expected an integer, got {raw!r}")


def _is_auto(raw: str) -> bool:
    return raw.strip().lower() == "auto"


def _section_dict(cp: configparser.ConfigParser, name: str) -> dict[str, str]:
    if not cp.has_section(name):
        return {}
    items = dict(cp.items(name))
    for key in items:
        if key not in _KEYS_BY_SECTION[name]:
            raise ConfigError(
                name, key,
                f"unknown key; allowed keys: {', '.join(_KEYS_BY_SECTION[name])}",
            )
    return items


def _parse_molecule(items: dict[str, str]) -> MoleculeSpec:
    if "preset" in items:
        extras = sorted(set(items) - {"preset"})
        if extras:
            raise ConfigError(
                "molecule", extras[0],
                "preset cannot be combined with explicit molecule fields",
            )
        try:
            return get_preset(items["preset"].strip())
        except KeyError as exc:
            raise ConfigError("molecule", "preset", str(exc.args[0]))
    if not items:
        raise ConfigError(
            "molecule", None,
            "missing [molecule] section: set preset = <name> or give "
            "explicit omega_*_mhz / mu_*_debye keys",
        )
    missing = [k for k in _MOLECULE_CORE_KEYS if k not in items]
    if missing:
        raise ConfigError("molecule", missing[0], "required key missing")
    spectator_present = [k for k in _MOLECULE_SPECTATOR_KEYS if k in items]
    if spectator_present and len(spectator_present) != len(_MOLECULE_SPECTATOR_KEYS):
        absent = sorted(set(_MOLECULE_SPECTATOR_KEYS) - set(spectator_present))
        raise ConfigError(
            "molecule", absent[0],
            "spectator requires all four spectator keys",
        )
    spectator = None
    if spectator_present:
        spectator = SpectatorSpec(
            omega_abp_mhz=_parse_float("molecule", "omega_abp_mhz", items["omega_abp_mhz"]),
            omega_bpc_mhz=_parse_float("molecule", "omega_bpc_mhz", items["omega_bpc_mhz"]),
            mu_a_prime_debye=_parse_float(
                "molecule", "mu_a_prime_debye", items["mu_a_prime_debye"]
            ),
            mu_c_prime_debye=_parse_float(
                "molecule", "mu_c_prime_debye", items["mu_c_prime_debye"]
            ),
        )
    try:
        return MoleculeSpec(
            name=items.get("name", "custom").strip(),
            omega_ab_mhz=_parse_float("molecule", "omega_ab_mhz", items["omega_ab_mhz"]),
            omega_bc_mhz=_parse_float("molecule", "omega_bc_mhz", items["omega_bc_mhz"]),
            omega_ac_mhz=_parse_float("molecule", "omega_ac_mhz", items["omega_ac_mhz"]),
            mu_a_debye=_parse_float("molecule", "mu_a_debye", items["mu_a_debye"]),
            mu_b_debye=_parse_float("molecule", "mu_b_debye", items["mu_b_debye"]),
            mu_c_debye=_parse_float("molecule", "mu_c_debye", items["mu_c_debye"]),
            spectator=spectator,
        )
    except ValueError as exc:
        raise ConfigError("molecule", None, str(exc))


def _parse_design(items: dict[str, str]) -> DesignSpec:
    target = items.get("target", "C").strip().upper()
    hand_raw = items.get("hand", "left").strip().lower()
    try:
        hand = Handedness(hand_raw)
    except ValueError:
        raise ConfigError("design", "hand", f"expected left or right, got {hand_raw!r}")
    tau0 = _parse_float("design", "tau0_ns", items.get("tau0_ns", "35.0"))
    stage1 = _parse_float(
        "design", "stage1_center_ns", items.get("stage1_center_ns", "0.0")
    )
    stage2_raw = items.get("stage2_center_ns", "auto")
    stage2 = None if _is_auto(stage2_raw) else _parse_float(
        "design", "stage2_center_ns", stage2_raw
    )
    try:
        spec = DesignSpec(
            target=target,
            hand=hand,
            tau0=tau0,
            k=_parse_int("design", "k", items.get("k", "0")),
            kprime=_parse_int("design", "kprime", items.get("kprime", "0")),
            l=_parse_int("design", "l", items.get("l", "0")),
            stage1_center=stage1,
            stage2_center=stage2,
            convention=items.get("convention", "envelope").strip(),
        )
    except ValueError as exc:
        raise ConfigError("design", None, str(exc))
    if spec.stage2_center is None:
        spec = replace(spec, stage2_center=spec.stage2_center_eff)
    return spec


def _resolve_pulse(
    molecule: MoleculeSpec,
    design: DesignSpec,
    channel: str,
    items: dict[str, str],
) -> Pulse:
    section = f"pulse.{channel}"

    def get(key: str) -> str | None:
        raw = items.get(key)
        if raw is None or _is_auto(raw):
            return None
        return raw

    transition_mhz = molecule.channel_transition_mhz(channel)
    _, transition = molecule.channel_transition(channel)

    raw = get("carrier_mhz")
    carrier_mhz = (
        transition_mhz if raw is None else _parse_float(section, "carrier_mhz", raw)
    )
    raw = get("center_time_ns")
    if raw is None:
        center = (
            design.stage1_center
            if channel == design.stage1_channel
            else design.stage2_center_eff
        )
    else:
        center = _parse_float(section, "center_time_ns", raw)
    raw = get("duration_ns")
    duration = design.tau0 if raw is None else _parse_float(section, "duration_ns", raw)
    raw = get("convention")
    try:
        convention = (
            design.convention if raw is None else PhaseConvention.coerce(raw)
        )
    except ValueError as exc:
        raise ConfigError(section, "convention", str(exc))
    raw = get("area_param")
    area = (
        design_amplitudes(molecule, design)[channel]
        if raw is None
        else _parse_float(section, "area_param", raw)
    )
    raw = get("phase_rad")
    if raw is None:
        phase = realize_phase(
            design_phases(design)[channel],
            transition,
            mhz_to_rad_per_ns(carrier_mhz),
            center,
            convention,
        )
    else:
        phase = _parse_float(section, "phase_rad", raw)
    try:
        return Pulse(
            channel=channel,
            area_param=area,
            center_time=center,
            duration=duration,
            carrier_mhz=carrier_mhz,
            phase=phase,
            convention=convention,
        )
    except ValueError as exc:
        raise ConfigError(section, None, str(exc))


def _parse_grid(items: dict[str, str]) -> GridSection:
    def opt(key: str) -> float | None:
        raw = items.get(key)
        if raw is None or _is_auto(raw):
            return None
        return _parse_float("grid", key, raw)

    stride = _parse_int("grid", "sample_stride", items.get("sample_stride", "128"))
    if stride < 1:
        raise ConfigError("grid", "sample_stride", f"must be >= 1, got {stride}")
    drift = _parse_float("grid", "drift_tol", items.get("drift_tol", "1e-08"))
    if drift <= 0:
        raise ConfigError("grid", "drift_tol", f"must be > 0, got {drift}")
    return GridSection(
        dt_ns=opt("dt_ns"),
        t_start_ns=opt("t_start_ns"),
        t_end_ns=opt("t_end_ns"),
        sample_stride=stride,
        drift_tol=drift,
    )


def _parse_sweep(items: dict[str, str], design: DesignSpec) -> SweepSection:
    defaults = SweepSection(
        delay1_min_ns=4.0 * design.tau0,
        delay1_max_ns=12.0 * design.tau0,
        delay2_min_ns=4.0 * design.tau0,
        delay2_max_ns=12.0 * design.tau0,
    )

    def flt(key: str, fallback: float) -> float:
        raw = items.get(key)
        return fallback if raw is None else _parse_float("sweep", key, raw)

    def num(key: str, fallback: int) -> int:
        raw = items.get(key)
        value = fallback if raw is None else _parse_int("sweep", key, raw)
        if value < 1:
            raise ConfigError("sweep", key, f"count must be >= 1, got {value}")
        return value

    raw = items.get("delta_tau_products")
    if raw is None:
        products = defaults.delta_tau_products
    else:
        try:
            products = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(
                "sweep", "delta_tau_products",
                f"expected comma-separated numbers, got {raw!r}",
            )
        if not products:
            raise ConfigError("sweep", "delta_tau_products", "list is empty")
        if not all(map(math.isfinite, products)):
            raise ConfigError(
                "sweep", "delta_tau_products", f"expected finite numbers, got {raw!r}"
            )
    mode = items.get("mode", defaults.mode).strip().lower()
    if mode not in ("scale_b", "scale_ac"):
        raise ConfigError("sweep", "mode", f"expected scale_b or scale_ac, got {mode!r}")
    engine = items.get("engine", defaults.engine).strip().lower()
    if engine not in ("exact", "analytic"):
        raise ConfigError("sweep", "engine", f"expected exact or analytic, got {engine!r}")
    return SweepSection(
        phase_min_rad=flt("phase_min_rad", defaults.phase_min_rad),
        phase_max_rad=flt("phase_max_rad", defaults.phase_max_rad),
        phase_count=num("phase_count", defaults.phase_count),
        tau_min_ns=flt("tau_min_ns", defaults.tau_min_ns),
        tau_max_ns=flt("tau_max_ns", defaults.tau_max_ns),
        tau_count=num("tau_count", defaults.tau_count),
        delay1_min_ns=flt("delay1_min_ns", defaults.delay1_min_ns),
        delay1_max_ns=flt("delay1_max_ns", defaults.delay1_max_ns),
        delay1_count=num("delay1_count", defaults.delay1_count),
        delay2_min_ns=flt("delay2_min_ns", defaults.delay2_min_ns),
        delay2_max_ns=flt("delay2_max_ns", defaults.delay2_max_ns),
        delay2_count=num("delay2_count", defaults.delay2_count),
        delta_tau_products=products,
        scale_min=flt("scale_min", defaults.scale_min),
        scale_max=flt("scale_max", defaults.scale_max),
        scale_count=num("scale_count", defaults.scale_count),
        mode=mode,
        engine=engine,
    )


def parse_config(text: str, *, design_overrides: dict[str, str] | None = None) -> RunSpec:
    """Parse INI text into a fully resolved :class:`RunSpec`.

    ``design_overrides`` merges raw key/value strings into the [design]
    section before resolution (used for command-line overrides); they are
    validated exactly like file-borne values.
    """
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str  # keep keys verbatim
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config", None, f"INI syntax error: {exc}")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                section, None,
                f"unknown section; allowed sections: {', '.join(_SECTIONS)}",
            )

    molecule = _parse_molecule(_section_dict(cp, "molecule"))
    design_items = _section_dict(cp, "design")
    if design_overrides:
        for key, value in design_overrides.items():
            if key not in _DESIGN_KEYS:
                raise ConfigError("design", key, "unknown override key")
            design_items[key] = value
    design = _parse_design(design_items)
    pulses = {
        channel: _resolve_pulse(
            molecule, design, channel, _section_dict(cp, f"pulse.{channel}")
        )
        for channel in CHANNELS
    }
    grid = _parse_grid(_section_dict(cp, "grid"))
    sweep = _parse_sweep(_section_dict(cp, "sweep"), design)
    output_items = _section_dict(cp, "output")
    output_dir = output_items.get("dir", ".").strip()
    return RunSpec(
        molecule=molecule,
        design=design,
        pulses=pulses,
        grid=grid,
        sweep=sweep,
        output_dir=output_dir,
    )


def load_config(path, *, design_overrides: dict[str, str] | None = None) -> RunSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config", None, f"cannot read {path}: {exc}")
    return parse_config(text, design_overrides=design_overrides)


def resolve_grid(spec: RunSpec, levels: int, pulses=None) -> GridConfig:
    """Materialize the [grid] section against a pulse set."""
    source = spec.pulses if pulses is None else pulses
    plist = list(source.values()) if isinstance(source, dict) else list(source)
    base = default_grid(
        spec.molecule, plist, levels,
        sample_stride=spec.grid.sample_stride,
        drift_tol=spec.grid.drift_tol,
    )
    g = spec.grid
    if g.dt_ns is None and g.t_start_ns is None and g.t_end_ns is None:
        return base
    return GridConfig(
        t_start=base.t_start if g.t_start_ns is None else g.t_start_ns,
        t_end=base.t_end if g.t_end_ns is None else g.t_end_ns,
        dt=base.dt if g.dt_ns is None else g.dt_ns,
        sample_stride=g.sample_stride,
        drift_tol=g.drift_tol,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(spec: RunSpec) -> str:
    """Render a RunSpec as canonical INI text that reparses to equality."""
    m = spec.molecule
    d = spec.design
    lines = ["[molecule]"]
    lines.append(f"name = {m.name}")
    for key in _MOLECULE_CORE_KEYS:
        lines.append(f"{key} = {_fmt(getattr(m, key))}")
    if m.spectator is not None:
        sp = m.spectator
        lines.append(f"omega_abp_mhz = {_fmt(sp.omega_abp_mhz)}")
        lines.append(f"omega_bpc_mhz = {_fmt(sp.omega_bpc_mhz)}")
        lines.append(f"mu_a_prime_debye = {_fmt(sp.mu_a_prime_debye)}")
        lines.append(f"mu_c_prime_debye = {_fmt(sp.mu_c_prime_debye)}")
    lines.append("")
    lines.append("[design]")
    lines.append(f"target = {d.target}")
    lines.append(f"hand = {d.hand.value}")
    lines.append(f"tau0_ns = {_fmt(d.tau0)}")
    lines.append(f"k = {d.k}")
    lines.append(f"kprime = {d.kprime}")
    lines.append(f"l = {d.l}")
    lines.append(f"stage1_center_ns = {_fmt(d.stage1_center)}")
    lines.append(f"stage2_center_ns = {_fmt(d.stage2_center_eff)}")
    lines.append(f"convention = {d.convention.value}")
    for channel in CHANNELS:
        p = spec.pulses[channel]
        lines.append("")
        lines.append(f"[pulse.{channel}]")
        lines.append(f"area_param = {_fmt(p.area_param)}")
        lines.append(f"center_time_ns = {_fmt(p.center_time)}")
        lines.append(f"duration_ns = {_fmt(p.duration)}")
        lines.append(f"carrier_mhz = {_fmt(p.carrier_mhz)}")
        lines.append(f"phase_rad = {_fmt(p.phase)}")
        lines.append(f"convention = {p.convention.value}")
    g = spec.grid
    lines.append("")
    lines.append("[grid]")
    lines.append(f"dt_ns = {'auto' if g.dt_ns is None else _fmt(g.dt_ns)}")
    lines.append(
        f"t_start_ns = {'auto' if g.t_start_ns is None else _fmt(g.t_start_ns)}"
    )
    lines.append(f"t_end_ns = {'auto' if g.t_end_ns is None else _fmt(g.t_end_ns)}")
    lines.append(f"sample_stride = {g.sample_stride}")
    lines.append(f"drift_tol = {_fmt(g.drift_tol)}")
    s = spec.sweep
    lines.append("")
    lines.append("[sweep]")
    lines.append(f"phase_min_rad = {_fmt(s.phase_min_rad)}")
    lines.append(f"phase_max_rad = {_fmt(s.phase_max_rad)}")
    lines.append(f"phase_count = {s.phase_count}")
    lines.append(f"tau_min_ns = {_fmt(s.tau_min_ns)}")
    lines.append(f"tau_max_ns = {_fmt(s.tau_max_ns)}")
    lines.append(f"tau_count = {s.tau_count}")
    lines.append(f"delay1_min_ns = {_fmt(s.delay1_min_ns)}")
    lines.append(f"delay1_max_ns = {_fmt(s.delay1_max_ns)}")
    lines.append(f"delay1_count = {s.delay1_count}")
    lines.append(f"delay2_min_ns = {_fmt(s.delay2_min_ns)}")
    lines.append(f"delay2_max_ns = {_fmt(s.delay2_max_ns)}")
    lines.append(f"delay2_count = {s.delay2_count}")
    lines.append(
        "delta_tau_products = "
        + ", ".join(_fmt(v) for v in s.delta_tau_products)
    )
    lines.append(f"scale_min = {_fmt(s.scale_min)}")
    lines.append(f"scale_max = {_fmt(s.scale_max)}")
    lines.append(f"scale_count = {s.scale_count}")
    lines.append(f"mode = {s.mode}")
    lines.append(f"engine = {s.engine}")
    lines.append("")
    lines.append("[output]")
    lines.append(f"dir = {spec.output_dir}")
    lines.append("")
    return "\n".join(lines)

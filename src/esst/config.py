"""INI run configuration: parsing, resolution and exact serialization.

A run file has up to eight sections - [molecule], [design], [pulse.a],
[pulse.b], [pulse.c], [grid], [sweep] and [output] - every one optional with
documented defaults.  Each [pulse.*] section overrides single fields of the
pulse :func:`esst.areas.designed_pulses` builds for its channel; a key left
out or set to ``auto`` keeps the designed value, and an ``auto`` phase is
realized again at the overridden carrier, center and convention.

Every section but [molecule]'s preset and [output] is read and written
through a key table of (INI key, field, parser) rows.  :func:`parse_config`
resolves a file into a fully concrete :class:`RunSpec` (auto values are
materialized, except grid bounds which legitimately depend on later pulse
edits); :func:`serialize_config` renders a RunSpec back to canonical INI with
round-trip-exact floats (``repr``), so that a config snapshot embedded in a
result file reproduces the run bit for bit.

All parse-time problems raise :class:`ConfigError` carrying the section and
key they were found in.
"""
from __future__ import annotations

import configparser
import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .areas import (
    TWO_PI, DesignSpec, _carrier_mhz, design_phases, designed_pulses, realize_phase,
)
from .experiments import DETUNING_MODES, ENGINES
from .model import CHANNELS, Handedness, MoleculeSpec, SpectatorSpec, get_preset
from .propagator import GridConfig, default_grid
from .pulses import PhaseConvention, Pulse


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
    sample_stride: int = GridConfig.sample_stride
    drift_tol: float = GridConfig.drift_tol


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


def _or_auto(parse):
    """``parse`` that also accepts ``auto``, read as None."""
    def parse_or_auto(section: str, key: str, raw: str):
        return None if raw.strip().lower() == "auto" else parse(section, key, raw)
    return parse_or_auto


def _checked(parse, ok, message: str):
    """``parse`` that rejects values failing ``ok`` with ``message``."""
    def parse_checked(section: str, key: str, raw: str):
        value = parse(section, key, raw)
        if not ok(value):
            raise ConfigError(section, key, message.format(value))
        return value
    return parse_checked


def _choice(choices: tuple[str, ...]):
    """Parser of one of ``choices``, case-insensitive."""
    def parse_choice(section: str, key: str, raw: str) -> str:
        value = raw.strip().lower()
        if value not in choices:
            raise ConfigError(
                section, key, f"expected {' or '.join(choices)}, got {value!r}"
            )
        return value
    return parse_choice


def _parse_convention(section: str, key: str, raw: str) -> PhaseConvention:
    try:
        return PhaseConvention.coerce(raw)
    except ValueError as exc:
        raise ConfigError(section, key, str(exc))


def _parse_products(section: str, key: str, raw: str) -> tuple[float, ...]:
    try:
        products = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(
            section, key, f"expected comma-separated numbers, got {raw!r}"
        )
    if not products:
        raise ConfigError(section, key, "list is empty")
    if not all(map(math.isfinite, products)):
        raise ConfigError(section, key, f"expected finite numbers, got {raw!r}")
    return products


def _same_names(*rows) -> tuple:
    """Key-table rows whose INI key is also the field name."""
    return tuple((key, key, parse) for key, parse in rows)


# Key tables: (INI key, field, parser) per section, in serialization order.
# A parser takes (section, key, raw text) and raises ConfigError.
_MOLECULE_CORE_TABLE = tuple(
    (key, key, _parse_float) for key in (
        "omega_ab_mhz", "omega_bc_mhz", "omega_ac_mhz",
        "mu_a_debye", "mu_b_debye", "mu_c_debye",
    )
)
_MOLECULE_SPECTATOR_TABLE = tuple(
    (key, key, _parse_float) for key in (
        "omega_abp_mhz", "omega_bpc_mhz", "mu_a_prime_debye", "mu_c_prime_debye",
    )
)
_DESIGN_TABLE = (
    ("target", "target", lambda section, key, raw: raw.strip().upper()),
    ("hand", "hand", _choice(tuple(h.value for h in Handedness))),
    ("tau0_ns", "tau0", _parse_float),
    ("k", "k", _parse_int),
    ("kprime", "kprime", _parse_int),
    ("l", "l", _parse_int),
    ("stage1_center_ns", "stage1_center", _parse_float),
    ("stage2_center_ns", "stage2_center", _or_auto(_parse_float)),
    # DesignSpec checks the convention itself
    ("convention", "convention", lambda section, key, raw: raw.strip()),
)
_PULSE_TABLE = (
    ("area_param", "area_param", _or_auto(_parse_float)),
    ("center_time_ns", "center_time", _or_auto(_parse_float)),
    ("duration_ns", "duration", _or_auto(_parse_float)),
    ("carrier_mhz", "carrier_mhz", _or_auto(_parse_float)),
    ("phase_rad", "phase", _or_auto(_parse_float)),
    ("convention", "convention", _or_auto(_parse_convention)),
)
_GRID_TABLE = _same_names(
    # the grid bounds and step: 'auto' derives them from the pulses
    ("dt_ns", _or_auto(_parse_float)),
    ("t_start_ns", _or_auto(_parse_float)),
    ("t_end_ns", _or_auto(_parse_float)),
    ("sample_stride", _checked(_parse_int, lambda v: v >= 1, "must be >= 1, got {}")),
    ("drift_tol", _checked(_parse_float, lambda v: v > 0, "must be > 0, got {}")),
)
_COUNT = _checked(_parse_int, lambda v: v >= 1, "count must be >= 1, got {}")
# A linspace lies between its ends, so checking the ends checks every point.
_TAU = _checked(_parse_float, lambda v: v > 0, "must be > 0 ns, got {}")
_SCALE = _checked(_parse_float, lambda v: v >= 0, "must be >= 0, got {}")
_SWEEP_TABLE = _same_names(
    ("phase_min_rad", _parse_float), ("phase_max_rad", _parse_float),
    ("phase_count", _COUNT),
    ("tau_min_ns", _TAU), ("tau_max_ns", _TAU), ("tau_count", _COUNT),
    ("delay1_min_ns", _parse_float), ("delay1_max_ns", _parse_float),
    ("delay1_count", _COUNT),
    ("delay2_min_ns", _parse_float), ("delay2_max_ns", _parse_float),
    ("delay2_count", _COUNT),
    ("delta_tau_products", _parse_products),
    ("scale_min", _SCALE), ("scale_max", _SCALE), ("scale_count", _COUNT),
    ("mode", _choice(tuple(DETUNING_MODES))),
    ("engine", _choice(ENGINES)),
)


def _keys(table) -> tuple[str, ...]:
    return tuple(key for key, _, _ in table)


_KEYS_BY_SECTION = {
    "molecule": (
        ("preset", "name")
        + _keys(_MOLECULE_CORE_TABLE)
        + _keys(_MOLECULE_SPECTATOR_TABLE)
    ),
    "design": _keys(_DESIGN_TABLE),
    "pulse.a": _keys(_PULSE_TABLE),
    "pulse.b": _keys(_PULSE_TABLE),
    "pulse.c": _keys(_PULSE_TABLE),
    "grid": _keys(_GRID_TABLE),
    "sweep": _keys(_SWEEP_TABLE),
    "output": ("dir",),
}


def _parse_table(section: str, items: dict[str, str], table) -> dict:
    """Field values of the keys of ``table`` present in ``items``."""
    return {
        name: parse(section, key, items[key])
        for key, name, parse in table
        if key in items
    }


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
    missing = [k for k in _keys(_MOLECULE_CORE_TABLE) if k not in items]
    if missing:
        raise ConfigError("molecule", missing[0], "required key missing")
    spectator_keys = _keys(_MOLECULE_SPECTATOR_TABLE)
    spectator_present = [k for k in spectator_keys if k in items]
    if spectator_present and len(spectator_present) != len(spectator_keys):
        absent = sorted(set(spectator_keys) - set(spectator_present))
        raise ConfigError(
            "molecule", absent[0],
            "spectator requires all four spectator keys",
        )
    floats = _parse_table(
        "molecule", items, _MOLECULE_CORE_TABLE + _MOLECULE_SPECTATOR_TABLE
    )
    try:
        spectator = None
        if spectator_present:
            spectator = SpectatorSpec(
                **{key: floats.pop(key) for key in spectator_keys}
            )
        return MoleculeSpec(
            name=items.get("name", "custom").strip(), spectator=spectator, **floats
        )
    except ValueError as exc:
        raise ConfigError("molecule", None, str(exc))


def _parse_design(items: dict[str, str]) -> DesignSpec:
    values = {"target": "C", **_parse_table("design", items, _DESIGN_TABLE)}
    try:
        spec = DesignSpec(**values)
    except ValueError as exc:
        raise ConfigError("design", None, str(exc))
    return replace(spec, stage2_center=spec.stage2_center_eff)


def _resolve_pulse(
    molecule: MoleculeSpec,
    design: DesignSpec,
    designed: Pulse,
    items: dict[str, str],
) -> Pulse:
    """The designed pulse with the section's explicit keys applied.

    Unless ``phase_rad`` is explicit, the phase realizes the design phase
    again at the resulting carrier, center and convention.
    """
    section = f"pulse.{designed.channel}"
    values = {
        name: value
        for name, value in _parse_table(section, items, _PULSE_TABLE).items()
        if value is not None
    }
    try:
        pulse = replace(designed, **values)
        if "phase" not in values:
            _, transition = molecule.channel_transition(pulse.channel)
            pulse = replace(pulse, phase=realize_phase(
                design_phases(design)[pulse.channel], transition,
                pulse.carrier, pulse.center_time, pulse.convention,
            ))
    except ValueError as exc:
        raise ConfigError(section, None, str(exc))
    return pulse


def _parse_sweep(
    items: dict[str, str], molecule: MoleculeSpec, design: DesignSpec
) -> SweepSection:
    """The [sweep] section; every channel its mode detunes keeps a positive carrier."""
    lo, hi = 4.0 * design.tau0, 12.0 * design.tau0  # delay ranges track tau0
    sweep = SweepSection(**{
        "delay1_min_ns": lo, "delay1_max_ns": hi,
        "delay2_min_ns": lo, "delay2_max_ns": hi,
        **_parse_table("sweep", items, _SWEEP_TABLE),
    })
    deltas = sweep.delta_values(design.tau0)
    for channel in DETUNING_MODES[sweep.mode]:
        for delta in (deltas.min(), deltas.max()):
            carrier = _carrier_mhz(molecule, channel, delta)
            if not 0 < carrier < math.inf:
                raise ConfigError("sweep", "delta_tau_products", (
                    f"detunes channel {channel} to a carrier of {carrier!r} MHz;"
                    " a carrier must be > 0 and finite"
                ))
    return sweep


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
            if key not in _KEYS_BY_SECTION["design"]:
                raise ConfigError("design", key, "unknown override key")
            design_items[key] = value
    design = _parse_design(design_items)
    pulses = {
        channel: _resolve_pulse(
            molecule, design, pulse, _section_dict(cp, f"pulse.{channel}")
        )
        for channel, pulse in designed_pulses(molecule, design).items()
    }
    grid = GridSection(**_parse_table("grid", _section_dict(cp, "grid"), _GRID_TABLE))
    sweep = _parse_sweep(_section_dict(cp, "sweep"), molecule, design)
    output_dir = _section_dict(cp, "output").get("dir", ".").strip()
    if not output_dir:
        raise ConfigError("output", "dir", "must not be empty")
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


def resolve_grid(spec: RunSpec, levels: int) -> GridConfig:
    """Materialize the [grid] section against the run's pulses.

    Bounds or a step that make no grid raise ConfigError.
    """
    base = default_grid(spec.molecule, spec.pulses, levels)
    g = spec.grid
    try:
        return GridConfig(
            t_start=base.t_start if g.t_start_ns is None else g.t_start_ns,
            t_end=base.t_end if g.t_end_ns is None else g.t_end_ns,
            dt=base.dt if g.dt_ns is None else g.dt_ns,
            sample_stride=g.sample_stride,
            drift_tol=g.drift_tol,
        )
    except ValueError as exc:
        raise ConfigError("grid", None, str(exc))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ", ".join(map(_fmt, value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


def _key_lines(obj, table) -> list[str]:
    return [f"{key} = {_fmt(getattr(obj, name))}" for key, name, _ in table]


def serialize_config(spec: RunSpec) -> str:
    """Render a RunSpec as canonical INI text that reparses to equality."""
    m = spec.molecule
    d = spec.design
    lines = ["[molecule]", f"name = {m.name}", *_key_lines(m, _MOLECULE_CORE_TABLE)]
    if m.spectator is not None:
        lines += _key_lines(m.spectator, _MOLECULE_SPECTATOR_TABLE)
    lines += ["", "[design]", *_key_lines(
        replace(d, stage2_center=d.stage2_center_eff), _DESIGN_TABLE
    )]
    for channel in CHANNELS:
        pulse = spec.pulses[channel]
        lines += ["", f"[pulse.{channel}]", *_key_lines(pulse, _PULSE_TABLE)]
    lines += ["", "[grid]", *_key_lines(spec.grid, _GRID_TABLE)]
    lines += ["", "[sweep]", *_key_lines(spec.sweep, _SWEEP_TABLE)]
    lines += ["", "[output]", f"dir = {spec.output_dir}", ""]
    return "\n".join(lines)

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

from .areas import TWO_PI, DesignSpec, design_amplitudes, design_phases, realize_phase
from .experiments import DETUNING_MODES, ENGINES
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
_SWEEP_CHOICES = {"mode": tuple(DETUNING_MODES), "engine": ENGINES}

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
    floats = {
        key: _parse_float("molecule", key, items[key])
        for key in _MOLECULE_CORE_KEYS + _MOLECULE_SPECTATOR_KEYS
        if key in items
    }
    try:
        spectator = None
        if spectator_present:
            spectator = SpectatorSpec(
                **{key: floats.pop(key) for key in _MOLECULE_SPECTATOR_KEYS}
            )
        return MoleculeSpec(
            name=items.get("name", "custom").strip(), spectator=spectator, **floats
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
    values = {}
    for key in _GRID_KEYS:
        raw = items.get(key)
        if raw is None:
            continue
        if key == "sample_stride":
            value = _parse_int("grid", key, raw)
            if value < 1:
                raise ConfigError("grid", key, f"must be >= 1, got {value}")
        elif key == "drift_tol":
            value = _parse_float("grid", key, raw)
            if value <= 0:
                raise ConfigError("grid", key, f"must be > 0, got {value}")
        else:  # the grid bounds and step: 'auto' derives them from the pulses
            value = None if _is_auto(raw) else _parse_float("grid", key, raw)
        values[key] = value
    return GridSection(**values)


def _parse_products(raw: str) -> tuple[float, ...]:
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
    return products


def _parse_sweep(items: dict[str, str], design: DesignSpec) -> SweepSection:
    lo, hi = 4.0 * design.tau0, 12.0 * design.tau0  # delay ranges track tau0
    values = {
        "delay1_min_ns": lo, "delay1_max_ns": hi,
        "delay2_min_ns": lo, "delay2_max_ns": hi,
    }
    for key in _SWEEP_KEYS:
        raw = items.get(key)
        if raw is None:
            continue
        if key == "delta_tau_products":
            value = _parse_products(raw)
        elif key in _SWEEP_CHOICES:
            value = raw.strip().lower()
            choices = _SWEEP_CHOICES[key]
            if value not in choices:
                raise ConfigError(
                    "sweep", key, f"expected {' or '.join(choices)}, got {value!r}"
                )
        elif key.endswith("_count"):
            value = _parse_int("sweep", key, raw)
            if value < 1:
                raise ConfigError("sweep", key, f"count must be >= 1, got {value}")
        else:
            value = _parse_float("sweep", key, raw)
        values[key] = value
    return SweepSection(**values)


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
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ", ".join(map(_fmt, value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _key_lines(obj, keys) -> list[str]:
    return [f"{key} = {_fmt(getattr(obj, key))}" for key in keys]


def serialize_config(spec: RunSpec) -> str:
    """Render a RunSpec as canonical INI text that reparses to equality."""
    m = spec.molecule
    d = spec.design
    lines = ["[molecule]"]
    lines.append(f"name = {m.name}")
    lines += _key_lines(m, _MOLECULE_CORE_KEYS)
    if m.spectator is not None:
        lines += _key_lines(m.spectator, _MOLECULE_SPECTATOR_KEYS)
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
    lines += ["", "[grid]", *_key_lines(spec.grid, _GRID_KEYS)]
    lines += ["", "[sweep]", *_key_lines(spec.sweep, _SWEEP_KEYS)]
    lines.append("")
    lines.append("[output]")
    lines.append(f"dir = {spec.output_dir}")
    lines.append("")
    return "\n".join(lines)

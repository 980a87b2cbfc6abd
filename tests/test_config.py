"""Tests for INI run-configuration parsing, resolution and serialization.

The serializer's contract is *exact* round-tripping: repr-formatted floats
reparse to identical RunSpecs, and serializing again yields identical text.
Everything else is location-accurate error reporting and the `auto`
resolution rules (carrier -> transition frequency, amplitude/phase -> design
lattice, centers -> stage layout).
"""
from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings, strategies as st

from esst.areas import (
    DesignSpec,
    design_amplitudes,
    design_phases,
    designed_pulses,
    realize_phase,
)
from esst.config import (
    ConfigError,
    GridSection,
    RunSpec,
    SweepSection,
    load_config,
    parse_config,
    resolve_grid,
    serialize_config,
)
from esst.experiments import DETUNING_MODES, ENGINES
from esst.model import (
    CHANNELS,
    Handedness,
    SpectatorSpec,
    get_preset,
    mhz_to_rad_per_ns,
)
from esst.propagator import default_grid
from esst.pulses import PhaseConvention

MINIMAL = "[molecule]\npreset = cyclohexylmethanol\n"

CUSTOM_MOLECULE = """\
[molecule]
name = demo
omega_ab_mhz = 4711.0
omega_bc_mhz = 2857.0
omega_ac_mhz = 7568.0
mu_a_debye = 1.2
mu_b_debye = 0.9
mu_c_debye = 1.7
"""


def test_minimal_preset_config_resolves_everything():
    spec = parse_config(MINIMAL)
    molecule = get_preset("cyclohexylmethanol")
    assert spec.molecule == molecule
    assert spec.design == DesignSpec(target="C", stage2_center=8 * 35.0)
    assert spec.output_dir == "."
    amps = design_amplitudes(molecule, spec.design)
    phases = design_phases(spec.design)
    for channel in CHANNELS:
        pulse = spec.pulses[channel]
        assert pulse.channel == channel
        assert pulse.carrier_mhz == molecule.channel_transition_mhz(channel)
        assert pulse.duration == 35.0
        assert pulse.area_param == amps[channel]
        assert pulse.convention is PhaseConvention.ENVELOPE
        _, transition = molecule.channel_transition(channel)
        expected_phase = realize_phase(
            phases[channel], transition, pulse.carrier, pulse.center_time,
            pulse.convention,
        )
        assert pulse.phase == expected_phase
    assert spec.pulses["a"].center_time == 0.0
    assert spec.pulses["b"].center_time == 8 * 35.0
    assert spec.pulses["c"].center_time == 8 * 35.0


def test_design_stage2_center_pinned_at_parse():
    spec = parse_config(MINIMAL + "\n[design]\ntau0_ns = 20.0\n")
    assert spec.design.stage2_center == pytest.approx(160.0)
    assert spec.design.stage2_center_eff == pytest.approx(160.0)


@pytest.mark.parametrize("text,message", [
    pytest.param("", r"missing \[molecule\]", id="missing-molecule"),
    pytest.param(MINIMAL + "\n[design]\ntau0_ns = -1\n", "must be > 0 ns", id="negative-tau0"),
    pytest.param(MINIMAL + "\n[pulses]\nx = 1\n", "unknown section", id="unknown-section"),
    pytest.param("molecule]\npreset = x\n", "INI syntax error", id="ini-syntax-error"),
    pytest.param(MINIMAL + "mu_a_debye = 1.0\n", "cannot be combined",
                 id="preset-exclusive-with-explicit-fields"),
    pytest.param(CUSTOM_MOLECULE + "omega_abp_mhz = 2000.0\n", "all four spectator keys",
                 id="partial-spectator-block"),
    pytest.param(MINIMAL + "\n[design]\ntarget = D\n", "target", id="design-bad-target"),
    pytest.param(MINIMAL + "\n[pulse.c]\narea_param = big\n", "expected a number",
                 id="pulse-non-numeric-value"),
    pytest.param(MINIMAL + "\n[grid]\nsample_stride = 0\n", "sample_stride", id="grid-zero-stride"),
    pytest.param(MINIMAL + "\n[grid]\ndrift_tol = -1e-8\n", "drift_tol",
                 id="grid-negative-drift-tol"),
    pytest.param(MINIMAL + "\n[grid]\nsample_stride = 2.5\n", "expected an integer",
                 id="grid-float-stride"),
])
def test_config_rejected_with_its_reason(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_negative_pulse_duration_cites_the_invariant():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[pulse.a]\nduration_ns = -1\n")
    assert err.value.section == "pulse.a"
    assert "duration must be > 0 ns" in str(err.value)


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[grid]\ndt = 0.1\n")
    assert err.value.section == "grid"
    assert err.value.key == "dt"
    assert str(err.value).startswith("[grid] dt:")


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[molecule]\npreset = benzene\n")
    assert err.value.section == "molecule"
    assert err.value.key == "preset"


def test_explicit_molecule_fields():
    spec = parse_config(CUSTOM_MOLECULE)
    m = spec.molecule
    assert m.name == "demo"
    assert m.omega_ab_mhz == 4711.0
    assert m.mu_c_debye == 1.7
    assert m.spectator is None


def test_missing_core_key_reported():
    text = CUSTOM_MOLECULE.replace("mu_b_debye = 0.9\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "mu_b_debye"
    assert "required key missing" in str(err.value)


def test_full_spectator_block_accepted():
    text = CUSTOM_MOLECULE + (
        "omega_abp_mhz = 2575.0\n"
        "omega_bpc_mhz = 4993.0\n"
        "mu_a_prime_debye = 0.8\n"
        "mu_c_prime_debye = 1.1\n"
    )
    spec = parse_config(text)
    assert spec.molecule.spectator is not None
    assert spec.molecule.spectator.mu_c_prime_debye == 1.1


def test_inconsistent_molecule_reports_section():
    text = CUSTOM_MOLECULE.replace("omega_ac_mhz = 7568.0", "omega_ac_mhz = 9000.0")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.section == "molecule"


@pytest.mark.parametrize(
    "key,value", [("omega_abp_mhz", "-2575.0"), ("mu_c_prime_debye", "0.0")]
)
def test_invalid_spectator_value_reports_section(key, value):
    # The spectator's own checks surface as ConfigError (exit 2 in the CLI),
    # not as a bare ValueError.
    spectator = {
        "omega_abp_mhz": "2575.0", "omega_bpc_mhz": "4993.0",
        "mu_a_prime_debye": "0.8", "mu_c_prime_debye": "1.1",
    }
    spectator[key] = value
    text = CUSTOM_MOLECULE + "".join(f"{k} = {v}\n" for k, v in spectator.items())
    with pytest.raises(ConfigError, match="must be positive") as err:
        parse_config(text)
    assert err.value.section == "molecule"


def test_design_fields_parse():
    text = MINIMAL + (
        "\n[design]\n"
        "target = b\n"
        "hand = right\n"
        "tau0_ns = 20.0\n"
        "k = 1\n"
        "kprime = 2\n"
        "l = -1\n"
        "stage1_center_ns = 10.0\n"
        "stage2_center_ns = 200.0\n"
        "convention = absolute\n"
    )
    d = parse_config(text).design
    assert d.target == "B"
    assert d.hand is Handedness.RIGHT
    assert (d.k, d.kprime, d.l) == (1, 2, -1)
    assert d.stage1_center == 10.0
    assert d.stage2_center == 200.0
    assert d.convention is PhaseConvention.ABSOLUTE


def test_design_bad_hand_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[design]\nhand = middle\n")
    assert err.value.section == "design"
    assert err.value.key == "hand"


@pytest.mark.parametrize("key", ["k", "kprime", "l"])
def test_design_bad_integer_names_its_key(key):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"\n[design]\n{key} = 1.5\n")
    assert (err.value.section, err.value.key) == ("design", key)
    assert str(err.value) == f"[design] {key}: expected an integer, got '1.5'"


def test_pulse_explicit_overrides():
    text = MINIMAL + (
        "\n[pulse.b]\n"
        "area_param = 0.25\n"
        "center_time_ns = 123.0\n"
        "duration_ns = 10.0\n"
        "carrier_mhz = 7050.0\n"
        "phase_rad = 1.25\n"
        "convention = absolute\n"
    )
    spec = parse_config(text)
    p = spec.pulses["b"]
    assert p.area_param == 0.25
    assert p.center_time == 123.0
    assert p.duration == 10.0
    assert p.carrier_mhz == 7050.0
    assert p.phase == 1.25
    assert p.convention is PhaseConvention.ABSOLUTE
    # untouched channels keep the auto resolution
    assert spec.pulses["a"].carrier_mhz == spec.molecule.channel_transition_mhz("a")


def test_pulse_auto_literal_equivalent_to_omission():
    explicit_auto = MINIMAL + (
        "\n[pulse.a]\n"
        "area_param = auto\ncarrier_mhz = auto\nphase_rad = auto\n"
    )
    assert parse_config(explicit_auto) == parse_config(MINIMAL)


def test_pulse_detuned_carrier_keeps_design_phase_realization():
    # An explicit carrier changes the realized phase through the convention
    # formula, not the design phase itself.
    text = MINIMAL + "\n[pulse.a]\ncarrier_mhz = 4000.0\n"
    spec = parse_config(text)
    p = spec.pulses["a"]
    _, transition = spec.molecule.channel_transition("a")
    expected = realize_phase(
        design_phases(spec.design)["a"], transition,
        mhz_to_rad_per_ns(4000.0), p.center_time, p.convention,
    )
    assert p.phase == expected


def test_grid_defaults():
    g = parse_config(MINIMAL).grid
    assert g == GridSection()
    assert g.dt_ns is None and g.t_start_ns is None and g.t_end_ns is None
    assert g.sample_stride == 128
    assert g.drift_tol == 1e-8


def test_grid_explicit_and_auto_values():
    text = MINIMAL + (
        "\n[grid]\n"
        "dt_ns = 0.001\n"
        "t_start_ns = auto\n"
        "t_end_ns = 500.0\n"
        "sample_stride = 7\n"
        "drift_tol = 1e-10\n"
    )
    g = parse_config(text).grid
    assert g.dt_ns == 0.001
    assert g.t_start_ns is None
    assert g.t_end_ns == 500.0
    assert g.sample_stride == 7
    assert g.drift_tol == 1e-10


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section,key",
    [
        ("grid", "dt_ns"),
        ("grid", "t_start_ns"),
        ("grid", "t_end_ns"),
        ("grid", "drift_tol"),
        ("design", "tau0_ns"),
        ("pulse.c", "area_param"),
        ("sweep", "scale_max"),
        ("sweep", "delta_tau_products"),
    ],
)
def test_non_finite_numbers_rejected(section, key, raw):
    # NaN slips past "x <= 0" checks, and drift_tol = nan would disable the
    # norm guard, so the parser refuses non-finite numbers outright
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: expected (a )?finite number"):
        parse_config(MINIMAL + f"\n[{section}]\n{key} = {raw}\n")


def test_sweep_defaults_track_tau0():
    s = parse_config(MINIMAL).sweep
    assert s.phase_count == 64 and s.tau_count == 64
    assert s.phase_min_rad == 0.0
    assert s.phase_max_rad == pytest.approx(2 * math.pi)
    assert (s.delay1_min_ns, s.delay1_max_ns) == (140.0, 420.0)
    assert (s.delay2_min_ns, s.delay2_max_ns) == (140.0, 420.0)
    assert s.delta_tau_products == (0.25, 0.5, 1.0)
    assert (s.scale_min, s.scale_max, s.scale_count) == (0.5, 2.5, 33)
    assert s.mode == "scale_b" and s.engine == "exact"
    # The delay window scales with the design duration.
    s20 = parse_config(MINIMAL + "\n[design]\ntau0_ns = 20.0\n").sweep
    assert (s20.delay1_min_ns, s20.delay1_max_ns) == (80.0, 240.0)


def test_sweep_value_grids():
    s = parse_config(MINIMAL + "\n[sweep]\nphase_count = 5\n").sweep
    values = s.phase_values()
    assert values.size == 5
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(2 * math.pi)
    deltas = s.delta_values(35.0)
    assert deltas == pytest.approx([0.25 / 35, 0.5 / 35, 1.0 / 35])


def test_sweep_custom_products_and_validation():
    s = parse_config(
        MINIMAL + "\n[sweep]\ndelta_tau_products = 0.1, 0.3\n"
    ).sweep
    assert s.delta_tau_products == (0.1, 0.3)
    with pytest.raises(ConfigError, match="comma-separated"):
        parse_config(MINIMAL + "\n[sweep]\ndelta_tau_products = a, b\n")
    with pytest.raises(ConfigError, match="mode"):
        parse_config(MINIMAL + "\n[sweep]\nmode = scale_all\n")
    with pytest.raises(ConfigError, match="engine"):
        parse_config(MINIMAL + "\n[sweep]\nengine = magic\n")
    with pytest.raises(ConfigError, match="count"):
        parse_config(MINIMAL + "\n[sweep]\ntau_count = 0\n")


def test_output_dir():
    spec = parse_config(MINIMAL + "\n[output]\ndir = results/run1\n")
    assert spec.output_dir == "results/run1"


def test_design_overrides_merge_and_validate():
    spec = parse_config(
        MINIMAL, design_overrides={"convention": "absolute", "hand": "right"}
    )
    assert spec.design.convention is PhaseConvention.ABSOLUTE
    assert spec.design.hand is Handedness.RIGHT
    for pulse in spec.pulses.values():
        assert pulse.convention is PhaseConvention.ABSOLUTE
    with pytest.raises(ConfigError, match="unknown override key"):
        parse_config(MINIMAL, design_overrides={"bogus": "1"})
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, design_overrides={"hand": "middle"})


def test_design_overrides_beat_file_values():
    text = MINIMAL + "\n[design]\nhand = left\n"
    spec = parse_config(text, design_overrides={"hand": "right"})
    assert spec.design.hand is Handedness.RIGHT


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_config(path) == parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


# ---------------------------------------------------------------------------
# resolve_grid
# ---------------------------------------------------------------------------


def test_resolve_grid_auto_matches_default(molecule):
    spec = parse_config(MINIMAL)
    grid = resolve_grid(spec, levels=4)
    base = default_grid(molecule, list(spec.pulses.values()), 4)
    assert grid == base


def test_resolve_grid_explicit_overrides():
    spec = parse_config(
        MINIMAL
        + "\n[grid]\ndt_ns = 0.0005\nt_end_ns = 450.0\nsample_stride = 64\n"
    )
    grid = resolve_grid(spec, levels=3)
    base = default_grid(spec.molecule, list(spec.pulses.values()), 3)
    assert grid.dt == 0.0005
    assert grid.t_end >= 450.0  # stride rounding may stretch the end slightly
    assert grid.t_start == base.t_start
    assert grid.sample_stride == 64


# ---------------------------------------------------------------------------
# serialization round-trip
# ---------------------------------------------------------------------------

ROUND_TRIP_TEXTS = [
    MINIMAL,
    CUSTOM_MOLECULE + (
        "omega_abp_mhz = 2575.0\n"
        "omega_bpc_mhz = 4993.0\n"
        "mu_a_prime_debye = 0.8\n"
        "mu_c_prime_debye = 1.1\n"
        "\n[design]\n"
        "target = B\nhand = right\ntau0_ns = 17.5\nk = 1\nkprime = 2\nl = -3\n"
        "convention = absolute\n"
        "\n[pulse.c]\nphase_rad = 0.7853981633974483\ncarrier_mhz = 2860.0\n"
        "\n[grid]\ndt_ns = 0.002\nsample_stride = 32\ndrift_tol = 1e-09\n"
        "\n[sweep]\nphase_count = 9\nscale_max = 3.5\nengine = analytic\n"
        "\n[output]\ndir = out\n"
    ),
]


@pytest.mark.parametrize("text", ROUND_TRIP_TEXTS, ids=["preset", "custom"])
def test_round_trip_is_exact(text):
    spec = parse_config(text)
    rendered = serialize_config(spec)
    respawned = parse_config(rendered)
    assert respawned == spec
    assert serialize_config(respawned) == rendered


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-12, max_value=1e6)
_COUNTS = st.integers(min_value=1, max_value=10**6)

_GRID_SECTIONS = st.builds(
    GridSection,
    dt_ns=st.none() | _FINITE,
    t_start_ns=st.none() | _FINITE,
    t_end_ns=st.none() | _FINITE,
    sample_stride=_COUNTS,
    drift_tol=_POSITIVE,
)
# Sweep bounds from their valid domains: tau > 0, scale >= 0, and products
# whose detuning keeps every carrier of CUSTOM_MOLECULE at tau0 = 35 ns
# positive and finite (-100 / 35 rad/ns is -455 MHz; its lowest transition
# is 2857 MHz).
_SWEEP_BOUNDS = {
    "tau": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "scale": st.floats(min_value=0.0, allow_infinity=False),
}
_SWEEP_SECTIONS = st.builds(
    SweepSection,
    **{
        name: _COUNTS if name.endswith("_count")
        else _SWEEP_BOUNDS.get(name.partition("_")[0], _FINITE)
        for name in SweepSection.__dataclass_fields__
        if name not in ("delta_tau_products", "mode", "engine")
    },
    delta_tau_products=st.lists(
        st.floats(min_value=-100.0, max_value=1e300), min_size=1, max_size=4
    ).map(tuple),
    mode=st.sampled_from(sorted(DETUNING_MODES)),
    engine=st.sampled_from(tuple(ENGINES)),
)
# omega_ac of CUSTOM_MOLECULE is 7568 MHz; the spectator must close on it.
_SPECTATORS = st.none() | st.builds(
    lambda abp, mu_a, mu_c: SpectatorSpec(abp, 7568.0 - abp, mu_a, mu_c),
    st.floats(min_value=1.0, max_value=7567.0),
    _POSITIVE,
    _POSITIVE,
)


# No shrink phase: shrinking a failing draw of these floats ran for minutes.
@settings(
    max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(grid=_GRID_SECTIONS, sweep=_SWEEP_SECTIONS, spectator=_SPECTATORS)
def test_round_trip_property(grid, sweep, spectator):
    base = parse_config(CUSTOM_MOLECULE)
    spec = replace(
        base,
        molecule=replace(base.molecule, spectator=spectator),
        grid=grid,
        sweep=sweep,
    )
    rendered = serialize_config(spec)
    assert parse_config(rendered) == spec
    assert serialize_config(parse_config(rendered)) == rendered


#: (tau0_ns, k, kprime, l) design points for the config-vs-design check.
DESIGN_POINTS = [(35.0, 0, 0, 0), (0.8, 1, 2, -1), (3.0, 2, 0, 3), (17.5, 0, 1, 1)]


@pytest.mark.parametrize("molecule_text", [MINIMAL, CUSTOM_MOLECULE], ids=["preset", "custom"])
@pytest.mark.parametrize("convention", ["envelope", "absolute"])
@pytest.mark.parametrize("hand", ["left", "right"])
@pytest.mark.parametrize("target", ["B", "C"])
def test_config_pulses_are_designed_pulses(molecule_text, target, hand, convention):
    # With no [pulse.*] section the config resolves to designed_pulses
    # exactly, so a CLI run and an API run share every pulse bit.
    for tau0, k, kprime, l in DESIGN_POINTS:
        spec = parse_config(molecule_text + (
            f"\n[design]\ntarget = {target}\nhand = {hand}\ntau0_ns = {tau0!r}\n"
            f"k = {k}\nkprime = {kprime}\nl = {l}\nconvention = {convention}\n"
        ))
        assert spec.pulses == designed_pulses(spec.molecule, spec.design)


GOLDEN_TEXT = MINIMAL + """
[design]
target = B
hand = right
tau0_ns = 2.5
k = 1
kprime = 0
l = -1
stage1_center_ns = 5.0
stage2_center_ns = auto
convention = absolute

[pulse.a]
carrier_mhz = 4725.5
phase_rad = auto

[pulse.c]
duration_ns = 3.0
phase_rad = 0.3
convention = envelope

[grid]
dt_ns = auto
sample_stride = 64
"""

GOLDEN_SERIALIZED = """\
[molecule]
name = cyclohexylmethanol
omega_ab_mhz = 4720.0
omega_bc_mhz = 2339.0
omega_ac_mhz = 7059.0
mu_a_debye = 0.4
mu_b_debye = 1.2
mu_c_debye = 0.8
omega_abp_mhz = 2575.0
omega_bpc_mhz = 4484.0
mu_a_prime_debye = 0.4
mu_c_prime_debye = 0.8

[design]
target = B
hand = right
tau0_ns = 2.5
k = 1
kprime = 0
l = -1
stage1_center_ns = 5.0
stage2_center_ns = 25.0
convention = absolute

[pulse.a]
area_param = 8.330405509046935
center_time_ns = 25.0
duration_ns = 2.5
carrier_mhz = 4725.5
phase_rad = 5.419247327442491
convention = absolute

[pulse.b]
area_param = 0.6544984694978736
center_time_ns = 5.0
duration_ns = 2.5
carrier_mhz = 7059.0
phase_rad = 4.71238898038469
convention = absolute

[pulse.c]
area_param = 4.1652027545234676
center_time_ns = 25.0
duration_ns = 3.0
carrier_mhz = 2339.0
phase_rad = 0.3
convention = envelope

[grid]
dt_ns = auto
t_start_ns = auto
t_end_ns = auto
sample_stride = 64
drift_tol = 1e-08

[sweep]
phase_min_rad = 0.0
phase_max_rad = 6.283185307179586
phase_count = 64
tau_min_ns = 5.0
tau_max_ns = 50.0
tau_count = 64
delay1_min_ns = 10.0
delay1_max_ns = 30.0
delay1_count = 33
delay2_min_ns = 10.0
delay2_max_ns = 30.0
delay2_count = 33
delta_tau_products = 0.25, 0.5, 1.0
scale_min = 0.5
scale_max = 2.5
scale_count = 33
mode = scale_b
engine = exact

[output]
dir = .
"""


def test_serialized_text_is_pinned():
    # Every CSV embeds this text as its config snapshot, so its bytes are
    # part of the output format, not only something that reparses.
    assert serialize_config(parse_config(GOLDEN_TEXT)) == GOLDEN_SERIALIZED


def test_round_trip_preserves_irrational_floats():
    # repr formatting must survive parse -> serialize -> parse unchanged for
    # floats with no short decimal form.
    spec = parse_config(MINIMAL)
    pulse = spec.pulses["a"]
    assert pulse.area_param == math.pi / 1.6
    again = parse_config(serialize_config(spec)).pulses["a"]
    assert again.area_param == pulse.area_param
    assert again.phase == pulse.phase


def test_serialized_text_is_canonical_ini():
    rendered = serialize_config(parse_config(MINIMAL))
    assert rendered.startswith("[molecule]\n")
    assert "[pulse.a]" in rendered and "[sweep]" in rendered
    assert rendered.endswith("[output]\ndir = .\n")
    # No `auto` markers survive for pulse-level keys; grid keys keep them.
    assert "area_param = auto" not in rendered
    assert "dt_ns = auto" in rendered


def test_runspec_composition_types():
    spec = parse_config(MINIMAL)
    assert isinstance(spec, RunSpec)
    assert isinstance(spec.sweep, SweepSection)
    assert set(spec.pulses) == set(CHANNELS)

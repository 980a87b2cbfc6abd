"""Enantioselective state transfer in cyclic three-level systems.

Design microwave three-wave-mixing pulse sequences from the cyclic
pulse-area theorem, verify the closed-form transfer conditions, and check
everything against exact RK4 propagation of the full oscillating-field
Hamiltonian (no rotating-wave approximation), including a four-level
spectator guard model.
"""

from .analytic import (
    ConditionReport,
    analytic_final_populations,
    condition_residuals,
    two_stage_state,
)
from .areas import (
    ComplexArea,
    DesignSpec,
    complex_area,
    design_amplitudes,
    design_phases,
    designed_pulses,
    detuning_compensation,
    loop_phase_target,
    realize_phase,
    stage_areas,
)
from .config import (
    ConfigError,
    RunSpec,
    load_config,
    parse_config,
    resolve_grid,
    serialize_config,
)
from .experiments import (
    DetuningResult,
    SweepResult,
    read_snapshot,
    sweep_delays,
    sweep_detuning,
    sweep_phase_duration,
    write_detuning_csv,
    write_landscape_csv,
    write_trace_csv,
)
from .model import (
    CYCLOHEXYLMETHANOL,
    PRESETS,
    CouplingEdge,
    Handedness,
    LevelBasis,
    MoleculeSpec,
    SpectatorSpec,
    basis_for_levels,
    get_preset,
    loop_closure_residual,
    loop_couplings,
    mhz_to_rad_per_ns,
)
from .propagator import (
    GridConfig,
    GridTooCoarseError,
    NumericalGuardError,
    Trajectory,
    default_grid,
    norm_drift,
    populations,
    propagate,
    resolve_backend,
    trace_table,
)
from .pulses import (
    PhaseConvention,
    Pulse,
    envelope,
    field,
    spectral_amplitude,
    support_window,
)

__version__ = "0.1.0"

__all__ = [
    "CYCLOHEXYLMETHANOL",
    "ComplexArea",
    "ConditionReport",
    "ConfigError",
    "CouplingEdge",
    "DesignSpec",
    "DetuningResult",
    "GridConfig",
    "GridTooCoarseError",
    "Handedness",
    "LevelBasis",
    "MoleculeSpec",
    "NumericalGuardError",
    "PRESETS",
    "PhaseConvention",
    "Pulse",
    "RunSpec",
    "SpectatorSpec",
    "SweepResult",
    "Trajectory",
    "analytic_final_populations",
    "basis_for_levels",
    "complex_area",
    "condition_residuals",
    "default_grid",
    "design_amplitudes",
    "design_phases",
    "designed_pulses",
    "detuning_compensation",
    "envelope",
    "field",
    "get_preset",
    "load_config",
    "loop_closure_residual",
    "loop_couplings",
    "loop_phase_target",
    "mhz_to_rad_per_ns",
    "norm_drift",
    "parse_config",
    "populations",
    "propagate",
    "read_snapshot",
    "realize_phase",
    "resolve_backend",
    "resolve_grid",
    "serialize_config",
    "spectral_amplitude",
    "stage_areas",
    "support_window",
    "sweep_delays",
    "sweep_detuning",
    "sweep_phase_duration",
    "trace_table",
    "two_stage_state",
    "write_detuning_csv",
    "write_landscape_csv",
    "write_trace_csv",
]

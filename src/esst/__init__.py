"""Enantioselective state transfer in cyclic three-level systems.

Design microwave three-wave-mixing pulse sequences from the cyclic
pulse-area theorem, verify the closed-form transfer conditions, and check
everything against exact RK4 propagation of the full oscillating-field
Hamiltonian (no rotating-wave approximation), including a four-level
spectator guard model.
"""
import types

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
    PoolError,
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

# The imports above list the public API once; ``__all__`` is read off them.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

"""Level systems and coupling Hamiltonians for the cyclic three-wave-mixing loop.

A chiral rotor is modeled by three rotational levels |A>, |B>, |C> whose three
pairwise transitions are all dipole-allowed (a Delta-type, closed-loop system):
the a-type component drives A<->B, the b-type drives A<->C and the c-type
drives B<->C.  The two enantiomers share every energy and every dipole
magnitude; the only difference is the sign of the a-type coupling, which is
what the handedness sign rule below encodes.  An optional nearby "spectator"
level |B'> (coupled to A by the c-type and to C by the a-type component) turns
the loop into a four-level guard model used to confirm that the spectator
stays empty.

Units: transition frequencies enter in cyclic MHz and are converted to angular
rad/ns internally (omega = 2*pi*nu*1e-3); dipoles are in Debye; couplings
Omega = -mu*E are in rad/ns; hbar = 1 throughout.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

#: Tolerance on the loop-closure residual omega_AC - omega_AB - omega_BC, in MHz.
CLOSURE_TOL_MHZ = 1e-3

CHANNELS = ("a", "b", "c")


def mhz_to_rad_per_ns(nu_mhz: float) -> float:
    """Convert a cyclic frequency in MHz to an angular frequency in rad/ns."""
    return 2.0 * math.pi * nu_mhz * 1e-3


class Handedness(enum.Enum):
    """Enantiomer handedness; the sign multiplies the a-type coupling only."""

    LEFT = "left"
    RIGHT = "right"

    @property
    def sign(self) -> int:
        return 1 if self is Handedness.LEFT else -1

    @property
    def mirror(self) -> "Handedness":
        return Handedness.RIGHT if self is Handedness.LEFT else Handedness.LEFT


def require_finite(spec, *names: str) -> None:
    """Raise ValueError unless every named field of ``spec`` is finite.

    Range checks such as ``x <= 0`` are False for NaN, so they cannot
    catch it themselves.
    """
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SpectatorSpec:
    """A nearby rotational level |B'> that rides along in the guard model.

    |B'> couples to |A> through the c-type dipole component and to |C> through
    the a-type component, both driven by the same physical fields as the main
    loop.  Energy consistency requires omega_AB' + omega_B'C = omega_AC.
    """

    omega_abp_mhz: float
    omega_bpc_mhz: float
    mu_a_prime_debye: float
    mu_c_prime_debye: float

    def __post_init__(self) -> None:
        require_finite(
            self, "omega_abp_mhz", "omega_bpc_mhz",
            "mu_a_prime_debye", "mu_c_prime_debye",
        )
        if self.omega_abp_mhz <= 0 or self.omega_bpc_mhz <= 0:
            raise ValueError("spectator transition frequencies must be positive")
        if self.mu_a_prime_debye <= 0 or self.mu_c_prime_debye <= 0:
            raise ValueError("spectator dipole components must be positive")


@dataclass(frozen=True)
class MoleculeSpec:
    """Level energies, transition dipoles and optional spectator data.

    Frequencies are cyclic MHz; dipoles are positive magnitudes in Debye (the
    enantiomer sign lives in :class:`Handedness`, not here).  The three
    transition frequencies must close the loop:
    omega_AC = omega_AB + omega_BC within :data:`CLOSURE_TOL_MHZ`.
    """

    name: str
    omega_ab_mhz: float
    omega_bc_mhz: float
    omega_ac_mhz: float
    mu_a_debye: float
    mu_b_debye: float
    mu_c_debye: float
    spectator: SpectatorSpec | None = None
    closure_tol_mhz: float = CLOSURE_TOL_MHZ

    def __post_init__(self) -> None:
        positive = (
            "omega_ab_mhz", "omega_bc_mhz", "omega_ac_mhz",
            "mu_a_debye", "mu_b_debye", "mu_c_debye",
        )
        require_finite(self, *positive, "closure_tol_mhz")
        for label in positive:
            value = getattr(self, label)
            if value <= 0:
                raise ValueError(f"{label} must be strictly positive, got {value}")
        if self.closure_tol_mhz < 0:
            raise ValueError("closure_tol_mhz must be non-negative")
        residual = loop_closure_residual(self)
        if abs(residual) > self.closure_tol_mhz:
            raise ValueError(
                f"loop closure violated: omega_AC - omega_AB - omega_BC = "
                f"{residual:g} MHz exceeds {self.closure_tol_mhz:g} MHz"
            )
        if self.spectator is not None:
            sp = self.spectator
            sp_residual = sp.omega_abp_mhz + sp.omega_bpc_mhz - self.omega_ac_mhz
            if abs(sp_residual) > self.closure_tol_mhz:
                raise ValueError(
                    f"spectator energy inconsistency: omega_AB' + omega_B'C - "
                    f"omega_AC = {sp_residual:g} MHz exceeds "
                    f"{self.closure_tol_mhz:g} MHz"
                )

    # Angular frequencies, rad/ns
    @property
    def omega_ab(self) -> float:
        return mhz_to_rad_per_ns(self.omega_ab_mhz)

    @property
    def omega_bc(self) -> float:
        return mhz_to_rad_per_ns(self.omega_bc_mhz)

    @property
    def omega_ac(self) -> float:
        return mhz_to_rad_per_ns(self.omega_ac_mhz)

    # Kept in the instance __dict__, which fields, == and hash ignore.
    @functools.cached_property
    def _channel_table(self) -> dict[str, tuple[float, float]]:
        return {
            channel: (getattr(self, dipole), mhz_to_rad_per_ns(getattr(self, transition)))
            for channel, (dipole, transition) in _CHANNEL_FIELDS.items()
        }

    def channel_transition(self, channel: str) -> tuple[float, float]:
        """Return (dipole Debye, transition frequency rad/ns) for a channel.

        Channel 'a' drives A<->B, 'b' drives A<->C, 'c' drives B<->C.  Read
        from the molecule's channel table, built on first use.
        """
        try:
            return self._channel_table[channel]
        except KeyError:
            _channel_fields(channel)  # raises ValueError naming the channel
            raise

    def channel_transition_mhz(self, channel: str) -> float:
        """Transition frequency of a channel in cyclic MHz."""
        _, transition = _channel_fields(channel)
        return getattr(self, transition)


#: Channel -> (dipole field, transition field) of :class:`MoleculeSpec`.
_CHANNEL_FIELDS = {
    "a": ("mu_a_debye", "omega_ab_mhz"),
    "b": ("mu_b_debye", "omega_ac_mhz"),
    "c": ("mu_c_debye", "omega_bc_mhz"),
}


def _channel_fields(channel: str) -> tuple[str, str]:
    try:
        return _CHANNEL_FIELDS[channel]
    except KeyError:
        raise ValueError(f"unknown channel {channel!r}, expected one of {CHANNELS}")


@dataclass(frozen=True)
class LevelBasis:
    """Ordered level labels with energies (rad/ns) relative to E_A = 0.

    Three-level order is (A, B, C); four-level order is (A, B', B, C).
    """

    labels: tuple[str, ...]
    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.energies):
            raise ValueError("labels and energies must have the same length")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def _spectator(molecule: MoleculeSpec) -> SpectatorSpec:
    """The molecule's spectator data, which the four-level model needs."""
    if molecule.spectator is None:
        raise ValueError(f"molecule {molecule.name!r} has no spectator level")
    return molecule.spectator


def basis_for_levels(molecule: MoleculeSpec, levels: int) -> LevelBasis:
    """Basis (A, B, C) of the three-level loop or (A, B', B, C) with the spectator."""
    if levels == 3:
        return LevelBasis(("A", "B", "C"), (0.0, molecule.omega_ab, molecule.omega_ac))
    if levels == 4:
        return LevelBasis(("A", "Bp", "B", "C"), (
            0.0,
            mhz_to_rad_per_ns(_spectator(molecule).omega_abp_mhz),
            molecule.omega_ab,
            molecule.omega_ac,
        ))
    raise ValueError(f"levels must be 3 or 4, got {levels}")


@dataclass(frozen=True)
class CouplingEdge:
    """One off-diagonal coupling entry of the loop Hamiltonian.

    ``row < col`` index into the level basis; ``channel`` names the physical
    field driving this entry; ``dipole`` is the magnitude in Debye and
    ``hand_signed`` marks the entries that flip sign with handedness (the
    a-type couplings).
    """

    row: int
    col: int
    channel: str
    dipole: float
    hand_signed: bool


#: The three-level loop in basis (A, B, C) as (row, col, channel,
#: hand_signed) rows: (A,B) = +-Omega_a, (A,C) = Omega_b, (B,C) = Omega_c.
THREE_LEVEL_LOOP = (
    (0, 1, "a", True),
    (0, 2, "b", False),
    (1, 2, "c", False),
)


def loop_couplings(molecule: MoleculeSpec, levels: int) -> tuple[CouplingEdge, ...]:
    """Coupling topology of the three- or four-level model.

    Three levels: the rows of :data:`THREE_LEVEL_LOOP`.  Four-level basis
    (A, B', B, C) adds the spectator entries (A,B') = Omega'_c and
    (B',C) = +-Omega'_a, with (B',B) = 0.
    """
    if levels == 3:
        return tuple(
            CouplingEdge(
                row, col, channel, molecule.channel_transition(channel)[0], signed
            )
            for row, col, channel, signed in THREE_LEVEL_LOOP
        )
    if levels == 4:
        sp = _spectator(molecule)
        return (
            CouplingEdge(0, 1, "c", sp.mu_c_prime_debye, False),   # (A, B')
            CouplingEdge(0, 2, "a", molecule.mu_a_debye, True),    # (A, B)
            CouplingEdge(0, 3, "b", molecule.mu_b_debye, False),   # (A, C)
            CouplingEdge(1, 3, "a", sp.mu_a_prime_debye, True),    # (B', C)
            CouplingEdge(2, 3, "c", molecule.mu_c_debye, False),   # (B, C)
        )
    raise ValueError(f"levels must be 3 or 4, got {levels}")


def loop_closure_residual(molecule: MoleculeSpec) -> float:
    """omega_AC - omega_AB - omega_BC in MHz (zero for a resonant loop)."""
    return molecule.omega_ac_mhz - molecule.omega_ab_mhz - molecule.omega_bc_mhz


# ---------------------------------------------------------------------------
# Built-in molecule presets
# ---------------------------------------------------------------------------

CYCLOHEXYLMETHANOL = MoleculeSpec(
    name="cyclohexylmethanol",
    omega_ab_mhz=4720.0,
    omega_bc_mhz=2339.0,
    omega_ac_mhz=7059.0,
    mu_a_debye=0.4,
    mu_b_debye=1.2,
    mu_c_debye=0.8,
    spectator=SpectatorSpec(
        omega_abp_mhz=2575.0,
        omega_bpc_mhz=4484.0,
        mu_a_prime_debye=0.4,
        mu_c_prime_debye=0.8,
    ),
)

PRESETS: dict[str, MoleculeSpec] = {
    CYCLOHEXYLMETHANOL.name: CYCLOHEXYLMETHANOL,
}


def get_preset(name: str) -> MoleculeSpec:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown molecule preset {name!r}; known presets: {known}")

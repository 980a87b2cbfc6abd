"""Level structure, loop couplings and the interaction picture."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from esst.model import (
    CHANNELS,
    CYCLOHEXYLMETHANOL,
    MoleculeSpec,
    SpectatorSpec,
    basis_for_levels,
    get_preset,
    loop_closure_residual,
    loop_couplings,
    mhz_to_rad_per_ns,
)
from hamiltonian_oracle import coupling_matrix_3, coupling_matrix_4, interaction_picture_matrix
from helpers import L, R


def open_loop_molecule() -> MoleculeSpec:
    """A deliberately non-closing triple, admitted via a loose tolerance."""
    return MoleculeSpec(
        name="open",
        omega_ab_mhz=4720.0,
        omega_bc_mhz=2339.0,
        omega_ac_mhz=7060.0,
        mu_a_debye=0.4,
        mu_b_debye=1.2,
        mu_c_debye=0.8,
        closure_tol_mhz=2.0,
    )


# ---------------------------------------------------------------------------
# Loop closure
# ---------------------------------------------------------------------------


def test_preset_loop_closes_exactly():
    assert loop_closure_residual(CYCLOHEXYLMETHANOL) == 0.0


def test_simple_triple_closes():
    mol = MoleculeSpec("toy", 1.0, 1.0, 2.0, 0.5, 0.5, 0.5)
    assert loop_closure_residual(mol) == 0.0


def test_open_loop_residual_is_one_mhz():
    assert loop_closure_residual(open_loop_molecule()) == pytest.approx(1.0)


def test_open_loop_rejected_at_default_tolerance():
    with pytest.raises(ValueError, match="closure"):
        MoleculeSpec("bad", 4720.0, 2339.0, 7060.0, 0.4, 1.2, 0.8)


def test_spectator_energy_consistency_enforced():
    sp = SpectatorSpec(2575.0, 4485.0, 0.4, 0.8)  # sums to 7060, not 7059
    with pytest.raises(ValueError, match="spectator"):
        MoleculeSpec("bad", 4720.0, 2339.0, 7059.0, 0.4, 1.2, 0.8, spectator=sp)


def test_preset_spectator_sums_to_ac():
    sp = CYCLOHEXYLMETHANOL.spectator
    assert sp.omega_abp_mhz + sp.omega_bpc_mhz == CYCLOHEXYLMETHANOL.omega_ac_mhz


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name",
    ["omega_ab_mhz", "omega_bc_mhz", "omega_ac_mhz",
     "mu_a_debye", "mu_b_debye", "mu_c_debye", "closure_tol_mhz"],
)
def test_molecule_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        replace(CYCLOHEXYLMETHANOL, **{name: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name",
    ["omega_abp_mhz", "omega_bpc_mhz", "mu_a_prime_debye", "mu_c_prime_debye"],
)
def test_spectator_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        replace(CYCLOHEXYLMETHANOL.spectator, **{name: value})


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        get_preset("unobtanium")


# ---------------------------------------------------------------------------
# Unit conversion and channel lookup
# ---------------------------------------------------------------------------


def test_mhz_conversion_factor():
    # 1 cyclic MHz = 2*pi*1e-3 rad/ns
    assert mhz_to_rad_per_ns(1.0) == pytest.approx(2.0e-3 * np.pi, rel=1e-15)


def test_channel_transition_frequencies(molecule):
    # channel b drives the A-C transition, not B-C
    dip_a, om_a = molecule.channel_transition("a")
    dip_b, om_b = molecule.channel_transition("b")
    dip_c, om_c = molecule.channel_transition("c")
    assert (dip_a, dip_b, dip_c) == (0.4, 1.2, 0.8)
    assert om_a == pytest.approx(mhz_to_rad_per_ns(4720.0))
    assert om_b == pytest.approx(mhz_to_rad_per_ns(7059.0))
    assert om_c == pytest.approx(mhz_to_rad_per_ns(2339.0))
    for channel in CHANNELS:
        _, transition = molecule.channel_transition(channel)
        assert transition == mhz_to_rad_per_ns(molecule.channel_transition_mhz(channel))


@pytest.mark.parametrize("method", ["channel_transition", "channel_transition_mhz"])
def test_unknown_channel_rejected(molecule, method):
    with pytest.raises(ValueError, match="unknown channel 'd'"):
        getattr(molecule, method)("d")


def test_handedness_sign_and_mirror():
    assert L.sign == +1 and R.sign == -1
    assert L.mirror is R and R.mirror is L


# ---------------------------------------------------------------------------
# Bases
# ---------------------------------------------------------------------------


def test_three_level_basis_layout(molecule):
    basis = basis_for_levels(molecule, 3)
    assert basis.labels == ("A", "B", "C")
    assert basis.energies[0] == 0.0
    assert basis.energies[1] == pytest.approx(molecule.omega_ab)
    assert basis.energies[2] == pytest.approx(molecule.omega_ac)


def test_four_level_basis_layout(molecule):
    basis = basis_for_levels(molecule, 4)
    assert basis.labels == ("A", "Bp", "B", "C")
    assert basis.energies[1] == pytest.approx(
        mhz_to_rad_per_ns(molecule.spectator.omega_abp_mhz)
    )
    assert basis.index("C") == 3


def test_basis_for_levels_dispatch(molecule):
    assert basis_for_levels(molecule, 3).dim == 3
    assert basis_for_levels(molecule, 4).dim == 4
    with pytest.raises(ValueError):
        basis_for_levels(molecule, 5)


def test_four_level_basis_requires_spectator():
    mol = MoleculeSpec("bare", 1.0, 1.0, 2.0, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="no spectator level"):
        basis_for_levels(mol, 4)


# ---------------------------------------------------------------------------
# Loop couplings against the hand-written matrices
# ---------------------------------------------------------------------------


def loop_hamiltonian(molecule, levels, fields, hand):
    """Dense coupling Hamiltonian from ``loop_couplings`` for channel fields E.

    Each edge holds -dipole * E of its channel, times the handedness sign on
    ``hand_signed`` edges, as ``propagate`` hands them to the kernel.  The
    result is checked against the hand-written oracle matrix, whose
    arguments are the couplings Omega = -mu * E of the loop's own dipoles.
    """
    dim = basis_for_levels(molecule, levels).dim
    h = np.zeros((dim, dim))
    for e in loop_couplings(molecule, levels):
        sign = hand.sign if e.hand_signed else 1
        h[e.row, e.col] = h[e.col, e.row] = -e.dipole * sign * fields[CHANNELS.index(e.channel)]
    couplings = tuple(-molecule.channel_transition(ch)[0] * f for ch, f in zip(CHANNELS, fields))
    oracle = (coupling_matrix_3 if levels == 3 else coupling_matrix_4)(molecule, couplings, hand)
    np.testing.assert_allclose(h, oracle, rtol=1e-15, atol=0.0)
    return h


def distinct_spectator_dipoles():
    """The preset with spectator dipoles unlike the loop's, 0.3 and 0.5 D."""
    sp = replace(CYCLOHEXYLMETHANOL.spectator, mu_a_prime_debye=0.3, mu_c_prime_debye=0.5)
    return replace(CYCLOHEXYLMETHANOL, spectator=sp)


def test_coupling3_channel_a_sign(molecule):
    h_left = loop_hamiltonian(molecule, 3, (1.0, 0.0, 0.0), L)
    h_right = loop_hamiltonian(molecule, 3, (1.0, 0.0, 0.0), R)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = -molecule.mu_a_debye
    np.testing.assert_array_equal(h_left, expected)
    np.testing.assert_array_equal(h_right, -expected)


def test_coupling3_zero_fields(molecule):
    for hand in (L, R):
        np.testing.assert_array_equal(
            loop_hamiltonian(molecule, 3, (0.0, 0.0, 0.0), hand), np.zeros((3, 3))
        )


def test_coupling3_mirror_is_sign_flip_of_a(molecule):
    fields = (0.7, -0.3, 1.1)
    flipped = (-0.7, -0.3, 1.1)
    np.testing.assert_array_equal(
        loop_hamiltonian(molecule, 3, fields, R),
        loop_hamiltonian(molecule, 3, flipped, L),
    )


def test_coupling3_symmetric_zero_diagonal(molecule):
    h = loop_hamiltonian(molecule, 3, (0.2, 0.5, -0.4), L)
    np.testing.assert_array_equal(h, h.T)
    np.testing.assert_array_equal(np.diag(h), np.zeros(3))


def test_coupling4_structure():
    mol = distinct_spectator_dipoles()
    sp = mol.spectator
    e_a, e_b, e_c = fields = (1.0, 2.0, 3.0)
    h = loop_hamiltonian(mol, 4, fields, L)
    # basis (A, B', B, C)
    assert h[0, 2] == -mol.mu_a_debye * e_a       # A-B   : +Omega_a
    assert h[0, 3] == -mol.mu_b_debye * e_b       # A-C   : Omega_b
    assert h[2, 3] == -mol.mu_c_debye * e_c       # B-C   : Omega_c
    assert h[0, 1] == -sp.mu_c_prime_debye * e_c  # A-B'  : Omega'_c
    assert h[1, 3] == -sp.mu_a_prime_debye * e_a  # B'-C  : +Omega'_a
    assert h[1, 2] == 0.0                          # B'-B  : forbidden
    np.testing.assert_array_equal(h, h.T)
    np.testing.assert_array_equal(np.diag(h), np.zeros(4))


def test_coupling4_zero_fields(molecule):
    for hand in (L, R):
        np.testing.assert_array_equal(
            loop_hamiltonian(molecule, 4, (0.0, 0.0, 0.0), hand), np.zeros((4, 4))
        )


def test_coupling4_hand_flips_only_a_type_entries():
    mol = distinct_spectator_dipoles()
    fields = (1.0, 2.0, 3.0)
    h_left = loop_hamiltonian(mol, 4, fields, L)
    h_right = loop_hamiltonian(mol, 4, fields, R)
    diff = h_left != h_right
    expect = np.zeros((4, 4), dtype=bool)
    expect[0, 2] = expect[2, 0] = True  # A-B
    expect[1, 3] = expect[3, 1] = True  # B'-C
    np.testing.assert_array_equal(diff, expect)
    np.testing.assert_array_equal(h_left[0, 2], -h_right[0, 2])
    np.testing.assert_array_equal(h_left[1, 3], -h_right[1, 3])


def test_coupling4_requires_spectator():
    mol = MoleculeSpec("bare", 1.0, 1.0, 2.0, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="spectator"):
        loop_couplings(mol, 4)


def test_loop_couplings_hand_signed_edges(molecule):
    edges3 = loop_couplings(molecule, 3)
    signed = {(e.row, e.col) for e in edges3 if e.hand_signed}
    assert signed == {(0, 1)}
    edges4 = loop_couplings(molecule, 4)
    signed4 = {(e.row, e.col) for e in edges4 if e.hand_signed}
    assert signed4 == {(0, 2), (1, 3)}


# ---------------------------------------------------------------------------
# Interaction picture, as the DOP853 oracle in test_propagator applies it
# ---------------------------------------------------------------------------


def test_interaction_picture_identity_at_t0(molecule):
    h = loop_hamiltonian(molecule, 3, (0.3, 0.7, -0.2), L)
    basis = basis_for_levels(molecule, 3)
    out = interaction_picture_matrix(h, basis.energies, 0.0)
    np.testing.assert_array_equal(out, h.astype(complex))


def test_interaction_picture_diagonal_invariant():
    h = np.diag([1.0, 2.0, 3.0])
    out = interaction_picture_matrix(h, (0.0, 5.0, 9.0), 1.234)
    np.testing.assert_allclose(out, h, atol=0.0)


def test_interaction_picture_two_level_phase():
    omega = 3.7
    h = np.array([[0.0, 2.5], [2.5, 0.0]])
    t = 0.81
    out = interaction_picture_matrix(h, (0.0, omega), t)
    assert out[0, 1] == pytest.approx(2.5 * np.exp(-1j * omega * t))
    assert out[1, 0] == pytest.approx(2.5 * np.exp(+1j * omega * t))


@pytest.mark.parametrize("t", [0.0, 0.37, 12.9, -4.2])
def test_interaction_picture_preserves_hermiticity_and_spectrum(molecule, t):
    h = loop_hamiltonian(molecule, 3, (0.4, -0.9, 0.6), R)
    basis = basis_for_levels(molecule, 3)
    out = interaction_picture_matrix(h, basis.energies, t)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-14)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(out)),
        np.sort(np.linalg.eigvalsh(h)),
        atol=1e-12,
    )


def test_interaction_picture_dimension_mismatch():
    with pytest.raises(ValueError):
        interaction_picture_matrix(np.zeros((3, 3)), (0.0, 1.0), 0.0)

"""The loop Hamiltonian written out by hand as dense matrices.

A reference kept apart from ``esst.model.loop_couplings``, which is the
package's one definition of the loop: the scipy DOP853 oracle in
``test_propagator.py`` builds its right-hand side from these matrices, and
``test_model.py`` checks ``loop_couplings`` against them.
"""
from __future__ import annotations

import numpy as np


def coupling_matrix_3(molecule, fields, hand):
    """Off-diagonal coupling matrix of the three-level loop (A, B, C).

    ``fields`` are the instantaneous couplings (Omega_a, Omega_b, Omega_c) in
    rad/ns, already including the -mu*E product.  The handedness sign
    multiplies the a-type entry only.
    """
    omega_a, omega_b, omega_c = fields
    s = hand.sign
    return np.array(
        [
            [0.0, s * omega_a, omega_b],
            [s * omega_a, 0.0, omega_c],
            [omega_b, omega_c, 0.0],
        ]
    )


def coupling_matrix_4(molecule, fields, hand):
    """Off-diagonal coupling matrix of the four-level guard model.

    Basis order (A, B', B, C).  The spectator couplings come from the same
    two physical fields: Omega'_a = (mu'_a/mu_a) * Omega_a and
    Omega'_c = (mu'_c/mu_c) * Omega_c.  Both a-type entries carry the
    handedness sign; (B', B) is zero.
    """
    sp = molecule.spectator
    omega_a, omega_b, omega_c = fields
    omega_ap = (sp.mu_a_prime_debye / molecule.mu_a_debye) * omega_a
    omega_cp = (sp.mu_c_prime_debye / molecule.mu_c_debye) * omega_c
    s = hand.sign
    return np.array(
        [
            [0.0, omega_cp, s * omega_a, omega_b],
            [omega_cp, 0.0, 0.0, s * omega_ap],
            [s * omega_a, 0.0, 0.0, omega_c],
            [omega_b, s * omega_ap, omega_c, 0.0],
        ]
    )


def interaction_picture_matrix(h_coupling, energies, t):
    """Entry (j, k) of ``h_coupling`` times exp(i (E_j - E_k) t)."""
    energies = np.asarray(energies, dtype=float)
    return np.asarray(h_coupling) * np.exp(1j * np.subtract.outer(energies, energies) * t)

"""Two-qubit entanglement measures.

Concurrence (pure and Wootters mixed-state), entanglement of formation,
entropy of entanglement, and the ensemble quantities built on them: the
probability-weighted average entanglement of a pure-state decomposition and
the hidden-entanglement gap between that average and the entanglement of
formation of the averaged density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SIGMA_Y,
    check_density_matrix,
    check_state_vector,
    hermitian_eigen,
    partial_trace,
    projector,
    tensor_product,
    von_neumann_entropy,
)

_SPIN_FLIP = tensor_product(SIGMA_Y, SIGMA_Y)
_CLAMP = 1e-9


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1 - x) log2 (1 - x), with h(0) = h(1) = 0."""
    x = float(x)
    if x < -_CLAMP or x > 1.0 + _CLAMP:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    if x <= 1e-15 or x >= 1.0 - 1e-15:
        return 0.0
    return float(-(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x)))


def concurrence_pure(psi) -> float:
    """Concurrence of a two-qubit pure state: 2 |a00 a11 - a01 a10|."""
    psi = check_state_vector(psi, dim=4)
    c = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
    return float(min(1.0, c))


def concurrence_mixed(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    The Wootters lambdas are the root-eigenvalues of rho @ rho_tilde with
    rho_tilde = (sy x sy) rho* (sy x sy). Writing rho = L L^dag through its
    rank-revealing eigenfactor L = V sqrt(diag w), the nonzero spectrum of
    rho rho_tilde equals that of the small Hermitian PSD matrix
    L^dag rho_tilde L, so no general complex eigensolver is needed. The rank
    truncation matters: eigenvalues of rho at roundoff level would otherwise
    contaminate the lambdas at the sqrt(eps) ~ 1e-8 scale on rank-deficient
    states.
    """
    rho = check_density_matrix(rho, dim=4)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    w, v = hermitian_eigen(rho)
    keep = w > 1e-12 * w[0]
    factor = v[:, keep] * np.sqrt(w[keep])
    lam_sq = np.linalg.eigvalsh(factor.conj().T @ rho_tilde @ factor)
    lam = np.sort(np.sqrt(np.clip(lam_sq, 0.0, None)))[::-1]
    lam = np.concatenate([lam, np.zeros(4 - lam.size)])
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) in bits."""
    c = float(c)
    if c < -_CLAMP or c > 1.0 + _CLAMP:
        raise ValueError(f"concurrence {c!r} outside [0, 1]")
    c = min(1.0, max(0.0, c))
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def entropy_of_entanglement(psi) -> float:
    """Von Neumann entropy of the reduced state of qubit A, in bits."""
    psi = check_state_vector(psi, dim=4)
    return von_neumann_entropy(partial_trace(projector(psi), 0, (2, 2)))


@dataclass(eq=False)
class WeightedEnsemble:
    """Physical decomposition {(p_i, |psi_i>)} of a two-qubit state."""

    members: tuple[tuple[float, np.ndarray], ...]

    def __init__(self, members):
        checked = []
        total = 0.0
        for p, psi in members:
            p = float(p)
            if not 0.0 < p <= 1.0:
                raise ValueError(f"member probability {p!r} outside (0, 1]")
            checked.append((p, check_state_vector(psi, dim=4)))
            total += p
        if not checked:
            raise ValueError("ensemble has no members")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"member probabilities sum to {total!r}, expected 1")
        self.members = tuple(checked)

    def density_matrix(self) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        for p, psi in self.members:
            rho += p * np.outer(psi, psi.conj())
        return rho


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement of one ensemble: mixed-state measures plus the hidden gap."""

    concurrence: float
    eof: float
    e_av: float
    e_hidden: float


def average_entanglement(ensemble: WeightedEnsemble) -> float:
    """Probability-weighted entropy of entanglement over the ensemble members."""
    return float(sum(p * entropy_of_entanglement(psi) for p, psi in ensemble.members))


def hidden_entanglement(ensemble: WeightedEnsemble) -> EntanglementReport:
    """Average entanglement minus the EoF of the averaged state.

    The gap is the entanglement recoverable with classical which-member
    information alone; by convexity of the EoF it is nonnegative up to
    roundoff.
    """
    c = concurrence_mixed(ensemble.density_matrix())
    eof = eof_from_concurrence(c)
    e_av = average_entanglement(ensemble)
    return EntanglementReport(concurrence=c, eof=eof, e_av=e_av, e_hidden=e_av - eof)

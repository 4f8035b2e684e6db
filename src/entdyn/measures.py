"""Two-qubit entanglement measures.

Concurrence (pure and Wootters mixed-state), entanglement of formation,
entropy of entanglement, and the probability-weighted average entanglement
of a pure-state decomposition. Every measure and the ensemble take stacks:
a leading batch axis (the time grid, for the scenarios) runs through one
call, and a single state is a stack with no leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SIGMA_Y,
    _worst,
    check_density_matrix,
    check_state_vector,
    hermitian_eigen,
    projector,
)

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)
_CLAMP = 1e-9


def _check_range(x: np.ndarray, what: str) -> None:
    """Raise for the member of a stack furthest outside [0, 1] beyond the clamp band."""
    excess = np.maximum(-x, x - 1.0)
    if np.any(~(excess <= _CLAMP)):  # NaN fails
        raise ValueError(f"{what} {float(_worst(x, excess))!r} outside [0, 1]")


def binary_entropy(x):
    """h(x) = -x log2 x - (1 - x) log2 (1 - x), with h(0) = h(1) = 0, per
    element of an array (...)."""
    x = np.asarray(x, dtype=float)
    _check_range(x, "binary entropy argument")
    inner = (x > 1e-15) & (x < 1.0 - 1e-15)
    y = np.where(inner, x, 0.5)
    h = -(y * np.log2(y) + (1.0 - y) * np.log2(1.0 - y))
    return np.where(inner, h, 0.0)[()]


def concurrence_pure(psi):
    """Concurrence of two-qubit pure states: 2 |a00 a11 - a01 a10| / <psi|psi>,
    per state of a stack (..., 4).

    Dividing by the norm (1 to 1e-12) cancels the rounding of the amplitudes,
    so the Bell states give exactly 1.
    """
    psi = check_state_vector(psi, dim=4)
    det = psi[..., 0] * psi[..., 3] - psi[..., 1] * psi[..., 2]
    return np.minimum(1.0, 2.0 * np.abs(det) / np.sum(np.abs(psi) ** 2, axis=-1))[()]


def concurrence_mixed(rho):
    """Wootters concurrence of two-qubit density matrices, shape (..., 4, 4).

    The Wootters lambdas are the root-eigenvalues of rho @ rho_tilde with
    rho_tilde = (sy x sy) rho* (sy x sy). Writing rho = L L^dag through its
    rank-revealing eigenfactor L = V sqrt(diag w), the nonzero spectrum of
    rho rho_tilde equals that of the small Hermitian PSD matrix
    L^dag rho_tilde L, so no general complex eigensolver is needed. The rank
    truncation matters: eigenvalues of rho at roundoff level would otherwise
    contaminate the lambdas at the sqrt(eps) ~ 1e-8 scale on rank-deficient
    states. The dropped eigenfactor columns are zeroed, which keeps every
    member of a stack at 4 x 4 and adds zero lambdas only.
    """
    w, v = hermitian_eigen(rho)
    rho = check_density_matrix(rho, dim=4, eigenvalues=w)  # one eigensolve for both
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    keep = w > 1e-12 * w[..., :1]
    factor = v * np.sqrt(np.where(keep, w, 0.0))[..., None, :]
    lam_sq = np.linalg.eigvalsh(factor.conj().swapaxes(-1, -2) @ rho_tilde @ factor)
    lam = np.sqrt(np.clip(lam_sq, 0.0, None))  # ascending, as eigvalsh returns them
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    # + 0.0 turns a -0.0 difference into 0.0
    return np.maximum(c, 0.0)[()] + 0.0


def eof_from_concurrence(c):
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) in bits, per
    element of an array (...)."""
    c = np.asarray(c, dtype=float)
    _check_range(c, "concurrence")
    c = np.clip(c, 0.0, 1.0)
    return binary_entropy(0.5 * (1.0 + np.sqrt(np.maximum(1.0 - c * c, 0.0))))


def entropy_of_entanglement(psi):
    """Von Neumann entropy of the reduced state of qubit A, in bits, per
    state of a stack (..., 4).

    For a pure two-qubit state this is the entanglement of formation of its
    concurrence (Wootters, PRL 80, 2245, 1998), so no reduced state is formed.
    """
    return eof_from_concurrence(concurrence_pure(psi))


@dataclass(eq=False)
class WeightedEnsemble:
    """Physical decompositions {(p_k, |psi_k>)} of two-qubit states, stacked.

    ``probs`` (..., k) lie in [0, 1] and sum to 1 over the member axis, each
    to 1e-9; ``states`` (..., k, 4) are unit vectors. A single ensemble is a stack with
    no leading axes. A member of probability 0 is kept.
    """

    probs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.states = check_state_vector(self.states, dim=4)
        if self.probs.ndim < 1 or self.states.shape[:-1] != self.probs.shape:
            raise ValueError(f"member probabilities of shape {self.probs.shape} do not match "
                             f"states of shape {self.states.shape}")
        _check_range(self.probs, "member probability")
        total = np.sum(self.probs, axis=-1)
        dev = np.abs(total - 1.0)
        if np.any(~(dev <= 1e-9)):  # NaN fails
            raise ValueError(f"member probabilities sum to {float(_worst(total, dev))!r}, expected 1")

    def density_matrix(self) -> np.ndarray:
        """The averaged state sum_k p_k |psi_k><psi_k|, shape (..., 4, 4)."""
        return np.sum(self.probs[..., None, None] * projector(self.states), axis=-3)


def average_entanglement(ensemble: WeightedEnsemble):
    """sum_k p_k E(psi_k), the probability-weighted entropy of entanglement
    of the members, per ensemble of the stack (...)."""
    return np.sum(ensemble.probs * entropy_of_entanglement(ensemble.states), axis=-1)[()]

"""Dense complex linear algebra for Hilbert spaces of dimension <= 8.

Everything here is a pure function on numpy arrays; the validators raise on
malformed inputs instead of silently repairing them. Each check is written
so that a NaN fails it (``~(dev <= tol)``, not ``dev > tol``).
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
TRACE_TOL = 1e-12
# MC averaging leaves eigenvalues a hair below zero; anything lower is a bug,
# not roundoff, and must not be clamped away.
EIG_FLOOR = -1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Two-qubit Bell states in the |00>, |01>, |10>, |11> product basis
# (qubit A is the left, most significant factor).
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def _worst(values: np.ndarray, badness: np.ndarray):
    """The member of a stack with the largest ``badness``, for error messages."""
    return values.reshape(-1)[int(np.argmax(badness.reshape(-1)))]


def check_state_vector(psi, dim: int | None = None) -> np.ndarray:
    """Validate pure states, shape (..., d): complex, each of unit norm to 1e-12."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 1:
        raise ValueError(f"state vector must have at least 1 axis, got shape {psi.shape}")
    if dim is not None and psi.shape[-1] != dim:
        raise ValueError(f"state vector has dimension {psi.shape[-1]}, expected {dim}")
    norm_sq = np.sum(np.abs(psi) ** 2, axis=-1)
    dev = np.abs(norm_sq - 1.0)
    if np.any(~(dev <= NORM_TOL)):
        raise ValueError(f"state vector not normalized: |psi|^2 = {float(_worst(norm_sq, dev))!r}")
    return psi


def check_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate square Hermitian matrices, shape (..., d, d), to the given entrywise tolerance."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0))
    if not dev <= tol:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
    return m


def check_density_matrix(rho, dim: int | None = None, eigenvalues=None) -> np.ndarray:
    """Validate density matrices, shape (..., d, d): Hermitian, unit trace,
    eigenvalues >= -1e-10. A caller that has already decomposed rho passes
    its ``eigenvalues``; otherwise they are computed here."""
    rho = check_hermitian(rho)
    if dim is not None and rho.shape[-1] != dim:
        raise ValueError(f"density matrix has dimension {rho.shape[-1]}, expected {dim}")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    dev = np.abs(tr - 1.0)
    if np.any(~(dev <= TRACE_TOL)):
        raise ValueError(f"density matrix trace is {complex(_worst(tr, dev))!r}, expected 1")
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(rho)
    w_min = float(np.min(eigenvalues, initial=np.inf))
    if not w_min >= EIG_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {w_min:.3e} < {EIG_FLOOR}")
    return rho


def projector(psi) -> np.ndarray:
    """|psi><psi| for unit-norm state vectors, shape (..., d) -> (..., d, d)."""
    psi = check_state_vector(psi)
    return psi[..., :, None] * psi.conj()[..., None, :]


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of Hermitian matrices (..., d, d), eigenvalues sorted
    descending.

    Returns ``(w, v)`` with ``m @ v[..., :, k] == w[..., k] * v[..., :, k]``.
    """
    m = check_hermitian(m)
    w, v = np.linalg.eigh(m)
    return np.ascontiguousarray(w[..., ::-1]), np.ascontiguousarray(v[..., ::-1])


import numpy as np
import pytest
from numpy.testing import assert_allclose

from entdyn.linalg import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_PLUS,
    SIGMA_X,
    SIGMA_Z,
    check_density_matrix,
    check_hermitian,
    check_state_vector,
    hermitian_eigen,
    projector,
)
from oracles import random_density, random_hermitian, random_state


def test_tensor_x_rotation_maps_phi_plus_to_psi_plus():
    assert_allclose(np.kron(SIGMA_X, np.eye(2)) @ PHI_PLUS, PSI_PLUS, atol=1e-15)


def test_hermitian_eigen_identity():
    w, _ = hermitian_eigen(np.eye(4, dtype=complex))
    assert_allclose(w, np.ones(4), atol=0)


def test_hermitian_eigen_sigma_z():
    w, _ = hermitian_eigen(SIGMA_Z)
    assert_allclose(w, [1.0, -1.0], atol=0)


def test_hermitian_eigen_bell_mixture():
    rho = 0.5 * projector(PHI_MINUS) + 0.5 * projector(PSI_PLUS)
    w, _ = hermitian_eigen(rho)
    assert_allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_hermitian_eigen_reconstruction():
    rng = np.random.default_rng(7)
    for dim in (2, 4, 8):
        m = random_hermitian(rng, dim)
        w, v = hermitian_eigen(m)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-9
        residual = m @ v - v * w
        assert np.max(np.abs(residual)) <= 1e-9


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_state_vector_validation():
    with pytest.raises(ValueError):
        check_state_vector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        check_state_vector(PHI_PLUS, dim=8)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def _nan_state_stack():
    rng = np.random.default_rng(19)
    states = np.array([random_state(rng) for _ in range(8)])
    states[5, 2] = np.nan
    return states


def _nan_density_stack():
    rng = np.random.default_rng(23)
    rhos = np.array([random_density(rng, 4) for _ in range(8)])
    rhos[5, 1, 2] = rhos[5, 2, 1] = np.nan
    return rhos


@pytest.mark.parametrize(
    "validator, stack",
    [
        (check_state_vector, _nan_state_stack),
        (check_hermitian, _nan_density_stack),
        (check_density_matrix, _nan_density_stack),
    ],
    ids=["state_vector", "hermitian", "density_matrix"],
)
def test_validators_reject_a_nan_member(validator, stack):
    # NaN compares False with everything, so a check written as `dev > tol` let it through.
    with pytest.raises(ValueError) as err:
        validator(stack())
    assert "nan" in str(err.value) and "\n" not in str(err.value)

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entdyn.linalg import (
    IDENTITY_2,
    PHI_MINUS,
    PHI_PLUS,
    PSI_PLUS,
    SIGMA_X,
    SIGMA_Z,
    check_density_matrix,
    check_hermitian,
    check_state_vector,
    hermitian_eigen,
    partial_trace,
    projector,
    tensor_product,
    von_neumann_entropy,
)
from oracles import binary_entropy, random_density, random_hermitian, random_state, random_unitary


def test_tensor_identity():
    assert_allclose(tensor_product(IDENTITY_2, IDENTITY_2), np.eye(4), atol=0)


def test_tensor_basis_kets():
    ket0 = np.array([1.0, 0.0], dtype=complex)
    assert_allclose(tensor_product(ket0, ket0), [1, 0, 0, 0], atol=0)


def test_tensor_x_rotation_maps_phi_plus_to_psi_plus():
    assert_allclose(tensor_product(SIGMA_X, IDENTITY_2) @ PHI_PLUS, PSI_PLUS, atol=1e-15)


def test_tensor_associative():
    rng = np.random.default_rng(11)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    assert_allclose(
        tensor_product(tensor_product(a, b), c),
        tensor_product(a, tensor_product(b, c)),
        atol=0,
    )


def test_partial_trace_bell():
    assert_allclose(partial_trace(projector(PHI_PLUS), 0, (2, 2)), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_state():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    assert_allclose(partial_trace(projector(ket00), 0, (2, 2)), [[1, 0], [0, 0]], atol=0)


def test_partial_trace_swap_time_tripartite():
    # A fully swapped out of the entangled pair: (|000> - i|011>)/sqrt(2)
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[3] = -1j / np.sqrt(2)
    rho_a = partial_trace(projector(psi), 0, (2, 4))
    assert_allclose(rho_a, [[1, 0], [0, 0]], atol=1e-15)


def test_partial_trace_product_inputs():
    rng = np.random.default_rng(5)
    a = random_density(rng, 2)
    b = random_hermitian(rng, 3)
    combined = tensor_product(a, b)
    assert_allclose(partial_trace(combined, 0, (2, 3)), np.trace(b) * a, atol=1e-12)
    assert_allclose(partial_trace(combined, 1, (2, 3)), np.trace(a) * b, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, 0, (2, 3))


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


def test_entropy_pure_state():
    rng = np.random.default_rng(13)
    assert von_neumann_entropy(projector(random_state(rng, 4))) <= 1e-12


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-15)


def test_entropy_binary_diagonal():
    rho = np.diag([0.8536, 0.1464]).astype(complex)
    s = von_neumann_entropy(rho)
    assert s == pytest.approx(binary_entropy(0.8536), abs=1e-12)
    assert s == pytest.approx(0.6008, abs=1e-3)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - von_neumann_entropy(rho)) <= 1e-9


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

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entdyn.linalg import PHI_MINUS, PHI_PLUS, PSI_MINUS, PSI_PLUS, projector, tensor_product
from entdyn.measures import (
    WeightedEnsemble,
    average_entanglement,
    binary_entropy,
    concurrence_mixed,
    concurrence_pure,
    entropy_of_entanglement,
    eof_from_concurrence,
    hidden_entanglement,
)
from oracles import (
    eof_of_concurrence,
    random_state,
    random_unitary,
    wootters_concurrence,
)


def jc_branch_state(eta: float) -> np.ndarray:
    """(|00> + sqrt(eta)|11>) / sqrt(1 + eta), concurrence 2 sqrt(eta)/(1+eta)."""
    psi = np.array([1.0, 0.0, 0.0, math.sqrt(eta)], dtype=complex)
    return psi / np.linalg.norm(psi)


def test_concurrence_pure_bell():
    # exactly 1, although 1/sqrt(2) rounds down
    for bell in (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS):
        assert concurrence_pure(bell) == 1.0


def test_concurrence_pure_product():
    assert concurrence_pure(np.array([1, 0, 0, 0], dtype=complex)) == 0.0


def test_concurrence_pure_partially_entangled():
    assert concurrence_pure(jc_branch_state(0.25)) == pytest.approx(0.8, abs=1e-12)


def test_concurrence_pure_rejects_wrong_dim():
    with pytest.raises(ValueError):
        concurrence_pure(np.array([1.0, 0.0], dtype=complex))


def test_concurrence_mixed_separable_bell_mixture():
    rho = 0.5 * projector(PHI_MINUS) + 0.5 * projector(PSI_PLUS)
    assert concurrence_mixed(rho) == 0.0


def test_concurrence_mixed_dephased_bell():
    # Bell-diagonal state whose only coherence is e^{-1/2}/2: C is twice that.
    coherence = math.exp(-0.5) / 2.0
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = coherence
    assert concurrence_mixed(rho) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_concurrence_mixed_werner():
    rho = 0.5 * projector(PHI_PLUS) + 0.5 * np.eye(4) / 4
    assert concurrence_mixed(rho) == pytest.approx(0.25, abs=1e-12)
    assert concurrence_mixed(rho) == pytest.approx(wootters_concurrence(rho), abs=1e-10)


def test_concurrence_mixed_matches_bruteforce_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        members = [(0.25, random_state(rng)) for _ in range(4)]
        rho = sum(p * np.outer(psi, psi.conj()) for p, psi in members)
        assert concurrence_mixed(rho) == pytest.approx(wootters_concurrence(rho), abs=1e-9)


def test_concurrence_mixed_agrees_with_pure():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(1000):
        psi = random_state(rng)
        worst = max(worst, abs(concurrence_mixed(projector(psi)) - concurrence_pure(psi)))
    assert worst <= 1e-8


def test_concurrence_mixed_local_unitary_invariance():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = sum(
            p * np.outer(s, s.conj())
            for p, s in [(0.5, random_state(rng)), (0.5, random_state(rng))]
        )
        u = tensor_product(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert concurrence_mixed(rotated) == pytest.approx(concurrence_mixed(rho), abs=1e-8)


def test_eof_endpoints():
    assert eof_from_concurrence(1.0) == 1.0
    assert eof_from_concurrence(0.0) == 0.0


def test_eof_monotone():
    grid = np.linspace(0.0, 1.0, 101)
    values = [eof_from_concurrence(c) for c in grid]
    assert np.all(np.diff(values) >= 0.0)


def test_eof_reference_value():
    e = eof_from_concurrence(0.6065)
    assert e == pytest.approx(eof_of_concurrence(0.6065), abs=1e-12)
    assert e == pytest.approx(0.4766, abs=1e-3)


def test_eof_rejects_out_of_range():
    with pytest.raises(ValueError):
        eof_from_concurrence(1.1)
    # within the 1e-9 clamp band is fine
    assert eof_from_concurrence(1.0 + 1e-10) == 1.0


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_entropy_of_entanglement_bell_and_product():
    assert entropy_of_entanglement(PHI_PLUS) == pytest.approx(1.0, abs=1e-12)
    assert entropy_of_entanglement(np.array([0, 1, 0, 0], dtype=complex)) <= 1e-12


def test_entropy_of_entanglement_partially_entangled():
    assert entropy_of_entanglement(jc_branch_state(0.25)) == pytest.approx(
        binary_entropy(0.8), abs=1e-9
    )
    assert entropy_of_entanglement(jc_branch_state(0.25)) == pytest.approx(0.7219, abs=1e-3)


def test_entropy_equals_eof_of_pure_concurrence():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        psi = random_state(rng)
        assert entropy_of_entanglement(psi) == pytest.approx(
            eof_from_concurrence(concurrence_pure(psi)), abs=1e-9
        )


def test_average_entanglement_bell_pair_mixture():
    ens = WeightedEnsemble([(0.5, PHI_PLUS), (0.5, PHI_MINUS)])
    assert average_entanglement(ens) == pytest.approx(1.0, abs=1e-12)


def test_average_entanglement_product():
    ens = WeightedEnsemble([(1.0, np.array([1, 0, 0, 0], dtype=complex))])
    assert average_entanglement(ens) == 0.0


def test_average_entanglement_two_branch_unravelling():
    # p0 = 0.625 entangled branch with concurrence 0.8, p1 = 0.375 product
    ens = WeightedEnsemble(
        [(0.625, jc_branch_state(0.25)), (0.375, np.array([0, 1, 0, 0], dtype=complex))]
    )
    expected = 0.625 * eof_of_concurrence(0.8)
    assert average_entanglement(ens) == pytest.approx(expected, abs=1e-12)
    assert average_entanglement(ens) == pytest.approx(0.4512, abs=1e-3)


def test_hidden_entanglement_bell_rotation_midpoint():
    report = hidden_entanglement(WeightedEnsemble([(0.5, PHI_MINUS), (0.5, PSI_PLUS)]))
    assert report.e_av == pytest.approx(1.0, abs=1e-9)
    assert report.eof == 0.0
    assert report.e_hidden == pytest.approx(1.0, abs=1e-9)


def test_hidden_entanglement_recovered():
    report = hidden_entanglement(WeightedEnsemble([(0.5, PHI_PLUS), (0.5, PHI_PLUS)]))
    assert report.eof == pytest.approx(1.0, abs=1e-9)
    assert abs(report.e_hidden) <= 1e-9


def test_hidden_entanglement_exchange_gap():
    ens = WeightedEnsemble(
        [(0.75, jc_branch_state(0.5)), (0.25, np.array([0, 1, 0, 0], dtype=complex))]
    )
    report = hidden_entanglement(ens)
    expected = 0.75 * eof_of_concurrence(2.0 * math.sqrt(0.5) / 1.5) - eof_of_concurrence(
        math.sqrt(0.5)
    )
    assert report.e_hidden == pytest.approx(expected, abs=1e-9)
    assert report.e_hidden == pytest.approx(0.088, abs=2e-3)


def test_hidden_entanglement_report_consistency():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = rng.integers(2, 7)
        weights = rng.random(n)
        weights /= weights.sum()
        ens = WeightedEnsemble([(w, random_state(rng)) for w in weights])
        report = hidden_entanglement(ens)
        assert report.e_hidden == pytest.approx(report.e_av - report.eof, abs=1e-12)


def test_hidden_entanglement_convexity_sweep():
    rng = np.random.default_rng(43)
    worst = np.inf
    for _ in range(1000):
        n = rng.integers(2, 7)
        weights = rng.random(n)
        weights /= weights.sum()
        ens = WeightedEnsemble([(w, random_state(rng)) for w in weights])
        worst = min(worst, hidden_entanglement(ens).e_hidden)
    assert worst >= -1e-9


def test_weighted_ensemble_validation():
    with pytest.raises(ValueError):
        WeightedEnsemble([(0.7, PHI_PLUS)])  # probabilities do not sum to 1
    with pytest.raises(ValueError):
        WeightedEnsemble([(1.0, np.array([1.0, 1.0, 0.0, 0.0]))])  # not normalized
    with pytest.raises(ValueError):
        WeightedEnsemble([])


def test_weighted_ensemble_density_matrix():
    ens = WeightedEnsemble([(0.5, PHI_PLUS), (0.5, PHI_MINUS)])
    assert_allclose(ens.density_matrix(), np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entdyn.linalg import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    check_state_vector,
    projector,
    tensor_product,
)
from entdyn.measures import (
    WeightedEnsemble,
    average_entanglement,
    binary_entropy,
    concurrence_mixed,
    concurrence_pure,
    entropy_of_entanglement,
    eof_from_concurrence,
)
from oracles import (
    eof_of_concurrence,
    hidden_entanglement,
    random_state,
    random_unitary,
    takagi_concurrence,
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
    ens = WeightedEnsemble([0.5, 0.5], [PHI_PLUS, PHI_MINUS])
    assert average_entanglement(ens) == pytest.approx(1.0, abs=1e-12)


def test_average_entanglement_product():
    ens = WeightedEnsemble([1.0], [np.array([1, 0, 0, 0], dtype=complex)])
    assert average_entanglement(ens) == 0.0


def test_average_entanglement_two_branch_unravelling():
    # p0 = 0.625 entangled branch with concurrence 0.8, p1 = 0.375 product
    ens = WeightedEnsemble(
        [0.625, 0.375], [jc_branch_state(0.25), np.array([0, 1, 0, 0], dtype=complex)]
    )
    expected = 0.625 * eof_of_concurrence(0.8)
    assert average_entanglement(ens) == pytest.approx(expected, abs=1e-12)
    assert average_entanglement(ens) == pytest.approx(0.4512, abs=1e-3)


def test_hidden_entanglement_bell_rotation_midpoint():
    report = hidden_entanglement(WeightedEnsemble([0.5, 0.5], [PHI_MINUS, PSI_PLUS]))
    assert report.e_av == pytest.approx(1.0, abs=1e-9)
    assert report.eof == 0.0
    assert report.e_hidden == pytest.approx(1.0, abs=1e-9)


def test_hidden_entanglement_recovered():
    report = hidden_entanglement(WeightedEnsemble([0.5, 0.5], [PHI_PLUS, PHI_PLUS]))
    assert report.eof == pytest.approx(1.0, abs=1e-9)
    assert abs(report.e_hidden) <= 1e-9


def test_hidden_entanglement_exchange_gap():
    ens = WeightedEnsemble(
        [0.75, 0.25], [jc_branch_state(0.5), np.array([0, 1, 0, 0], dtype=complex)]
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
        ens = WeightedEnsemble(weights, [random_state(rng) for _ in weights])
        report = hidden_entanglement(ens)
        assert report.e_hidden == pytest.approx(report.e_av - report.eof, abs=1e-12)


def test_hidden_entanglement_convexity_sweep():
    rng = np.random.default_rng(43)
    worst = np.inf
    for _ in range(1000):
        n = rng.integers(2, 7)
        weights = rng.random(n)
        weights /= weights.sum()
        ens = WeightedEnsemble(weights, [random_state(rng) for _ in weights])
        worst = min(worst, hidden_entanglement(ens).e_hidden)
    assert worst >= -1e-9


def test_weighted_ensemble_validation():
    with pytest.raises(ValueError):
        WeightedEnsemble([0.7], [PHI_PLUS])  # probabilities do not sum to 1
    with pytest.raises(ValueError):
        WeightedEnsemble([1.0], [np.array([1.0, 1.0, 0.0, 0.0])])  # not normalized
    with pytest.raises(ValueError):
        WeightedEnsemble(np.empty(0), np.empty((0, 4)))


def test_weighted_ensemble_density_matrix():
    ens = WeightedEnsemble([0.5, 0.5], [PHI_PLUS, PHI_MINUS])
    assert_allclose(ens.density_matrix(), np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


def _random_stack(rng, count):
    """(rho, W) stacks of random two-qubit states of rank 1-4, rho = W W^dag."""
    rhos, factors = [], []
    for k in range(count):
        rank = 1 + k % 4
        weights = rng.random(rank)
        weights /= weights.sum()
        w = np.zeros((4, 4), dtype=complex)
        w[:, :rank] = np.array([random_state(rng) for _ in range(rank)]).T * np.sqrt(weights)
        rhos.append(w @ w.conj().T)
        factors.append(w)
    return np.array(rhos), factors


def test_concurrence_mixed_stack_equals_each_member():
    rhos, factors = _random_stack(np.random.default_rng(47), 240)
    stacked = concurrence_mixed(rhos)
    assert stacked.shape == (240,)
    single = np.array([concurrence_mixed(rho) for rho in rhos])
    np.testing.assert_array_equal(stacked, single)
    reference = np.array([takagi_concurrence(w) for w in factors])
    assert np.max(np.abs(stacked - reference)) <= 1e-9
    full_rank = slice(3, None, 4)  # the brute-force spectrum is only this exact at rank 4
    brute = np.array([wootters_concurrence(rho) for rho in rhos[full_rank]])
    assert np.max(np.abs(stacked[full_rank] - brute)) <= 1e-9
    np.testing.assert_array_equal(concurrence_mixed(rhos.reshape(60, 4, 4, 4)), stacked.reshape(60, 4))


def test_takagi_oracle_matches_bruteforce_at_full_rank():
    rng = np.random.default_rng(53)
    for _ in range(100):
        w = np.array([random_state(rng) for _ in range(4)]).T * 0.5
        assert takagi_concurrence(w) == pytest.approx(wootters_concurrence(w @ w.conj().T), abs=1e-9)


def test_stacked_measures_equal_each_member():
    rng = np.random.default_rng(59)
    states = np.array([random_state(rng) for _ in range(64)])
    np.testing.assert_array_equal(
        entropy_of_entanglement(states), [entropy_of_entanglement(psi) for psi in states]
    )
    c = rng.random(64)
    np.testing.assert_array_equal(eof_from_concurrence(c), [eof_from_concurrence(x) for x in c])
    np.testing.assert_array_equal(binary_entropy(c), [binary_entropy(x) for x in c])


def _bad_member(kind):
    rho = 0.25 * np.eye(4, dtype=complex)
    if kind == "hermitian":
        rho[0, 1] = 1e-6
    elif kind == "trace":
        rho[0, 0] += 1e-6
    elif kind == "eigenvalue":
        rho = np.diag([0.5 + 1e-9, 0.5, 0.0, -1e-9]).astype(complex)
    return rho


@pytest.mark.parametrize("kind", ["hermitian", "trace", "eigenvalue"])
def test_stack_with_one_bad_member_raises_its_error(kind):
    rhos, _ = _random_stack(np.random.default_rng(61), 16)
    bad = _bad_member(kind)
    with pytest.raises(ValueError) as alone:
        concurrence_mixed(bad)
    rhos[9] = bad
    with pytest.raises(ValueError) as stacked:
        concurrence_mixed(rhos)
    assert str(stacked.value) == str(alone.value)
    assert "\n" not in str(stacked.value)


def test_concurrence_stack_with_one_member_above_one_raises_its_error():
    c = np.linspace(0.0, 1.0, 16)
    c[5] = 1.0 + 2e-9
    with pytest.raises(ValueError) as alone:
        eof_from_concurrence(c[5])
    with pytest.raises(ValueError) as stacked:
        eof_from_concurrence(c)
    assert str(stacked.value) == str(alone.value)


def test_concurrence_pure_stack_equals_each_member():
    rng = np.random.default_rng(67)
    states = np.array([random_state(rng) for _ in range(64)])
    stacked = concurrence_pure(states)
    assert stacked.shape == (64,)
    np.testing.assert_array_equal(stacked, [concurrence_pure(psi) for psi in states])
    np.testing.assert_array_equal(concurrence_pure(states.reshape(16, 4, 4)), stacked.reshape(16, 4))
    np.testing.assert_array_equal(concurrence_pure([PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS]), 1.0)


@pytest.mark.parametrize("measure", [eof_from_concurrence, binary_entropy])
def test_range_check_rejects_a_nan_member(measure):
    x = np.linspace(0.0, 1.0, 16)
    x[7] = np.nan
    with pytest.raises(ValueError, match="nan outside"):
        measure(x)


def _ensemble_stack(rng, count, members):
    weights = rng.random((count, members))
    weights /= weights.sum(axis=-1, keepdims=True)
    states = np.array([[random_state(rng) for _ in range(members)] for _ in range(count)])
    return weights, states


def test_weighted_ensemble_keeps_a_zero_probability_member():
    ens = WeightedEnsemble([1.0, 0.0], [PHI_PLUS, np.array([0, 1, 0, 0], dtype=complex)])
    np.testing.assert_array_equal(ens.probs, [1.0, 0.0])
    assert average_entanglement(ens) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(ens.density_matrix(), projector(PHI_PLUS), atol=0)


def test_weighted_ensemble_rejects_bad_stacks():
    probs, states = _ensemble_stack(np.random.default_rng(71), 6, 3)
    WeightedEnsemble(probs, states)
    with pytest.raises(ValueError, match="do not match"):
        WeightedEnsemble(probs[:, :2], states)
    with pytest.raises(ValueError, match="do not match"):
        WeightedEnsemble(1.0, PHI_PLUS)  # no member axis
    negative = probs.copy()
    negative[4] = [0.75, 0.5, -0.25]
    with pytest.raises(ValueError, match=r"member probability -0.25 outside \[0, 1\]"):
        WeightedEnsemble(negative, states)
    short = probs.copy()
    short[1] *= 0.95
    short[4] *= 0.9  # the worst member is named, not the first
    with pytest.raises(ValueError) as err:
        WeightedEnsemble(short, states)
    total = float(np.sum(short[4]))
    assert str(err.value) == f"member probabilities sum to {total!r}, expected 1"
    unnormalized = states.copy()
    unnormalized[2, 1] *= 1.0 + 1e-6
    with pytest.raises(ValueError) as alone:
        check_state_vector(unnormalized[2, 1])
    with pytest.raises(ValueError) as stacked:
        WeightedEnsemble(probs, unnormalized)
    assert str(stacked.value) == str(alone.value)


def test_weighted_ensemble_rejects_a_nan_probability():
    probs, states = _ensemble_stack(np.random.default_rng(73), 6, 3)
    probs[3, 0] = np.nan
    with pytest.raises(ValueError, match="member probability nan outside"):
        WeightedEnsemble(probs, states)


def test_ensemble_stack_equals_each_ensemble():
    probs, states = _ensemble_stack(np.random.default_rng(79), 30, 3)
    stacked = WeightedEnsemble(probs, states)
    single = [WeightedEnsemble(p, psi) for p, psi in zip(probs, states)]
    e_av = average_entanglement(stacked)
    assert e_av.shape == (30,)
    np.testing.assert_array_equal(e_av, [average_entanglement(ens) for ens in single])
    np.testing.assert_array_equal(stacked.density_matrix(), [ens.density_matrix() for ens in single])
    reshaped = WeightedEnsemble(probs.reshape(5, 6, 3), states.reshape(5, 6, 3, 4))
    np.testing.assert_array_equal(average_entanglement(reshaped), e_av.reshape(5, 6))

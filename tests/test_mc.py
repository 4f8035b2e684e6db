import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from entdyn.grid import TimeGrid
from entdyn.linalg import PHI_MINUS, PHI_PLUS, check_density_matrix
from entdyn.mc import DephasingRun, _phase_block, coherence_series, run
from entdyn.measures import concurrence_mixed, concurrence_pure
from entdyn.noise import NoiseModel
from entdyn.pulses import PulseProtocol, toggling_steps
from oracles import (
    chi_free_ou,
    density_from_coherence,
    propagator_series,
    random_state,
    random_unitary,
    trajectory_state,
)

GRID = TimeGrid(8.0, 801)
STATIC = NoiseModel.static(1.0)
OU20 = NoiseModel.ou(1.0, 20.0)
ECHO4 = PulseProtocol.echo(4.0)
FREE = PulseProtocol.free()


def constant_phase(value: float, protocol: PulseProtocol, grid: TimeGrid = GRID) -> np.ndarray:
    """Accumulated phase of one realization with constant eps, shape (n_points,)."""
    return _phase_block(np.full((1, grid.n_points), value), grid, toggling_steps(protocol, grid))[0]


def test_accumulate_phase_constant_free():
    phi = constant_phase(0.7, FREE)
    assert_allclose(phi, 0.7 * GRID.times, atol=1e-12)


def test_accumulate_phase_echo_cancels_exactly():
    phi = constant_phase(1.3, ECHO4)
    assert phi[-1] == 0.0  # t = 2 tbar refocuses every static realization
    assert phi[400] == pytest.approx(1.3 * 4.0, rel=1e-12)


def test_accumulate_phase_pdd_parity_cancellation():
    phi = constant_phase(2.1, PulseProtocol.pdd(1.0))
    for k in (2, 4, 6, 8):
        assert phi[GRID.index_of(float(k))] == 0.0  # segment totals cancel bit-exactly


def test_accumulate_phase_rejects_off_grid_pulse():
    with pytest.raises(ValueError, match="not on the time grid"):
        constant_phase(1.0, PulseProtocol.echo(4.0042))


def test_trajectory_state_identity():
    out = trajectory_state(PHI_PLUS, 0.0)
    assert_allclose(out, PHI_PLUS, atol=0)


def test_trajectory_state_stays_maximally_entangled():
    rng = np.random.default_rng(71)
    for _ in range(25):
        out = trajectory_state(PHI_PLUS, rng.uniform(-30.0, 30.0))
        assert concurrence_pure(out) == pytest.approx(1.0, abs=1e-12)


def test_trajectory_state_pi_phase_gives_phi_minus():
    out = trajectory_state(PHI_PLUS, math.pi)
    phase = out[0] / PHI_MINUS[0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert_allclose(out, phase * PHI_MINUS, atol=1e-12)


def test_density_from_coherence_is_valid_density():
    rho = density_from_coherence(PHI_PLUS, 0.3 - 0.2j)
    check_density_matrix(rho)
    assert concurrence_mixed(rho) == pytest.approx(2.0 * abs(0.3 - 0.2j) / 2.0 * 1.0, abs=1e-12)


def test_static_free_matches_closed_form():
    cfg = DephasingRun(STATIC, FREE, GRID, 20_000, 7)
    series = run(cfg)
    exact = np.exp(-0.5 * GRID.times**2)
    assert np.max(np.abs(series.concurrence - exact)) <= 0.02
    assert np.max(np.abs(series.e_av - 1.0)) <= 1e-12
    assert_allclose(series.e_hidden, series.e_av - series.e_f, atol=1e-12)


def test_static_echo_recovers_exactly():
    series = run(DephasingRun(STATIC, ECHO4, GRID, 5_000, 11))
    # every realization refocuses exactly at 2 tbar, at any trajectory count
    assert series.concurrence[-1] == pytest.approx(1.0, abs=1e-12)
    assert series.e_f[-1] == pytest.approx(1.0, abs=1e-12)


def test_bell_state_measures_are_exact():
    # C(PHI_PLUS) is exactly 1, so e_av is exactly 1 and static echo
    # refocuses to exactly C = e_f = 1 at t = 2 tbar.
    series = run(DephasingRun(STATIC, ECHO4, GRID, 5_000, 11))
    assert np.all(series.e_av == 1.0)
    assert series.concurrence[-1] == 1.0 and series.e_f[-1] == 1.0


def test_mc_density_is_valid_everywhere():
    cfg = DephasingRun(OU20, ECHO4, TimeGrid(8.0, 161), 2_000, 13)
    m = coherence_series(cfg)
    for mj in m[::20]:
        check_density_matrix(density_from_coherence(PHI_PLUS, mj))


def test_coherence_identity():
    # C equals twice the coherence magnitude, exactly, independent of MC noise
    cfg = DephasingRun(OU20, FREE, TimeGrid(4.0, 41), 500, 17)
    m = coherence_series(cfg)
    series = run(cfg)
    assert_allclose(series.concurrence, np.abs(m), atol=1e-9)


def test_deterministic_across_workers():
    cfg = DephasingRun(OU20, ECHO4, TimeGrid(8.0, 201), 20_000, 19)
    r1 = run(cfg, workers=1)
    r4 = run(cfg, workers=4)
    r8 = run(cfg, workers=8)
    assert_array_equal(r1.concurrence, r4.concurrence)
    assert_array_equal(r1.concurrence, r8.concurrence)
    assert_array_equal(r1.e_f, r4.e_f)


def test_deterministic_across_calls():
    cfg = DephasingRun(OU20, FREE, TimeGrid(2.0, 21), 3_000, 23)
    assert_array_equal(run(cfg).concurrence, run(cfg).concurrence)


def assert_matches_propagator(cfg: DephasingRun):
    scalar = run(cfg)
    stepped = propagator_series(cfg)
    assert np.max(np.abs(scalar.concurrence - stepped.concurrence)) <= 1e-9
    assert np.max(np.abs(scalar.e_f - stepped.e_f)) <= 1e-9
    assert np.max(np.abs(scalar.e_av - stepped.e_av)) <= 1e-9


def test_propagator_path_agrees_with_scalar_path():
    assert_matches_propagator(DephasingRun(OU20, ECHO4, TimeGrid(8.0, 81), 400, 29))


def test_propagator_path_agrees_for_pdd():
    assert_matches_propagator(DephasingRun(STATIC, PulseProtocol.pdd(1.0), TimeGrid(4.0, 41), 300, 31))


def test_propagator_path_agrees_for_non_bell_states():
    # Partially entangled, complex initial states: C = |m| C(v) and
    # E_av = EoF(C(v)) against the stepwise propagator.
    rng = np.random.default_rng(67)
    for k, (noise, protocol) in enumerate(((OU20, ECHO4), (STATIC, PulseProtocol.pdd(1.0)), (OU20, FREE))):
        v = random_state(rng)
        assert concurrence_pure(v) < 0.99
        assert_matches_propagator(DephasingRun(noise, protocol, TimeGrid(4.0, 41), 300, 83 + k, initial_state=v))


def test_b_unitary_leaves_measures_unchanged():
    # A local unitary on qubit B, applied to the initial state, changes no measure.
    grid = TimeGrid(4.0, 41)
    rng = np.random.default_rng(37)
    v = random_state(rng)
    rotated = np.kron(np.eye(2), random_unitary(rng, 2)) @ v
    base = run(DephasingRun(OU20, FREE, grid, 1_000, 41, initial_state=v))
    turned = run(DephasingRun(OU20, FREE, grid, 1_000, 41, initial_state=rotated))
    assert_allclose(base.concurrence, turned.concurrence, atol=1e-12)
    assert_allclose(base.e_av, turned.e_av, atol=1e-12)


def test_concurrence_factorizes_over_coherence():
    # Wootters on the dephased state equals |m| C(v), |m| from 0 to 1.
    rng = np.random.default_rng(73)
    magnitudes = np.concatenate([[0.0, 1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12, 1.0], rng.random(1200)])
    worst = 0.0
    for k, r in enumerate(magnitudes):
        v = PHI_PLUS if k % 5 == 0 else random_state(rng)
        m = r * np.exp(1j * rng.uniform(-math.pi, math.pi))
        closed = abs(m) * concurrence_pure(v)
        worst = max(worst, abs(closed - concurrence_mixed(density_from_coherence(v, m))))
    assert worst <= 1e-12


def test_deterministic_splitting_leaves_measures_unchanged():
    grid = TimeGrid(4.0, 41)
    base = run(DephasingRun(OU20, FREE, grid, 1_000, 43))
    shifted = run(DephasingRun(OU20, FREE, grid, 1_000, 43, omega_a=2.5))
    assert_allclose(base.concurrence, shifted.concurrence, atol=1e-12)


def test_mc_converges_with_trajectory_count():
    exact = np.exp(-0.5 * GRID.times**2)

    def max_dev(n):
        series = run(DephasingRun(STATIC, FREE, GRID, n, 47))
        return np.max(np.abs(series.concurrence - exact))

    assert max_dev(100_000) < max_dev(10_000)


def test_ou_free_matches_analytic_at_modest_n():
    grid = TimeGrid(4.0, 101)
    series = run(DephasingRun(OU20, FREE, grid, 20_000, 53))
    exact = np.exp(-np.array([chi_free_ou(1.0, 20.0, t) for t in grid.times]))
    assert np.max(np.abs(series.concurrence - exact)) <= 0.03


def test_ou_with_huge_tau_reduces_to_static():
    # tau = 1e8 * horizon: the OU sampler must reproduce the quasistatic
    # closed form within MC error
    series = run(DephasingRun(NoiseModel.ou(1.0, 8e8), FREE, GRID, 20_000, 59))
    exact = np.exp(-0.5 * GRID.times**2)
    assert np.max(np.abs(series.concurrence - exact)) <= 0.02


def test_echo_recovery_ordered_in_correlation_time():
    # At the horizon the sigma tau = 20 recovery sits strictly below the
    # sigma tau = 500 one (full-N magnitudes are pinned in the acceptance gate).
    grid = TimeGrid(8.0, 201)
    ef_20 = run(DephasingRun(OU20, ECHO4, grid, 20_000, 61)).e_f[-1]
    ef_500 = run(DephasingRun(NoiseModel.ou(1.0, 500.0), ECHO4, grid, 20_000, 61)).e_f[-1]
    assert ef_20 < ef_500


def test_run_validation():
    with pytest.raises(ValueError):
        DephasingRun(STATIC, FREE, GRID, 0, 1)
    with pytest.raises(ValueError):
        DephasingRun(STATIC, FREE, GRID, 10, 1, initial_state=np.ones(4))

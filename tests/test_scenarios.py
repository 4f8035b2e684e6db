import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from entdyn import linalg, measures
from entdyn.filters import NumericalError
from entdyn.grid import TimeGrid
from entdyn.linalg import PHI_MINUS, PHI_PLUS, PSI_PLUS, projector
from entdyn.measures import (
    average_entanglement,
    concurrence_mixed,
    eof_from_concurrence,
)
from entdyn.scenarios import jc_ensemble, jc_measures, random_field_ensemble, random_field_series
from oracles import exchange_state, jc_closed_form, reduced_state, scenario_series_pointwise, value_at

GRID = TimeGrid(2.0 * math.pi, 401)
TBAR = math.pi  # both scenarios put the entanglement zero at t = pi for unit rates


def equal_up_to_phase(a, b, atol=1e-12):
    overlap = np.vdot(a, b)
    return abs(abs(overlap) - 1.0) <= atol


def test_random_field_ensemble_initial():
    ens = random_field_ensemble(1.0, 0.0)
    for p, psi in zip(ens.probs, ens.states):
        assert p == 0.5
        assert equal_up_to_phase(psi, PHI_PLUS)


def test_random_field_ensemble_at_tbar():
    ens = random_field_ensemble(1.0, TBAR)
    psi_x, psi_z = ens.states
    assert equal_up_to_phase(psi_x, PSI_PLUS)  # x rotation maps phi+ to psi+
    assert equal_up_to_phase(psi_z, PHI_MINUS)
    mixture = ens.density_matrix()
    expected = 0.5 * projector(PHI_MINUS) + 0.5 * projector(PSI_PLUS)
    assert_allclose(mixture, expected, atol=1e-12)


def test_random_field_ensemble_at_revival():
    for psi in random_field_ensemble(1.0, 2.0 * TBAR).states:
        assert equal_up_to_phase(psi, PHI_PLUS)


def test_random_field_series_timeline():
    series = random_field_series(1.0, GRID)
    assert value_at(series, 0.0, "e_f") == pytest.approx(1.0, abs=1e-9)
    assert value_at(series, TBAR, "e_f") <= 1e-9
    assert value_at(series, TBAR, "e_hidden") == pytest.approx(1.0, abs=1e-9)
    assert value_at(series, 2.0 * TBAR, "e_f") == pytest.approx(1.0, abs=1e-9)
    assert abs(value_at(series, 2.0 * TBAR, "e_hidden")) <= 1e-9
    assert np.max(np.abs(series.e_av - 1.0)) <= 1e-9


def test_random_field_series_periodicity():
    grid = TimeGrid(4.0 * math.pi, 41)
    series = random_field_series(1.0, grid)
    half = 20  # index of t = 2 pi
    assert np.max(np.abs(series.e_f[: half + 1] - series.e_f[half:])) <= 1e-9


# The tripartite state comes from the generator route of the oracle; the
# library builds only its measurement ensemble.


def test_jc_state_initial():
    psi = exchange_state(1.0, 0.0)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[6] = 1.0 / math.sqrt(2.0)
    assert_allclose(psi, expected, atol=1e-15)


def test_jc_state_at_swap():
    psi = exchange_state(1.0, TBAR)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0 / math.sqrt(2.0)
    expected[3] = -1j / math.sqrt(2.0)
    assert_allclose(psi, expected, atol=1e-12)
    # qubit A fully disentangled
    rho_a = reduced_state(psi, 2)
    assert_allclose(rho_a, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_jc_state_entanglement_revival_at_two_tbar():
    # The excited branch returns with the 2 pi Rabi minus sign: the state at
    # 2 tbar is (|00> - |11>)/sqrt(2) x |0_O>, maximally entangled again.
    psi = exchange_state(1.0, 2.0 * TBAR)
    expected = np.zeros(8, dtype=complex)
    expected[0], expected[6] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    assert equal_up_to_phase(psi, expected)
    assert concurrence_mixed(reduced_state(psi, 4)) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_mixed(jc_ensemble(1.0, 2.0 * TBAR).density_matrix()) == pytest.approx(1.0, abs=1e-12)


def test_jc_state_full_period():
    assert equal_up_to_phase(exchange_state(1.0, 4.0 * TBAR), exchange_state(1.0, 0.0))


def test_jc_state_normalized_on_grid():
    for t in GRID.times[::25]:
        assert abs(np.linalg.norm(exchange_state(1.0, float(t))) - 1.0) <= 1e-12


def test_jc_ensemble_initial():
    # the one-photon member is kept at probability 0
    ens = jc_ensemble(1.0, 0.0)
    assert_allclose(ens.probs, [1.0, 0.0], atol=1e-12)
    assert equal_up_to_phase(ens.states[0], PHI_PLUS)


def test_jc_ensemble_at_swap_is_product():
    ens = jc_ensemble(1.0, TBAR)
    probs = sorted(ens.probs)
    assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    assert average_entanglement(ens) <= 1e-12


def test_jc_ensemble_probabilities():
    ens = jc_ensemble(1.0, 2.0 * math.pi / 3.0)  # eta = 1/4
    p0, p1 = ens.probs
    assert p0 == pytest.approx(0.625, abs=1e-12)
    assert p1 == pytest.approx(0.375, abs=1e-12)


def test_jc_ensemble_reproduces_traced_state():
    # the one-photon branch phase must cancel between the two routes
    for t in np.linspace(0.0, 2.0 * math.pi, 41):
        rho_traced = reduced_state(exchange_state(1.0, float(t)), 4)
        rho_ensemble = jc_ensemble(1.0, float(t)).density_matrix()
        assert np.max(np.abs(rho_traced - rho_ensemble)) <= 1e-9


def test_jc_measures_endpoints():
    series = jc_measures(1.0, GRID)
    assert value_at(series, 0.0, "e_f") == pytest.approx(1.0, abs=1e-9)
    assert abs(value_at(series, 0.0, "e_hidden")) <= 1e-9
    assert value_at(series, TBAR, "e_f") <= 1e-9
    assert value_at(series, TBAR, "e_av") <= 1e-9
    assert value_at(series, 2.0 * TBAR, "e_f") == pytest.approx(1.0, abs=1e-9)


def test_jc_measures_gap_reference_value():
    # eta = 0.5 at g t = pi/2, on the 401-point grid exactly
    series = jc_measures(1.0, GRID)
    gap = value_at(series, math.pi / 2.0, "e_hidden")
    e_f, e_av = jc_closed_form(0.5)
    assert gap == pytest.approx(e_av - e_f, abs=1e-9)
    assert gap == pytest.approx(0.088, abs=2e-3)


def test_jc_measures_layers_agree():
    series = jc_measures(1.0, GRID)
    for j, t in enumerate(GRID.times):
        eta = math.cos(0.5 * t) ** 2
        e_f_closed, e_av_closed = jc_closed_form(eta)
        assert abs(series.e_f[j] - e_f_closed) <= 1e-9
        assert abs(series.e_av[j] - e_av_closed) <= 1e-9
        assert abs(series.concurrence[j] - math.sqrt(eta)) <= 1e-9


def test_jc_measures_gap_small_and_nonnegative():
    series = jc_measures(1.0, GRID)
    assert np.min(series.e_hidden) >= -1e-9
    assert 0.05 <= np.max(series.e_hidden) <= 0.2  # well below the initial entanglement


def test_scenario_validation():
    with pytest.raises(ValueError):
        random_field_series(0.0, GRID)
    with pytest.raises(ValueError):
        jc_measures(-1.0, GRID)
    with pytest.raises(ValueError):
        jc_ensemble(1.0, -0.1)
    for rate in (0.0, float("nan")):
        with pytest.raises(ValueError, match=f"^omega must be positive, got {rate!r}$"):
            random_field_ensemble(rate, 1.0)
        with pytest.raises(ValueError, match=f"^g must be positive, got {rate!r}$"):
            jc_ensemble(rate, 1.0)
    with pytest.raises(NumericalError, match="not finite"):
        random_field_ensemble(math.inf, GRID.times)


@pytest.mark.parametrize("ensemble_of", [jc_ensemble, random_field_ensemble])
def test_nan_time_is_rejected(ensemble_of):
    times = GRID.times.copy()
    times[3] = np.nan
    with pytest.raises(ValueError, match="time must be nonnegative, got nan"):
        ensemble_of(1.0, times)


SCENARIOS = {"randomfield": random_field_series, "jc": jc_measures}


@pytest.mark.parametrize("points", [401, 4097])  # 4097 crosses a block edge
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stacked_series_match_pointwise_oracle(name, points):
    grid = TimeGrid(2.0 * math.pi, points)
    series = SCENARIOS[name](1.0, grid)
    reference = scenario_series_pointwise(name, 1.0, grid)
    for column in ("concurrence", "e_f", "e_av", "e_hidden"):
        assert np.max(np.abs(getattr(series, column) - getattr(reference, column))) <= 1e-12, column


BUILDERS = {"randomfield": random_field_ensemble, "jc": jc_ensemble}


@pytest.mark.parametrize("points", [401, 4097])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_series_match_wootters_on_builder_ensembles(name, points):
    # the closed forms against the Wootters procedure and the members'
    # entropies on the builder's ensemble, stacked over the grid times
    grid = TimeGrid(2.0 * math.pi, points)
    assert np.min(np.abs(grid.times - math.pi)) <= 1e-15  # C = 0 there
    series = SCENARIOS[name](1.0, grid)
    ensemble = BUILDERS[name](1.0, grid.times)
    assert np.max(np.abs(series.concurrence - concurrence_mixed(ensemble.density_matrix()))) <= 1e-12
    assert np.max(np.abs(series.e_av - average_entanglement(ensemble))) <= 1e-12


def _forbid(monkeypatch, module, attr):
    """Make ``module.attr`` and every package-level name bound to it raise."""
    target = getattr(module, attr)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{attr} called")

    monkeypatch.setattr(module, attr, forbidden)
    for name, mod in list(sys.modules.items()):
        if name == "entdyn" or name.startswith("entdyn."):
            for key, value in list(vars(mod).items()):
                if value is target:
                    monkeypatch.setattr(mod, key, forbidden)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_series_run_no_eigensolver(monkeypatch, name):
    # the series are closed forms: no Wootters procedure, no eigensolve
    _forbid(monkeypatch, measures, "concurrence_mixed")
    _forbid(monkeypatch, linalg, "hermitian_eigen")
    _forbid(monkeypatch, np.linalg, "eigh")
    _forbid(monkeypatch, np.linalg, "eigvalsh")
    series = SCENARIOS[name](1.0, TimeGrid(2.0 * math.pi, 4097))
    assert series.concurrence.shape == (4097,)


@pytest.mark.parametrize("ensemble_of", [random_field_ensemble, jc_ensemble])
def test_ensemble_over_times_equals_each_time(ensemble_of):
    times = GRID.times
    stacked = ensemble_of(1.0, times)
    assert stacked.probs.shape == (times.size, 2) and stacked.states.shape == (times.size, 2, 4)
    for j, t in enumerate(times):
        single = ensemble_of(1.0, float(t))
        assert_array_equal(stacked.probs[j], single.probs)
        assert_array_equal(stacked.states[j], single.states)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_large_grid_series_memory_is_bounded_per_eof_block(name):
    # At 2^20 points the EoF stage runs in blocks of 65536 rows, so its ~6
    # full-length temporaries do not add up. Peak traced memory of either
    # series: 81 MiB with one EoF call over the whole column, 40 MiB with
    # blocks (the series' own columns and the cosine).
    import tracemalloc

    grid = TimeGrid(2.0 * math.pi, 2**20)
    tracemalloc.start()
    try:
        series = SCENARIOS[name](1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.e_f.shape == (2**20,)
    assert peak < 60 * 2**20, f"peak {peak / 2**20:.1f} MiB"

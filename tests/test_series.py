import numpy as np
import pytest

from entdyn.grid import TimeGrid
from entdyn.measures import eof_from_concurrence
from entdyn.series import EntanglementSeries
from oracles import eof_of_concurrence

GRID = TimeGrid(2.0, 5)


@pytest.mark.parametrize("n_points", [2.5, 801.0])
def test_grid_rejects_non_integer_point_count(n_points):
    with pytest.raises(ValueError, match="n_points must be an integer"):
        TimeGrid(8.0, n_points)
    assert TimeGrid(8.0, np.int64(801)).dt == pytest.approx(0.01)


def test_series_derives_eof_and_gap():
    conc = np.array([1.0, 0.8, 0.5, 0.1, 0.0])
    e_av = np.array([1.0, 0.9, 0.9, 0.7, 0.6])
    series = EntanglementSeries(GRID, conc, e_av)
    expected = np.array([eof_of_concurrence(c) for c in conc])
    np.testing.assert_allclose(series.e_f, expected, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(series.e_hidden, e_av - series.e_f)
    assert series.e_f[0] == 1.0 and series.e_f[-1] == 0.0


def test_series_holds_scalar_columns_constant():
    series = EntanglementSeries(GRID, np.linspace(1.0, 0.0, 5), 1.0)
    np.testing.assert_array_equal(series.e_av, np.ones(5))
    np.testing.assert_array_equal(series.e_hidden, 1.0 - series.e_f)


def test_series_rejects_wrong_shapes_and_derived_inputs():
    with pytest.raises(ValueError, match="concurrence"):
        EntanglementSeries(GRID, np.ones(4), 1.0)
    with pytest.raises(ValueError, match="e_av"):
        EntanglementSeries(GRID, np.ones(5), np.ones(6))
    with pytest.raises(TypeError):
        EntanglementSeries(GRID, np.ones(5), np.ones(5), np.ones(5))


def test_eof_by_block_equals_one_call_across_block_edges():
    grid = TimeGrid(1.0, 2 * 65536 + 7)
    conc = np.random.default_rng(5).uniform(0.0, 1.0, grid.n_points)
    series = EntanglementSeries(grid, conc, 1.0)
    np.testing.assert_array_equal(series.e_f, eof_from_concurrence(conc))

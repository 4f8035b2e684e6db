import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from entdyn.grid import TimeGrid
from entdyn.pulses import PulseProtocol, pulse_times, toggling_steps
from oracles import SIGMA_X, SIGMA_Z, grid_index, pulse_unitary, toggling_segments


def test_protocol_validation():
    with pytest.raises(ValueError):
        PulseProtocol.echo(0.0)
    with pytest.raises(ValueError):
        PulseProtocol.pdd(-1.0)
    with pytest.raises(ValueError):
        PulseProtocol("cpmg")


def test_pulse_times_free():
    assert pulse_times(PulseProtocol.free(), 10.0).size == 0


def test_pulse_times_echo():
    assert_allclose(pulse_times(PulseProtocol.echo(4.0), 8.0), [4.0])
    assert pulse_times(PulseProtocol.echo(4.0), 4.0).size == 0  # strictly below horizon
    assert pulse_times(PulseProtocol.echo(9.0), 8.0).size == 0


def test_pulse_times_pdd():
    assert_allclose(pulse_times(PulseProtocol.pdd(1.0), 3.5), [1.0, 2.0, 3.0])
    assert_allclose(pulse_times(PulseProtocol.pdd(1.0), 3.0), [1.0, 2.0])
    # 0.1 * k is not exactly representable; the alignment guard must not drop pulses
    assert pulse_times(PulseProtocol.pdd(0.1), 0.7000000000000001).size == 6


def interval_signs(protocol: PulseProtocol, grid: TimeGrid) -> np.ndarray:
    """Toggling sign on each grid interval [t_j, t_{j+1}), from the step counts."""
    return np.diff(toggling_steps(protocol, grid))


def test_toggling_free():
    grid = TimeGrid(12.0, 49)
    assert_array_equal(toggling_steps(PulseProtocol.free(), grid), np.arange(49))


def test_toggling_echo():
    grid = TimeGrid(4.0, 9)  # dt = 0.5, pulse at index 4
    signs = interval_signs(PulseProtocol.echo(2.0), grid)
    assert signs[3] == 1
    assert signs[4] == -1  # a pulse at t_j flips the interval starting there (left-closed)
    assert signs[5] == -1


def test_toggling_pdd_parity():
    grid = TimeGrid(4.0, 9)  # dt = 0.5, pulses at 1, 2, 3
    assert_array_equal(interval_signs(PulseProtocol.pdd(1.0), grid), [1, 1, -1, -1, 1, 1, -1, -1])


def test_toggling_matches_pulse_count():
    # the sign on [t_j, t_{j+1}) is (-1)^(pulses in (0, t_j])
    grid = TimeGrid(12.0, 241)  # dt = 0.05
    protocols = [PulseProtocol.free(), PulseProtocol.echo(1.7), PulseProtocol.pdd(0.6), PulseProtocol.pdd(0.05)]
    for protocol in protocols:
        pulses = pulse_times(protocol, 100.0)
        counts = np.array([np.sum(pulses <= t + 1e-9) for t in grid.times[:-1]])
        assert_array_equal(interval_signs(protocol, grid), (-1) ** counts)


def test_toggling_steps_match_segment_oracle():
    # dt s_j is the integral of y over the oracle's constant-sign segments.
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        grid = TimeGrid(float(rng.uniform(0.5, 20.0)), 8 * n + 1)
        echo = PulseProtocol.echo(grid.times[rng.integers(1, grid.n_points)])
        pdd = PulseProtocol.pdd(grid.dt * int(rng.integers(1, 3 * n)))
        for protocol in (echo, pdd):
            y_int = grid.dt * toggling_steps(protocol, grid)
            pulses = pulse_times(protocol, 2.0 * grid.t_max)
            for j in range(1, grid.n_points):
                bounds, signs = toggling_segments(pulses, grid.times[j])
                assert abs(y_int[j] - np.sum(signs * np.diff(bounds))) <= 1e-12


def test_pulse_unitary_identities():
    p = pulse_unitary()
    assert_allclose(p, -1j * SIGMA_X, atol=0)
    assert_allclose(p @ p, -np.eye(2), atol=0)
    assert_allclose(p @ np.array([1.0, 0.0]), [0.0, -1.0j], atol=0)
    assert_allclose(p @ SIGMA_Z @ p.conj().T, -SIGMA_Z, atol=0)


def test_echo_integral_cancels_at_refocus():
    steps = toggling_steps(PulseProtocol.echo(3.0), TimeGrid(6.0, 601))
    assert steps[-1] == 0
    assert steps[300] == 300


def test_pdd_integral_cancels_on_even_intervals():
    grid = TimeGrid(5.0, 501)
    steps = toggling_steps(PulseProtocol.pdd(0.5), grid)
    for k in (1, 2, 5):
        assert steps[grid_index(grid, 2 * k * 0.5)] == 0


def test_toggling_integral_free():
    grid = TimeGrid(7.25, 30)
    assert_array_equal(grid.dt * toggling_steps(PulseProtocol.free(), grid), grid.times)


def test_interval_signs_echo():
    grid = TimeGrid(2.0, 5)  # dt = 0.5
    assert_array_equal(interval_signs(PulseProtocol.echo(1.0), grid), [1, 1, -1, -1])


def test_pulse_off_grid_raises_with_time_named():
    grid = TimeGrid(8.0, 801)
    with pytest.raises(ValueError, match="4.005"):
        toggling_steps(PulseProtocol.echo(4.005), grid)


def test_first_off_grid_pulse_is_named():
    # Pulses 1-3 of this spacing land within the grid tolerance, pulse 4
    # does not: the error names pulse 4, not the first pulse.
    grid = TimeGrid(8.0, 801)  # dt = 0.01
    dt_pulse = 0.01 * (1 + 3e-10)
    with pytest.raises(ValueError, match=f"pulse at t = {4 * dt_pulse!r} is not on the time grid"):
        toggling_steps(PulseProtocol.pdd(dt_pulse), grid)


def test_pulse_grid_indices_echo():
    # the sign flips at the pulse's grid index and nowhere else
    grid = TimeGrid(8.0, 801)
    signs = interval_signs(PulseProtocol.echo(4.0), grid)
    assert list(np.flatnonzero(np.diff(signs)) + 1) == [400]


def test_pdd_below_grid_step_is_rejected_before_building_pulses():
    # dt_pulse = 1e-12 on dt = 0.8 would ask for ~8e12 pulse times.
    with pytest.raises(ValueError, match="below the grid step"):
        toggling_steps(PulseProtocol.pdd(1e-12), TimeGrid(8.0, 11))


def test_pdd_at_grid_step_is_accepted():
    grid = TimeGrid(8.0, 801)
    steps = toggling_steps(PulseProtocol.pdd(0.01), grid)
    assert_array_equal(steps[:4], [0, 1, 0, 1])

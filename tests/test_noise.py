import math

import numpy as np
import pytest
from scipy import stats
from numpy.testing import assert_array_equal

from entdyn import noise
from entdyn.grid import TimeGrid
from entdyn.noise import (
    NoiseModel,
    gaussian_block,
    power_spectrum,
    sample_block,
    trajectory_seed,
)
from oracles import gaussian_rows, noise_rows, ou_rows, pair_uniforms

GRID = TimeGrid(8.0, 201)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel.static(-1.0)
    with pytest.raises(ValueError):
        NoiseModel("ou", 1.0)  # missing tau
    with pytest.raises(ValueError):
        NoiseModel("pink", 1.0)


def test_static_determinism():
    model = NoiseModel.static(1.3)
    a = sample_block(model, 987654321, np.arange(8))
    b = sample_block(model, 987654321, np.array([5]))
    assert_array_equal(a[5], b[0])
    c = sample_block(model, 987654322, np.arange(8))
    assert a[5] != c[5]


def test_static_block_is_one_offset_per_trajectory():
    model = NoiseModel.static(2.0)
    keys = trajectory_seed(5, np.arange(4))
    block = sample_block(model, 5, np.arange(4))
    assert block.shape == (4,)
    assert_array_equal(block, model.sigma * gaussian_block(keys, 1)[0])


def test_static_moments():
    model = NoiseModel.static(1.7)
    n = 100_000
    values = sample_block(model, 2024, np.arange(n))
    assert abs(values.mean()) <= 4.0 * model.sigma / math.sqrt(n)
    assert abs(values.var() - model.sigma**2) <= 0.05 * model.sigma**2


def test_static_degenerate_sigma():
    block = sample_block(NoiseModel.static(1e-12), 9, np.arange(4))
    assert np.max(np.abs(block)) < 1e-10


def ou_paths(model: NoiseModel, master_seed: int, indices, grid: TimeGrid) -> np.ndarray:
    """OU paths of the given trajectories from the oracle recursion: the
    Monte Carlo runs it as linear maps (`mc._ou_maps`) and forms no paths."""
    return noise_rows(model, trajectory_seed(master_seed, indices), grid)


def test_ou_determinism():
    model = NoiseModel.ou(1.0, 3.0)
    a = ou_paths(model, 77, np.arange(4), GRID)
    b = ou_paths(model, 77, np.arange(4), GRID)
    assert_array_equal(a, b)


def test_ou_block_matches_scalar_sampler():
    # Any subset or order of indices reproduces the same rows.
    model = NoiseModel.ou(0.8, 5.0)
    block = ou_paths(model, 424242, np.arange(16), GRID)
    for k in (0, 7, 15):
        assert_array_equal(block[k], ou_paths(model, 424242, np.array([k]), GRID)[0])
    assert_array_equal(block[[15, 3, 9]], ou_paths(model, 424242, np.array([15, 3, 9]), GRID))


def test_ou_long_correlation_time_is_quasistatic():
    # tau / dt = 1e6: within-trajectory increments must be tiny. The drift
    # eps(8) - eps(0) is Gaussian with variance 2 sigma^2 (1 - e^{-8/tau})
    # exactly, sd 0.040 sigma: its mean square over 200 paths lies within
    # the chi-square(200) quantiles at 1e-6 of that, and no drift passes 6 sd.
    grid = TimeGrid(8.0, 801)
    model = NoiseModel.ou(1.0, 1e6 * grid.dt)
    block = ou_paths(model, 11, np.arange(200), grid)
    drift = block[:, -1] - block[:, 0]
    increments = np.diff(block, axis=1)
    assert increments.var() < 0.01 * model.sigma**2
    variance = 2.0 * model.sigma**2 * -math.expm1(-grid.t_max / model.tau)
    low, high = stats.chi2.ppf(1e-6, drift.size), stats.chi2.isf(1e-6, drift.size)
    assert low <= np.sum(drift**2) / variance <= high
    assert np.abs(drift).max() < 6.0 * math.sqrt(variance)


def test_ou_stationary_variance():
    model = NoiseModel.ou(1.0, 2.0)
    block = ou_paths(model, 3000, np.arange(10_000), TimeGrid(4.0, 41))
    per_index = block.var(axis=0)
    assert np.max(np.abs(per_index - 1.0)) <= 0.05


def test_ou_autocorrelation_at_lag_tau():
    tau = 2.0
    model = NoiseModel.ou(1.0, tau)
    grid = TimeGrid(8.0, 81)  # dt = 0.1, lag tau = 20 steps
    block = ou_paths(model, 314, np.arange(10_000), grid)
    lag = 20
    est = np.mean(block[:, :-lag] * block[:, lag:])
    expected = model.sigma**2 * math.exp(-1.0)
    assert abs(est - expected) <= 0.05 * expected


def test_power_spectrum_values():
    model = NoiseModel.ou(1.5, 4.0)
    s0 = 2.0 * model.sigma**2 * model.tau
    assert power_spectrum(model, 0.0) == pytest.approx(s0, rel=1e-12)
    assert power_spectrum(model, 1.0 / model.tau) == pytest.approx(s0 / 2.0, rel=1e-12)


def test_power_spectrum_even_and_total_power():
    model = NoiseModel.ou(1.0, 3.0)
    omegas = np.linspace(-5.0, 5.0, 11)
    assert_array_equal(power_spectrum(model, omegas), power_spectrum(model, -omegas))
    # integral over +-200/tau recovers sigma^2 within 1%
    w = np.linspace(-200.0 / model.tau, 200.0 / model.tau, 400_001)
    s = power_spectrum(model, w)
    total = float(np.sum(0.5 * (s[1:] + s[:-1]) * np.diff(w))) / (2.0 * math.pi)
    assert abs(total - model.sigma**2) <= 0.01 * model.sigma**2


def test_power_spectrum_rejects_static():
    with pytest.raises(ValueError):
        power_spectrum(NoiseModel.static(1.0), 0.0)


def test_trajectory_seed_is_order_free():
    all_keys = trajectory_seed(99, np.arange(1000))
    some = trajectory_seed(99, np.array([17, 503, 999]))
    assert_array_equal(some, all_keys[[17, 503, 999]])


@pytest.mark.parametrize("count", [1, 2, 7, 801])
def test_time_major_gaussians_match_stream_by_stream(count):
    keys = trajectory_seed(2718, np.arange(3000))
    block = gaussian_block(keys, count)
    assert block.shape == (count, 3000)
    assert block.flags.c_contiguous
    assert np.array_equal(block, gaussian_rows(keys, count).T)


@pytest.mark.parametrize(
    "count, start, scratch_rows", [(1, 0, 2), (8, 0, 8), (8, 0, 9), (7, 792, 8), (8, 800, 8)]
)
def test_gaussian_block_into_reused_buffers_is_bit_identical(count, start, scratch_rows):
    # Buffers reused from block to block, as the Monte Carlo's OU pass does
    # with a 9-row scratch: stale contents and spare rows must not reach the
    # values.
    keys = trajectory_seed(577, np.arange(3000))
    out = np.full((8, keys.size), np.nan)
    scratch = np.full((scratch_rows, keys.size), np.inf)
    block = gaussian_block(keys, count, start, out=out, scratch=scratch)
    assert np.shares_memory(block, out)
    assert np.array_equal(block, gaussian_block(keys, count, start))
    assert np.array_equal(gaussian_block(keys, count, start, out=out), gaussian_block(keys, count, start))


def test_gaussian_tail_is_cut_at_the_smallest_radius_uniform():
    # Key -(p + 1) G hashes pair p to h = mix64(0) = 0: hi = lo = 0, the
    # radius uniform 2^-32 and angle 0, so counter 2p is the largest value
    # the stream holds, sqrt(64 ln 2) = 6.66, and counter 2p + 1 is 0.
    golden = int(noise._GOLDEN)
    keys = np.array([-(p + 1) * golden % 2**64 for p in range(4)], dtype=np.uint64)
    z = gaussian_block(keys, 8)
    for p in range(4):
        assert z[2 * p, p] == pytest.approx(math.sqrt(64.0 * math.log(2.0)), rel=1e-6)
        assert z[2 * p + 1, p] == 0.0


def test_gaussian_stream_moments_and_pair_independence():
    # 2^22 values: the tail cut, the first four moments within 5 standard
    # errors, and the two halves of each hash uncorrelated: the correlation
    # of z_2p with z_2p+1 and of their squares within 5 / sqrt(pairs).
    keys = trajectory_seed(5772, np.arange(4096))
    z = gaussian_block(keys, 1024)
    n = z.size
    assert np.abs(z).max() <= 6.67
    for moment, expected, var in ((1, 0.0, 1.0), (2, 1.0, 2.0), (3, 0.0, 15.0), (4, 3.0, 96.0)):
        assert abs(np.mean(z**moment) - expected) <= 5.0 * math.sqrt(var / n)
    even, odd = z[0::2].ravel(), z[1::2].ravel()
    for a, b in ((even, odd), (even**2, odd**2)):
        assert abs(np.corrcoef(a, b)[0, 1]) <= 5.0 / math.sqrt(even.size)


def test_box_muller_matches_textbook_trig():
    # The float32 half-angle kernel against r cos(2 pi v), r sin(2 pi v)
    # from float64 libm on the same float32 uniforms: within 8 float32 ulps
    # of the radius r (measured: 2.8).
    keys = trajectory_seed(3141, np.arange(3000))
    z = gaussian_block(keys, 801)
    u, v = (x.T.astype(np.float64) for x in pair_uniforms(keys, 401))
    r = np.sqrt(-2.0 * np.log(u))
    theta = 2.0 * np.pi * v
    textbook = np.empty((802, keys.size))
    textbook[0::2] = r * np.cos(theta)
    textbook[1::2] = r * np.sin(theta)
    radius = np.repeat(r, 2, axis=0)[:801]
    assert np.all(np.abs(z - textbook[:801]) <= 8 * 2.0**-23 * radius)


@pytest.mark.parametrize("model", [NoiseModel.static(1.3), NoiseModel.ou(0.8, 5.0)], ids=["static", "ou"])
def test_sample_block_matches_stream_by_stream(model):
    # Static offsets from sample_block, against the first column of the
    # oracle paths; OU paths from the time-major Gaussians of gaussian_block
    # through the oracle recursion.
    indices = np.arange(100, 2100)
    keys = trajectory_seed(1618, indices)
    expected = noise_rows(model, keys, GRID)
    if model.kind == "ou":
        block = ou_rows(model, gaussian_block(keys, GRID.n_points).T, GRID)
    else:
        block, expected = sample_block(model, 1618, indices), expected[:, 0]
    assert np.array_equal(block, expected)


def test_sample_block_refuses_ou_noise():
    with pytest.raises(ValueError, match="mc._ou_maps"):
        sample_block(NoiseModel.ou(1.0, 3.0), 1, np.arange(4))

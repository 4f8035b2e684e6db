import functools
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from entdyn.cli import MAX_POINTS
from entdyn.grid import TimeGrid
from entdyn.linalg import PHI_MINUS, PHI_PLUS, check_density_matrix
from entdyn import mc
from entdyn.mc import DephasingRun, _phase_block, coherence_series, run
from entdyn.measures import concurrence_mixed, concurrence_pure
from entdyn.noise import NoiseModel, _half_angle, trajectory_seed
from entdyn.pulses import PulseProtocol, toggling_steps
from cli_command import LOWERED_SIMD, run_python
from oracles import (
    chi_free_ou,
    coherence_reference,
    density_from_coherence,
    gaussian_rows,
    noise_rows,
    ou_rows,
    propagator_series,
    random_state,
    random_unitary,
    running_phase,
    trajectory_state,
)

GRID = TimeGrid(8.0, 801)
STATIC = NoiseModel.static(1.0)
OU20 = NoiseModel.ou(1.0, 20.0)
ECHO4 = PulseProtocol.echo(4.0)
FREE = PulseProtocol.free()


def map_phases(noise: NoiseModel, protocol: PulseProtocol, grid: TimeGrid, z: np.ndarray,
               rows: int) -> np.ndarray:
    """Phases of the time-major Gaussians z, shape (n_points, n_traj), from
    the maps of `mc._ou_maps` applied chunk by chunk, each chunk continuing
    from the last eps and phi rows of the one before."""
    maps = mc._ou_maps(noise, grid, toggling_steps(protocol, grid), rows)
    carry = np.zeros((2, z.shape[1]))
    phases, start = [], 0
    for ou_map in maps:
        count = len(ou_map) - 1
        chunk = np.concatenate([carry, z[start : start + count]])
        out = _phase_block(ou_map, chunk, np.empty((count + 1, z.shape[1])))
        phases.append(out[:count])
        carry = out[[count, count - 1]]
        start += count
    assert start == grid.n_points
    return np.concatenate(phases)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_phases_match(phi: np.ndarray, expected: np.ndarray):
    assert np.all(np.abs(phi - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def constant_phase(value: float, protocol: PulseProtocol, grid: TimeGrid = GRID) -> np.ndarray:
    """Accumulated phase of one realization with constant eps, shape
    (n_points,): an OU path with infinite tau keeps its first value."""
    z = np.zeros((grid.n_points, 1))
    z[0] = value
    return map_phases(NoiseModel.ou(1.0, math.inf), protocol, grid, z, 8)[:, 0]


def test_accumulate_phase_constant_free():
    phi = constant_phase(0.7, FREE)
    assert_allclose(phi, 0.7 * GRID.times, atol=1e-12)


@pytest.mark.parametrize("rows", [None, 7, 8], ids=["whole", "rows7", "rows8"])
@pytest.mark.parametrize("protocol", [FREE, ECHO4, PulseProtocol.pdd(0.25)], ids=["free", "echo", "pdd"])
def test_phase_block_is_running_trapezoid_sum(protocol, rows):
    # The maps' phases against the OU recursion and the running trapezoid
    # sum taken one grid step after the other. The echo pulse at t = 4 is
    # grid row 400, a chunk edge for 8-row chunks and inside a chunk for
    # 7-row ones.
    z = np.random.default_rng(197).normal(size=(GRID.n_points, 5))
    noise = NoiseModel.ou(2.0, 3.0)
    expected = running_phase(ou_rows(noise, z.T, GRID), GRID, toggling_steps(protocol, GRID)).T
    phi = map_phases(noise, protocol, GRID, z, GRID.n_points if rows is None else rows)
    assert_phases_match(phi, expected)


def test_accumulate_phase_rejects_off_grid_pulse():
    with pytest.raises(ValueError, match="not on the time grid"):
        constant_phase(1.0, PulseProtocol.echo(4.0042))


STATIC_KERNEL_CASES = {
    "free": DephasingRun(STATIC, FREE, GRID, 3_000, 101),
    "echo4": DephasingRun(STATIC, ECHO4, GRID, 3_000, 103),
    "echo2": DephasingRun(STATIC, PulseProtocol.echo(2.0), TimeGrid(8.0, 401), 3_000, 107),
    "pdd025": DephasingRun(STATIC, PulseProtocol.pdd(0.25), GRID, 3_000, 109),
    "echo2_few": DephasingRun(STATIC, PulseProtocol.echo(2.0), TimeGrid(8.0, 401), 7, 113),
    "partial_batch": DephasingRun(STATIC, ECHO4, TimeGrid(8.0, 161), 8192 + 5, 127),
    # The tail is five full blocks and a 20-row one: a full group of table
    # rows, then a short group padded with zero rows.
    "short_last_group": DephasingRun(STATIC, ECHO4, GRID, 8192 + 1300, 131),
}


@pytest.mark.parametrize("case", sorted(STATIC_KERNEL_CASES))
def test_static_table_matches_phase_path(case):
    cfg = STATIC_KERNEL_CASES[case]
    m = coherence_series(cfg)
    assert m.dtype == np.float64
    assert np.max(np.abs(m - coherence_reference(cfg).real)) <= 1e-13


@pytest.mark.parametrize("case", ["echo2", "echo4", "pdd025", "partial_batch"])
def test_static_table_refocuses_exactly(case):
    # s_j = 0 at t = 0 and at every refocus point: each term is exp(0) = 1.
    cfg = STATIC_KERNEL_CASES[case]
    steps = toggling_steps(cfg.protocol, cfg.grid)
    refocus = np.flatnonzero(steps == 0)
    assert refocus[0] == 0 and refocus.size >= 2
    assert np.all(coherence_series(cfg)[refocus] == 1.0)


def test_static_table_pad_rows_take_no_arithmetic():
    # Five trajectories fill 5 rows of a 256-row block. The pad rows hold
    # what an earlier group left, here inf cosines and zero sines, whose
    # product is invalid: they must only be zeroed.
    x = 0.1 * np.arange(1, 6)
    width, height = 3, 2
    fills = ((width, np.inf), (width, 0.0), (height, np.inf), (height, 0.0))  # Ca, Sa, Cb, Sb
    tables = [np.full((mc._BLOCK, n), fill) for n, fill in fills] + [np.empty((1, width, height))]
    with np.errstate(all="raise"):
        table = mc._static_table(x, width, height, tables)
    counts = np.arange(width)[:, None] + width * np.arange(height)
    assert_allclose(table, np.cos(np.multiply.outer(counts, x)).sum(axis=-1), rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "cfg",
    [
        DephasingRun(OU20, ECHO4, TimeGrid(8.0, 201), 8192 + 5, 131),
        DephasingRun(OU20, FREE, TimeGrid(8.0, 201), 3_000, 137),
        DephasingRun(NoiseModel.ou(1.0, 2.0), PulseProtocol.pdd(0.5), TimeGrid(4.0, 161), 3_000, 139),
    ],
    ids=["echo", "free", "pdd"],
)
def test_ou_time_major_matches_reference(cfg):
    # The float32 Box-Muller is the reference's too; the float32 sums of
    # 1 - cos phi leave m within 1e-6 of the float64 reference's real part.
    m = coherence_series(cfg)
    assert m.dtype == np.float64
    assert np.max(np.abs(m - coherence_reference(cfg).real)) <= 1e-6


OU_CHUNK_CASES = {
    # The echo pulse at index 400 falls on a chunk boundary for 2 and 16 rows.
    "echo": DephasingRun(OU20, ECHO4, GRID, 2_000, 151),
    "pdd025": DephasingRun(NoiseModel.ou(1.0, 2.0), PulseProtocol.pdd(0.25), GRID, 2_000, 157),
    "free": DephasingRun(OU20, FREE, GRID, 2_000, 163),
    "partial_batch": DephasingRun(OU20, ECHO4, TimeGrid(8.0, 161), 8192 + 5, 167),
    "two_points": DephasingRun(OU20, FREE, TimeGrid(8.0, 2), 1_000, 173),
}


@functools.cache
def ou_chunk_reference(case: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, phases, z) of an OU_CHUNK_CASES run: the float64 reference's Re m(t),
    and the reference phases and time-major Gaussians of its last 2000
    trajectories."""
    cfg = OU_CHUNK_CASES[case]
    keys = trajectory_seed(cfg.master_seed, np.arange(max(0, cfg.n_traj - 2000), cfg.n_traj))
    steps = toggling_steps(cfg.protocol, cfg.grid)
    phases = running_phase(noise_rows(cfg.noise, keys, cfg.grid), cfg.grid, steps).T
    return coherence_reference(cfg).real, phases, gaussian_rows(keys, cfg.grid.n_points).T


@pytest.mark.parametrize("rows", [2, 6, 16, 64, 1024])
@pytest.mark.parametrize("case", sorted(OU_CHUNK_CASES))
def test_ou_chunk_height_leaves_m_bit_identical(case, rows, monkeypatch):
    # Every chunk continues the Gaussians, the OU recursion and the running
    # phase sum from the one before: at any chunk height the maps give the
    # phases of one whole-grid recursion to float64 roundoff, and m stays
    # within the float32 bound of the reference.
    cfg = OU_CHUNK_CASES[case]
    m_ref, phases, z = ou_chunk_reference(case)
    assert_phases_match(map_phases(cfg.noise, cfg.protocol, cfg.grid, z, rows), phases)
    monkeypatch.setattr(mc, "_ROWS", rows)
    assert np.max(np.abs(coherence_series(cfg) - m_ref)) <= 1e-6


@pytest.mark.parametrize(
    "protocol", [FREE, PulseProtocol.echo(2.0**19), PulseProtocol.pdd(25.0)], ids=["free", "echo", "pdd"]
)
def test_ou_maps_are_shared_per_sign_pattern(protocol):
    # dt = 1 at the largest grid the command line accepts: one 9 x 10 map
    # per 8-row chunk would be ~94 MB, one per sign pattern is a few kB.
    grid = TimeGrid(MAX_POINTS - 1.0, MAX_POINTS)
    steps = toggling_steps(protocol, grid)
    maps = []
    peak = traced_peak(lambda: maps.extend(mc._ou_maps(OU20, grid, steps, 8)))
    assert len(maps) == MAX_POINTS // 8
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n_points", [801, 3201])
def test_ou_memory_does_not_grow_with_grid_points(n_points):
    # Two batches of 8192 trajectories; a whole (n_points, batch) array of
    # float64 would be 52 MB at 801 points and 210 MB at 3201.
    cfg = DephasingRun(OU20, ECHO4, TimeGrid(8.0, n_points), 16_384, 179)
    assert traced_peak(lambda: coherence_series(cfg, workers=1)) < 16 * 2**20


@pytest.mark.parametrize("n_points", [801, 3201])
def test_ou_working_set_fits_in_cache_sized_chunks(n_points):
    # 8-row chunks drawn into two reused (8, 8192) buffers: ~2 MiB traced
    # for two batches, and no chunk-sized temporary.
    cfg = DephasingRun(OU20, ECHO4, TimeGrid(8.0, n_points), 16_384, 181)
    assert traced_peak(lambda: coherence_series(cfg, workers=1)) < 4 * 2**20


@pytest.mark.parametrize("workers", [1, 2])
def test_static_memory_is_one_group_of_tables(workers):
    # Four full batches and a 5-trajectory tail at width 129, height 128:
    # tables for a whole 8192-trajectory batch and its (32, 129, 128)
    # products would be ~37 MiB per worker; one group of 1024 rows is ~6.
    cfg = DephasingRun(STATIC, FREE, TimeGrid(8.0, 16385), 4 * 8192 + 5, 233)
    assert traced_peak(lambda: coherence_series(cfg, workers=workers)) < workers * 12 * 2**20


def test_memory_does_not_grow_with_batch_count(monkeypatch):
    # Each batch's sum joins one running total as it arrives: 100 batches
    # hold no more than 10. A list of every batch's (129, 128) float64 table
    # would add 8 B per entry per batch, ~12 MB here.
    monkeypatch.setattr(mc, "_BATCH", 256)
    grid = TimeGrid(8.0, 2**14 + 1)
    peaks = []
    for batches in (10, 100):
        cfg = DephasingRun(STATIC, FREE, grid, batches * 256, 211)
        peaks.append(traced_peak(lambda: coherence_series(cfg, workers=1)))
    assert peaks[1] - peaks[0] <= 2**20


def test_pool_memory_does_not_grow_with_batch_count(monkeypatch):
    # Two workers keep at most four batches in flight: 1000 batches hold no
    # more than 10. Submitting every batch up front holds one Future per
    # batch for the whole run, ~1.9 MB more at 1000 batches.
    monkeypatch.setattr(mc, "_BATCH", 16)
    peaks = []
    for batches in (10, 1000):
        cfg = DephasingRun(STATIC, FREE, TimeGrid(8.0, 81), batches * 16, 211)
        peaks.append(traced_peak(lambda: coherence_series(cfg, workers=2)))
    assert peaks[1] - peaks[0] <= 2**18


def test_batch_error_ends_a_pooled_run(monkeypatch):
    # At 2 workers the third batch raises: the run ends with its error, and
    # no more than the four batches in flight run after it.
    calls = itertools.count()
    static_table = mc._static_table

    def failing(*args):
        if next(calls) == 2:
            raise RuntimeError("batch failed")
        return static_table(*args)

    monkeypatch.setattr(mc, "_static_table", failing)
    monkeypatch.setattr(mc, "_BATCH", 16)
    with pytest.raises(RuntimeError, match="batch failed"):
        coherence_series(DephasingRun(STATIC, FREE, TimeGrid(8.0, 81), 1000 * 16, 229), workers=2)
    assert next(calls) <= 3 + 4


def test_one_worker_runs_every_batch_on_the_calling_thread(monkeypatch):
    # One worker runs no executor: every batch runs inline, one after the
    # other, so a caller's per-thread state (a tracer's span stack) sees it.
    threads = []

    def recording(fn):
        def wrapped(*args):
            threads.append(threading.current_thread())
            return fn(*args)
        return wrapped

    monkeypatch.setattr(mc, "_ou_sums", recording(mc._ou_sums))
    monkeypatch.setattr(mc, "_static_table", recording(mc._static_table))
    for noise in (STATIC, OU20):
        coherence_series(DephasingRun(noise, ECHO4, TimeGrid(8.0, 81), 2 * 8192 + 5, 223), workers=1)
    assert threads == [threading.current_thread()] * 6


def test_ou_bytes_unchanged_for_any_worker_count():
    # Four full batches and a 5-trajectory tail; the workers share the maps
    # read-only and each batch draws into its own buffers. Two workers run
    # windows of 4 and 1 batches, three one window of 6 that 5 batches fill.
    cfg = DephasingRun(OU20, ECHO4, GRID, 4 * 8192 + 5, 199)
    m1 = coherence_series(cfg, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 4):
            assert coherence_series(cfg, workers=workers).tobytes() == m1.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_static_tables_kept_per_worker_leave_bytes_unchanged():
    # Four full batches and a 5-trajectory tail: with 2 and 4 workers a
    # worker's reused tables hold a full batch's values when the tail
    # overwrites their leading rows; 3 workers run one partial window of 6.
    # A short switch interval interleaves the worker threads' batches.
    cfg = DephasingRun(STATIC, ECHO4, GRID, 4 * 8192 + 5, 191)
    m1 = coherence_series(cfg, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 4):
            assert coherence_series(cfg, workers=workers).tobytes() == m1.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_bytes_unchanged_for_any_worker_count_at_lowered_simd_target():
    # The MC bytes depend on numpy's SIMD target (float32 tan and log), so
    # worker-count identity is checked again in a child that runs numpy at
    # X86_V3, as an AVX2-class host would: one OU and one static echo run,
    # two full batches and a 5-trajectory tail, at 1 and 2 workers.
    from numpy._core import _multiarray_umath as umath

    missing = set(LOWERED_SIMD.split()) - set(getattr(umath, "__cpu_dispatch__", ()))
    if missing:
        pytest.skip(f"numpy does not dispatch {sorted(missing)}, so it cannot disable them")
    code = """
from entdyn.cli import _platform
from entdyn.grid import TimeGrid
from entdyn.mc import DephasingRun, coherence_series
from entdyn.noise import NoiseModel
from entdyn.pulses import PulseProtocol
print(*_platform()["simd_targets"])
for noise in (NoiseModel.ou(1.0, 20.0), NoiseModel.static(1.0)):
    cfg = DephasingRun(noise, PulseProtocol.echo(4.0), TimeGrid(8.0, 161), 2 * 8192 + 5, 241)
    print(*(coherence_series(cfg, workers).tobytes().hex() for workers in (1, 2)))
"""
    result = run_python(code, NPY_DISABLE_CPU_FEATURES=LOWERED_SIMD)
    assert result.returncode == 0, result.stderr
    targets, *runs = result.stdout.splitlines()
    assert not set(targets.split()) & set(LOWERED_SIMD.split())
    assert len(runs) == 2
    for run_bytes in runs:
        one, two = run_bytes.split()
        assert one == two


def test_ou_monte_carlo_takes_no_tangent(monkeypatch):
    # numpy's float32 tan is vectorized only with AVX-512: at X86_V3 (AVX2)
    # it took 18.7 ns per element against 1.4 ns for float32 sin and cos
    # (2-core host, numpy 2.4.6, 65536 elements), which made an OU batch
    # 3.3x slower there (202 -> 61 ms per 8192 x 801 batch). So neither the
    # Box-Muller angle nor the OU reduction may go through np.tan.
    def no_tan(*args, **kwargs):
        raise AssertionError("np.tan called on the OU Monte Carlo path")

    monkeypatch.setattr(np, "tan", no_tan)
    cfg = DephasingRun(OU20, ECHO4, TimeGrid(8.0, 161), 2 * 8192 + 5, 241)
    runs = [coherence_series(cfg, workers=workers) for workers in (1, 2)]
    assert runs[0].tobytes() == runs[1].tobytes()


def test_half_angle_matches_libm_cos_sin():
    rng = np.random.default_rng(181)
    x = np.concatenate([[0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi, 1e6],
                        rng.uniform(-1e12, 1e12, 20_000), rng.uniform(-10.0, 10.0, 20_000)])
    t = 0.5 * x
    w = np.empty_like(t)
    _half_angle(t, w)
    cos, sin = w - 1.0, t * w
    assert (cos[0], sin[0]) == (1.0, 0.0)
    assert np.max(np.abs(cos - np.cos(x))) <= 4e-16
    assert np.max(np.abs(sin - np.sin(x))) <= 4e-16


@pytest.mark.parametrize(
    "cfg, bound",
    [
        (DephasingRun(NoiseModel.ou(50.0, 0.2), FREE, TimeGrid(8.0, 201), 3_000, 191), 1e-6),
        (DephasingRun(NoiseModel.ou(50.0, 0.2), ECHO4, TimeGrid(8.0, 201), 3_000, 193), 1e-6),
        (DephasingRun(NoiseModel.ou(10.0, 2.0), FREE, TimeGrid(8.0, 801), 3_000, 211), 1e-6),
        (DephasingRun(NoiseModel.ou(1000.0, 2.0), PulseProtocol.pdd(0.25), GRID, 3_000, 223), 1e-5),
    ],
    ids=["sigma50_free", "sigma50_echo", "sigma10_free", "sigma1000_pdd"],
)
def test_ou_large_phases_match_reference(cfg, bound):
    # Phases reach hundreds of radians (thousands at sigma 1000), where the
    # float32 tan(phi/2) must still give m within the float32 bound of the
    # real part of libm's complex exp; the rounding of phi/2 to float32
    # grows with sigma tmax.
    m = coherence_series(cfg)
    assert np.max(np.abs(m - coherence_reference(cfg).real)) <= bound


@pytest.mark.parametrize("protocol", [FREE, ECHO4], ids=["free", "echo"])
def test_ou_phase_reduced_mod_pi_past_sigma_tmax_80(protocol):
    # sigma tmax 8000: a float32 phi/2 alone would leave m ~5e-4/sqrt(N)
    # from the float64 evaluation, 5e-5 at 100 trajectories; reduced mod pi
    # in float64 first, m stays within the float32 bound of 1e-6.
    cfg = DephasingRun(NoiseModel.ou(1000.0, 200.0), protocol, GRID, 100, 227)
    assert np.max(np.abs(coherence_series(cfg) - coherence_reference(cfg).real)) <= 1e-6


def test_ou_coherence_is_exactly_one_at_zero():
    assert coherence_series(OU_CHUNK_CASES["echo"])[0] == 1.0


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
    # For a Bell state C is the clipped real coherence max(m, 0), exactly,
    # independent of MC noise.
    cfg = DephasingRun(OU20, FREE, TimeGrid(4.0, 41), 500, 17)
    m = coherence_series(cfg)
    series = run(cfg)
    assert_allclose(series.concurrence, np.maximum(m, 0.0), atol=1e-9)


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
    # The propagator's averaged state has coherence Re m and concurrence
    # |m| C(v); where a sampled m < 0 the engine clips C to 0, and the
    # propagator's C is -m C(v) there. C and E_f carry the float32 error of
    # the OU kernel's m; E_av is exact.
    scalar = run(cfg)
    stepped = propagator_series(cfg)
    m = coherence_series(cfg)
    kept = m >= 0.0
    folded = np.where(kept, scalar.concurrence, -m * concurrence_pure(cfg.initial_state))
    assert np.max(np.abs(folded - stepped.concurrence)) <= 1e-6
    assert np.all(scalar.concurrence[~kept] == 0.0) and np.all(scalar.e_f[~kept] == 0.0)
    assert np.max(np.abs(scalar.e_f[kept] - stepped.e_f[kept])) <= 1e-6
    assert np.max(np.abs(scalar.e_av - stepped.e_av)) <= 1e-9


def test_propagator_path_agrees_with_scalar_path():
    assert_matches_propagator(DephasingRun(OU20, ECHO4, TimeGrid(8.0, 81), 400, 29))


def test_propagator_path_agrees_for_pdd():
    assert_matches_propagator(DephasingRun(STATIC, PulseProtocol.pdd(1.0), TimeGrid(4.0, 41), 300, 31))


def test_propagator_path_agrees_for_non_bell_states():
    # Partially entangled, complex initial states: C = max(m, 0) C(v) and
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


def test_mc_converges_with_trajectory_count():
    exact = np.exp(-0.5 * GRID.times**2)

    def max_dev(n):
        series = run(DephasingRun(STATIC, FREE, GRID, n, 47))
        return np.max(np.abs(series.concurrence - exact))

    assert max_dev(100_000) < max_dev(10_000)


def test_decayed_coherence_is_not_biased_upward():
    # Over t >= 5 the exact m is below 1.8e-3 (OU tau 2 free, mean ~3.3e-4)
    # and below 3.7e-6 (static free). There |m| of a complex estimate sits
    # near its Rayleigh mean sqrt(pi / (4N)) = 2.8e-3, and max(m, 0) of the
    # real one near sqrt(1 / (4 pi N)) = 8.9e-4. The statistic is the mean C
    # over those points, both cells and seeds 7-10. Over 60 seeds, the
    # per-seed mean of the two cells was 7.3e-4 (sd 6.1e-4) for the real
    # estimator and 2.78e-3 (sd 6.2e-4) for the complex one. Predicted
    # false-failure rate of the 1.75e-3 bound over four seeds: ~4e-4
    # (normal approximation; 8e-4 by resampling the 60 seeds), and the
    # complex estimator passes it with probability ~4e-4.
    late = GRID.times >= 5.0
    means = [
        run(DephasingRun(noise, FREE, GRID, 100_000, seed)).concurrence[late].mean()
        for noise in (STATIC, NoiseModel.ou(1.0, 2.0))
        for seed in range(7, 11)
    ]
    assert np.mean(means) < 1.75e-3


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


def test_seed_and_trajectory_count_are_integers_in_range():
    # A seed outside [0, 2^64) or a float one would alias a seed inside it
    # as a uint64 stream key, and a float trajectory count would fail only
    # inside the run: each is refused where it is given.
    for seed in (2**64 + 1, -1, 1.5):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            DephasingRun(STATIC, FREE, GRID, 10, seed)
    with pytest.raises(ValueError, match="n_traj must be an integer"):
        DephasingRun(STATIC, FREE, GRID, 2.5, 1)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
        trajectory_seed(2**64, 0)

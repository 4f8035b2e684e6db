"""Trajectory-ensemble Monte Carlo for two-qubit pure dephasing.

Qubit A evolves under H_A(t) = [-Omega_A sz + eps(t) sz + V(t) sx]/2 with
classical noise eps(t) and instantaneous pi pulses; qubit B idles. In the
frame rotating with Omega_A (a local unitary on A, which changes no
entanglement measure) the splitting drops out. Moving every pulse to the
left of the product of interval propagators then turns each realization
into a pure sz phase with the toggled sign, U(t) = P^m exp(-i sz phi(t)/2),
phi(t) = int_0^t y eps', so the ensemble reduces to the mean dephasing
factor m(t) = <exp(-i phi(t))>. Both noise kinds are zero-mean Gaussian,
so phi and -phi have the same law and m = <cos phi> is real: the kernels
sum cos phi alone, and no imaginary part, pure sampling noise, is formed.
`run` hands m to `series.series_from_coherence`. Each noise kind has the
kernel its structure allows:

- static noise: a realization's phase is rank 1, phi_k(t_j) = x_k s_j with
  x_k = eps_k dt and s_j the toggling step counts. With |s_j| = q w + r,
  cos(x |s|) = Re exp(i x r) exp(i x q w), so each batch's sum over
  trajectories is the real part of one product of two small exp tables, from
  which every m(t_j) is gathered (cos is even); m = 1 exactly where s_j = 0.
  The cos and sin tables are filled _GROUP blocks (1024 trajectories) at a
  time into buffers that each worker thread keeps from batch to batch.
- OU noise: one pass along the time axis, _ROWS grid rows at a time. The OU
  recursion and the trapezoid phase sum are linear in a chunk's Gaussians
  and in the path and phase at the row before it, so each chunk is one small
  float64 matrix (`_ou_maps`), built once per run and read by every worker.
  Each chunk hashes its counters into Gaussians (`noise.gaussian_block`),
  applies its map in one product (`_phase_block`) and takes a float32 sum of
  sin^2(phi/2) = (1 - cos phi) / 2 over each row; the batch sums are
  float64, and m = 1 - 2 sum / N <= 1. Every chunk is drawn into the same
  two small buffers and no (n_points, batch) array is formed: the memory
  per batch is O(batch x _ROWS), whatever the number of grid points. The
  phases are those of the step-by-step recursion to float64 roundoff, and
  m is within ~1e-6 of a float64 cos-and-sum of them to sigma tmax 8000.

numpy vectorizes the OU kernel's float32 sin on every x86 SIMD target; the
float64 static tables take cos and sin from one tangent (`noise._half_angle`).
The test suite checks the measures against a stepwise-propagator engine that
applies the interval propagators and the pulse unitaries to each trajectory's
state.

Determinism contract: trajectories are keyed by (master_seed, index), batch
boundaries are fixed, and each batch's sum is added to one running total in
batch order, so the output is bit-identical for any worker count. The
batches run 2 x workers at a time, each window summed before the next is
submitted, so at most two batches per worker are in flight and the memory
does not grow with the number of batches. No BLAS product sums over
more than _BLOCK terms, so the BLAS thread count does not change the output
either. The bits hold on one numpy build and SIMD target (README).
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .filters import NumericalError
from .grid import TimeGrid
from .linalg import PHI_PLUS, check_state_vector
from .measures import concurrence_pure
from .noise import (
    STATIC,
    NoiseModel,
    _float32_rows,
    _half_angle,
    gaussian_block,
    sample_block,
    trajectory_seed,
)
from .pulses import PulseProtocol, toggling_steps
from .series import EntanglementSeries, series_from_coherence

WORKERS_ENV = "ENTDYN_WORKERS"
MAX_WORKERS = 256  # threads; each keeps up to two batches in flight
_BATCH = 8192
_BLOCK = 256  # trajectories per product block of the static tables
_GROUP = 4  # product blocks per group of table rows filled at once
_ROWS = 8  # time rows per chunk of the OU pass; even, as gaussian_block needs
_REDUCE_ABOVE = 80.0  # sigma t_max past which _ou_sums reduces phi/2 mod pi in float64


@dataclass
class DephasingRun:
    """Configuration of one Monte Carlo run."""

    noise: NoiseModel
    protocol: PulseProtocol
    grid: TimeGrid
    n_traj: int
    master_seed: int
    initial_state: np.ndarray = field(default_factory=lambda: PHI_PLUS.copy())

    def __post_init__(self):
        if not (isinstance(self.n_traj, numbers.Integral) and self.n_traj >= 1):
            raise ValueError(f"n_traj must be an integer >= 1, got {self.n_traj!r}")
        trajectory_seed(self.master_seed, 0)  # raises for a seed outside [0, 2^64)
        self.initial_state = check_state_vector(self.initial_state, dim=4)


def _ou_maps(noise: NoiseModel, grid: TimeGrid, steps: np.ndarray, rows: int) -> list[np.ndarray]:
    """The OU pass as one linear map per chunk of ``rows`` grid rows; the
    last chunk may be shorter.

    A chunk's input is [eps_prev; phi_prev; z_0 .. z_{c-1}]: the OU path and
    the phase at the row before the chunk, then the chunk's c standard
    normals. Its output is [phi_0 .. phi_{c-1}; eps_{c-1}]. Both steps are
    linear: the exact OU update eps_i = alpha eps_{i-1} + q z_i, with
    alpha = exp(-dt/tau) and q = sigma sqrt(1 - alpha^2) (eps_0 = sigma z_0
    at grid row 0), and the trapezoid sum
    phi_j = phi_{j-1} + (dt/2) y_{j-1} (eps_{j-1} + eps_j), where the
    toggling sign y_{j-1} = s_j - s_{j-1} (``steps`` from
    `pulses.toggling_steps`) is constant on the grid interval that ends at
    row j and phi_0 = 0. So the chunk is one (c + 1) x (c + 2) matrix,
    built by running both steps on the coefficient vectors of eps and phi
    over the chunk's inputs. Chunks with the same signs share one map, so
    the maps take memory per distinct sign pattern, not per grid row.
    """
    alpha = math.exp(-grid.dt / noise.tau)
    q = noise.sigma * math.sqrt(max(0.0, 1.0 - alpha * alpha))
    coef = np.zeros(grid.n_points)  # (dt/2) y at each grid row; 0 at row 0
    np.multiply(np.diff(steps), 0.5 * grid.dt, out=coef[1:])
    shared = {}
    maps = []
    for start in range(0, grid.n_points, rows):
        signs = coef[start : start + rows]
        key = (start == 0, signs.tobytes())
        if key not in shared:
            ou_map = np.empty((len(signs) + 1, len(signs) + 2))
            eps, phi = np.eye(2, len(signs) + 2)  # eps_prev and phi_prev
            for i, h in enumerate(signs.tolist()):
                decay, kick = (0.0, noise.sigma) if start + i == 0 else (alpha, q)
                new = decay * eps
                new[i + 2] = kick
                phi = phi + h * (eps + new)
                ou_map[i] = phi
                eps = new
            ou_map[-1] = eps
            shared[key] = ou_map
        maps.append(shared[key])
    return maps


def _phase_block(ou_map: np.ndarray, chunk: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One chunk of the OU pass: ``out`` = ``ou_map`` @ ``chunk``, that is
    [phi rows; last eps row] from [eps_prev; phi_prev; Gaussian rows], for
    one map of `_ou_maps` and every path at once."""
    return np.matmul(ou_map, chunk, out=out)


def _ou_sums(keys: np.ndarray, maps: list[np.ndarray], reduce: bool) -> np.ndarray:
    """sum_k (1 - cos phi[j, k]) for each grid row j over the OU paths of
    ``keys``, one chunk of rows per map of `_ou_maps`: Gaussians, the map,
    then float32 row sums of sin^2(phi/2) = (1 - cos phi) / 2, doubled in
    float64. Each term is >= 0, so the mean 1 - sum / n is <= 1.

    Rounding phi/2 to float32 moves the angle by up to |phi| 2^-25. With
    ``reduce``, phi/2 is first reduced mod pi in float64 as
    phi/2 - pi rint(phi/(2 pi)), which moves the angle by up to ~|phi| 1.5e-16
    (the rounding of the product with float64's pi); np.remainder costs
    ~60x a rint per element. A chunk where float32 overflows some phi/2 is left
    as it is: its inf makes m not finite, and the run fails on that.

    The row sums are float32 too. Where m is near 1 the terms are near 0, so
    a batch of 8192 resolves m to ~4e-9 where m > 0.9; the largest error is
    ~1.2e-7, from the float32 sine where phi is large (four OU cells against
    a float64 cos-and-sum, one reduced).

    Every chunk is drawn into the same two float64 buffers, the working set:
    the Gaussians' hash runs in the map's output rows, and the float32
    sin(phi/2) in the input's Gaussian rows once the map has been applied."""
    rows = 2 * (len(maps[0]) // 2)  # the longest chunk, rounded up to even
    sums = np.empty(sum(len(m) - 1 for m in maps))
    chunk = np.zeros((rows + 2, keys.size))  # [eps_prev; phi_prev; Gaussians]
    phase = np.empty((rows + 1, keys.size))  # [phi rows; last eps row]
    t_all = _float32_rows(chunk[2:], rows)
    start = 0
    for ou_map in maps:
        count = len(ou_map) - 1
        gaussian_block(keys, count, start, chunk[2:], phase)
        phi = _phase_block(ou_map, chunk[: count + 2], phase[: count + 1])
        chunk[0] = phi[count]
        chunk[1] = phi[count - 1]
        t = np.multiply(phi[:count], 0.5, out=t_all[:count], casting="same_kind")
        if reduce and np.isfinite(t).all():  # else some float32 phi/2 is inf, and m too
            half = phi[:count]
            half *= 0.5
            half -= math.pi * np.rint(half / math.pi)
            np.copyto(t, half, casting="same_kind")
        np.sin(t, out=t)
        t *= t  # sin^2(phi/2) = (1 - cos phi) / 2 >= 0
        sums[start : start + count] = t.sum(axis=1)
        start += count
    return 2.0 * sums


def _static_table(x: np.ndarray, width: int, height: int, tables: list) -> np.ndarray:
    """T[r, q] = sum_k cos(x_k (q width + r)), shape (width, height).

    A static realization's phase is rank 1, phi_k(t_j) = x_k s_j, so the
    ensemble sum at any step count a = q width + r is the real part of one
    product of two small tables of exp(i x_k r) and exp(i x_k q width),
    taken here as real cos and sin tables: T = Ca^T Cb - Sa^T Sb. The tables
    are filled one group of _GROUP blocks of _BLOCK trajectories at a time,
    and each block's two products join two running sums in block order: a
    BLAS product splits a longer sum at places that depend on its thread
    count, and the sums with it. ``tables`` holds the buffers
    [Ca, Sa, Cb, Sb, P], of shapes (K, width), (K, height) and
    (K / _BLOCK, width, height), K >= min(len(x), _GROUP _BLOCK) rounded up
    to a multiple of _BLOCK; each group overwrites their leading rows.
    """
    *rows, products = tables
    sums = np.full((2, width, height), -0.0)  # -0.0 + p is p: each sum starts at block 0's product
    for start in range(0, x.size, _GROUP * _BLOCK):
        part = 0.5 * x[start : start + _GROUP * _BLOCK]
        blocks = -(-part.size // _BLOCK)
        ca, sa, cb, sb = (table[: blocks * _BLOCK] for table in rows)
        for cos, sin, counts in ((ca, sa, np.arange(width)), (cb, sb, width * np.arange(height))):
            filled_cos, filled_sin = cos[: part.size], sin[: part.size]
            np.multiply.outer(part, counts, out=filled_sin)
            _half_angle(filled_sin, filled_cos)  # sin holds tan(x a / 2), cos the weight w
            filled_sin *= filled_cos
            filled_cos -= 1.0
            cos[part.size :] = sin[part.size :] = 0.0  # pad rows may hold an earlier group's values
        ca, sa, cb, sb = (t.reshape(blocks, _BLOCK, -1) for t in (ca, sa, cb, sb))
        for acc, a, b in zip(sums, (ca, sa), (cb, sb)):
            for block in np.matmul(a.transpose(0, 2, 1), b, out=products[:blocks]):
                acc += block
    return sums[0] - sums[1]


def resolve_workers(workers: int | None) -> int:
    """Worker count to use: ``workers``, or ENTDYN_WORKERS (default 1); at most MAX_WORKERS."""
    name, value = "worker count", workers
    if workers is None:
        name, value = WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"{name} must be an integer in [1, {MAX_WORKERS}], got {value!r}")
    return workers


def coherence_series(run: DephasingRun, workers: int | None = None) -> np.ndarray:
    """Real m(t): the ensemble mean of cos phi(t) over all trajectories,
    float64, shape (n_points,)."""
    steps = toggling_steps(run.protocol, run.grid)
    static = run.noise.kind == STATIC
    if static:  # m(t_j) from T[a_j % width, a_j // width], a_j = |s_j|
        counts = np.abs(steps)
        width = math.isqrt(int(counts.max())) + 1
        height = int(counts.max()) // width + 1
    else:  # one set of maps, read by every batch
        with np.errstate(over="ignore", invalid="ignore"):  # run() checks m(t)
            maps = _ou_maps(run.noise, run.grid, steps, min(_ROWS, run.grid.n_points))
        # sd(phi(t)) <= sigma t for any protocol; up to sigma t_max 80 the float32 phi/2
        # leaves m within 1e-6 of float64, and reducing would add ~43% (46 -> 66 ms a batch).
        reduce = run.noise.sigma * run.grid.t_max > _REDUCE_ABOVE

    # Each worker thread keeps its static tables across its batches, so
    # their pages are faulted in once; no two running batches share them.
    worker = threading.local()

    def one_batch(start):
        indices = np.arange(start, min(start + _BATCH, run.n_traj))
        with np.errstate(over="ignore", invalid="ignore"):  # run() checks m(t)
            if static:
                if not hasattr(worker, "tables"):
                    blocks = min(_GROUP, -(-min(_BATCH, run.n_traj) // _BLOCK))
                    worker.tables = [np.empty((blocks * _BLOCK, n)) for n in (width, width, height, height)]
                    worker.tables.append(np.empty((blocks, width, height)))
                x = run.grid.dt * sample_block(run.noise, run.master_seed, indices)
                return _static_table(x, width, height, worker.tables)
            return _ou_sums(trajectory_seed(run.master_seed, indices), maps, reduce)

    # Each batch's sum is added to the total in batch order as it arrives,
    # then dropped, so the total is the same for any worker count. One
    # worker runs the batches on the calling thread; more run them in
    # windows of two batches per worker, as Executor.map before Python 3.14
    # submits every call of its input before it yields the first.
    starts = range(0, run.n_traj, _BATCH)
    workers = resolve_workers(workers)
    if workers == 1 or len(starts) == 1:
        total = sum(map(one_batch, starts), 0.0)
    else:  # imported here: a one-worker run needs no pool (nor logging, queue, ...)
        from concurrent.futures import ThreadPoolExecutor

        total = 0.0
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i in range(0, len(starts), 2 * workers):
                total = sum(pool.map(one_batch, starts[i : i + 2 * workers]), total)
    if static:  # cos is even: m(t_j) at s_j is the table's entry at |s_j|
        return total[counts % width, counts // width] / run.n_traj
    return 1.0 - total / run.n_traj


def run(config: DephasingRun, workers: int | None = None) -> EntanglementSeries:
    """Monte Carlo entanglement series, by `series.series_from_coherence`.
    Raises NumericalError when the mean dephasing factor is not finite."""
    m = coherence_series(config, workers)
    if not np.all(np.isfinite(m)):
        raise NumericalError(
            f"Monte Carlo dephasing factor is not finite for sigma = {config.noise.sigma!r}"
        )
    return series_from_coherence(config.grid, m, concurrence_pure(config.initial_state))

"""Trajectory-ensemble Monte Carlo for two-qubit pure dephasing.

Qubit A evolves under H_A(t) = [-Omega_A sz + eps(t) sz + V(t) sx]/2 with
classical noise eps(t) and instantaneous pi pulses; qubit B idles. In the
frame rotating with Omega_A (a local unitary on A, which changes no
entanglement measure) the splitting drops out. Moving every pulse to the
left of the product of interval propagators then turns each realization
into a pure sz phase with the toggled sign, U(t) = P^m exp(-i sz phi(t)/2),
phi(t) = int_0^t y eps', so the ensemble reduces to the mean dephasing
factor m(t) = <exp(-i phi(t))>. Each noise kind has the kernel its
structure allows:

- static noise: a realization's phase is rank 1, phi_k(t_j) = x_k s_j with
  x_k = eps_k dt and s_j the toggling step counts. With
  |s_j| = q w + r, exp(i x |s|) = exp(i x r) exp(i x q w), so each batch's
  sum over trajectories is one product of two small exp tables, from which
  every m(t_j) is gathered (conjugated where s_j >= 0). No per-point phase
  is formed, and m = 1 exactly where s_j = 0. The tables are real cos and
  sin tables in buffers that each worker thread keeps from batch to batch.
- OU noise: one pass along the time axis, _ROWS grid rows at a time. Each
  chunk hashes its counters into Gaussians, continues the OU recursion from
  the row before (`noise.ou_chunk`), continues the running phase sum from
  the carried last rows (`_phase_block`) and takes real cos and sin sums
  over each row. Every chunk is drawn into the same two (_ROWS, batch)
  buffers, small enough to stay in cache, and no (n_points, batch) array is
  formed: the memory per batch is O(batch x _ROWS), whatever the number of
  grid points, and every value is the one a single whole-grid pass gives,
  bit for bit.

Both kernels take cos and sin from one tangent of the half angle
(`noise._half_angle`): with t = tan(phi/2) and w = 2 / (1 + t^2),
cos phi = w - 1 and sin phi = t w. numpy's float64 tan is vectorized, its cos
and sin are not, so this is the cheaper way to the same values (within
~3e-16 absolute).

The averaged state is the initial pure state v with its coherences across
the sz_A blocks scaled by m(t): a one-sided channel, so its concurrence
factorizes as C(t) = |m(t)| C(v) (Konrad et al., Nat. Phys. 4, 99, 2008).
Every member is a local unitary image of v, so the ensemble-average
entanglement is EoF(C(v)) at all times. The test suite checks both closed
forms against a stepwise-propagator engine that applies the interval
propagators and the pulse unitaries to each trajectory's state.

Determinism contract: trajectories are keyed by (master_seed, index), batch
boundaries are fixed, and batch results are reduced in index order, so the
output is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .filters import NumericalError
from .grid import TimeGrid
from .linalg import PHI_PLUS, check_state_vector
from .measures import concurrence_pure, eof_from_concurrence
from .noise import STATIC, NoiseModel, _half_angle, ou_chunk, sample_block, trajectory_seed
from .pulses import PulseProtocol, toggling_steps
from .series import EntanglementSeries

WORKERS_ENV = "ENTDYN_WORKERS"
_BATCH = 8192
_ROWS = 8  # time rows per chunk of the OU pass; even, as gaussian_block needs


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
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj!r}")
        self.initial_state = check_state_vector(self.initial_state, dim=4)


class _PhaseCarry:
    """State of the phase pass after the rows it has seen: the next grid row,
    the last eps row and the last phi row (copies, so the caller may reuse
    each chunk), plus one scratch row for the increments."""

    def __init__(self, n_traj: int):
        self.row = 0
        self.eps = np.zeros(n_traj)
        self.phi = np.zeros(n_traj)
        self.incr = np.empty(n_traj)


def _phase_block(eps: np.ndarray, grid: TimeGrid, steps: np.ndarray,
                 carry: _PhaseCarry | None = None) -> np.ndarray:
    """phi(t_j) = int_0^{t_j} y eps dt' for each column of the time-major
    eps, trapezoidal in eps and exact in y; eps is overwritten with phi and
    returned.

    The toggling sign y_{j-1} = s_j - s_{j-1} (``steps`` from
    `pulses.toggling_steps`) is constant on the grid interval that ends at
    row j, so one running sum over the contiguous time rows gives
    phi_j = phi_{j-1} + (dt/2) y_{j-1} (eps_{j-1} + eps_j), with a zero
    coefficient at row 0, where phi = 0.

    The rows of eps are grid rows carry.row, carry.row + 1, ...; ``carry``
    holds the state after the rows before them and is advanced past these.
    Without a carry, eps is the whole grid. Chunks passed in order with one
    carry give the phases of one whole-grid call, bit for bit.
    """
    carry = _PhaseCarry(eps.shape[1]) if carry is None else carry
    rows = np.arange(carry.row, carry.row + len(eps))
    coefs = (0.5 * grid.dt * (steps[rows] - steps[np.maximum(rows - 1, 0)])).tolist()
    phi = carry.phi
    for row, coef in zip(eps, coefs):
        np.add(carry.eps, row, out=carry.incr)
        carry.eps[:] = row
        carry.incr *= coef
        np.add(phi, carry.incr, out=row)
        phi = row
    carry.phi[:] = phi
    carry.row += len(eps)
    return eps


def _ou_sums(run: DephasingRun, keys: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """sum_k exp(-i phi[j, k]) for each grid row j over the OU paths of
    ``keys``, _ROWS rows at a time: Gaussians, OU recursion, the phase and
    real cos and sin row sums per chunk, from t = tan(phi/2) and
    w = 2 / (1 + t^2): sum cos = sum w - n and sum sin = sum t w."""
    grid = run.grid
    sums = np.empty(grid.n_points, dtype=complex)
    last = np.empty(keys.size)
    carry = _PhaseCarry(keys.size)
    # Every chunk is drawn into these two buffers (weights is the Gaussians'
    # scratch until the reduction needs it), with an even row count for the
    # Box-Muller pairs of gaussian_block.
    rows = min(_ROWS, 2 * ((grid.n_points + 1) // 2))
    chunk = np.empty((rows, keys.size))
    weights = np.empty((rows, keys.size))
    for start in range(0, grid.n_points, _ROWS):
        stop = min(start + _ROWS, grid.n_points)
        eps = ou_chunk(run.noise, keys, grid, start, stop - start, last, chunk, weights)
        _phase_block(eps, grid, steps, carry)  # in place: eps is phi now
        eps *= 0.5
        w = weights[: stop - start]
        _half_angle(eps, w)  # eps is tan(phi/2) now
        sums.real[start:stop] = w.sum(axis=1) - keys.size
        eps *= w
        sums.imag[start:stop] = -eps.sum(axis=1)
    return sums


def _static_table(x: np.ndarray, width: int, height: int, tables: list) -> np.ndarray:
    """T[r, q] = sum_k exp(i x_k (q width + r)), shape (width, height).

    A static realization's phase is rank 1, phi_k(t_j) = x_k s_j, so the
    ensemble sum at any step count a = q width + r is one product of two
    small tables of exp(i x_k r) and exp(i x_k q width), taken here as real
    cos and sin tables: T = (Ca^T Cb - Sa^T Sb) + i (Ca^T Sb + Sa^T Cb).
    ``tables`` holds the four float buffers [Ca, Sa, Cb, Sb], of shapes
    (>= len(x), width) and (>= len(x), height); their leading rows are
    overwritten.
    """
    ca, sa, cb, sb = (table[: x.size] for table in tables)
    half_x = 0.5 * x
    for cos, sin, counts in ((ca, sa, np.arange(width)), (cb, sb, width * np.arange(height))):
        np.multiply.outer(half_x, counts, out=sin)
        _half_angle(sin, cos)  # sin holds tan(x a / 2), cos the weight w
        sin *= cos
        cos -= 1.0
    total = np.empty((width, height), dtype=complex)
    total.real = ca.T @ cb - sa.T @ sb
    total.imag = ca.T @ sb + sa.T @ cb
    return total


def resolve_workers(workers: int | None) -> int:
    """Worker count to use: ``workers``, or the ENTDYN_WORKERS setting (default 1)."""
    name, value = "worker count", workers
    if workers is None:
        name, value = WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return workers


def _batches(n_traj: int):
    return [(k, min(k + _BATCH, n_traj)) for k in range(0, n_traj, _BATCH)]


def _map_batches(fn, n_traj: int, workers: int) -> list:
    batches = _batches(n_traj)
    if workers == 1 or len(batches) == 1:
        return [fn(b) for b in batches]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, batches))


def coherence_series(run: DephasingRun, workers: int | None = None) -> np.ndarray:
    """Ensemble mean of exp(-i phi(t)) over all trajectories, shape (n_points,)."""
    steps = toggling_steps(run.protocol, run.grid)
    static = run.noise.kind == STATIC
    # Static tables: m(t_j) from T[a_j % width, a_j // width], a_j = |s_j|.
    counts = np.abs(steps)
    width = math.isqrt(int(counts.max())) + 1
    height = int(counts.max()) // width + 1

    # Each worker thread keeps its static tables across its batches, so
    # their pages are faulted in once; no two running batches share them.
    worker = threading.local()

    def one_batch(bounds):
        indices = np.arange(*bounds)
        with np.errstate(over="ignore", invalid="ignore"):  # run() checks m(t)
            if static:
                if not hasattr(worker, "tables"):
                    rows = min(_BATCH, run.n_traj)
                    worker.tables = [np.empty((rows, n)) for n in (width, width, height, height)]
                eps = sample_block(run.noise, run.master_seed, indices, run.grid)
                return _static_table(run.grid.dt * eps[:, 0], width, height, worker.tables)
            return _ou_sums(run, trajectory_seed(run.master_seed, indices), steps)

    partial = _map_batches(one_batch, run.n_traj, resolve_workers(workers))
    total = np.zeros_like(partial[0])
    for p in partial:  # fixed batch order keeps the reduction deterministic
        total += p
    if static:  # exp(-i x s) is exp(i x |s|) where s < 0, its conjugate elsewhere
        total = total[counts % width, counts // width]
        total = np.where(steps < 0, total, total.conj())
    return total / run.n_traj


def run(config: DephasingRun, workers: int | None = None) -> EntanglementSeries:
    """Monte Carlo entanglement series: C = |m| C(v), E_av = EoF(C(v)).

    Raises NumericalError when the mean dephasing factor is not finite.
    """
    c_initial = concurrence_pure(config.initial_state)
    m = coherence_series(config, workers)
    if not np.all(np.isfinite(m)):
        raise NumericalError(
            f"Monte Carlo dephasing factor is not finite for sigma = {config.noise.sigma!r}"
        )
    conc = np.abs(m) * c_initial
    return EntanglementSeries(config.grid, conc, eof_from_concurrence(c_initial))

"""Trajectory-ensemble Monte Carlo for two-qubit pure dephasing.

Qubit A evolves under H_A(t) = [-Omega_A sz + eps(t) sz + V(t) sx]/2 with
classical noise eps(t) and instantaneous pi pulses; qubit B idles. Moving
every pulse to the left of the product of interval propagators turns each
realization into a pure sz phase with the toggled sign, U(t) = P^m
exp(-i sz phi(t)/2), phi(t) = int_0^t y eps', so the engine evolves one
scalar phase per trajectory and reduces the ensemble to the mean dephasing
factor m(t) = <exp(-i phi(t))>.

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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .grid import TimeGrid
from .linalg import PHI_PLUS, check_state_vector
from .measures import concurrence_pure, eof_from_concurrence
from .noise import NoiseModel, sample_block
from .pulses import PulseProtocol, pulse_grid_indices
from .series import EntanglementSeries

WORKERS_ENV = "ENTDYN_WORKERS"
_BATCH = 8192


@dataclass
class DephasingRun:
    """Configuration of one Monte Carlo run."""

    noise: NoiseModel
    protocol: PulseProtocol
    grid: TimeGrid
    n_traj: int
    master_seed: int
    initial_state: np.ndarray = field(default_factory=lambda: PHI_PLUS.copy())
    omega_a: float = 0.0

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj!r}")
        self.initial_state = check_state_vector(self.initial_state, dim=4)


def _phase_block(eps: np.ndarray, grid: TimeGrid, protocol: PulseProtocol) -> np.ndarray:
    """phi(t_j) = int_0^{t_j} y eps dt' for each row of eps, trapezoidal in eps
    and exact in y.

    The toggling sign is constant on each grid interval (pulses must sit on
    grid points), so each interval contributes sign * dt * (eps_j + eps_j+1)/2.
    Increments are accumulated per constant-sign segment and the segment
    totals combined with their signs, so that a realization with constant eps
    refocuses bit-exactly (identical partial sums cancel) at the echo time.
    """
    n = grid.n_points
    half_dt = 0.5 * grid.dt
    incr = half_dt * (eps[:, :-1] + eps[:, 1:])
    boundaries = [p for p in pulse_grid_indices(protocol, grid) if p < n - 1]
    starts = [0, *boundaries]
    ends = [*boundaries, n - 1]
    phi = np.empty((eps.shape[0], n))
    phi[:, 0] = 0.0
    base = np.zeros(eps.shape[0])
    for r, (a, b) in enumerate(zip(starts, ends)):
        sign = -1.0 if r % 2 else 1.0
        local = np.cumsum(incr[:, a:b], axis=1)
        phi[:, a + 1 : b + 1] = base[:, None] + sign * local
        base = base + sign * local[:, -1]
    return phi


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

    def one_batch(bounds):
        k0, k1 = bounds
        eps = sample_block(run.noise, run.master_seed, np.arange(k0, k1), run.grid)
        eps -= run.omega_a
        phi = _phase_block(eps, run.grid, run.protocol)
        return np.exp(-1j * phi).sum(axis=0)

    partial = _map_batches(one_batch, run.n_traj, resolve_workers(workers))
    total = np.zeros(run.grid.n_points, dtype=complex)
    for p in partial:  # fixed batch order keeps the reduction deterministic
        total += p
    return total / run.n_traj


def run(config: DephasingRun, workers: int | None = None) -> EntanglementSeries:
    """Monte Carlo entanglement series: C = |m| C(v), E_av = EoF(C(v))."""
    c_initial = concurrence_pure(config.initial_state)
    conc = np.abs(coherence_series(config, workers)) * c_initial
    return EntanglementSeries(config.grid, conc, eof_from_concurrence(c_initial))

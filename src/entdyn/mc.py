"""Trajectory-ensemble Monte Carlo for two-qubit pure dephasing.

Qubit A evolves under H_A(t) = [-Omega_A sz + eps(t) sz + V(t) sx]/2 with
classical noise eps(t) and instantaneous pi pulses; qubit B idles (optionally
behind a fixed local unitary). Moving every pulse to the left of the product
of interval propagators turns each realization into a pure sz phase with the
toggled sign, U(t) = P^m exp(-i sz phi(t)/2), phi(t) = int_0^t y eps', so the
default path evolves a scalar phase per trajectory. A stepwise-propagator
path (interval propagators interleaved with the actual pulse unitaries) is
kept behind a flag to cross-validate that reduction.

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
from .linalg import PHI_PLUS, check_state_vector, dagger
from .measures import (
    concurrence_mixed,
    entropy_of_entanglement,
    eof_from_concurrence,
    _eof_vec,
)
from .noise import NoiseModel, NoiseTrajectory, sample_block
from .pulses import PulseProtocol, pulse_grid_indices
from .series import EntanglementSeries

WORKERS_ENV = "ENTDYN_WORKERS"
_BATCH = 8192
# sz eigenvalue of qubit A on each two-qubit basis state |ab>
_SZ_A = np.array([1.0, 1.0, -1.0, -1.0])


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
    b_unitary: np.ndarray | None = None
    use_propagator: bool = False

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj!r}")
        self.initial_state = check_state_vector(self.initial_state, dim=4)
        if self.b_unitary is not None:
            u = np.asarray(self.b_unitary, dtype=complex)
            if u.shape != (2, 2) or np.max(np.abs(u @ dagger(u) - np.eye(2))) > 1e-12:
                raise ValueError("b_unitary must be a 2x2 unitary")
            self.b_unitary = u


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


def accumulate_phase(traj: NoiseTrajectory, protocol: PulseProtocol) -> np.ndarray:
    """Accumulated dephasing phase of one noise realization, shape (n_points,)."""
    eps = np.asarray(traj.values, dtype=float)[None, :]
    return _phase_block(eps, traj.grid, protocol)[0]


def trajectory_state(initial: np.ndarray, phi: float) -> np.ndarray:
    """Dephased state exp(-i sz_A phi / 2) |initial>."""
    initial = check_state_vector(initial, dim=4)
    return initial * np.exp(-0.5j * _SZ_A * phi)


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


def _effective_initial(run: DephasingRun) -> np.ndarray:
    v = run.initial_state
    if run.b_unitary is not None:
        v = np.kron(np.eye(2, dtype=complex), run.b_unitary) @ v
    return v


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


def density_from_coherence(initial: np.ndarray, coherence: complex) -> np.ndarray:
    """Ensemble density matrix given the mean dephasing factor <exp(-i phi)>.

    rho_il = v_i v_l* <exp(-i (s_i - s_l) phi / 2)>; the factor is 1 on
    blocks with equal sz_A and the coherence (or its conjugate) across blocks.
    This is the averaged sum of projectors in factored form, exactly.
    """
    v = check_state_vector(initial, dim=4)
    m = complex(coherence)
    diff = _SZ_A[:, None] - _SZ_A[None, :]
    factor = np.ones((4, 4), dtype=complex)
    factor[diff > 0] = m
    factor[diff < 0] = np.conj(m)
    return np.outer(v, v.conj()) * factor


def run(config: DephasingRun, workers: int | None = None) -> EntanglementSeries:
    """Monte Carlo entanglement series for the configured dephasing run."""
    if config.use_propagator:
        return _run_propagator(config, workers)
    v = _effective_initial(config)
    m = coherence_series(config, workers)
    conc = np.empty(config.grid.n_points)
    for j in range(config.grid.n_points):
        conc[j] = concurrence_mixed(density_from_coherence(v, m[j]))
    e_f = np.array([eof_from_concurrence(c) for c in conc])
    # Dephasing phases and pulses are local unitaries on A for every
    # realization, so each member keeps the initial state's entanglement and
    # the ensemble average is that constant (the propagator path checks this).
    e_av = np.full(config.grid.n_points, entropy_of_entanglement(v))
    return EntanglementSeries(config.grid, conc, e_f, e_av, e_av - e_f)


def _run_propagator(config: DephasingRun, workers: int | None = None) -> EntanglementSeries:
    """Stepwise cross-validation path: explicit interval propagators and pulses."""
    v = _effective_initial(config)
    grid = config.grid
    n = grid.n_points
    pulse_at = np.zeros(n, dtype=bool)
    pulse_at[pulse_grid_indices(config.protocol, grid)] = True
    half_dt = 0.5 * grid.dt

    def one_batch(bounds):
        k0, k1 = bounds
        eps = sample_block(config.noise, config.master_seed, np.arange(k0, k1), grid)
        eps -= config.omega_a
        psi = np.tile(v, (k1 - k0, 1))
        rho_sum = np.zeros((n, 4, 4), dtype=complex)
        ent_sum = np.zeros(n)
        for j in range(n):
            if j > 0:
                theta = half_dt * (eps[:, j - 1] + eps[:, j])
                psi = psi * np.exp(-0.5j * np.outer(theta, _SZ_A))
                if pulse_at[j]:
                    psi = -1j * psi[:, [2, 3, 0, 1]]
            rho_sum[j] = np.einsum("bi,bl->il", psi, psi.conj())
            c_pure = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
            ent_sum[j] = _eof_vec(c_pure).sum()
        return rho_sum, ent_sum

    partial = _map_batches(one_batch, config.n_traj, resolve_workers(workers))
    rho_total = np.zeros((n, 4, 4), dtype=complex)
    ent_total = np.zeros(n)
    for rho_sum, ent_sum in partial:
        rho_total += rho_sum
        ent_total += ent_sum
    conc = np.empty(n)
    for j in range(n):
        rho = rho_total[j] / config.n_traj
        rho = 0.5 * (rho + rho.conj().T)  # strip roundoff skew before validation
        conc[j] = concurrence_mixed(rho)
    e_f = np.array([eof_from_concurrence(c) for c in conc])
    e_av = ent_total / config.n_traj
    return EntanglementSeries(grid, conc, e_f, e_av, e_av - e_f)

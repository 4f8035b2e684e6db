"""Classical noise sources: quasistatic Gaussian noise and the
Ornstein-Uhlenbeck process with exponential autocorrelation
sigma^2 exp(-|dt|/tau) (Lorentzian power spectrum).

Sampling is counter-based: every (seed, sample index) pair maps through a
splitmix64-style mixing function to an independent uniform, and Gaussians come
from Box-Muller on that stream. There is no generator state, so results are
byte-identical for a given (model, seed, grid) regardless of batching, thread
count, or call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid

STATIC = "static"
ORNSTEIN_UHLENBECK = "ou"

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0 ** -53


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic process for the qubit-A detuning.

    sigma is the stationary standard deviation (angular frequency), tau the
    correlation time (unused for static noise).
    """

    kind: str
    sigma: float
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in (STATIC, ORNSTEIN_UHLENBECK):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if self.kind == ORNSTEIN_UHLENBECK and (self.tau is None or not self.tau > 0.0):
            raise ValueError(f"tau must be positive for OU noise, got {self.tau!r}")

    @classmethod
    def static(cls, sigma: float) -> "NoiseModel":
        return cls(STATIC, sigma)

    @classmethod
    def ou(cls, sigma: float, tau: float) -> "NoiseModel":
        return cls(ORNSTEIN_UHLENBECK, sigma, tau)


def power_spectrum(model: NoiseModel, omega):
    """Lorentzian spectrum 2 sigma^2 tau / (1 + (omega tau)^2) of the OU process.

    The static process has a delta spectrum and is handled in closed form
    elsewhere; asking for its spectrum here is an error.
    """
    if model.kind != ORNSTEIN_UHLENBECK:
        raise ValueError("power_spectrum is defined for OU noise only")
    omega = np.asarray(omega, dtype=float)
    # sigma * sigma overflows to inf where sigma**2 raises OverflowError.
    out = 2.0 * (model.sigma * model.sigma) * model.tau / (1.0 + (omega * model.tau) ** 2)
    return float(out) if out.ndim == 0 else out


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: a bijective 64-bit hash, vectorized over uint64.

    Multiplications wrap mod 2^64 by design; inputs are arrays (0-d included)
    so numpy performs the wrap silently.
    """
    z = (z ^ (z >> _U64(30))) * _MIX_1
    z = (z ^ (z >> _U64(27))) * _MIX_2
    return z ^ (z >> _U64(31))


def trajectory_seed(master_seed: int, index) -> np.ndarray:
    """Derive the stream key for trajectory ``index`` from a 64-bit master seed.

    Two finalizer rounds decorrelate the seed from the trajectory index, so
    parallel execution over any partition of indices cannot change streams.
    """
    master = np.array([int(master_seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    keys = _mix64(_mix64(master + _GOLDEN) + (index.reshape(-1) + _U64(1)) * _GOLDEN)
    return keys.reshape(index.shape)


def _uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Open-below uniforms in (0, 1], one per (key, counter) pair."""
    bits = _mix64(keys + (counters + _U64(1)) * _GOLDEN)
    return ((bits >> _U64(11)).astype(np.float64) + 1.0) * _TWO_NEG53


def gaussian_block(keys, count: int) -> np.ndarray:
    """Standard normals, shape (len(keys), count), by Box-Muller per stream."""
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    pairs = (count + 1) // 2
    counters = np.arange(2 * pairs, dtype=np.uint64)
    u = _uniforms(keys[:, None], counters[None, :])
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    theta = (2.0 * np.pi) * u[:, 1::2]
    z = np.empty((keys.shape[0], 2 * pairs), dtype=np.float64)
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z[:, :count]


def _static_block(model: NoiseModel, keys) -> np.ndarray:
    """One static offset per stream key."""
    return model.sigma * gaussian_block(keys, 1)[:, 0]


def _ou_block(model: NoiseModel, keys, grid: TimeGrid) -> np.ndarray:
    """Stationary OU paths, shape (len(keys), n_points), exact discretization.

    eps_0 ~ N(0, sigma^2); eps_{j+1} = alpha eps_j + sigma sqrt(1 - alpha^2) z,
    alpha = exp(-dt/tau). Exact in distribution at the grid points, so there
    is no time-step bias.
    """
    n = grid.n_points
    z = gaussian_block(keys, n)
    alpha = math.exp(-grid.dt / model.tau)
    q = model.sigma * math.sqrt(max(0.0, 1.0 - alpha * alpha))
    eps = np.empty_like(z)
    eps[:, 0] = model.sigma * z[:, 0]
    for j in range(1, n):
        eps[:, j] = alpha * eps[:, j - 1] + q * z[:, j]
    return eps


def sample_block(model: NoiseModel, master_seed: int, indices, grid: TimeGrid) -> np.ndarray:
    """Paths for the given trajectory indices, shape (len(indices), n_points).

    Row k depends only on ``(model, master_seed, indices[k], grid)``, so any
    subset or order of indices reproduces the same rows bit for bit.
    """
    keys = trajectory_seed(master_seed, indices)
    if model.kind == STATIC:
        return np.repeat(_static_block(model, keys)[:, None], grid.n_points, axis=1)
    return _ou_block(model, keys, grid)

"""Classical noise sources: quasistatic Gaussian noise and the
Ornstein-Uhlenbeck process with exponential autocorrelation
sigma^2 exp(-|dt|/tau) (Lorentzian power spectrum).

Sampling is counter-based: every (stream, pair index) maps through a
splitmix64-style mixing function to one 64-bit hash, whose two 32-bit halves
are the radius and angle uniforms of one Box-Muller pair, run in float32:
two Gaussians per hash, with the tail cut at sqrt(64 ln 2) = 6.66 sigma
(about 3e-11 per draw). There is no generator state, so results are
byte-identical for a given (model, seed, grid) regardless of batching,
thread count, call order, or how the time axis is cut into chunks: any run
of counters starting at an even one can be drawn on its own.
`gaussian_block` returns them time-major, one counter of every stream per
row. `sample_block` draws static noise, one offset per stream; the Monte
Carlo applies the OU recursion itself, as one linear map per chunk of time
rows (`mc._ou_maps`), to a few rows of Gaussians at a time.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

STATIC = "static"
ORNSTEIN_UHLENBECK = "ou"

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
_HI, _LO = (1, 0) if sys.byteorder == "little" else (0, 1)  # int32 halves of a uint64
_TWO_PI_TWO_NEG32 = np.float32(2.0 * math.pi * 2.0**-32)  # exactly float32(2 pi) 2^-32


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


def _mix64(z: np.ndarray, shifted: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer, in place: a bijective 64-bit hash over uint64.

    Multiplications wrap mod 2^64 by design; inputs are arrays (0-d included)
    so numpy performs the wrap silently. ``shifted`` is an optional uint64
    scratch array of z's shape.
    """
    shifted = np.empty_like(z) if shifted is None else shifted
    for shift, mix in ((30, _MIX_1), (27, _MIX_2)):
        z ^= np.right_shift(z, _U64(shift), out=shifted)
        z *= mix
    z ^= np.right_shift(z, _U64(31), out=shifted)
    return z


def trajectory_seed(master_seed: int, index) -> np.ndarray:
    """Derive the stream key for trajectory ``index`` from a 64-bit master seed.

    Two finalizer rounds decorrelate the seed from the trajectory index, so
    parallel execution over any partition of indices cannot change streams.
    A seed that is not an integer in [0, 2^64) raises ValueError: as a
    uint64 it would alias a seed inside that range.
    """
    if not (isinstance(master_seed, numbers.Integral) and 0 <= master_seed < 2**64):
        raise ValueError(f"seed must be in [0, 2^64), got {master_seed!r}")
    master = np.array([master_seed], dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    keys = _mix64(_mix64(master + _GOLDEN) + (index.reshape(-1) + _U64(1)) * _GOLDEN)
    return keys.reshape(index.shape)


def _float32_rows(buf: np.ndarray, rows: int) -> np.ndarray:
    """float32 view, shape (rows, buf.shape[1]), of the leading bytes of the
    C-ordered 8-byte array ``buf``, which holds up to 2 len(buf) such rows."""
    return buf.reshape(-1).view(np.float32)[: rows * buf.shape[1]].reshape(rows, -1)


def _half_angle(h: np.ndarray, w: np.ndarray) -> None:
    """In place: h <- t = tan h and w <- 2 / (1 + t^2), so that
    cos 2h = w - 1 and sin 2h = t w, in the float type of h and w.

    For the float64 `mc._static_table`: numpy's float64 cos and sin are
    scalar (~14-20 ns per element), its tan is vectorized with AVX-512
    (~2 ns; ~16-20 ns at X86_V3). cos and sin come out within ~3e-16
    absolute of libm for |2h| up to 1e12, and exactly (1, 0) at h = 0.
    """
    np.tan(h, out=h)
    np.multiply(h, h, out=w)
    w += 1.0
    np.divide(2.0, w, out=w)


def gaussian_block(keys, count: int, start: int = 0, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Standard normals start .. start + count - 1 of each stream, time-major:
    shape (count, len(keys)), C-ordered, row c holding counter start + c of
    every stream, by Box-Muller per stream.

    Counters 2p and 2p + 1 of stream ``key`` are Box-Muller pair p, drawn
    from one hash h = mix64(key + (p + 1) G). Read as signed 32-bit
    integers, its high half hi gives the radius uniform
    u = |hi + 1/2| 2^-31 in (0, 1], exact near 0, so the tail is cut at
    sqrt(64 ln 2) = 6.66 sigma; its low half lo gives the angle
    lo 2^-32 float32(2 pi) in [-pi, pi). The values are float32 Box-Muller
    results held in float64: the casts, log, sqrt, cos and sin run in
    float32, each integer rounded once to float32.

    ``start`` must be even, so that Box-Muller pairs the same counters as a
    block drawn from 0: any run of rows equals the same rows of one long
    block, bit for bit.

    Buffers a caller reuses from block to block, all C-ordered float64 with
    len(keys) columns and at least count rows rounded up to even; the values
    are the same with or without them: ``out`` takes the values in its
    leading rows, and the result is a view of it; ``scratch`` is
    overwritten by the hash and Box-Muller temporaries.
    """
    if start % 2:
        raise ValueError(f"start must be even, got {start!r}")
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    pairs = (count + 1) // 2
    z = np.empty((2 * pairs, keys.size)) if out is None else out[: 2 * pairs]
    scratch = np.empty((2 * pairs, keys.size)) if scratch is None else scratch
    bits = scratch[:pairs].view(np.uint64)
    counters = np.arange(start // 2 + 1, start // 2 + pairs + 1, dtype=np.uint64) * _GOLDEN
    np.add(counters[:, None], keys, out=bits)
    _mix64(bits, scratch[pairs : 2 * pairs].view(np.uint64))
    halves = bits.view(np.int32).reshape(pairs, keys.size, 2)
    u = _float32_rows(scratch[pairs:], 2 * pairs)
    r, t = u[:pairs], u[pairs:]  # in place: (r, t) -> (r cos 2 pi v, r sin 2 pi v)
    np.copyto(r, halves[..., _HI], casting="unsafe")
    np.copyto(t, halves[..., _LO], casting="unsafe")
    r += 0.5
    np.abs(r, out=r)
    r *= 2.0**-31
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= _TWO_PI_TWO_NEG32
    w = _float32_rows(scratch, pairs)  # the hash in scratch is spent
    np.cos(t, out=w)
    np.sin(t, out=t)
    t *= r
    r *= w
    z[0::2] = r
    z[1::2] = t
    return z[:count]


def sample_block(model: NoiseModel, master_seed: int, indices) -> np.ndarray:
    """Static noise offsets sigma z for the given trajectory indices, shape
    (len(indices),): a static path is its offset at every grid point.

    Entry k depends only on ``(model, master_seed, indices[k])``, so any
    subset or order of indices reproduces the same values bit for bit. OU
    noise raises ValueError: its paths exist only inside the Monte Carlo's
    OU pass (`mc._ou_maps`).
    """
    if model.kind != STATIC:
        raise ValueError("sample_block draws static noise only; OU paths are run by mc._ou_maps")
    return model.sigma * gaussian_block(trajectory_seed(master_seed, indices), 1)[0]

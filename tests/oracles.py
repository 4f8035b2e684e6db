"""Independent oracles for the test suite.

Everything here is deliberately implemented through a different route than
the library code it checks: the Wootters spectrum via a general complex
eigensolver instead of the Hermitian square-root form, dephasing exponents
via time-domain double integrals of the autocorrelation instead of spectral
quadrature, the toggling transform summed directly in test code, pulse grid
indices rounded from the pulse times instead of the toggling step counts,
Gaussians, OU paths and the coherence m(t) along the trajectory-major
layout, with the step-by-step recursions and the float64 complex
exp-and-sum that the Monte Carlo kernels replace by linear maps and float32
sums, and the Monte Carlo measures via a stepwise propagator on each
trajectory's state instead of the closed forms max(m, 0) C(v) and
EoF(C(v)), and the two scenarios point by point from matrix exponentials of
their generators, with the Wootters lambdas as singular values of the
members' spin-flip overlaps and Schmidt-coefficient entropies instead of
the stacked measures. The exchange scenario's tripartite state comes from
its generator here, with a reshape partial trace, to check the measurement
ensemble that is all the library builds of it; the Schmidt entropies also
check the library's closed-form entropy of entanglement of pure states. The
CSV column checksums are recomputed from the written file, not from the
series, and the CSV is also formatted in one piece beside the writer's row
blocks. The hidden-entanglement report of a single ensemble, the
closed-form filter functions of free evolution, echo and periodic
decoupling, the exact filter function of any protocol, the spectral
concurrence exp(-chi), the grid index of a time and the lookup of a series
column at one time, and the Pauli matrices sx and sz live here too: only
tests use them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from entdyn import noise, pulses
from entdyn.filters import _check_pulses, dephasing_exponent, filter_weight
from entdyn.grid import ON_GRID_TOL
from entdyn.linalg import PHI_PLUS
from entdyn.measures import (
    WeightedEnsemble,
    average_entanglement,
    concurrence_mixed,
    eof_from_concurrence,
)
from entdyn.noise import NoiseModel
from entdyn.pulses import PulseProtocol

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SY, _SY)
# sz eigenvalue of qubit A on each two-qubit basis state |ab>
_SZ_A = np.array([1.0, 1.0, -1.0, -1.0])


def wootters_concurrence(rho: np.ndarray) -> float:
    """Brute-force Wootters: eigenvalues of rho @ rho_tilde via eigvals."""
    rho = np.asarray(rho, dtype=complex)
    rho_tilde = _SYSY @ rho.conj() @ _SYSY
    evals = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))
    return float(max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4]))


def takagi_concurrence(weighted: np.ndarray) -> float:
    """Wootters concurrence of rho = W W^dag from the columns of W (4 x k).

    The lambdas are the singular values of the symmetric k x k matrix
    W^T (sy x sy) W, so no lambda is a square root of a roundoff-level
    eigenvalue, as in `wootters_concurrence` on rank-deficient states.
    """
    lam = np.linalg.svd(weighted.T @ _SYSY @ weighted, compute_uv=False)
    return float(max(0.0, lam[0] - np.sum(lam[1:])))


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def eof_of_concurrence(c: float) -> float:
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def random_state(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """exp(i H) for a random Hermitian H, built from its eigensystem."""
    w, v = np.linalg.eigh(random_hermitian(rng, dim))
    return (v * np.exp(1j * w)) @ v.conj().T


def random_density(rng: np.random.Generator, dim: int = 4, rank: int = 4) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.random(rank)
    weights /= weights.sum()
    for k in range(rank):
        psi = random_state(rng, dim)
        rho += weights[k] * np.outer(psi, psi.conj())
    return rho


def pulse_unitary() -> np.ndarray:
    """Evolution operator of one hard pi pulse: exp(-i sx pi/2) = -i sx."""
    return -1j * SIGMA_X


def toggling_segments(pulse_times, t: float):
    """(bounds, signs) of the constant-sign intervals of y on [0, t]."""
    inner = [p for p in pulse_times if p < t]
    bounds = np.array([0.0, *inner, t])
    signs = (-1.0) ** np.arange(len(bounds) - 1)
    return bounds, signs


def toggling_transform_sq(pulse_times, omega: float, t: float) -> float:
    """|int_0^t y e^{i w t'} dt'|^2 summed directly over segments."""
    bounds, signs = toggling_segments(pulse_times, t)
    if omega == 0.0:
        return float(np.sum(signs * np.diff(bounds))) ** 2
    total = 0.0j
    for k, s in enumerate(signs):
        a, b = bounds[k], bounds[k + 1]
        total += s * (np.exp(1j * omega * b) - np.exp(1j * omega * a)) / (1j * omega)
    return abs(total) ** 2


def filter_free(omega, t: float):
    """Free-evolution filter 4 sin^2(w t / 2)."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    omega = np.asarray(omega, dtype=float)
    out = 4.0 * np.sin(0.5 * omega * t) ** 2
    return float(out) if out.ndim == 0 else out


def filter_echo(omega, t: float, tbar: float):
    """Echo filter for a single pi pulse at tbar, 0 <= tbar <= t."""
    if not 0.0 <= tbar <= t:
        raise ValueError(f"echo needs 0 <= tbar <= t, got tbar = {tbar!r}, t = {t!r}")
    omega = np.asarray(omega, dtype=float)
    s1 = np.sin(0.5 * omega * tbar)
    s2 = np.sin(0.5 * omega * (t - tbar))
    out = 4.0 * (s1**2 + s2**2 - 2.0 * np.cos(0.5 * omega * t) * s1 * s2)
    return float(out) if out.ndim == 0 else out


def filter_pdd(omega, t: float, dt_pulse: float):
    """Filter for pi pulses at every multiple of dt_pulse up to t.

    |1 + (-1)^(n+1) e^{iwt} + 2 sum_{k=1}^{n} (-1)^k e^{iwk dt}|^2 with
    n = floor(t / dt_pulse). The middle-term sign makes F vanish like w^2 as
    w -> 0, as the bounded toggling integral requires; it agrees with the
    piecewise transform of y to roundoff. Raises NumericalError when n would
    exceed _MAX_PANELS.
    """
    if not dt_pulse > 0.0:
        raise ValueError(f"dt_pulse must be positive, got {dt_pulse!r}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    _check_pulses(t, dt_pulse)
    omega = np.asarray(omega, dtype=float)
    w = np.atleast_1d(omega).ravel()
    n = int(np.floor(t / dt_pulse + 1e-9))
    acc = 1.0 + (-1.0) ** (n + 1) * np.exp(1j * w * t)
    if n > 0:
        k = np.arange(1, n + 1)
        acc = acc + 2.0 * (np.exp(1j * np.outer(w, k * dt_pulse)) @ ((-1.0) ** k))
    out = np.abs(acc) ** 2
    return float(out[0]) if omega.ndim == 0 else out.reshape(omega.shape)


def filter_numeric(protocol: PulseProtocol, omega, t: float):
    """w^2 times the exact piecewise transform; ground truth for every protocol."""
    omega = np.asarray(omega, dtype=float)
    out = np.asarray(omega**2 * filter_weight(protocol, omega, t))
    return float(out) if out.ndim == 0 else out


def concurrence_spectral(
    noise: NoiseModel,
    protocol: PulseProtocol,
    t: float,
    abs_tol: float = 1e-9,
    omega_max_scale: float = 1.0,
) -> float:
    """Concurrence exp(-chi(t)) under OU noise; quasistatic noise has its own closed form."""
    chi = dephasing_exponent(noise, protocol, t, abs_tol=abs_tol, omega_max_scale=omega_max_scale)
    return math.exp(-chi)


def _exp_excess(x: float) -> float:
    """x - (1 - e^{-x}) for x >= 0, by its alternating Taylor series below 1."""
    if x >= 1.0:
        return x + math.expm1(-x)
    total, term, k = 0.0, -x, 1
    while True:
        k += 1
        term *= -x / k
        if total + term == total:
            return total
        total += term


def ou_phase_variance(sigma: float, tau: float, pulse_times, t: float) -> float:
    """Exact Var[int_0^t y eps dt'] for OU noise, by segment-pair closed forms.

    Same segment of length L: 2 tau L - 2 tau^2 (1 - e^{-L/tau});
    ordered disjoint segments [a,b], [c,d] with c >= b:
    tau^2 e^{-(c-b)/tau} (1 - e^{-(b-a)/tau}) (1 - e^{-(d-c)/tau}).
    The same-segment term is 2 tau^2 (x - (1 - e^{-x})), x = L/tau, with the
    bracket summed as its own Taylor series and each 1 - e^{-x} taken as
    -expm1(-x): tau^2 amplifies the rounding of the direct forms to ~2e-10
    in chi at tau = 500.
    """
    bounds, signs = toggling_segments(pulse_times, t)
    var = 0.0
    n = len(signs)
    for i in range(n):
        a, b = bounds[i], bounds[i + 1]
        length = b - a
        var += 2.0 * tau**2 * _exp_excess(length / tau)
        for j in range(i + 1, n):
            c, d = bounds[j], bounds[j + 1]
            cross = (
                tau**2
                * math.exp(-(c - b) / tau)
                * -math.expm1(-length / tau)
                * -math.expm1(-(d - c) / tau)
            )
            var += 2.0 * signs[i] * signs[j] * cross
    return sigma**2 * var


def chi_free_ou(sigma: float, tau: float, t: float) -> float:
    """Free-evolution dephasing exponent sigma^2 tau^2 (t/tau - 1 + e^{-t/tau})."""
    x = t / tau
    return sigma**2 * tau**2 * (x - 1.0 + math.exp(-x))


def chi_echo_ou_refocus(sigma: float, tau: float, tbar: float) -> float:
    """Echo exponent at the refocusing time t = 2 tbar."""
    u = tbar / tau
    return sigma**2 * tau**2 * (2.0 * u - 3.0 + 4.0 * math.exp(-u) - math.exp(-2.0 * u))


def jc_closed_form(eta: float) -> tuple[float, float]:
    """(E_f, E_av) of the oscillator-exchange scenario at eta = cos^2(gt/2).

    E_f = f(sqrt(eta)) and E_av = (1 + eta)/2 * f(2 sqrt(eta)/(1 + eta)) with
    f the concurrence-to-EoF map.
    """
    if not 0.0 <= eta <= 1.0 + 1e-12:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    eta = min(eta, 1.0)
    root = math.sqrt(eta)
    e_f = eof_of_concurrence(root)
    e_av = 0.5 * (1.0 + eta) * eof_of_concurrence(2.0 * root / (1.0 + eta))
    return e_f, e_av


def trajectory_state(initial: np.ndarray, phi) -> np.ndarray:
    """Dephased state exp(-i sz_A phi / 2) |initial>, row by row for arrays of states and phases."""
    return np.asarray(initial, dtype=complex) * np.exp(-0.5j * np.multiply.outer(phi, _SZ_A))


def density_from_coherence(initial: np.ndarray, coherence: complex) -> np.ndarray:
    """Ensemble density matrix given the mean dephasing factor m = <exp(-i phi)>.

    rho_il = v_i v_l* <exp(-i (s_i - s_l) phi / 2)>: the factor is 1 on
    blocks with equal sz_A and m (or its conjugate) across blocks.
    """
    v = np.asarray(initial, dtype=complex)
    m = complex(coherence)
    diff = _SZ_A[:, None] - _SZ_A[None, :]
    factor = np.ones((4, 4), dtype=complex)
    factor[diff > 0] = m
    factor[diff < 0] = np.conj(m)
    return np.outer(v, v.conj()) * factor


def _schmidt_entropy(psi: np.ndarray) -> np.ndarray:
    """Entropy of entanglement of each row of psi, from its Schmidt coefficients."""
    p = np.linalg.svd(psi.reshape(-1, 2, 2), compute_uv=False) ** 2
    logs = np.log2(np.where(p > 0.0, p, 1.0))
    return -(p * logs).sum(axis=1)


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement of one ensemble: mixed-state measures plus the hidden gap."""

    concurrence: float
    eof: float
    e_av: float
    e_hidden: float


def hidden_entanglement(ensemble: WeightedEnsemble) -> EntanglementReport:
    """Average entanglement minus the EoF of the averaged state.

    The gap is the entanglement recoverable with classical which-member
    information alone; by convexity of the EoF it is nonnegative up to
    roundoff.
    """
    c = concurrence_mixed(ensemble.density_matrix())
    eof = eof_from_concurrence(c)
    e_av = average_entanglement(ensemble)
    return EntanglementReport(concurrence=c, eof=eof, e_av=e_av, e_hidden=e_av - eof)


def _evolution(generator: np.ndarray, t: float) -> np.ndarray:
    """exp(-i generator t) from the eigensystem of the Hermitian generator."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def _exchange_generator(g: float) -> np.ndarray:
    """(g/2)(s-_A a^dag + s+_A a) on A x B x O, the oscillator cut to {|0>, |1>}."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|: s- on a qubit, a on the mode
    hop = np.kron(np.kron(lower, np.eye(2)), lower.T)
    return 0.5 * g * (hop + hop.T)


def exchange_state(g: float, t: float) -> np.ndarray:
    """State of (A, B, oscillator) in the exchange scenario at time t:
    exp(-i H t) (|000> + |110>)/sqrt(2) for the generator above, dimension 8."""
    initial = np.zeros(8, dtype=complex)
    initial[[0, 6]] = 1.0 / math.sqrt(2.0)
    return _evolution(_exchange_generator(g), t) @ initial


def reduced_state(psi: np.ndarray, dim: int) -> np.ndarray:
    """Partial trace of |psi><psi| down to its leading factor of dimension ``dim``."""
    amplitudes = np.asarray(psi).reshape(dim, -1)
    return np.einsum("ik,jk->ij", amplitudes, amplitudes.conj())


def scenario_series_pointwise(name: str, rate: float, grid) -> SimpleNamespace:
    """Measures of scenario ``name`` ("randomfield" or "jc") at ``rate``
    point by point over a grid.

    Random fields: the members are exp(-i G omega t / 2) x 1 applied to
    |phi+> for G = sx, sz, each with weight 1/2. Exchange: the tripartite
    state is `exchange_state`; the A-B state is its partial trace and the
    members are the A-B states left by each oscillator number. C comes from
    `takagi_concurrence` of the weighted members, E_av from the members'
    Schmidt coefficients.
    """
    times = grid.times
    conc = np.empty(times.size)
    e_av = np.empty(times.size)
    if name == "randomfield":
        for j, t in enumerate(times):
            members = [
                np.kron(_evolution(0.5 * rate * gen, t), np.eye(2)) @ PHI_PLUS
                for gen in (SIGMA_X, SIGMA_Z)
            ]
            conc[j] = takagi_concurrence(np.array(members).T * math.sqrt(0.5))
            e_av[j] = 0.5 * _schmidt_entropy(np.array(members)).sum()
    else:
        for j, t in enumerate(times):
            branches = exchange_state(rate, t).reshape(4, 2)  # (A-B, oscillator)
            conc[j] = takagi_concurrence(branches)
            probs = np.sum(np.abs(branches) ** 2, axis=0)
            live = probs > 1e-12
            states = (branches[:, live] / np.sqrt(probs[live])).T
            e_av[j] = probs[live] @ _schmidt_entropy(states)
    e_f = np.array([eof_of_concurrence(c) for c in conc])
    return SimpleNamespace(concurrence=conc, e_f=e_f, e_av=e_av, e_hidden=e_av - e_f)


def propagator_series(config) -> SimpleNamespace:
    """Monte Carlo measures of a DephasingRun by stepwise propagation.

    Each trajectory's state is advanced interval by interval with
    exp(-i sz_A theta / 2) (theta the trapezoidal phase increment) and the
    pi-pulse unitary applied to qubit A at its grid point. The averaged
    density matrix gives the concurrence (Wootters) and E_f; E_av averages
    the members' Schmidt entropies. Same noise draws as the engine, each
    propagated also with its mirror eps -> -eps, which has the same
    Gaussian law: the averaged state's coherence is then Re m of the
    engine's draws, and its concurrence |Re m| C(v).
    """
    grid = config.grid
    n = grid.n_points
    eps = noise_rows(config.noise, noise.trajectory_seed(config.master_seed, np.arange(config.n_traj)), grid)
    eps = np.concatenate([eps, -eps])
    pulse_at = np.zeros(n, dtype=bool)
    pulse_at[np.rint(pulses.pulse_times(config.protocol, grid.t_max) / grid.dt).astype(int)] = True
    pulse = np.kron(pulse_unitary(), np.eye(2))
    psi = np.tile(np.asarray(config.initial_state, dtype=complex), (len(eps), 1))
    conc = np.empty(n)
    e_av = np.empty(n)
    for j in range(n):
        if j > 0:
            psi = trajectory_state(psi, 0.5 * grid.dt * (eps[:, j - 1] + eps[:, j]))
            if pulse_at[j]:
                psi = psi @ pulse.T
        rho = np.einsum("bi,bl->il", psi, psi.conj()) / len(psi)
        conc[j] = concurrence_mixed(0.5 * (rho + rho.conj().T))
        e_av[j] = _schmidt_entropy(psi).mean()
    e_f = np.array([eof_of_concurrence(c) for c in conc])
    return SimpleNamespace(concurrence=conc, e_f=e_f, e_av=e_av)


def pair_uniforms(keys, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """float32 uniforms (u, v) of the Box-Muller pairs 0 .. pairs - 1 of
    each stream, each of shape (len(keys), pairs). Pair p is the hash
    h = mix64(key + (p + 1) G), split by shifts and masks: its high 32 bits
    hi and low 32 bits lo, read as two's-complement integers and rounded
    once to float32, give the radius uniform u = |hi + 1/2| 2^-31 in (0, 1]
    and the angle uniform v = lo 2^-32 in [-1/2, 1/2]."""
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    counters = np.arange(1, pairs + 1, dtype=np.uint64)
    bits = noise._mix64(keys[:, None] + counters[None, :] * noise._GOLDEN)
    signed = []
    for half in (bits >> np.uint64(32), bits & np.uint64(0xFFFFFFFF)):
        half = half.astype(np.int64)
        signed.append(np.where(half >= 2**31, half - 2**32, half).astype(np.float32))
    hi, lo = signed
    return np.abs(hi + np.float32(0.5)) * np.float32(2.0**-31), lo * np.float32(2.0**-32)


def gaussian_rows(keys, count: int) -> np.ndarray:
    """Standard normals, shape (len(keys), count), by Box-Muller computed
    stream by stream in float32 on `pair_uniforms`, as `noise.gaussian_block`
    runs it: the layout that it must reproduce bit for bit. The radius is
    sqrt(-2 ln u) and the angle a = float32(2 pi) v."""
    u, v = pair_uniforms(keys, (count + 1) // 2)
    r = np.sqrt(np.float32(-2.0) * np.log(u))
    a = np.float32(2.0 * math.pi) * v
    z = np.empty((u.shape[0], 2 * u.shape[1]))
    z[:, 0::2] = r * np.cos(a)
    z[:, 1::2] = r * np.sin(a)
    return z[:, :count]


def noise_rows(model, keys, grid) -> np.ndarray:
    """Noise paths, shape (len(keys), n_points), one trajectory per row: the
    static offset repeated, or `ou_rows` of the oracle Gaussians."""
    if model.kind == noise.STATIC:
        return np.repeat(model.sigma * gaussian_rows(keys, 1), grid.n_points, axis=1)
    return ou_rows(model, gaussian_rows(keys, grid.n_points), grid)


def ou_rows(model, z, grid) -> np.ndarray:
    """OU paths from the standard normals z, shape (n_traj, n_points), the
    recursion run column by column: eps_0 = sigma z_0,
    eps_j = alpha eps_{j-1} + sigma sqrt(1 - alpha^2) z_j."""
    alpha = math.exp(-grid.dt / model.tau)
    q = model.sigma * math.sqrt(max(0.0, 1.0 - alpha * alpha))
    eps = np.empty_like(z)
    eps[:, 0] = model.sigma * z[:, 0]
    for j in range(1, grid.n_points):
        eps[:, j] = alpha * eps[:, j - 1] + q * z[:, j]
    return eps


def running_phase(eps, grid, steps) -> np.ndarray:
    """Trapezoidal toggled phases of trajectory-major eps, shape (n_traj,
    n_points), summed one grid interval after the other:
    phi_0 = 0, phi_j = phi_{j-1} + (eps_{j-1} + eps_j) (dt/2) (s_j - s_{j-1})."""
    phi = np.zeros_like(eps)
    for j in range(1, eps.shape[1]):
        phi[:, j] = phi[:, j - 1] + (eps[:, j - 1] + eps[:, j]) * (0.5 * grid.dt * (steps[j] - steps[j - 1]))
    return phi


def coherence_reference(config, batch: int = 8192) -> np.ndarray:
    """m(t) = <exp(-i phi(t))> of a DephasingRun in float64 throughout, from
    the oracle Gaussians: trajectory-major noise paths (`noise_rows`), their
    `running_phase` and a complex exp-and-sum per batch of ``batch``
    trajectories."""
    grid = config.grid
    steps = pulses.toggling_steps(config.protocol, grid)
    total = np.zeros(grid.n_points, dtype=complex)
    for k0 in range(0, config.n_traj, batch):
        keys = noise.trajectory_seed(config.master_seed, np.arange(k0, min(k0 + batch, config.n_traj)))
        phi = running_phase(noise_rows(config.noise, keys, grid), grid, steps)
        total += np.exp(-1j * phi).sum(axis=0)
    return total / config.n_traj


def real_mean_standard_error(m, m2, n: int) -> np.ndarray:
    """Standard error of m = <cos phi>, the mean of n draws, from m and
    m2 = <cos 2 phi>: E cos^2 phi = (1 + m2)/2, so
    SE = sqrt(((1 + m2)/2 - m^2) / n), floored at 0 against roundoff."""
    return np.sqrt(np.maximum(0.5 * (1.0 + m2) - m * m, 0.0) / n)


def grid_index(grid, t: float) -> int:
    """Index of time ``t`` on ``grid``, rounded from t / dt; raises if ``t``
    is not on the grid."""
    ratio = t / grid.dt
    idx = int(round(ratio))
    if abs(ratio - idx) > ON_GRID_TOL or not 0 <= idx < grid.n_points:
        raise ValueError(f"time {t!r} is not on the grid (dt = {grid.dt!r})")
    return idx


def value_at(series, t: float, column: str) -> float:
    """One column of a series at the grid point of time t."""
    return float(getattr(series, column)[grid_index(series.grid, t)])


def series_csv_oneshot(series, x_values=None) -> tuple[str, dict[str, str]]:
    """The CSV text and column checksums of a series, formatted and joined
    in one piece: every cell string of every column held at once."""
    columns = {"t": series.times}
    if x_values is not None:
        columns["x"] = x_values
    for name in ("concurrence", "e_f", "e_av", "e_hidden"):
        columns[name] = getattr(series, name)
    cells = {name: [f"{v:.12g}" for v in np.asarray(col, dtype=float).tolist()] for name, col in columns.items()}
    text = "\n".join([",".join(cells)] + [",".join(row) for row in zip(*cells.values())]) + "\n"
    checksums = {name: hashlib.sha256("\n".join(col).encode()).hexdigest() for name, col in cells.items()}
    return text, checksums


def column_checksums_from_csv(path: str) -> dict[str, str]:
    """Recompute the per-column checksums of a manifest from a written CSV."""
    with open(path, "r", newline="") as handle:
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    names = rows[0]
    columns = {name: [row[i] for row in rows[1:]] for i, name in enumerate(names)}
    return {name: hashlib.sha256("\n".join(cells).encode()).hexdigest() for name, cells in columns.items()}

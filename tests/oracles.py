"""Independent oracles for the test suite.

Everything here is deliberately implemented through a different route than
the library code it checks: the Wootters spectrum via a general complex
eigensolver instead of the Hermitian square-root form, dephasing exponents
via time-domain double integrals of the autocorrelation instead of spectral
quadrature, the toggling transform summed directly in test code, pulse grid
indices rounded from the pulse times instead of the toggling step counts,
and the Monte Carlo measures via a stepwise propagator on each trajectory's
state instead of the closed forms |m| C(v) and EoF(C(v)).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from entdyn import pulses
from entdyn.linalg import SIGMA_X
from entdyn.measures import concurrence_mixed
from entdyn.noise import sample_block

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


def propagator_series(config) -> SimpleNamespace:
    """Monte Carlo measures of a DephasingRun by stepwise propagation.

    Each trajectory's state is advanced interval by interval with
    exp(-i sz_A theta / 2) (theta the trapezoidal phase increment) and the
    pi-pulse unitary applied to qubit A at its grid point. The averaged
    density matrix gives the concurrence (Wootters) and E_f; E_av averages
    the members' Schmidt entropies. Same noise draws as the engine.
    """
    grid = config.grid
    n = grid.n_points
    eps = sample_block(config.noise, config.master_seed, np.arange(config.n_traj), grid)
    eps -= config.omega_a
    pulse_at = np.zeros(n, dtype=bool)
    pulse_at[np.rint(pulses.pulse_times(config.protocol, grid.t_max) / grid.dt).astype(int)] = True
    pulse = np.kron(pulse_unitary(), np.eye(2))
    psi = np.tile(np.asarray(config.initial_state, dtype=complex), (config.n_traj, 1))
    conc = np.empty(n)
    e_av = np.empty(n)
    for j in range(n):
        if j > 0:
            psi = trajectory_state(psi, 0.5 * grid.dt * (eps[:, j - 1] + eps[:, j]))
            if pulse_at[j]:
                psi = psi @ pulse.T
        rho = np.einsum("bi,bl->il", psi, psi.conj()) / config.n_traj
        conc[j] = concurrence_mixed(0.5 * (rho + rho.conj().T))
        e_av[j] = _schmidt_entropy(psi).mean()
    e_f = np.array([eof_of_concurrence(c) for c in conc])
    return SimpleNamespace(concurrence=conc, e_f=e_f, e_av=e_av)

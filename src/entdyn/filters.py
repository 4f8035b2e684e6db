"""Analytic dephasing path: the exact Ornstein-Uhlenbeck recursion, the
quasistatic closed form, and the spectral quadrature of the paper's
filter-function formulation.

For Gaussian noise the two-qubit concurrence is C(t) = exp(-chi(t)) with
chi(t) = 1/2 int dw/2pi S(w) F(w,t)/w^2, where S is the noise power spectrum
and F the protocol's filter function, F(w,t) = w^2 |int_0^t y(t') e^{i w t'}
dt'|^2 for toggling sign y. `filter_weight` is the exact piecewise transform
F/w^2 for any protocol and `dephasing_exponent` the quadrature of chi for OU
noise; the test suite checks the recursion against them.

`analytic_series` evaluates both noise kinds in the time domain instead,
from the toggling step counts of the grid: quasistatic noise by its closed
form, OU noise by an exact per-interval recursion that gives the whole
series in one pass over the grid, exact to roundoff. It serves as the
oracle against which the Monte Carlo engine is validated, and vice versa.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import TimeGrid
from .noise import ORNSTEIN_UHLENBECK, STATIC, NoiseModel, power_spectrum
from .pulses import ECHO, PDD, PulseProtocol, pulse_times, toggling_steps
from .series import EntanglementSeries, series_from_coherence


class NumericalError(RuntimeError):
    """An exponent or phase is not finite, or could not be computed to the requested accuracy."""


_SMALL_PHASE = 1e-6
# The largest shipped configuration (PDD dt 0.25 at omega_max_scale 4) needs
# ~8e3 panels; far beyond that the node arrays no longer fit in memory. The
# PDD filters keep one array entry per pulse and share the cap.
_MAX_PANELS = 2**17
# Below this x = L/tau, (1 - e^{-x})/x and (x - (1 - e^{-x}))/x^2 are summed
# as series: the direct difference keeps only ~1e-16/x of its relative
# precision, and x may underflow to 0.
_SERIES_X = 1e-3

# Engine that analytic_series runs for each noise kind.
ANALYTIC_ENGINES = {STATIC: "static_closed_form", ORNSTEIN_UHLENBECK: "ou_recursion"}


def _check_pulses(t: float, dt_pulse: float) -> None:
    if not t / dt_pulse <= _MAX_PANELS:
        raise NumericalError(
            f"pdd filter needs {t / dt_pulse:.3g} pulses, above the cap of {_MAX_PANELS}"
        )


def filter_weight(protocol: PulseProtocol, omega, t: float):
    """F(w,t)/w^2 = |int_0^t y(t') e^{i w t'} dt'|^2, exact per sign segment.

    Finite everywhere; at w -> 0 it goes to (int_0^t y dt')^2, evaluated by a
    Taylor branch rather than by a 0/0 quotient. Raises NumericalError for
    a PDD with more than _MAX_PANELS pulses up to t.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    if protocol.kind == PDD:
        _check_pulses(t, protocol.dt_pulse)
    omega = np.asarray(omega, dtype=float)
    w = np.atleast_1d(omega).astype(float)
    out = np.empty_like(w)
    if t == 0.0:
        out[:] = 0.0
        return float(out[0]) if omega.ndim == 0 else out.reshape(omega.shape)
    bounds = np.concatenate([[0.0], pulse_times(protocol, t), [t]])
    signs = (-1.0) ** np.arange(len(bounds) - 1)
    small = np.abs(w) * t <= _SMALL_PHASE
    if np.any(small):
        m1 = float(np.sum(signs * np.diff(bounds)))
        m2 = float(np.sum(signs * np.diff(bounds**2)))
        m3 = float(np.sum(signs * np.diff(bounds**3)))
        ws = w[small]
        out[small] = (m1 - ws**2 * m3 / 6.0) ** 2 + (0.5 * ws * m2) ** 2
    if np.any(~small):
        wb = w[~small]
        phases = np.exp(1j * np.outer(wb, bounds))
        integral = (phases[:, 1:] - phases[:, :-1]) @ signs / (1j * wb)
        out[~small] = np.abs(integral) ** 2
    return float(out[0]) if omega.ndim == 0 else out.reshape(omega.shape)


def concurrence_static(sigma: float, steps, dt: float) -> np.ndarray:
    """Quasistatic closed form exp(-sigma^2 Y^2 / 2) at the grid points, Y = dt s.

    ``steps`` are the toggling step counts of `pulses.toggling_steps`. This
    reduces to exp(-sigma^2 t^2 / 2) for free evolution and is exactly 1
    wherever s = 0, e.g. at t = 2 tbar for the echo; for pulse trains it is
    the w -> 0 limit of the spectral formula with a delta spectrum. Raises
    NumericalError when the exponent is not finite.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        chi = 0.5 * (sigma * (dt * np.asarray(steps))) ** 2
    if not np.all(np.isfinite(chi)):
        raise NumericalError(f"static dephasing exponent is not finite for sigma = {sigma!r}")
    return np.exp(-chi)


def _omega_max(noise: NoiseModel, protocol: PulseProtocol, t: float, scale: float) -> float:
    rates = [1.0 / noise.tau, 1.0 / t]
    if protocol.kind == ECHO:
        rates.append(1.0 / protocol.tbar)
    elif protocol.kind == PDD:
        rates.append(1.0 / protocol.dt_pulse)
    return 100.0 * scale * max(rates)


def _check_panels(count: float) -> None:
    if not count <= _MAX_PANELS:
        raise NumericalError(
            f"spectral quadrature needs {count:.3g} panels, above the cap of {_MAX_PANELS}"
        )


def _panel_bounds(noise: NoiseModel, t: float, omega_max: float) -> np.ndarray:
    # Half-period panels resolve the filter's oscillation (scale pi/t); the
    # geometric ladder resolves the Lorentzian knee at 1/tau, which can be
    # orders of magnitude narrower.
    linear = np.arange(0.0, omega_max, math.pi / t)
    knee = (1.0 / noise.tau) * 2.0 ** np.arange(-3, 9)
    bounds = np.concatenate([linear, knee, [0.0, omega_max]])
    bounds = np.unique(bounds[(bounds >= 0.0) & (bounds <= omega_max)])
    keep = np.concatenate([[True], np.diff(bounds) > 1e-12 * omega_max])
    return bounds[keep]


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    # Built on first use: no run of the CLI integrates, so none imports numpy.polynomial.
    return np.polynomial.legendre.leggauss(16)


def _gauss_panels(fn, bounds: np.ndarray) -> float:
    gauss_nodes, gauss_weights = _gauss_rule()
    a, b = bounds[:-1], bounds[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * gauss_nodes[None, :]).ravel()
    vals = fn(nodes).reshape(len(a), len(gauss_nodes))
    return float(np.dot(vals @ gauss_weights, half))


def _refined(fn, bounds: np.ndarray, abs_tol: float, max_refinements: int) -> float:
    """Integral of fn / 2 pi over the panels, bisected globally until it moves by <= abs_tol."""
    value = _gauss_panels(fn, bounds) / (2.0 * math.pi)
    if not math.isfinite(value):
        raise NumericalError(f"spectral dephasing exponent is not finite ({value!r})")
    for _ in range(max_refinements):
        _check_panels(2 * (len(bounds) - 1))
        bounds = np.sort(np.concatenate([bounds, 0.5 * (bounds[:-1] + bounds[1:])]))
        refined = _gauss_panels(fn, bounds) / (2.0 * math.pi)
        if abs(refined - value) <= abs_tol:
            return refined
        value = refined
    raise NumericalError(
        f"spectral integral did not converge to {abs_tol} after {max_refinements} refinements"
    )


def dephasing_exponent(
    noise: NoiseModel,
    protocol: PulseProtocol,
    t: float,
    abs_tol: float = 1e-9,
    omega_max_scale: float = 1.0,
    max_refinements: int = 8,
) -> float:
    """Exponent chi(t) = 1/2 int dw/2pi S(w) F(w,t)/w^2 for OU noise.

    Composite Gauss-Legendre panels on [0, omega_max], bisected globally until
    the exponent moves by at most abs_tol. The cutoff omega_max (set by
    omega_max_scale) then doubles, each new band [omega_max, 2 omega_max]
    integrated the same way, until a band moves the exponent by at most
    abs_tol. Raises NumericalError when a step does not converge, when the
    exponent is not finite, or when the panel count would exceed a fixed cap.
    """
    if noise.kind != ORNSTEIN_UHLENBECK:
        raise ValueError("spectral exponent is defined for OU noise only")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    if t == 0.0:
        return 0.0

    def integrand(w):
        return power_spectrum(noise, w) * filter_weight(protocol, w, t)

    omega_max = _omega_max(noise, protocol, t, omega_max_scale)
    _check_panels(omega_max / (math.pi / t))
    chi = _refined(integrand, _panel_bounds(noise, t, omega_max), abs_tol, max_refinements)
    while True:
        panels = 2.0 * omega_max / (math.pi / t)
        _check_panels(panels)
        band = np.linspace(omega_max, 2.0 * omega_max, math.ceil(0.5 * panels) + 1)
        tail = _refined(integrand, band, abs_tol, max_refinements)
        chi += tail
        omega_max *= 2.0
        if abs(tail) <= abs_tol:
            return chi


def ou_exponents(noise: NoiseModel, steps, grid: TimeGrid) -> np.ndarray:
    """Exact OU exponent chi(t_j) = Var[phi(t_j)] / 2 at every grid point.

    ``steps`` are the toggling step counts of `pulses.toggling_steps`, so the
    sign on grid interval j is y_j = s_{j+1} - s_j. With A(s) = int_0^s y(u)
    e^{-(s-u)/tau} du, an interval of length L, x = L/tau and d = 1 - e^{-x}
    adds sigma^2 (y A tau d + tau^2 (x - d)) to chi and maps A to
    (1 - d) A + y tau d. The two tau terms are taken as L (d/x) and
    L^2 (x - d)/x^2, so no tau^2 is formed and a quasistatic tau does not
    overflow. Where x overflows (a subnormal tau) both terms are 0, the
    white-noise limit sigma^2 tau t of chi. chi is a variance: its roundoff below 0 is floored at 0.
    Raises NumericalError when chi is not finite.
    """
    if noise.kind != ORNSTEIN_UHLENBECK:
        raise ValueError("the OU recursion is defined for OU noise only")
    length = np.diff(grid.times)
    with np.errstate(over="ignore"):
        x = length / noise.tau
    white = np.isinf(x)  # a subnormal tau: the white-noise limit, where both terms vanish
    d = -np.expm1(-x)
    small = x < _SERIES_X
    xs = x[small]
    x_direct = np.where(small | white, 1.0, x)
    decay = d / x_direct
    excess = (x - d) / x_direct / x_direct
    decay[white] = excess[white] = 0.0
    decay[small] = 1.0 - xs * (0.5 - xs * (1 / 6 - xs * (1 / 24 - xs / 120)))
    excess[small] = 0.5 - xs * (1 / 6 - xs * (1 / 24 - xs * (1 / 120 - xs / 720)))
    chis = np.empty(grid.n_points)
    chis[0] = a = chi = 0.0
    signs = np.diff(steps).tolist()
    with np.errstate(over="ignore"):  # an infinite L^2 term makes chi infinite: raised below
        sq_excess = length * length * excess
    terms = zip(signs, d.tolist(), (length * decay).tolist(), sq_excess.tolist())
    for k, (y, dk, tau_d, tau_sq_excess) in enumerate(terms, start=1):
        chi += y * a * tau_d + tau_sq_excess
        a = (1.0 - dk) * a + y * tau_d
        chis[k] = chi
    with np.errstate(over="ignore", invalid="ignore"):
        out = (noise.sigma * noise.sigma) * np.maximum(chis, 0.0)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"OU dephasing exponent is not finite for sigma = {noise.sigma!r}, tau = {noise.tau!r}"
        )
    return out


def analytic_series(noise: NoiseModel, protocol: PulseProtocol, grid: TimeGrid) -> EntanglementSeries:
    """Filter-function series for a Bell-state preparation.

    The exact m = exp(-chi) goes through `series.series_from_coherence`
    with C(Phi+) = 1, so E_av = 1 and the gap is 1 - E_f.
    Quasistatic noise uses its closed form, OU noise the exact recursion of
    `ou_exponents` (the engines named in ANALYTIC_ENGINES), both over the
    toggling step counts. Raises ValueError when a pulse is off the grid.
    """
    steps = toggling_steps(protocol, grid)
    if noise.kind == STATIC:
        m = concurrence_static(noise.sigma, steps, grid.dt)
    else:
        m = np.exp(-ou_exponents(noise, steps, grid))
    return series_from_coherence(grid, m, 1.0)

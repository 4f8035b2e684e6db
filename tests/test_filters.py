import math

import numpy as np
import pytest
from scipy.integrate import quad

from entdyn.filters import (
    NumericalError,
    analytic_series,
    concurrence_spectral,
    concurrence_static,
    dephasing_exponent,
    filter_echo,
    filter_free,
    filter_numeric,
    filter_pdd,
    filter_weight,
    ou_exponents,
)
from entdyn.grid import TimeGrid
from entdyn.noise import NoiseModel, power_spectrum
from entdyn.pulses import PulseProtocol, pulse_times, toggling_steps
from oracles import (
    chi_echo_ou_refocus,
    chi_free_ou,
    ou_phase_variance,
    toggling_segments,
    toggling_transform_sq,
)

FREE = PulseProtocol.free()
ECHO4 = PulseProtocol.echo(4.0)


def test_filter_free_values():
    assert filter_free(math.pi / 2.0, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert filter_free(math.pi, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_filter_free_low_frequency_weight():
    # F / w^2 -> t^2 as w -> 0
    assert filter_weight(FREE, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)
    assert filter_weight(FREE, 1e-9, 3.0) == pytest.approx(9.0, rel=1e-9)


def test_filter_echo_at_pulse_time_equals_free():
    omegas = np.linspace(0.01, 20.0, 50)
    np.testing.assert_allclose(
        filter_echo(omegas, 4.0, 4.0), filter_free(omegas, 4.0), atol=1e-12
    )


def test_filter_echo_refocus_value():
    # t = 2 tbar with w tbar = pi gives 16 sin^4(pi/2) = 16
    tbar = 4.0
    assert filter_echo(math.pi / tbar, 2 * tbar, tbar) == pytest.approx(16.0, abs=1e-10)


def test_filter_echo_static_refocus_weight_vanishes():
    assert filter_weight(ECHO4, 0.0, 8.0) == 0.0
    assert filter_weight(ECHO4, 1e-8, 8.0) <= 1e-12


def test_filter_echo_rejects_tbar_after_t():
    with pytest.raises(ValueError):
        filter_echo(1.0, 2.0, 3.0)


def test_filter_pdd_first_interval_equals_free():
    omegas = np.linspace(0.01, 10.0, 40)
    np.testing.assert_allclose(
        filter_pdd(omegas, 0.5, 0.5), filter_free(omegas, 0.5), atol=1e-10
    )


def test_filter_pdd_low_frequency_cancellation():
    # after an even number of intervals the toggling integral cancels
    assert filter_weight(PulseProtocol.pdd(1.0), 0.0, 2.0) == 0.0
    assert filter_pdd(1e-7, 2.0, 1.0) <= 1e-12


def test_filter_closed_forms_match_numeric():
    rng = np.random.default_rng(61)
    worst_free = worst_echo = worst_pdd = 0.0
    for _ in range(1000):
        w = rng.uniform(0.005, 40.0)
        t = rng.uniform(0.05, 10.0)
        worst_free = max(worst_free, abs(filter_free(w, t) - filter_numeric(FREE, w, t)))
        tbar = rng.uniform(0.05, 1.0) * t
        worst_echo = max(
            worst_echo, abs(filter_echo(w, t, tbar) - filter_numeric(PulseProtocol.echo(tbar), w, t))
        )
        dtp = rng.uniform(0.05, 2.0)
        worst_pdd = max(
            worst_pdd, abs(filter_pdd(w, t, dtp) - filter_numeric(PulseProtocol.pdd(dtp), w, t))
        )
    assert worst_free <= 1e-12
    assert worst_echo <= 1e-10
    assert worst_pdd <= 1e-8


def test_pdd_filters_cap_the_pulse_count():
    # 8e12 pulses would take one array entry each (tens of TiB); the cap
    # raises before any array is built.
    tiny = PulseProtocol.pdd(1e-12)
    with pytest.raises(NumericalError, match="pulses, above the cap"):
        filter_numeric(tiny, 1.0, 8.0)
    with pytest.raises(NumericalError, match="pulses, above the cap"):
        filter_weight(tiny, np.array([0.0, 1.0]), 8.0)
    with pytest.raises(NumericalError, match="pulses, above the cap"):
        filter_pdd(1.0, 8.0, 1e-12)


def test_filter_numeric_matches_independent_transform():
    rng = np.random.default_rng(67)
    for protocol in (FREE, ECHO4, PulseProtocol.pdd(0.7)):
        for _ in range(100):
            w = rng.uniform(0.01, 30.0)
            t = rng.uniform(0.1, 9.0)
            expected = w * w * toggling_transform_sq(pulse_times(protocol, t), w, t)
            assert filter_numeric(protocol, w, t) == pytest.approx(expected, abs=1e-10)


def _oracle_y(protocol, times):
    """int_0^t y dt' at each time, summed over the oracle's constant-sign segments."""
    pulses = pulse_times(protocol, float(times[-1]) + 1.0)
    out = []
    for t in times:
        bounds, signs = toggling_segments(pulses, t)
        out.append(np.sum(signs * np.diff(bounds)))
    return np.array(out)


def _static(sigma, protocol, grid):
    return concurrence_static(sigma, toggling_steps(protocol, grid), grid.dt)


def test_concurrence_static_free():
    assert _static(1.0, FREE, TimeGrid(4.0, 41))[-1] == pytest.approx(math.exp(-8.0), rel=1e-12)


def test_concurrence_static_echo():
    grid = TimeGrid(8.0, 81)
    conc = _static(1.0, ECHO4, grid)
    assert conc[-1] == 1.0
    assert conc[grid.index_of(6.0)] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_concurrence_static_pdd_dc_limit():
    pdd, grid = PulseProtocol.pdd(1.0), TimeGrid(3.5, 15)
    y = _oracle_y(pdd, grid.times)
    np.testing.assert_allclose(_static(2.0, pdd, grid), np.exp(-0.5 * (2.0 * y) ** 2), rtol=1e-12, atol=0.0)


def test_analytic_static_pdd_refocuses_exactly():
    # s = 0 after every even number of PDD intervals.
    grid = TimeGrid(8.0, 801)
    for dt_pulse in (0.25, 1.0):
        series = analytic_series(NoiseModel.static(1.0), PulseProtocol.pdd(dt_pulse), grid)
        for k in range(2, int(round(8.0 / dt_pulse)) + 1, 2):
            assert series.e_f[grid.index_of(k * dt_pulse)] == 1.0


def test_spectral_free_matches_closed_form():
    # Compare at the concurrence level: the omega_max truncation enters chi at
    # the 1e-6 scale but is weighted by C = e^-chi, the quantity under test.
    noise = NoiseModel.ou(1.0, 20.0)
    for t in (0.5, 2.0, 8.0):
        c = concurrence_spectral(noise, FREE, t)
        assert c == pytest.approx(math.exp(-chi_free_ou(1.0, 20.0, t)), abs=1e-6)


def test_spectral_echo_matches_time_domain_oracle():
    for tau in (20.0, 100.0, 200.0, 500.0):
        noise = NoiseModel.ou(1.0, tau)
        for t in (2.0, 5.0, 8.0):
            c = concurrence_spectral(noise, ECHO4, t)
            var = ou_phase_variance(1.0, tau, pulse_times(ECHO4, t), t)
            assert c == pytest.approx(math.exp(-0.5 * var), abs=1e-6)


def test_spectral_echo_refocus_reference_values():
    # exact value at sigma tau = 500: chi = 0.08482, C = 0.91870 (time-domain
    # closed form, also confirmed by quadrature and MC)
    noise = NoiseModel.ou(1.0, 500.0)
    c = concurrence_spectral(noise, ECHO4, 8.0)
    assert c == pytest.approx(math.exp(-chi_echo_ou_refocus(1.0, 500.0, 4.0)), abs=1e-6)
    assert c >= 0.9


def test_spectral_pdd_matches_time_domain_oracle():
    noise = NoiseModel.ou(1.0, 20.0)
    for ratio in (5.0, 20.0):
        protocol = PulseProtocol.pdd(20.0 / ratio)
        c = concurrence_spectral(noise, protocol, 8.0)
        var = ou_phase_variance(1.0, 20.0, pulse_times(protocol, 8.0), 8.0)
        assert c == pytest.approx(math.exp(-0.5 * var), abs=1e-6)


def test_spectral_matches_scipy_quadrature():
    # The engine extends its initial cutoff until the tail is below abs_tol,
    # so the reference integrates the whole half-line: [0, omega_max] and the
    # tail beyond it (1.3e-8 here) as two scipy calls.
    noise = NoiseModel.ou(1.0, 50.0)
    omega_max = 100.0 * 4.0 * 0.25  # the engine's initial cutoff at scale 4, tbar = 4

    def integrand(w):
        s = 2.0 * noise.sigma**2 * noise.tau / (1.0 + (w * noise.tau) ** 2)
        return s * toggling_transform_sq(pulse_times(ECHO4, 8.0), w, 8.0)

    body, _ = quad(integrand, 0.0, omega_max, limit=2000, epsabs=1e-12, epsrel=1e-12)
    tail, _ = quad(integrand, omega_max, math.inf, limit=10_000, epsabs=1e-13, epsrel=1e-10)
    reference = body + tail
    chi = dephasing_exponent(noise, ECHO4, 8.0, omega_max_scale=4.0)
    assert chi == pytest.approx(reference / (2.0 * math.pi), abs=1e-8)


def test_spectral_cutoff_meets_abs_tol():
    # The initial cutoff alone misses chi by up to 5.3e-6 (free, tau 20, t 8);
    # abs_tol must bound the whole error, truncation included.
    for protocol in (FREE, ECHO4, PulseProtocol.pdd(1.0)):
        for tau in (20.0, 500.0):
            chi = dephasing_exponent(NoiseModel.ou(1.0, tau), protocol, 8.0, abs_tol=1e-9)
            exact = 0.5 * ou_phase_variance(1.0, tau, pulse_times(protocol, 8.0), 8.0)
            assert abs(chi - exact) <= 1e-9


def test_spectral_overflow_raises_numerical_error():
    # sigma^2 overflows: the spectrum is inf, not an OverflowError, and the
    # non-finite exponent is a NumericalError.
    noise = NoiseModel.ou(1e300, 20.0)
    assert power_spectrum(noise, 0.0) == math.inf
    with pytest.raises(NumericalError, match="not finite"):
        concurrence_spectral(noise, FREE, 8.0)


def test_spectral_static_limit_proxy():
    noise = NoiseModel.ou(1.0, 1e6)
    assert concurrence_spectral(noise, ECHO4, 8.0) == pytest.approx(1.0, abs=1e-3)


def test_spectral_monotone_in_correlation_time():
    values = [
        concurrence_spectral(NoiseModel.ou(1.0, tau), ECHO4, 8.0)
        for tau in (20.0, 100.0, 200.0, 500.0)
    ]
    assert np.all(np.diff(values) > 0.0)


def test_spectral_pdd_improves_with_pulse_rate():
    noise = NoiseModel.ou(1.0, 20.0)
    values = [
        concurrence_spectral(noise, PulseProtocol.pdd(20.0 / ratio), 8.0)
        for ratio in (5.0, 10.0, 20.0, 80.0)
    ]
    assert np.all(np.diff(values) > 0.0)


def test_spectral_cutoff_insensitivity():
    for noise, protocol in (
        (NoiseModel.ou(1.0, 20.0), ECHO4),
        (NoiseModel.ou(1.0, 500.0), ECHO4),
        (NoiseModel.ou(1.0, 20.0), PulseProtocol.pdd(0.25)),
    ):
        values = [
            concurrence_spectral(noise, protocol, 8.0, omega_max_scale=s) for s in (1.0, 2.0, 4.0)
        ]
        assert abs(values[1] - values[0]) < 1e-6
        assert abs(values[2] - values[1]) < 1e-6


def test_spectral_integrand_even():
    noise = NoiseModel.ou(1.0, 20.0)
    w = np.linspace(0.1, 10.0, 25)
    from entdyn.noise import power_spectrum

    left = power_spectrum(noise, -w) * filter_weight(ECHO4, -w, 8.0)
    right = power_spectrum(noise, w) * filter_weight(ECHO4, w, 8.0)
    np.testing.assert_allclose(left, right, rtol=1e-12)


def test_spectral_rejects_static_noise():
    with pytest.raises(ValueError):
        concurrence_spectral(NoiseModel.static(1.0), FREE, 1.0)


def test_spectral_nonconvergence_raises():
    noise = NoiseModel.ou(1.0, 20.0)
    with pytest.raises(NumericalError):
        dephasing_exponent(noise, ECHO4, 8.0, abs_tol=1e-18, max_refinements=1)


def test_analytic_series_static_echo():
    grid = TimeGrid(8.0, 81)
    series = analytic_series(NoiseModel.static(1.0), ECHO4, grid)
    assert series.e_f[-1] == 1.0
    assert np.all(series.e_av == 1.0)
    expected = np.exp(-0.5 * np.minimum(grid.times, np.abs(grid.times - 8.0)) ** 2)
    np.testing.assert_allclose(series.concurrence, expected, atol=1e-12)


def test_analytic_series_ou_free():
    grid = TimeGrid(4.0, 21)
    series = analytic_series(NoiseModel.ou(1.0, 20.0), FREE, grid)
    expected = [math.exp(-chi_free_ou(1.0, 20.0, t)) for t in grid.times]
    np.testing.assert_allclose(series.concurrence, expected, atol=5e-6)
    np.testing.assert_allclose(series.e_hidden, 1.0 - series.e_f, atol=1e-12)


def _oracle_chi(tau, protocol, times):
    return np.array(
        [0.5 * ou_phase_variance(1.0, tau, pulse_times(protocol, t), t) if t > 0.0 else 0.0 for t in times]
    )


def test_ou_recursion_matches_segment_pair_oracle():
    grid = TimeGrid(8.0, 161)
    for tau in (20.0, 100.0, 500.0):
        for protocol in (FREE, ECHO4, PulseProtocol.pdd(0.25), PulseProtocol.pdd(1.0)):
            chi = ou_exponents(NoiseModel.ou(1.0, tau), toggling_steps(protocol, grid), grid)
            np.testing.assert_allclose(chi, _oracle_chi(tau, protocol, grid.times), rtol=0.0, atol=1e-12)


def test_analytic_series_ou_off_grid_pulses():
    # A pulse off the grid (dt = 0.1 here) is rejected with its time named,
    # as on the command line, for both noise kinds.
    grid = TimeGrid(8.0, 81)
    for noise in (NoiseModel.ou(1.0, 20.0), NoiseModel.static(1.0)):
        for protocol, first in ((PulseProtocol.echo(4.003), "4.003"), (PulseProtocol.pdd(0.37), "0.37")):
            with pytest.raises(ValueError, match=f"pulse at t = {first} is not on the time grid"):
                analytic_series(noise, protocol, grid)


def test_ou_recursion_quasistatic_limit():
    # |chi - sigma^2 Y^2 / 2| <= sigma^2 t^3 / tau; at tau = 1e9 this needs
    # x - (1 - e^{-x}) without cancellation (the direct form is off by ~1e-7).
    tau, grid = 1e9, TimeGrid(8.0, 801)
    for protocol in (FREE, ECHO4, PulseProtocol.pdd(0.25), PulseProtocol.pdd(1.0)):
        chi = ou_exponents(NoiseModel.ou(1.0, tau), toggling_steps(protocol, grid), grid)
        y = _oracle_y(protocol, grid.times)
        assert np.all(np.abs(chi - 0.5 * y**2) <= grid.times**3 / tau)


def test_ou_recursion_nonfinite_raises():
    with pytest.raises(NumericalError):
        analytic_series(NoiseModel.ou(1e300, 20.0), FREE, TimeGrid(8.0, 11))
    grid = TimeGrid(1e10, 3)
    with pytest.raises(NumericalError):
        ou_exponents(NoiseModel.ou(1e150, 1e10), toggling_steps(FREE, grid), grid)


@pytest.mark.parametrize("tau", [1e155, 1e300])
def test_ou_recursion_quasistatic_tau_does_not_overflow(tau):
    # tau^2 overflows above ~1.3e154; the recursion never forms it, and at
    # these tau it is the static closed form to roundoff.
    grid = TimeGrid(8.0, 801)
    for protocol in (FREE, ECHO4, PulseProtocol.pdd(0.25)):
        steps = toggling_steps(protocol, grid)
        chi = ou_exponents(NoiseModel.ou(1.0, tau), steps, grid)
        static = concurrence_static(1.0, steps, grid.dt)
        np.testing.assert_allclose(np.exp(-chi), static, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("tau", [1e20, 1e100])
def test_ou_exponent_is_never_negative(tau):
    # At the echo refocus point the exact chi is 0; its roundoff went to -6e-15.
    grid = TimeGrid(8.0, 801)
    for protocol in (ECHO4, PulseProtocol.pdd(0.25), PulseProtocol.pdd(1.0)):
        chi = ou_exponents(NoiseModel.ou(1.0, tau), toggling_steps(protocol, grid), grid)
        assert np.min(chi) >= 0.0


def test_spectral_panel_cap_raises():
    # Without the cap this asks for ~2.5e14 panels.
    with pytest.raises(NumericalError, match="panels"):
        concurrence_spectral(NoiseModel.ou(1.0, 1e-12), FREE, 8.0)

"""Two exactly solvable reference scenarios.

Random local fields: qubit A undergoes, with equal probability, a rotation
about x or about z at rate omega while B idles. Both branches are local
unitaries, so the ensemble-average entanglement stays 1 while the mixture's
EoF dips to 0 at t = pi/omega and revives to 1 at 2 pi/omega.

Resonant exchange with an oscillator: qubit A swaps its excitation with a
resonant harmonic mode prepared in the ground state (vacuum Rabi cycle with
amplitude cos(g t / 2), full swap at g t = pi). Monitoring the mode in the
{|0>, |1>} number basis unravels the A-B dynamics into a two-member ensemble,
which here gives a small average-vs-formation gap: the entanglement loss is
genuine transfer to the mode, not missing classical information.

Each scenario is one ensemble builder, a closed form over an array of
times, and one series in closed form. The Wootters lambdas of a two-member
mixture sum_k p_k |psi_k><psi_k| are the singular values of the 2 x 2
matrix tau_ij = sqrt(p_i p_j) B(psi_i, psi_j), with
B(a, b) = a00 b11 + a11 b00 - a01 b10 - a10 b01, so C = s_1 - s_2 for s_1 >= s_2.
With c = cos(rate t / 2):
- random fields: tau = [[1, c^2], [c^2, 1]] / 2, so C = c^2;
  each member is a local unitary image of phi+, so E_av = 1;
- exchange: tau = diag(c, 0), so C = |c|; the member (|00> + c|11>) /
  sqrt(2 p0) of weight p0 = (1 + c^2) / 2 has concurrence 2|c| / (1 + c^2)
  and the product member none, so E_av = p0 EoF(2|c| / (1 + c^2)).
The builders' ensembles give the same columns through the Wootters
procedure (`concurrence_mixed`) and `average_entanglement`; no run calls
them.
"""

from __future__ import annotations

import numpy as np

from .filters import NumericalError
from .grid import TimeGrid
from .linalg import PHI_PLUS
from .measures import WeightedEnsemble
from .series import EntanglementSeries, _eof_by_block


def _half_phase(rate: float, t, name: str) -> np.ndarray:
    """rate t / 2 over an array of times. Refuses a rate that is not > 0 and
    a time that is not >= 0 (NaN fails both) with ValueError, and raises
    NumericalError where the phase overflows."""
    if not rate > 0.0:
        raise ValueError(f"{name} must be positive, got {rate!r}")
    t = np.asarray(t, dtype=float)
    if np.any(~(t >= 0.0)):
        raise ValueError(f"time must be nonnegative, got {float(np.min(t))!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite rate at t = 0 gives NaN
        half = 0.5 * rate * t
    if not np.all(np.isfinite(half)):
        raise NumericalError(f"scenario phase {name} t / 2 is not finite for {name} = {rate!r}")
    return half


def random_field_ensemble(omega: float, t) -> WeightedEnsemble:
    """Equal-weight pair {x-rotated, z-rotated} of the Bell state at time t,
    stacked over an array of times.

    Member k is (exp(-i G_k omega t / 2) x 1) |phi+> for G_0 = sx, G_1 = sz:
    with c, s the cosine and sine of omega t / 2 and b = 1/sqrt(2), the states
    (c b, -i s b, -i s b, c b) and (c b - i s b, 0, 0, c b + i s b).
    """
    half = _half_phase(omega, t, "omega")
    cb = np.cos(half) * PHI_PLUS[0].real
    sb = np.sin(half) * PHI_PLUS[0].real
    zero = np.zeros_like(cb)
    x_rotated = np.stack([cb, -1j * sb, -1j * sb, cb], axis=-1)
    z_rotated = np.stack([cb - 1j * sb, zero, zero, cb + 1j * sb], axis=-1)
    return WeightedEnsemble(np.full(cb.shape + (2,), 0.5), np.stack([x_rotated, z_rotated], axis=-2))


def random_field_series(omega: float, grid: TimeGrid) -> EntanglementSeries:
    """Full revival timeline of the random-field example: C = cos^2(omega t / 2), E_av = 1."""
    c = np.cos(_half_phase(omega, grid.times, "omega"))
    return EntanglementSeries(grid, c * c, 1.0)


def jc_ensemble(g: float, t) -> WeightedEnsemble:
    """A-B ensemble conditioned on measuring the oscillator in {|0>, |1>} at
    time t, stacked over an array of times.

    p0 = (1 + c^2)/2 with state (|00> + c|11>)/sqrt(2 p0) and p1 = (1 - c^2)/2
    with product state |01>, c = cos(gt/2).
    """
    c = np.cos(_half_phase(g, t, "g"))
    p0 = 0.5 * (1.0 + c * c)
    p1 = 0.5 * (1.0 - c * c)
    psi = np.zeros(c.shape + (2, 4), dtype=complex)
    psi[..., 0, 0] = 1.0
    psi[..., 0, 3] = c
    psi[..., 0, :] /= np.sqrt(2.0 * p0)[..., None]
    psi[..., 1, 1] = 1.0
    return WeightedEnsemble(np.stack([p0, p1], axis=-1), psi)


def jc_measures(g: float, grid: TimeGrid) -> EntanglementSeries:
    """Entanglement series of the exchange scenario: with c = cos(g t / 2) and
    p0 = (1 + c^2) / 2, C = |c| (the A-B state with the oscillator traced
    out) and E_av = p0 EoF(2|c| / (1 + c^2)). The gap E_av - E_f is >= 0."""
    c = np.abs(np.cos(_half_phase(g, grid.times, "g")))
    p0 = 0.5 * (1.0 + c * c)
    return EntanglementSeries(grid, c, p0 * _eof_by_block(c / p0))

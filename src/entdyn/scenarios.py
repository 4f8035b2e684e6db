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
times. Both series run it through the same stage: in blocks of at most 4096
points, the Wootters concurrence of the ensemble's averaged state and the
ensemble's average entanglement, one call of each measure per block. At
one time the same builder gives one ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .linalg import PHI_PLUS
from .measures import WeightedEnsemble, average_entanglement, concurrence_mixed
from .series import EntanglementSeries

_BLOCK = 4096  # grid points per call of the measures


@dataclass(frozen=True)
class RandomFieldScenario:
    omega: float
    grid: TimeGrid

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError(f"rotation rate must be positive, got {self.omega!r}")


@dataclass(frozen=True)
class JCScenario:
    g: float
    grid: TimeGrid

    def __post_init__(self):
        if not self.g > 0.0:
            raise ValueError(f"coupling must be positive, got {self.g!r}")


def _times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(~(t >= 0.0)):  # NaN fails
        raise ValueError(f"time must be nonnegative, got {float(np.min(t))!r}")
    return t


def _block_series(grid: TimeGrid, ensemble_of) -> EntanglementSeries:
    """Series from ``ensemble_of(times) -> WeightedEnsemble``, built once per
    block: the Wootters concurrence of its averaged state and its E_av."""
    times = grid.times
    conc = np.empty(grid.n_points)
    e_av = np.empty(grid.n_points)
    for start in range(0, grid.n_points, _BLOCK):
        block = slice(start, start + _BLOCK)
        ensemble = ensemble_of(times[block])
        conc[block] = concurrence_mixed(ensemble.density_matrix())
        e_av[block] = average_entanglement(ensemble)
    return EntanglementSeries(grid, conc, e_av)


def random_field_ensemble(scenario: RandomFieldScenario, t) -> WeightedEnsemble:
    """Equal-weight pair {x-rotated, z-rotated} of the Bell state at time t,
    stacked over an array of times.

    Member k is (exp(-i G_k omega t / 2) x 1) |phi+> for G_0 = sx, G_1 = sz:
    with c, s the cosine and sine of omega t / 2 and b = 1/sqrt(2), the states
    (c b, -i s b, -i s b, c b) and (c b - i s b, 0, 0, c b + i s b).
    """
    half = 0.5 * (scenario.omega * _times(t))
    cb = np.cos(half) * PHI_PLUS[0].real
    sb = np.sin(half) * PHI_PLUS[0].real
    zero = np.zeros_like(cb)
    x_rotated = np.stack([cb, -1j * sb, -1j * sb, cb], axis=-1)
    z_rotated = np.stack([cb - 1j * sb, zero, zero, cb + 1j * sb], axis=-1)
    return WeightedEnsemble(np.full(cb.shape + (2,), 0.5), np.stack([x_rotated, z_rotated], axis=-2))


def random_field_series(scenario: RandomFieldScenario) -> EntanglementSeries:
    """Full revival timeline of the random-field example."""
    return _block_series(scenario.grid, lambda times: random_field_ensemble(scenario, times))


def jc_ensemble(scenario: JCScenario, t) -> WeightedEnsemble:
    """A-B ensemble conditioned on measuring the oscillator in {|0>, |1>} at
    time t, stacked over an array of times.

    p0 = (1 + c^2)/2 with state (|00> + c|11>)/sqrt(2 p0) and p1 = (1 - c^2)/2
    with product state |01>, c = cos(gt/2).
    """
    c = np.cos(0.5 * scenario.g * _times(t))
    p0 = 0.5 * (1.0 + c * c)
    p1 = 0.5 * (1.0 - c * c)
    psi = np.zeros(c.shape + (2, 4), dtype=complex)
    psi[..., 0, 0] = 1.0
    psi[..., 0, 3] = c
    psi[..., 0, :] /= np.sqrt(2.0 * p0)[..., None]
    psi[..., 1, 1] = 1.0
    return WeightedEnsemble(np.stack([p0, p1], axis=-1), psi)


def jc_measures(scenario: JCScenario) -> EntanglementSeries:
    """Entanglement series of the exchange scenario.

    The measurement ensemble averages to the A-B state left by tracing out
    the oscillator, so its averaged state gives the concurrence (Wootters)
    and its members give E_av. The emitted gap is E_av - E_f >= 0.
    """
    return _block_series(scenario.grid, lambda times: jc_ensemble(scenario, times))

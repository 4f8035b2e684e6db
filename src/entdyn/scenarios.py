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

The states are closed forms over an array of times, so each series runs
the grid through the measures in blocks of at most 4096 points, one call
of each measure per block; at one time the same functions give one state
or one ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .linalg import PHI_PLUS, partial_trace, projector
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


def _block_series(grid: TimeGrid, measures) -> EntanglementSeries:
    """Series from ``measures(times) -> (concurrence, e_av)``, called once per block."""
    times = grid.times
    conc = np.empty(grid.n_points)
    e_av = np.empty(grid.n_points)
    for start in range(0, grid.n_points, _BLOCK):
        block = slice(start, start + _BLOCK)
        conc[block], e_av[block] = measures(times[block])
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

    def measures(times):
        ensemble = random_field_ensemble(scenario, times)
        return concurrence_mixed(ensemble.density_matrix()), average_entanglement(ensemble)

    return _block_series(scenario.grid, measures)


def jc_state(scenario: JCScenario, t) -> np.ndarray:
    """Tripartite state of (A, B, oscillator) at time t, dimension 8.

    (|000> + cos(gt/2)|110> - i sin(gt/2)|011>) / sqrt(2) in the A x B x O
    ordering; the oscillator never leaves {|0>, |1>} because the initial state
    carries at most one excitation and the exchange conserves it. The -i on
    the one-photon branch is a per-branch phase that cancels in every emitted
    quantity. An array of times gives a stack (..., 8).
    """
    half = 0.5 * scenario.g * _times(t)
    psi = np.zeros(half.shape + (8,), dtype=complex)
    psi[..., 0] = 1.0                     # |0_A 0_B 0_O>
    psi[..., 6] = np.cos(half)            # |1_A 1_B 0_O>
    psi[..., 3] = -1j * np.sin(half)      # |0_A 1_B 1_O>
    return psi / math.sqrt(2.0)


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

    The concurrence comes from the traced tripartite state through the
    Wootters procedure, E_av from the measurement ensemble. The emitted gap
    is E_av - E_f >= 0.
    """

    def measures(times):
        rho_ab = partial_trace(projector(jc_state(scenario, times)), 0, (4, 2))
        return concurrence_mixed(rho_ab), average_entanglement(jc_ensemble(scenario, times))

    return _block_series(scenario.grid, measures)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .linalg import (
    IDENTITY_2,
    PHI_PLUS,
    SIGMA_X,
    SIGMA_Z,
    partial_trace,
    projector,
    tensor_product,
)
from .measures import WeightedEnsemble, average_entanglement, concurrence_mixed
from .series import EntanglementSeries

_MEMBER_FLOOR = 1e-12


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


def _rotation(generator: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i generator angle / 2) for a Pauli generator."""
    return math.cos(0.5 * angle) * IDENTITY_2 - 1j * math.sin(0.5 * angle) * generator


def random_field_ensemble(scenario: RandomFieldScenario, t: float) -> WeightedEnsemble:
    """Equal-weight pair {x-rotated, z-rotated} of the Bell state at time t."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    angle = scenario.omega * t
    members = []
    for generator in (SIGMA_X, SIGMA_Z):
        u = tensor_product(_rotation(generator, angle), IDENTITY_2)
        members.append((0.5, u @ PHI_PLUS))
    return WeightedEnsemble(members)


def random_field_series(scenario: RandomFieldScenario) -> EntanglementSeries:
    """Full revival timeline of the random-field example."""
    n = scenario.grid.n_points
    conc = np.empty(n)
    e_av = np.empty(n)
    for j, t in enumerate(scenario.grid.times):
        ensemble = random_field_ensemble(scenario, float(t))
        conc[j] = concurrence_mixed(ensemble.density_matrix())
        e_av[j] = average_entanglement(ensemble)
    return EntanglementSeries(scenario.grid, conc, e_av)


def jc_state(scenario: JCScenario, t: float) -> np.ndarray:
    """Tripartite state of (A, B, oscillator) at time t, dimension 8.

    (|000> + cos(gt/2)|110> - i sin(gt/2)|011>) / sqrt(2) in the A x B x O
    ordering; the oscillator never leaves {|0>, |1>} because the initial state
    carries at most one excitation and the exchange conserves it. The -i on
    the one-photon branch is a per-branch phase that cancels in every emitted
    quantity.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    half = 0.5 * scenario.g * t
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0                          # |0_A 0_B 0_O>
    psi[6] = math.cos(half)               # |1_A 1_B 0_O>
    psi[3] = -1j * math.sin(half)         # |0_A 1_B 1_O>
    return psi / math.sqrt(2.0)


def jc_ensemble(scenario: JCScenario, t: float) -> WeightedEnsemble:
    """A-B ensemble conditioned on measuring the oscillator in {|0>, |1>}.

    p0 = (1 + cos^2(gt/2))/2 with state (|00> + cos(gt/2)|11>)/sqrt(2 p0);
    p1 = sin^2(gt/2)/2 with product state |01>. Members below probability
    1e-12 are dropped.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    c = math.cos(0.5 * scenario.g * t)
    p0 = 0.5 * (1.0 + c * c)
    p1 = 0.5 * (1.0 - c * c)
    members = []
    if p0 > _MEMBER_FLOOR:
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        psi0[3] = c
        members.append((p0, psi0 / math.sqrt(2.0 * p0)))
    if p1 > _MEMBER_FLOOR:
        psi1 = np.zeros(4, dtype=complex)
        psi1[1] = 1.0
        members.append((p1, psi1))
    return WeightedEnsemble(members)


def jc_measures(scenario: JCScenario) -> EntanglementSeries:
    """Entanglement series of the exchange scenario.

    The concurrence comes from the traced tripartite state through the
    Wootters procedure, E_av from the measurement ensemble. The emitted gap
    is E_av - E_f >= 0.
    """
    n = scenario.grid.n_points
    conc = np.empty(n)
    e_av = np.empty(n)
    for j, t in enumerate(scenario.grid.times):
        rho_ab = partial_trace(projector(jc_state(scenario, float(t))), 0, (4, 2))
        conc[j] = concurrence_mixed(rho_ab)
        e_av[j] = average_entanglement(jc_ensemble(scenario, float(t)))
    return EntanglementSeries(scenario.grid, conc, e_av)

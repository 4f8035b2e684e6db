"""Entanglement dynamics of two noninteracting qubits under local classical
noise and local pulse control.

Two mutually validating computation paths produce the same series of
entanglement measures: a trajectory Monte Carlo over noise realizations and
an analytic filter-function integral. Both report the concurrence and
entanglement of formation of the averaged state, the ensemble-average
entanglement, and the gap between the two (entanglement recoverable with
classical which-realization information alone).
"""

__version__ = "0.1.0"

from .filters import (
    NumericalError,
    analytic_series,
    concurrence_spectral,
    concurrence_static,
    filter_echo,
    filter_free,
    filter_numeric,
    filter_pdd,
    filter_weight,
)
from .grid import TimeGrid
from .linalg import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    hermitian_eigen,
)
from .mc import DephasingRun, run
from .measures import (
    WeightedEnsemble,
    average_entanglement,
    concurrence_mixed,
    concurrence_pure,
    entropy_of_entanglement,
    eof_from_concurrence,
)
from .noise import NoiseModel, power_spectrum
from .pulses import PulseProtocol, pulse_times, toggling_steps
from .scenarios import (
    JCScenario,
    RandomFieldScenario,
    jc_ensemble,
    jc_measures,
    random_field_ensemble,
    random_field_series,
)
from .series import EntanglementSeries

__all__ = [
    "DephasingRun",
    "EntanglementSeries",
    "JCScenario",
    "NoiseModel",
    "NumericalError",
    "PHI_MINUS",
    "PHI_PLUS",
    "PSI_MINUS",
    "PSI_PLUS",
    "PulseProtocol",
    "RandomFieldScenario",
    "TimeGrid",
    "WeightedEnsemble",
    "analytic_series",
    "average_entanglement",
    "concurrence_mixed",
    "concurrence_pure",
    "concurrence_spectral",
    "concurrence_static",
    "entropy_of_entanglement",
    "eof_from_concurrence",
    "filter_echo",
    "filter_free",
    "filter_numeric",
    "filter_pdd",
    "filter_weight",
    "hermitian_eigen",
    "jc_ensemble",
    "jc_measures",
    "power_spectrum",
    "pulse_times",
    "random_field_ensemble",
    "random_field_series",
    "run",
    "toggling_steps",
]

"""Time series of entanglement measures produced by the engines.

Every engine hands over two columns, the concurrence of the averaged state
and the ensemble-average entanglement E_av; `EntanglementSeries` is the one
place that derives the entanglement of formation E_f = EoF(C) and the
hidden gap E_av - E_f from them. Both dephasing engines hand over m(t) to
`series_from_coherence` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TimeGrid
from .measures import eof_from_concurrence

_BLOCK = 65536  # rows per EoF call, so that its ~6 temporaries stay block-sized


def _eof_by_block(c: np.ndarray) -> np.ndarray:
    """`eof_from_concurrence` of a column, _BLOCK rows at a time; elementwise, so bit for bit."""
    e_f = np.empty(c.shape)
    for i in range(0, c.size, _BLOCK):
        e_f[i : i + _BLOCK] = eof_from_concurrence(c[i : i + _BLOCK])
    return e_f


@dataclass(frozen=True)
class EntanglementSeries:
    """Per grid point: concurrence, EoF, ensemble-average entanglement, gap.

    Built from ``(grid, concurrence, e_av)``; a scalar column is held
    constant over the grid. ``e_f`` and ``e_hidden`` are derived.
    """

    grid: TimeGrid
    concurrence: np.ndarray
    e_av: np.ndarray
    e_f: np.ndarray = field(init=False)
    e_hidden: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("concurrence", "e_av"):
            col = np.asarray(getattr(self, name), dtype=float)
            if col.ndim == 0:
                col = np.full(n, float(col))
            if col.shape != (n,):
                raise ValueError(f"column {name} has shape {col.shape}, expected ({n},)")
            object.__setattr__(self, name, col)
        e_f = _eof_by_block(self.concurrence)
        object.__setattr__(self, "e_f", e_f)
        object.__setattr__(self, "e_hidden", self.e_av - e_f)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


def series_from_coherence(grid: TimeGrid, m, c_initial: float) -> EntanglementSeries:
    """Series of a pure state of concurrence ``c_initial`` dephased on one
    qubit with real mean dephasing factor ``m``: a one-sided channel, so
    C = m c_initial (Konrad et al., Nat. Phys. 4, 99, 2008), taken as
    max(m, 0) c_initial, as the exact m is positive; every member is a
    local unitary image of the state, so E_av = EoF(c_initial)."""
    return EntanglementSeries(grid, np.maximum(0.0, m) * c_initial, eof_from_concurrence(c_initial))

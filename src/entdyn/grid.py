"""Uniform time grids shared by the samplers, engines, and CLI."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

ON_GRID_TOL = 1e-9  # largest |t / dt - round(t / dt)| of a time on the grid


@dataclass(frozen=True)
class TimeGrid:
    """n_points equally spaced times from 0 to t_max inclusive."""

    t_max: float
    n_points: int

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")
        if self.n_points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n_points!r}")

    @property
    def dt(self) -> float:
        return self.t_max / (self.n_points - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)

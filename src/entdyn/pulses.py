"""Local pulse protocols on qubit A and the toggling sign they induce.

Pulses are instantaneous, noise-free pi rotations about x. A protocol is
fully described by its pulse times; the toggling function y(t) = (-1)^(number
of pulses in (0, t]) carries all the bookkeeping the dephasing integrals need.
On a time grid with every pulse on a grid point, y is constant on each grid
interval, so its integral is dt times an integer step count (`toggling_steps`),
the one description of a protocol that every engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ON_GRID_TOL, TimeGrid

FREE = "free"
ECHO = "echo"
PDD = "pdd"

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class PulseProtocol:
    """Free evolution, a single echo pulse at tbar, or pulses at every k*dt_pulse."""

    kind: str
    tbar: float | None = None
    dt_pulse: float | None = None

    def __post_init__(self):
        if self.kind not in (FREE, ECHO, PDD):
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.kind == ECHO and (self.tbar is None or not self.tbar > 0.0):
            raise ValueError(f"echo needs tbar > 0, got {self.tbar!r}")
        if self.kind == PDD and (self.dt_pulse is None or not self.dt_pulse > 0.0):
            raise ValueError(f"pdd needs dt_pulse > 0, got {self.dt_pulse!r}")

    @classmethod
    def free(cls) -> "PulseProtocol":
        return cls(FREE)

    @classmethod
    def echo(cls, tbar: float) -> "PulseProtocol":
        return cls(ECHO, tbar=tbar)

    @classmethod
    def pdd(cls, dt_pulse: float) -> "PulseProtocol":
        return cls(PDD, dt_pulse=dt_pulse)


def pulse_times(protocol: PulseProtocol, horizon: float) -> np.ndarray:
    """Ascending pulse times strictly below ``horizon``."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if protocol.kind == FREE:
        return np.empty(0)
    if protocol.kind == ECHO:
        return np.array([protocol.tbar]) if protocol.tbar < horizon else np.empty(0)
    # strict inequality with a relative guard against t/dt landing on x.9999...
    n = int(np.ceil(horizon / protocol.dt_pulse - _ALIGN_TOL)) - 1
    return protocol.dt_pulse * np.arange(1, n + 1)


def toggling_steps(protocol: PulseProtocol, grid: TimeGrid) -> np.ndarray:
    """Signed step counts s_j with int_0^{t_j} y dt' = dt s_j, shape (n_points,).

    s_0 = 0 and s_{j+1} = s_j + y_j, where y_j = (-1)^(pulses in (0, t_j]) is
    the sign on the grid interval [t_j, t_{j+1}): a pulse at t_j flips the
    interval that starts there (left-closed convention). Every pulse within
    the grid horizon must sit on a grid point; the error names the first
    offending time. A PDD spacing below the grid step is rejected before any
    pulse time is built, so no spacing can ask for more pulses than points.
    """
    if protocol.kind == PDD and protocol.dt_pulse / grid.dt < 1.0 - _ALIGN_TOL:
        raise ValueError(
            f"pdd dt_pulse = {protocol.dt_pulse!r} is below the grid step dt = {grid.dt!r}"
        )
    times = pulse_times(protocol, grid.t_max + 0.5 * grid.dt)
    ratio = times / grid.dt
    index = np.rint(ratio)
    off_grid = (np.abs(ratio - index) > ON_GRID_TOL) | (index >= grid.n_points)
    if off_grid.any():
        first = float(times[off_grid.argmax()])
        raise ValueError(f"pulse at t = {first!r} is not on the time grid (dt = {grid.dt!r})")
    flips = np.zeros(grid.n_points, dtype=np.int64)
    flips[index.astype(np.int64)] = 1
    return np.concatenate(([0], np.cumsum(1 - 2 * (np.cumsum(flips[:-1]) % 2))))

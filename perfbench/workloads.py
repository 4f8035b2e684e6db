"""The benchmark's workloads: each is a fixed list of CLI operations.

An operation is one `entdyn` command line. Its parameters live in `Op` so
that the command line and the independent reference in `checks.py` are built
from the same numbers. Only the Monte Carlo master seed depends on the
benchmark's `--seed`; every other input is fixed, so a workload's work is the
same on every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MC, ANALYTIC, RANDOMFIELD, JC = "mc", "analytic", "randomfield", "jc"


@dataclass(frozen=True)
class Op:
    """One CLI operation and the parameters its reference needs."""

    name: str
    mode: str
    tmax: float
    points: int
    noise: str | None = None
    sigma: float | None = None
    tau: float | None = None
    protocol: str | None = None
    tbar: float | None = None
    dt_pulse: float | None = None
    ntraj: int | None = None
    seed: int | None = None
    omega: float | None = None
    g: float | None = None

    def argv(self, output: str) -> list[str]:
        args = ["--mode", self.mode, "--tmax", repr(self.tmax), "--points", str(self.points)]
        for flag, value in (
            ("--noise", self.noise), ("--sigma", self.sigma), ("--tau", self.tau),
            ("--protocol", self.protocol), ("--tbar", self.tbar), ("--dt-pulse", self.dt_pulse),
            ("--ntraj", self.ntraj), ("--seed", self.seed), ("--omega", self.omega), ("--g", self.g),
        ):
            if value is not None:
                args += [flag, repr(value) if isinstance(value, float) else str(value)]
        return args + ["-o", output]


def _dephasing(name, mode, noise, tau, protocol, tmax=8.0, points=801, ntraj=None, seed=None,
               tbar=None, dt_pulse=None) -> Op:
    return Op(name, mode, tmax, points, noise=noise, sigma=1.0, tau=tau, protocol=protocol,
              tbar=tbar, dt_pulse=dt_pulse, ntraj=ntraj, seed=seed)


def mc_ou_echo(seed: int) -> list[Op]:
    return [_dephasing("mc_ou_echo", MC, "ou", 20.0, "echo", tbar=4.0, ntraj=100_000, seed=seed)]


def mc_static_echo(seed: int) -> list[Op]:
    return [_dephasing("mc_static_echo", MC, "static", None, "echo", tbar=4.0, ntraj=100_000, seed=seed)]


def analytic_ou_pdd(seed: int) -> list[Op]:
    # (points - 1) must stay a multiple of 32 so every pulse sits on the grid.
    return [_dephasing("analytic_ou_pdd", ANALYTIC, "ou", 20.0, "pdd", points=161, dt_pulse=0.25)]


def figure_sweep(seed: int) -> list[Op]:
    ops = []
    for noise_name, noise, tau in (("static", "static", None), ("ou20", "ou", 20.0), ("ou200", "ou", 200.0)):
        for protocol, tbar in (("free", None), ("echo", 4.0)):
            ops.append(_dephasing(f"mc_{noise_name}_{protocol}", MC, noise, tau, protocol,
                                  tbar=tbar, ntraj=8192, seed=seed))
            ops.append(_dephasing(f"analytic_{noise_name}_{protocol}", ANALYTIC, noise, tau, protocol,
                                  tbar=tbar))
    ops.append(Op("randomfield", RANDOMFIELD, 2.0 * math.pi, 401, omega=1.0))
    ops.append(Op("jc", JC, 2.0 * math.pi, 401, g=1.0))
    return ops


WORKLOADS = {
    "mc_ou_echo": mc_ou_echo,
    "mc_static_echo": mc_static_echo,
    "analytic_ou_pdd": analytic_ou_pdd,
    "figure_sweep": figure_sweep,
}

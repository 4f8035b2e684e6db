"""Batch front end: parse a run configuration, dispatch to an engine, emit
CSV plus a reproducibility manifest.

Exit codes: 0 success, 2 configuration error, 4 I/O failure, 3 numerical
failure. The ENTDYN_WORKERS environment variable caps engine worker threads;
results are byte-identical for any setting.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

from . import __version__
from .filters import ANALYTIC_ENGINES, NumericalError, analytic_series
from .grid import TimeGrid
from .io import write_manifest, write_series_csv
from .mc import DephasingRun, resolve_workers, run
from .noise import NoiseModel
from .pulses import PulseProtocol, toggling_steps
from .scenarios import JCScenario, RandomFieldScenario, jc_measures, random_field_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

MODES = ("mc", "analytic", "randomfield", "jc")

_DEFAULT_NTRAJ = 100_000
_DEFAULT_SEED = 1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str
    grid: TimeGrid
    output_path: str
    noise: NoiseModel | None = None
    protocol: PulseProtocol | None = None
    n_traj: int | None = None
    master_seed: int | None = None
    omega: float | None = None
    g: float | None = None

    def settings(self) -> dict:
        """Flat echo of the resolved configuration, for the manifest."""
        flat: dict = {
            "mode": self.mode,
            "tmax": self.grid.t_max,
            "points": self.grid.n_points,
            "output": self.output_path,
        }
        if self.noise is not None:
            flat["noise"] = self.noise.kind
            flat["sigma"] = self.noise.sigma
            if self.noise.tau is not None:
                flat["tau"] = self.noise.tau
        if self.protocol is not None:
            flat["protocol"] = self.protocol.kind
            if self.protocol.tbar is not None:
                flat["tbar"] = self.protocol.tbar
            if self.protocol.dt_pulse is not None:
                flat["dt_pulse"] = self.protocol.dt_pulse
        for key in ("n_traj", "master_seed", "omega", "g"):
            value = getattr(self, key)
            if value is not None:
                flat["ntraj" if key == "n_traj" else "seed" if key == "master_seed" else key] = value
        return flat


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdyn",
        description="Two-qubit entanglement dynamics under local noise and local pulses",
    )
    parser.add_argument("--config", help="flat key = value config file; flags override it")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--noise", choices=("static", "ou"))
    parser.add_argument("--sigma", type=float, help="noise standard deviation (angular frequency)")
    parser.add_argument("--tau", type=float, help="noise correlation time (OU only)")
    parser.add_argument("--protocol", choices=("free", "echo", "pdd"))
    parser.add_argument("--tbar", type=float, help="echo pulse time")
    parser.add_argument("--dt-pulse", type=float, help="pulse spacing for pdd")
    parser.add_argument("--tmax", type=float, help="grid horizon")
    parser.add_argument("--points", type=int, help="number of grid points")
    parser.add_argument("--ntraj", type=int, help="Monte Carlo trajectories (mc mode)")
    parser.add_argument("--seed", type=int, help="64-bit master seed (mc mode)")
    parser.add_argument("--omega", type=float, help="rotation rate (randomfield mode)")
    parser.add_argument("--g", type=float, help="exchange coupling (jc mode)")
    parser.add_argument("--output", "-o", help="output CSV path (manifest goes beside it)")
    return parser


_FILE_KEYS = {
    "mode": str, "noise": str, "protocol": str, "output": str,
    "sigma": float, "tau": float, "tbar": float, "dt_pulse": float,
    "tmax": float, "omega": float, "g": float,
    "points": int, "ntraj": int, "seed": int,
}


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FILE_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def _require(values: dict, key: str, mode: str):
    if values.get(key) is None:
        raise ConfigError(f"mode {mode!r} requires {key!r}")
    return values[key]


def _build_noise(values: dict, mode: str) -> NoiseModel:
    kind = _require(values, "noise", mode)
    sigma = float(_require(values, "sigma", mode))
    try:
        if kind == "static":
            return NoiseModel.static(sigma)
        if values.get("tau") is None:
            raise ConfigError("ou noise requires 'tau'")
        return NoiseModel.ou(sigma, float(values["tau"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_protocol(values: dict) -> PulseProtocol:
    kind = values.get("protocol") or "free"
    try:
        if kind == "free":
            return PulseProtocol.free()
        if kind == "echo":
            if values.get("tbar") is None:
                raise ConfigError("echo protocol requires 'tbar'")
            return PulseProtocol.echo(float(values["tbar"]))
        if values.get("dt_pulse") is None:
            raise ConfigError("pdd protocol requires 'dt_pulse'")
        return PulseProtocol.pdd(float(values["dt_pulse"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(argv=None) -> RunConfig:
    """Resolve flags plus optional config file into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    values = _read_config_file(args.config) if args.config else {}
    for key in _FILE_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    mode = values.get("mode")
    if mode is None:
        raise ConfigError("missing required field 'mode'")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    for key, kind in _FILE_KEYS.items():
        if kind is float and key in values and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]!r}")
    try:
        resolve_workers(None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    noise = protocol = None
    omega = g = None
    n_traj = master_seed = None
    if mode in ("mc", "analytic"):
        noise = _build_noise(values, mode)
        protocol = _build_protocol(values)
        default_tmax, default_points = 8.0 / noise.sigma, 801
        if mode == "mc":
            n_traj = int(values.get("ntraj", _DEFAULT_NTRAJ))
            master_seed = int(values.get("seed", _DEFAULT_SEED))
            if n_traj < 1:
                raise ConfigError(f"ntraj must be >= 1, got {n_traj}")
    elif mode == "randomfield":
        omega = float(values.get("omega", 1.0))
        if not omega > 0.0:
            raise ConfigError(f"omega must be positive, got {omega}")
        default_tmax, default_points = 2.0 * math.pi / omega, 401
    else:
        g = float(values.get("g", 1.0))
        if not g > 0.0:
            raise ConfigError(f"g must be positive, got {g}")
        default_tmax, default_points = 2.0 * math.pi / g, 401

    try:
        grid = TimeGrid(float(values.get("tmax", default_tmax)), int(values.get("points", default_points)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if protocol is not None:
        try:
            toggling_steps(protocol, grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    output = values.get("output") or f"{mode}.csv"
    return RunConfig(
        mode=mode, grid=grid, output_path=output, noise=noise, protocol=protocol,
        n_traj=n_traj, master_seed=master_seed, omega=omega, g=g,
    )


def execute(config: RunConfig) -> None:
    """Run the configured engine and write CSV plus manifest atomically."""
    start = time.perf_counter()
    x_name = None
    if config.mode == "mc":
        series = run(DephasingRun(
            noise=config.noise, protocol=config.protocol, grid=config.grid,
            n_traj=config.n_traj, master_seed=config.master_seed,
        ))
        x_name = "sigma_t"
        x_values = config.noise.sigma * series.times
    elif config.mode == "analytic":
        series = analytic_series(config.noise, config.protocol, config.grid)
        x_name = "sigma_t"
        x_values = config.noise.sigma * series.times
    elif config.mode == "randomfield":
        series = random_field_series(RandomFieldScenario(config.omega, config.grid))
        x_values = None
    else:
        series = jc_measures(JCScenario(config.g, config.grid))
        x_name = "g_t"
        x_values = config.g * series.times

    checksums = write_series_csv(config.output_path, series, x_values)
    manifest = {
        "tool": "entdyn",
        "version": __version__,
        "config": config.settings(),
        "duration_seconds": time.perf_counter() - start,
        "columns": checksums,
        "x_column": x_name,
    }
    if config.mode == "analytic":
        manifest["engine"] = ANALYTIC_ENGINES[config.noise.kind]
    write_manifest(config.output_path + ".manifest.json", manifest)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"entdyn: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        execute(config)
    except NumericalError as exc:
        print(f"entdyn: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"entdyn: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Batch front end: parse a run configuration, dispatch to an engine, emit
CSV plus a reproducibility manifest.

Flags and config-file lines go through one validator (`_coerce`): each
setting of _FIELDS is a flag ``--key value`` or ``--key=value`` (underscores
become dashes; ``-o`` is ``--output``) and a file line ``key = value``.
``--config FILE`` reads the file first, and flags override it. Flags are
matched whole, never by prefix, and the argument after a flag is always its
value. Any bad flag or value is a ConfigError, which `main` reports as one
line; ``-h``/``--help`` prints the flag list.

Exit codes: 0 success, 2 configuration error, 4 I/O failure, 3 numerical
failure. The ENTDYN_WORKERS environment variable caps engine worker threads;
results are byte-identical for any setting.
"""

from __future__ import annotations

import math
import platform
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .filters import ANALYTIC_ENGINES, NumericalError, analytic_series
from .grid import TimeGrid
from .io import write_manifest, write_series_csv
from .mc import DephasingRun, resolve_workers, run
from .noise import ORNSTEIN_UHLENBECK, STATIC, NoiseModel, trajectory_seed
from .pulses import ECHO, FREE, PDD, PulseProtocol, toggling_steps
from .scenarios import jc_measures, random_field_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

MODES = ("mc", "analytic", "randomfield", "jc")

_DEFAULT_NTRAJ = 100_000
MAX_POINTS = 2**20  # grid points; larger grids are refused before any array is built
MAX_NTRAJ = 2**30  # trajectories; 2^17 batches and hours of work
_DEFAULT_SEED = 1

# Every setting, as a flag (underscores become dashes) and as a config-file
# key: its type, its allowed values (None: any) and its --help text.
_FIELDS = {
    "mode": (str, MODES, None),
    "noise": (str, (STATIC, ORNSTEIN_UHLENBECK), None),
    "sigma": (float, None, "noise standard deviation (angular frequency)"),
    "tau": (float, None, "noise correlation time (OU only)"),
    "protocol": (str, (FREE, ECHO, PDD), None),
    "tbar": (float, None, "echo pulse time"),
    "dt_pulse": (float, None, "pulse spacing for pdd"),
    "tmax": (float, None, "grid horizon"),
    "points": (int, None, "number of grid points"),
    "ntraj": (int, None, "Monte Carlo trajectories (mc mode)"),
    "seed": (int, None, "64-bit master seed (mc mode)"),
    "omega": (float, None, "rotation rate (randomfield mode)"),
    "g": (float, None, "exchange coupling (jc mode)"),
    "output": (str, None, "output CSV path (manifest goes beside it)"),
}

# Flag name -> setting: the dashed name of every field, -o and --config.
_FLAGS = {"--" + key.replace("_", "-"): key for key in _FIELDS} | {"-o": "output", "--config": "config"}

# The field a noise or protocol kind needs (static noise and free evolution need none).
_KIND_NEEDS = {ORNSTEIN_UHLENBECK: "tau", ECHO: "tbar", PDD: "dt_pulse"}


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
        for name, model in (("noise", self.noise), ("protocol", self.protocol)):
            if model is not None:
                fields = asdict(model)
                flat[name] = fields.pop("kind")
                flat.update(fields)
        flat.update(ntraj=self.n_traj, seed=self.master_seed, omega=self.omega, g=self.g)
        return {key: value for key, value in flat.items() if value is not None}


def _coerce(key: str, text: str, where: str):
    """``text`` as the value of setting ``key``: its type and allowed values
    from _FIELDS. ``where`` (``path:lineno`` or the flag) leads any error."""
    kind, choices, _ = _FIELDS[key]
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {text!r}") from exc
    if choices is not None and value not in choices:
        raise ConfigError(f"{where}: bad value for {key!r}: {text!r} (choose from {', '.join(choices)})")
    return value


def _help() -> str:
    lines = ["usage: entdyn [--config FILE] [--KEY VALUE | --KEY=VALUE ...]", "",
             "Two-qubit entanglement dynamics under local noise and local pulses", "", "options:",
             "  -h, --help            show this help and exit",
             "  --config FILE         flat key = value config file; flags override it"]
    for key, (_, choices, help_text) in _FIELDS.items():
        flag = "--" + key.replace("_", "-") + (", -o" if key == "output" else "")
        column = f"{flag} " + ("{" + ",".join(choices) + "}" if choices else key.upper())
        lines.append(f"  {column:<21} {help_text or ''}".rstrip())
    return "\n".join(lines) + "\n"


def _read_flags(argv: list[str]) -> tuple[str | None, dict]:
    """The --config path and the flag values of ``argv``, each through
    `_coerce`. The argument after a flag is always its value, and the last
    of a repeated flag wins."""
    config_path, values = None, {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            sys.stdout.write(_help())  # one write, as a pipe reader may stop after it
            raise SystemExit(0)
        flag, eq, text = arg.partition("=") if arg.startswith("--") else (arg, "", "")
        key = _FLAGS.get(flag)
        if key is None:
            raise ConfigError(f"unknown flag {arg!r}" if arg.startswith("-") else
                              f"unexpected argument {arg!r} (settings are given as --key value)")
        if not eq:
            text = next(args, None)
            if text is None:
                raise ConfigError(f"{flag}: missing value")
        if key == "config":
            config_path = text
        else:
            values[key] = _coerce(key, text, flag)
    return config_path, values


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value, f"{path}:{lineno}")
    return values


def _require(values: dict, key: str, mode: str):
    if values.get(key) is None:
        raise ConfigError(f"mode {mode!r} requires {key!r}")
    return values[key]


def _model(cls, name: str, kind: str, values: dict, **fields):
    """``cls(kind, **fields)`` plus the field that ``kind`` needs, if any."""
    need = _KIND_NEEDS.get(kind)
    if need is not None:
        if values.get(need) is None:
            raise ConfigError(f"{kind} {name} requires {need!r}")
        fields[need] = values[need]
    return cls(kind, **fields)


def parse_config(argv=None) -> RunConfig:
    """Resolve flags plus optional config file into a validated RunConfig."""
    config_path, flags = _read_flags(sys.argv[1:] if argv is None else argv)
    values = _read_config_file(config_path) if config_path else {}
    values.update(flags)

    mode = values.get("mode")
    if mode is None:
        raise ConfigError("missing required field 'mode'")
    for key, (kind, _, _) in _FIELDS.items():
        if kind is float and key in values and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]!r}")
    # The worker count, the models and the grid check their own values, and
    # each ValueError they raise is a config error.
    try:
        resolve_workers(None)
        fields: dict = {}  # the RunConfig fields this mode sets
        if mode in ("mc", "analytic"):
            noise = fields["noise"] = _model(NoiseModel, "noise", _require(values, "noise", mode), values,
                                             sigma=_require(values, "sigma", mode))
            fields["protocol"] = _model(PulseProtocol, "protocol", values.get("protocol", FREE), values)
            default_tmax, default_points = 8.0 / noise.sigma, 801
            if mode == "mc":
                n_traj = fields["n_traj"] = values.get("ntraj", _DEFAULT_NTRAJ)
                seed = fields["master_seed"] = values.get("seed", _DEFAULT_SEED)
                if not 1 <= n_traj <= MAX_NTRAJ:
                    raise ConfigError(f"ntraj must be in [1, {MAX_NTRAJ}] (2^30), got {n_traj}")
                trajectory_seed(seed, 0)  # raises for a seed outside [0, 2^64)
        else:  # randomfield and jc: one rotation rate, omega or g
            key = "omega" if mode == "randomfield" else "g"
            rate = fields[key] = values.get(key, 1.0)
            if not rate > 0.0:
                raise ConfigError(f"{key} must be positive, got {rate}")
            default_tmax, default_points = 2.0 * math.pi / rate, 401

        points = values.get("points", default_points)
        if points > MAX_POINTS:
            raise ConfigError(f"points must be at most {MAX_POINTS} (2^20), got {points}")
        grid = TimeGrid(values.get("tmax", default_tmax), points)
        if "protocol" in fields:
            toggling_steps(fields["protocol"], grid)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    output = values.get("output", f"{mode}.csv")
    if not output:
        raise ConfigError("output must be a non-empty path")
    return RunConfig(mode=mode, grid=grid, output_path=output, **fields)


def _platform() -> dict:
    """Python and numpy versions and numpy's active SIMD targets (or null): the MC bytes' scope."""
    try:
        from numpy._core import _multiarray_umath as umath

        targets = sorted(name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name))
    except (ImportError, AttributeError):
        targets = None
    return {"python": platform.python_version(), "numpy": np.__version__, "simd_targets": targets}


def execute(config: RunConfig) -> None:
    """Run the configured engine and write CSV plus manifest atomically."""
    start = time.perf_counter()
    manifest = {"tool": "entdyn", "version": __version__, "platform": _platform(), "config": config.settings()}
    x_name = scale = None
    if config.mode == "randomfield":
        series = random_field_series(config.omega, config.grid)
    elif config.mode == "jc":
        series = jc_measures(config.g, config.grid)
        x_name, scale = "g_t", config.g
    else:
        x_name, scale = "sigma_t", config.noise.sigma
        if config.mode == "mc":
            manifest["workers"] = resolve_workers(None)
            series = run(DephasingRun(
                noise=config.noise, protocol=config.protocol, grid=config.grid,
                n_traj=config.n_traj, master_seed=config.master_seed,
            ), manifest["workers"])
        else:
            manifest["engine"] = ANALYTIC_ENGINES[config.noise.kind]
            series = analytic_series(config.noise, config.protocol, config.grid)

    engine_end = time.perf_counter()
    x_values = None if scale is None else scale * series.times
    manifest.update(x_column=x_name, columns=write_series_csv(config.output_path, series, x_values))
    end = time.perf_counter()
    manifest["stages"] = {"engine": engine_end - start, "csv": end - engine_end}
    manifest["duration_seconds"] = end - start
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
        print(f"entdyn: I/O failure: {config.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

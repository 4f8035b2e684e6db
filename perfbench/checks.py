"""Independent references and output checks for benchmark operations.

Nothing here imports `entdyn`. References come from closed forms:

- quasistatic noise: C(t) = exp(-sigma^2 Y(t)^2 / 2), Y the toggling integral;
- OU noise: C(t) = exp(-Var[phi(t)] / 2) with the exact segment-pair
  variance of the phase over the constant-sign segments of the toggling sign;
- random local fields: C(t) = cos^2(omega t / 2), E_av = 1 (each member is a
  real vector in the magic basis, so the Wootters lambdas are the
  eigenvalues 1/2 (1 +- cos^2) of the mixture);
- oscillator exchange: C(t) = |cos(g t / 2)|, E_av = p0 E(2 sqrt(eta) / (1 + eta))
  with eta = cos^2(g t / 2) and p0 = (1 + eta) / 2.

Monte Carlo outputs must lie within 5 / sqrt(n_traj) of the reference,
analytic outputs within 1e-5 and scenario outputs within 1e-9. Every output
is also checked for its grid, for the measures implied by its concurrence,
and for the manifest checksums recomputed from the CSV text.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from workloads import ANALYTIC, JC, MC, RANDOMFIELD, Op

ANALYTIC_TOL = 1e-5
SCENARIO_TOL = 1e-9
# Columns derived from the concurrence are exact functions of it; 12 written
# digits leave them ~1e-12 apart.
DERIVED_TOL = 1e-9


def eof(c):
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) in bits."""
    c = np.clip(np.asarray(c, dtype=float), 0.0, 1.0)
    x = 0.5 * (1.0 + np.sqrt(1.0 - c * c))  # in [1/2, 1]
    y = np.where(x < 1.0, 1.0 - x, 0.5)  # 0 log 0 = 0, masked below
    h = -(x * np.log2(x) + y * np.log2(y))
    return np.where(x < 1.0, h, 0.0)


def _segments(op: Op, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds and signs of the constant-sign segments of the toggling sign on [0, t]."""
    if op.protocol == "echo":
        pulses = [op.tbar] if op.tbar < t else []
    elif op.protocol == "pdd":
        count = math.ceil(t / op.dt_pulse - 1e-9) - 1
        pulses = [k * op.dt_pulse for k in range(1, count + 1)]
    else:
        pulses = []
    bounds = np.array([0.0, *pulses, t])
    return bounds, (-1.0) ** np.arange(len(bounds) - 1)


def ou_phase_variance(sigma: float, tau: float, bounds: np.ndarray, signs: np.ndarray) -> float:
    """Var[int_0^t y eps dt'] for OU noise, summed over segment pairs.

    One segment of length L: 2 tau^2 (L/tau - (1 - e^{-L/tau})). Ordered
    segments i < j: tau^2 e^{-(a_j - b_i)/tau} (1 - e^{-L_i/tau}) (1 - e^{-L_j/tau}),
    counted twice with the product of their signs.
    """
    a, b = bounds[:-1], bounds[1:]
    x = (b - a) / tau
    decay = -np.expm1(-x)
    var = 2.0 * tau**2 * float(np.sum(x - decay))
    later = np.triu(np.ones((len(a), len(a)), dtype=bool), 1)
    gap = np.where(later, a[None, :] - b[:, None], 0.0)
    pair = np.exp(-gap / tau) * np.outer(signs * decay, signs * decay)
    var += 2.0 * tau**2 * float(np.sum(pair[later]))
    return sigma**2 * var


def reference(op: Op) -> dict:
    """Reference columns and concurrence tolerance for one operation."""
    t = np.linspace(0.0, op.tmax, op.points)
    ref = {"t": t}
    if op.mode in (MC, ANALYTIC):
        chi = np.empty_like(t)
        for j, tj in enumerate(t):
            bounds, signs = _segments(op, float(tj))
            if op.noise == "static":
                chi[j] = 0.5 * (op.sigma * float(np.sum(signs * np.diff(bounds)))) ** 2
            else:
                chi[j] = 0.5 * ou_phase_variance(op.sigma, op.tau, bounds, signs)
        ref["x"] = op.sigma * t
        ref["concurrence"] = np.exp(-chi)
        ref["tol"] = 5.0 / math.sqrt(op.ntraj) if op.mode == MC else ANALYTIC_TOL
        return ref
    if op.mode == RANDOMFIELD:
        conc = np.cos(0.5 * op.omega * t) ** 2
        e_av = np.ones_like(t)
    elif op.mode == JC:
        ref["x"] = op.g * t
        eta = np.cos(0.5 * op.g * t) ** 2
        conc = np.sqrt(eta)
        e_av = 0.5 * (1.0 + eta) * eof(2.0 * conc / (1.0 + eta))
    else:
        raise ValueError(f"unknown mode {op.mode!r}")
    e_f = eof(conc)
    ref.update(concurrence=conc, e_f=e_f, e_av=e_av, e_hidden=e_av - e_f, tol=SCENARIO_TOL)
    return ref


def expected_header(op: Op) -> list[str]:
    x = [] if op.mode == RANDOMFIELD else ["x"]
    return ["t", *x, "concurrence", "e_f", "e_av", "e_hidden"]


def _column_checksum(cells: list[str]) -> str:
    return hashlib.sha256("\n".join(cells).encode()).hexdigest()


def check_output(op: Op, csv_bytes: bytes, manifest_text: str, ref: dict) -> tuple[list[str], float]:
    """Errors found in one operation's CSV and manifest, and max |C - C_ref|."""
    errors: list[str] = []
    lines = csv_bytes.decode().split("\n")
    if lines[-1] != "" or any(not line for line in lines[:-1]):
        return [f"{op.name}: CSV is not LF-terminated rows"], math.inf
    rows = [line.split(",") for line in lines[:-1]]
    header, body = rows[0], rows[1:]
    if header != expected_header(op):
        return [f"{op.name}: header {header} != {expected_header(op)}"], math.inf
    if len(body) != op.points or any(len(row) != len(header) for row in body):
        return [f"{op.name}: expected {op.points} rows of {len(header)} cells"], math.inf
    cells = {name: [row[i] for row in body] for i, name in enumerate(header)}

    manifest = json.loads(manifest_text)
    recomputed = {name: _column_checksum(col) for name, col in cells.items()}
    if not isinstance(manifest, dict) or manifest.get("columns") != recomputed:
        errors.append(f"{op.name}: manifest checksums differ from the CSV's")

    values = {name: np.array([float(v) for v in col]) for name, col in cells.items()}
    if not all(np.all(np.isfinite(v)) for v in values.values()):
        return errors + [f"{op.name}: non-finite values"], math.inf
    for name in ("t", "x"):
        if name in ref and np.max(np.abs(values[name] - ref[name])) > DERIVED_TOL:
            errors.append(f"{op.name}: column {name} is off the grid")

    conc = values["concurrence"]
    err = float(np.max(np.abs(conc - ref["concurrence"])))
    if not err <= ref["tol"]:
        errors.append(f"{op.name}: max |C - C_ref| = {err:.3e} > {ref['tol']:.3e}")
    if "e_av" in ref:  # scenarios: closed forms for every column
        derived = {name: ref[name] for name in ("e_f", "e_av", "e_hidden")}
        tol = ref["tol"]
    else:  # dephasing: the columns the emitted concurrence implies
        derived = {"e_f": eof(conc), "e_av": 1.0, "e_hidden": values["e_av"] - values["e_f"]}
        tol = DERIVED_TOL
    for name, expect in derived.items():
        dev = float(np.max(np.abs(values[name] - expect)))
        if not dev <= tol:
            errors.append(f"{op.name}: column {name} deviates by {dev:.3e} > {tol:.3e}")
    return errors, err

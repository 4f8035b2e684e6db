"""Acceptance gate: each criterion prints one [acceptance] PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. The heavy Monte Carlo runs (100k trajectories, 801-point grid) are
shared across criteria through module-scoped fixtures; the whole gate takes a
few minutes on a desk machine.
"""

import math
import time

import numpy as np
import pytest

from entdyn.filters import analytic_series
from entdyn.grid import TimeGrid
from entdyn.linalg import projector
from entdyn.mc import DephasingRun, coherence_series, run
from entdyn.measures import (
    WeightedEnsemble,
    concurrence_mixed,
    concurrence_pure,
    eof_from_concurrence,
)
from entdyn.noise import NoiseModel
from entdyn.pulses import PulseProtocol
from entdyn.scenarios import jc_measures, random_field_series
from cli_command import run_entdyn
from oracles import (
    concurrence_spectral,
    filter_echo,
    filter_free,
    filter_numeric,
    filter_pdd,
    hidden_entanglement,
    jc_closed_form,
    random_state,
    real_mean_standard_error,
    value_at,
)

GRID = TimeGrid(8.0, 801)
N_TRAJ = 100_000
SEED = 20240601
STATIC = NoiseModel.static(1.0)
OU20 = NoiseModel.ou(1.0, 20.0)
OU200 = NoiseModel.ou(1.0, 200.0)
FREE = PulseProtocol.free()
ECHO4 = PulseProtocol.echo(4.0)


def report(criterion: str, checks: list[tuple[str, bool]]):
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[acceptance] {criterion}: {status}")
    assert not failed, f"{criterion} failed: {failed}"


def mc_run(noise, protocol):
    return run(DephasingRun(noise, protocol, GRID, N_TRAJ, SEED))


@pytest.fixture(scope="module")
def static_free_mc():
    start = time.perf_counter()
    series = mc_run(STATIC, FREE)
    return series, time.perf_counter() - start


@pytest.fixture(scope="module")
def static_echo_mc():
    return mc_run(STATIC, ECHO4)


@pytest.fixture(scope="module")
def mc_cells(static_free_mc, static_echo_mc):
    cells = {
        ("free", "static"): static_free_mc[0],
        ("echo", "static"): static_echo_mc,
    }
    for noise_name, noise in (("ou20", OU20), ("ou200", OU200)):
        cells[("free", noise_name)] = mc_run(noise, FREE)
        cells[("echo", noise_name)] = mc_run(noise, ECHO4)
    return cells


def test_full_ou_family_oracle_equivalence(mc_cells, analytic_cells):
    # Module invariant beyond criterion 5: MC and spectral paths agree to 0.02
    # across the whole correlation-time family, both protocols, N = 1e5, and
    # the echo recovery at the horizon is ordered in the correlation time.
    checks = []
    echo_recovery = []
    for tau in (20.0, 100.0, 200.0, 500.0):
        noise = NoiseModel.ou(1.0, tau)
        for name, protocol in (("free", FREE), ("echo", ECHO4)):
            key = (name, f"ou{int(tau)}")
            mc = mc_cells.get(key) or mc_run(noise, protocol)
            analytic = analytic_cells.get(key) or analytic_series(noise, protocol, GRID)
            dev = float(np.max(np.abs(mc.concurrence - analytic.concurrence)))
            checks.append((f"tau={tau} {name} C within 0.02 (dev {dev:.4f})", dev <= 0.02))
            if name == "echo":
                ef_dev = abs(mc.e_f[-1] - analytic.e_f[-1])
                checks.append(
                    (f"tau={tau} echo E_f(8) within 0.02 (dev {ef_dev:.4f})", ef_dev <= 0.02)
                )
                echo_recovery.append(mc.e_f[-1])
    checks.append(
        ("echo E_f(8) strictly increasing in tau", bool(np.all(np.diff(echo_recovery) > 0.0)))
    )
    report("invariant (OU family oracle equivalence)", checks)


@pytest.fixture(scope="module")
def analytic_cells():
    cells = {}
    for protocol_name, protocol in (("free", FREE), ("echo", ECHO4)):
        for noise_name, noise in (("static", STATIC), ("ou20", OU20), ("ou200", OU200)):
            cells[(protocol_name, noise_name)] = analytic_series(noise, protocol, GRID)
    return cells


def test_criterion_1_static_decay(static_free_mc, analytic_cells):
    series, elapsed = static_free_mc
    exact = np.exp(-0.5 * GRID.times**2)
    mc_dev = float(np.max(np.abs(series.concurrence - exact)))
    analytic_dev = float(
        np.max(np.abs(analytic_cells[("free", "static")].concurrence - exact))
    )
    print(
        f"[acceptance] criterion 1 detail: MC max dev {mc_dev:.4f}, "
        f"analytic max dev {analytic_dev:.2e}, runtime {elapsed:.1f}s"
    )
    report(
        "criterion 1 (static-noise decay)",
        [
            ("mc within 0.01 of closed form", mc_dev <= 0.01),
            ("analytic within 1e-9 of closed form", analytic_dev <= 1e-9),
            ("runtime under 30 s", elapsed < 30.0),
        ],
    )


def test_criterion_2_echo_full_recovery(static_echo_mc, analytic_cells):
    analytic = analytic_cells[("echo", "static")]
    report(
        "criterion 2 (echo full recovery)",
        [
            ("analytic E_f(8) exactly 1", analytic.e_f[-1] == 1.0),
            ("mc E_f(8) >= 0.99", static_echo_mc.e_f[-1] >= 0.99),
            ("E_av identically 1 to 1e-12", float(np.max(np.abs(static_echo_mc.e_av - 1.0))) <= 1e-12),
        ],
    )


def test_criterion_3_ou_echo_family():
    e_f = [
        eof_from_concurrence(concurrence_spectral(NoiseModel.ou(1.0, tau), ECHO4, 8.0))
        for tau in (20.0, 100.0, 200.0, 500.0)
    ]
    proxy = eof_from_concurrence(concurrence_spectral(NoiseModel.ou(1.0, 1e6), ECHO4, 8.0))
    print(f"[acceptance] criterion 3 detail: E_f(8) = {[round(v, 4) for v in e_f]}, proxy {proxy:.6f}")
    report(
        "criterion 3 (OU echo family)",
        [
            ("E_f strictly increasing in tau", bool(np.all(np.diff(e_f) > 0.0))),
            ("tau = 1e6 proxy within 1e-3 of static", abs(proxy - 1.0) <= 1e-3),
        ],
    )


def test_criterion_4_pdd_family():
    e_f = [
        eof_from_concurrence(
            concurrence_spectral(OU20, PulseProtocol.pdd(20.0 / ratio), 8.0)
        )
        for ratio in (5.0, 10.0, 20.0, 80.0)
    ]
    print(f"[acceptance] criterion 4 detail: E_f(8) = {[round(v, 4) for v in e_f]}")
    report(
        "criterion 4 (PDD family)",
        [
            ("E_f strictly increasing in tau/dt", bool(np.all(np.diff(e_f) > 0.0))),
            ("tau/dt = 80 reaches E_f >= 0.9", e_f[-1] >= 0.9),
        ],
    )


def test_criterion_5_mc_analytic_cross_oracle(mc_cells, analytic_cells):
    checks = []
    for key in analytic_cells:
        dev = float(np.max(np.abs(mc_cells[key].concurrence - analytic_cells[key].concurrence)))
        print(f"[acceptance] criterion 5 detail: cell {key}: max |C_mc - C_analytic| = {dev:.4f}")
        checks.append((f"cell {key} within 0.02", dev <= 0.02))
    report("criterion 5 (MC vs analytic cross-oracle)", checks)


def test_mc_cells_within_standard_error(analytic_cells):
    # The statistical counterpart of criterion 5, beside its fixed 0.02:
    # C_mc = max(m, 0) for m = <cos phi>, the estimator that ships. Where
    # C_exact > 10 floor, |C_mc - C_exact| <= 5 SE + 1e-6, with SE the
    # standard error of the real mean from m and m2 = <cos 2 phi>;
    # elsewhere it is <= 4 floor, floor = sqrt(pi / (4N)), the mean |m| of
    # the complex estimator at m = 0, which the clipped real one stays under.
    # 1e-6 is the OU kernel's float32 bound (its largest error is ~1.1e-7,
    # from the float32 tangent where phi is large). m2 is m of the same run
    # at 2 sigma: the OU maps and static offsets scale exactly by 2, so the
    # draws are the same and the phases doubled.
    floor = math.sqrt(math.pi / (4.0 * N_TRAJ))
    checks = []
    for (protocol_name, noise_name), exact in analytic_cells.items():
        noise = {"static": STATIC, "ou20": OU20, "ou200": OU200}[noise_name]
        protocol = {"free": FREE, "echo": ECHO4}[protocol_name]
        doubled = NoiseModel(noise.kind, 2.0 * noise.sigma, noise.tau)
        m, m2 = (coherence_series(DephasingRun(n, protocol, GRID, N_TRAJ, SEED)) for n in (noise, doubled))
        se = real_mean_standard_error(m, m2, N_TRAJ)
        dev = np.abs(np.maximum(m, 0.0) - exact.concurrence)
        large = exact.concurrence > 10.0 * floor
        fraction = float(np.max(dev[large] / (5.0 * se[large] + 1e-6)))
        resolved = large & (se > 1e-6)
        ratio = float(np.max(dev[resolved] / se[resolved]))
        small = float(np.max(dev[~large], initial=0.0))
        cell = (protocol_name, noise_name)
        print(
            f"[acceptance] SE detail: cell {cell}: max dev/SE {ratio:.2f} where SE > 1e-6, "
            f"small-C max dev {small:.2e} (bound {4.0 * floor:.2e})"
        )
        checks.append((f"cell {cell} within 5 SE + 1e-6", fraction <= 1.0))
        checks.append((f"cell {cell} small C within 4 floor", small <= 4.0 * floor))
    report("invariant (MC within its standard error)", checks)


def test_criterion_6_random_field_timeline():
    series = random_field_series(1.0, TimeGrid(2.0 * math.pi, 401))
    tbar = math.pi
    report(
        "criterion 6 (random-field timeline)",
        [
            ("E_f(tbar) <= 1e-9", value_at(series, tbar, "e_f") <= 1e-9),
            ("E_h(tbar) = 1 +- 1e-9", abs(value_at(series, tbar, "e_hidden") - 1.0) <= 1e-9),
            ("E_f(2 tbar) = 1 +- 1e-9", abs(value_at(series, 2 * tbar, "e_f") - 1.0) <= 1e-9),
            ("E_av identically 1", float(np.max(np.abs(series.e_av - 1.0))) <= 1e-9),
        ],
    )


def test_criterion_7_jc_scenario():
    grid = TimeGrid(2.0 * math.pi, 401)
    series = jc_measures(1.0, grid)
    layer_dev = 0.0
    for j, t in enumerate(grid.times):
        e_f_closed, e_av_closed = jc_closed_form(math.cos(0.5 * t) ** 2)
        layer_dev = max(
            layer_dev,
            abs(series.e_f[j] - e_f_closed),
            abs(series.e_av[j] - e_av_closed),
        )
    gap_half = value_at(series, math.pi / 2.0, "e_hidden")  # eta = 0.5
    print(
        f"[acceptance] criterion 7 detail: layer dev {layer_dev:.2e}, gap(eta=0.5) = {gap_half:.5f}"
    )
    report(
        "criterion 7 (exchange scenario)",
        [
            ("E_f(0) = 1", abs(value_at(series, 0.0, "e_f") - 1.0) <= 1e-9),
            ("E_f(pi/g) <= 1e-9", value_at(series, math.pi, "e_f") <= 1e-9),
            ("E_av(pi/g) <= 1e-9", value_at(series, math.pi, "e_av") <= 1e-9),
            ("E_f(2 pi/g) = 1 +- 1e-9", abs(value_at(series, 2 * math.pi, "e_f") - 1.0) <= 1e-9),
            ("three layers agree to 1e-9", layer_dev <= 1e-9),
            ("gap >= -1e-9 everywhere", float(np.min(series.e_hidden)) >= -1e-9),
            ("gap(eta=0.5) = 0.088 +- 2e-3", abs(gap_half - 0.088) <= 2e-3),
        ],
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(2024)
    wootters_dev = 0.0
    for _ in range(1000):
        psi = random_state(rng)
        wootters_dev = max(
            wootters_dev, abs(concurrence_mixed(projector(psi)) - concurrence_pure(psi))
        )
    hidden_min = np.inf
    for _ in range(1000):
        n = rng.integers(2, 7)
        weights = rng.random(n)
        weights /= weights.sum()
        ens = WeightedEnsemble(weights, [random_state(rng) for _ in weights])
        hidden_min = min(hidden_min, hidden_entanglement(ens).e_hidden)

    filter_devs = {"free": 0.0, "echo": 0.0, "pdd": 0.0}
    for _ in range(1000):
        w = rng.uniform(0.005, 40.0)
        t = rng.uniform(0.05, 10.0)
        tbar = rng.uniform(0.05, 1.0) * t
        dtp = rng.uniform(0.05, 2.0)
        filter_devs["free"] = max(
            filter_devs["free"], abs(filter_free(w, t) - filter_numeric(FREE, w, t))
        )
        filter_devs["echo"] = max(
            filter_devs["echo"],
            abs(filter_echo(w, t, tbar) - filter_numeric(PulseProtocol.echo(tbar), w, t)),
        )
        filter_devs["pdd"] = max(
            filter_devs["pdd"],
            abs(filter_pdd(w, t, dtp) - filter_numeric(PulseProtocol.pdd(dtp), w, t)),
        )

    cutoff_dev = 0.0
    for noise, protocol in ((OU20, ECHO4), (NoiseModel.ou(1.0, 500.0), ECHO4), (OU20, PulseProtocol.pdd(0.25))):
        values = [concurrence_spectral(noise, protocol, 8.0, omega_max_scale=s) for s in (1.0, 2.0, 4.0)]
        cutoff_dev = max(cutoff_dev, abs(values[1] - values[0]), abs(values[2] - values[1]))

    print(
        f"[acceptance] criterion 8 detail: wootters dev {wootters_dev:.2e}, "
        f"hidden min {hidden_min:.2e}, filter devs {filter_devs}, cutoff dev {cutoff_dev:.2e}"
    )
    report(
        "criterion 8 (property suites)",
        [
            ("wootters vs pure <= 1e-8 over 1000 states", wootters_dev <= 1e-8),
            ("hidden entanglement >= -1e-9 over 1000 ensembles", hidden_min >= -1e-9),
            ("free filter closed vs numeric <= 1e-12", filter_devs["free"] <= 1e-12),
            ("echo filter closed vs numeric <= 1e-10", filter_devs["echo"] <= 1e-10),
            ("pdd filter closed vs numeric <= 1e-8", filter_devs["pdd"] <= 1e-8),
            ("quadrature cutoff sensitivity < 1e-6", cutoff_dev < 1e-6),
        ],
    )


def test_criterion_9_reproducibility(tmp_path):
    args = (
        "--mode mc --noise ou --sigma 1 --tau 20 --protocol echo --tbar 4 "
        "--tmax 8 --points 201 --ntraj 10000 --seed 11"
    )
    outputs = []
    for workers in ("1", "4", "8"):
        out = tmp_path / f"workers_{workers}.csv"
        result = run_entdyn([*args.split(), "-o", str(out)], ENTDYN_WORKERS=workers)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    report(
        "criterion 9 (reproducibility across workers)",
        [
            ("1 vs 4 workers byte-identical", outputs[0] == outputs[1]),
            ("1 vs 8 workers byte-identical", outputs[0] == outputs[2]),
        ],
    )

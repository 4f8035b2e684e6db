import hashlib
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import entdyn.cli as cli
from entdyn.cli import ConfigError, RunConfig, execute, main, parse_config
from entdyn.filters import NumericalError
from cli_command import LOWERED_SIMD, run_entdyn
from oracles import column_checksums_from_csv


def read_csv(path):
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def test_parse_mc_flags():
    config = parse_config(
        "--mode mc --noise static --sigma 1 --protocol echo --tbar 4 "
        "--tmax 8 --points 801 --ntraj 100000 --seed 7".split()
    )
    assert config.mode == "mc"
    assert config.noise.kind == "static"
    assert config.protocol.kind == "echo" and config.protocol.tbar == 4.0
    assert config.grid.n_points == 801
    assert config.n_traj == 100_000
    assert config.master_seed == 7


def test_parse_analytic_pdd_flags():
    config = parse_config(
        "--mode analytic --noise ou --sigma 1 --tau 20 --protocol pdd --dt-pulse 0.25".split()
    )
    assert config.noise.tau == 20.0
    assert config.protocol.dt_pulse == 0.25
    assert config.grid.t_max == 8.0 and config.grid.n_points == 801  # defaults


def test_parse_missing_noise_names_field():
    with pytest.raises(ConfigError, match="noise"):
        parse_config(["--mode", "mc"])


def test_parse_missing_tau_for_ou():
    with pytest.raises(ConfigError, match="tau"):
        parse_config("--mode analytic --noise ou --sigma 1".split())


def test_parse_off_grid_pulse_names_time():
    with pytest.raises(ConfigError, match="4.003"):
        parse_config(
            "--mode analytic --noise static --sigma 1 --protocol echo --tbar 4.003".split()
        )


def test_parse_config_file_with_flag_override(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "# echo recovery run\n"
        "mode = analytic\n"
        "noise = static\n"
        "sigma = 1.0\n"
        "protocol = echo\n"
        "tbar = 4.0\n"
        "points = 81\n"
    )
    config = parse_config(["--config", str(config_file), "--points", "161"])
    assert config.mode == "analytic"
    assert config.grid.n_points == 161  # flag wins over file
    assert config.protocol.tbar == 4.0


VALID_FILE = {
    "mode": "mc", "noise": "ou", "sigma": "1", "tau": "20", "protocol": "pdd",
    "dt_pulse": "0.5", "points": "81", "ntraj": "16",
}


@pytest.mark.parametrize("key, value", [("noise", "gaussian"), ("protocol", "echoo"), ("mode", "MC")])
def test_config_file_bad_kind_exits_2(tmp_path, capsys, key, value):
    # a file value is checked against the same allowed kinds as its flag
    config_file = tmp_path / "run.cfg"
    lines = [f"{k} = {value if k == key else v}" for k, v in VALID_FILE.items()]
    config_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "x.csv"
    assert main(["--config", str(config_file), "-o", str(out)]) == cli.EXIT_CONFIG
    lineno = list(VALID_FILE).index(key) + 1
    assert f"{config_file}:{lineno}: bad value for {key!r}" in _one_line_error(capsys)
    assert not out.exists()


def test_non_utf8_config_file_exits_2(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_bytes(b"mode = randomfield\n# \xff\n")
    result = run_entdyn(["--config", str(config_file), "-o", str(tmp_path / "x.csv")])
    assert result.returncode == cli.EXIT_CONFIG
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("entdyn: config error: cannot read config file"), result.stderr


def test_parse_config_file_rejects_unknown_key(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("mode = mc\nfrobnicate = 1\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(["--config", str(config_file)])


def test_execute_static_echo_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "echo.csv"
    config = parse_config(
        f"--mode mc --noise static --sigma 1 --protocol echo --tbar 4 "
        f"--points 201 --ntraj 2000 --seed 5 -o {out}".split()
    )
    execute(config)
    header, data = read_csv(out)
    assert header == ["t", "x", "concurrence", "e_f", "e_av", "e_hidden"]
    assert data.shape == (201, 6)
    # static echo refocuses exactly at sigma t = 8 for every trajectory count
    assert data[-1, 3] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(data[:, 4] - 1.0)) <= 1e-12
    manifest_path = str(out) + ".manifest.json"
    assert os.path.exists(manifest_path)


def test_execute_jc_mode(tmp_path):
    out = tmp_path / "jc.csv"
    execute(parse_config(f"--mode jc --points 401 -o {out}".split()))
    header, data = read_csv(out)
    assert header == ["t", "x", "concurrence", "e_f", "e_av", "e_hidden"]
    mid = 200  # g t = pi
    assert abs(data[mid, 3]) <= 1e-9
    assert data[mid, 1] == pytest.approx(math.pi, rel=1e-12)


def test_execute_randomfield_has_no_x_column(tmp_path):
    out = tmp_path / "rf.csv"
    execute(parse_config(f"--mode randomfield --points 81 -o {out}".split()))
    header, data = read_csv(out)
    assert header == ["t", "concurrence", "e_f", "e_av", "e_hidden"]
    assert np.max(np.abs(data[:, 3] - 1.0)) <= 1e-9


def test_manifest_checksums_recomputable(tmp_path):
    import json

    for name, args, engine in (
        ("series", "--mode randomfield --points 41", None),
        ("static", "--mode analytic --noise static --sigma 1 --protocol echo --tbar 4 --points 81", "static_closed_form"),
        ("ou", "--mode analytic --noise ou --sigma 1 --tau 20 --protocol echo --tbar 4 --points 81", "ou_recursion"),
    ):
        out = tmp_path / f"{name}.csv"
        execute(parse_config(f"{args} -o {out}".split()))
        with open(str(out) + ".manifest.json") as handle:
            manifest = json.load(handle)
        assert column_checksums_from_csv(str(out)) == manifest["columns"]
        assert manifest.get("engine") == engine


def test_identical_config_gives_identical_csv(tmp_path):
    args = "--mode mc --noise ou --sigma 1 --tau 20 --protocol free --points 101 --ntraj 3000 --seed 9"
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    execute(parse_config(f"{args} -o {out_a}".split()))
    execute(parse_config(f"{args} -o {out_b}".split()))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_worker_env_does_not_change_bytes(tmp_path, monkeypatch):
    args = "--mode mc --noise ou --sigma 1 --tau 5 --protocol echo --tbar 2 --tmax 4 --points 101 --ntraj 20000 --seed 3"
    outputs = []
    for workers in ("1", "4"):
        monkeypatch.setenv("ENTDYN_WORKERS", workers)
        out = tmp_path / f"w{workers}.csv"
        execute(parse_config(f"{args} -o {out}".split()))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_mc_manifest_records_workers(tmp_path, monkeypatch):
    import json

    args = "--mode mc --noise static --sigma 1 --protocol echo --tbar 2 --tmax 4 --points 41 --ntraj 100 --seed 3"
    checksums = []
    for workers in ("1", "3"):
        monkeypatch.setenv("ENTDYN_WORKERS", workers)
        out = tmp_path / f"w{workers}.csv"
        execute(parse_config(f"{args} -o {out}".split()))
        with open(str(out) + ".manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["workers"] == int(workers)
        checksums.append(manifest["columns"])
    assert checksums[0] == checksums[1]


@pytest.mark.parametrize("exposed", [True, False], ids=["targets", "no-targets"])
def test_manifest_records_platform(tmp_path, monkeypatch, exposed):
    # The MC bytes hold on one numpy build and SIMD target, so the manifest
    # names both; a numpy without the private dispatch tables gives null.
    import json
    import platform

    from numpy._core import _multiarray_umath as umath

    if not exposed:
        monkeypatch.delattr(umath, "__cpu_dispatch__")
    out = tmp_path / "x.csv"
    execute(parse_config(f"--mode mc --noise static --sigma 1 --points 11 --ntraj 10 -o {out}".split()))
    with open(str(out) + ".manifest.json") as handle:
        recorded = json.load(handle)["platform"]
    assert set(recorded) == {"python", "numpy", "simd_targets"}
    assert recorded["python"] == platform.python_version() and recorded["numpy"] == np.__version__
    if exposed:
        active = {name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name]}
        assert recorded["simd_targets"] == sorted(active)
    else:
        assert recorded["simd_targets"] is None


@pytest.mark.parametrize("args", [
    "--mode mc --noise static --sigma 1 --points 41 --ntraj 100",
    "--mode analytic --noise ou --sigma 1 --tau 20 --points 41",
    "--mode randomfield --points 41",
    "--mode jc --points 41",
], ids=["mc", "analytic", "randomfield", "jc"])
def test_manifest_records_stages(tmp_path, args):
    # seconds per stage of the run: the engine's series, then the CSV write
    import json

    out = tmp_path / "x.csv"
    execute(parse_config(f"{args} -o {out}".split()))
    with open(str(out) + ".manifest.json") as handle:
        manifest = json.load(handle)
    stages = manifest["stages"]
    assert set(stages) == {"engine", "csv"}
    assert all(value >= 0.0 for value in stages.values())
    assert stages["engine"] + stages["csv"] <= manifest["duration_seconds"]


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["--mode", "mc"]) == cli.EXIT_CONFIG
    capsys.readouterr()
    # the I/O failure line names the output path the user gave, never the
    # temp file beside it, and no temp file is left behind
    (tmp_path / "is_a_dir").mkdir()
    for out in (tmp_path / "no" / "such" / "dir" / "x.csv", tmp_path / "is_a_dir"):
        assert main(f"--mode randomfield --points 21 -o {out}".split()) == cli.EXIT_IO
        err = _one_line_error(capsys)
        assert err.startswith(f"entdyn: I/O failure: {out}: ") and ".tmp" not in err, err
    assert list(tmp_path.rglob("*.tmp")) == []

    def boom(*args, **kwargs):
        raise NumericalError("did not converge")

    monkeypatch.setattr(cli, "random_field_series", boom)
    assert main(f"--mode randomfield --points 21 -o {tmp_path / 'y.csv'}".split()) == cli.EXIT_NUMERICAL


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("entdyn: "), err
    return err


@pytest.mark.parametrize(
    "args, field",
    [
        ("--mode analytic --noise ou --sigma 1 --tau 20 --tmax inf", "tmax"),
        ("--mode analytic --noise ou --sigma inf --tau 20", "sigma"),
        ("--mode analytic --noise ou --sigma 1 --tau nan", "tau"),
        ("--mode analytic --noise ou --sigma -1 --tau 20", "sigma"),  # a negative value is a value
        ("--mode analytic --noise ou --sigma=-1 --tau 20", "sigma"),
        ("--mode randomfield --omega inf", "omega"),
        ("--mode analytic --noise static --sigma 1e-320", "t_max"),  # default tmax 8/sigma overflows
    ],
)
def test_nonfinite_value_exits_2_naming_field(tmp_path, capsys, args, field):
    assert main([*args.split(), "-o", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert f"{field} must be" in _one_line_error(capsys)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("workers", ["abc", "0", "1.5", "257"])
def test_bad_worker_env_exits_2(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("ENTDYN_WORKERS", workers)
    out = tmp_path / "x.csv"
    argv = f"--mode mc --noise static --sigma 1 --points 21 --ntraj 10 -o {out}".split()
    assert main(argv) == cli.EXIT_CONFIG
    assert "ENTDYN_WORKERS" in _one_line_error(capsys)


def test_nonfinite_exponent_exits_3(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = f"--mode analytic --noise ou --sigma 1e300 --tau 20 -o {out}".split()
    assert main(argv) == cli.EXIT_NUMERICAL
    assert "not finite" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("tau", ["1e155", "1e300"])
def test_quasistatic_ou_tau_runs_as_static(tmp_path, tau):
    # tau^2 overflows here; the OU recursion never forms it.
    ou, static = tmp_path / "ou.csv", tmp_path / "static.csv"
    assert main(f"--mode analytic --noise ou --sigma 1 --tau {tau} -o {ou}".split()) == 0
    assert main(f"--mode analytic --noise static --sigma 1 -o {static}".split()) == 0
    ou_cells, static_cells = (np.loadtxt(path, delimiter=",", skiprows=1) for path in (ou, static))
    np.testing.assert_allclose(ou_cells, static_cells, rtol=1e-11, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "args",
    [
        "--mode analytic --noise static --sigma 1e300 --tmax 8 --points 11",
        "--mode mc --noise static --sigma 1e308 --tmax 8 --points 11 --ntraj 10",
    ],
)
def test_static_overflow_exits_3(tmp_path, capsys, args):
    # sigma * t overflows the exponent (analytic) or the phases (MC): no
    # traceback, no RuntimeWarning and no NaN written with exit 0.
    out = tmp_path / "x.csv"
    assert main([*args.split(), "-o", str(out)]) == cli.EXIT_NUMERICAL
    assert "numerical failure" in _one_line_error(capsys)
    assert not out.exists()


def test_ou_overflow_exits_3(tmp_path):
    # sigma = 1e308 overflows the OU paths and the phases. With every warning
    # an error, the run still ends in one line and exit 3: no RuntimeWarning.
    out = tmp_path / "x.csv"
    args = "--mode mc --noise ou --sigma 1e308 --tau 20 --tmax 8 --points 11 --ntraj 10"
    result = run_entdyn([*args.split(), "-o", str(out)], PYTHONWARNINGS="error")
    assert result.returncode == cli.EXIT_NUMERICAL, result.stderr
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("entdyn: numerical failure:") and "not finite" in result.stderr
    assert not out.exists()


def test_ou_phases_past_float32_exit_3(tmp_path):
    # sigma = 1e300 leaves the OU paths and phases finite in float64, but
    # phi / 2 overflows the float32 tangent stage: one line and exit 3, no
    # RuntimeWarning.
    out = tmp_path / "x.csv"
    args = "--mode mc --noise ou --sigma 1e300 --tau 20 --tmax 8"
    result = run_entdyn([*args.split(), "-o", str(out)], PYTHONWARNINGS="error")
    assert result.returncode == cli.EXIT_NUMERICAL, result.stderr
    assert result.stderr == "entdyn: numerical failure: Monte Carlo dephasing factor is not finite for sigma = 1e+300\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, code",
    [
        # Few trajectories: m = 1 - sum(1 - cos phi) / N stays <= 1.
        ("--mode mc --noise ou --sigma 1 --tau 20 --ntraj 1", cli.EXIT_OK),
        ("--mode mc --noise ou --sigma 1 --tau 20 --protocol pdd --dt-pulse 0.01 --ntraj 10", cli.EXIT_OK),
        # The phase rate t / 2 overflows; the analytic OU L^2 term overflows.
        ("--mode randomfield --omega 1e300 --tmax 1e10", cli.EXIT_NUMERICAL),
        ("--mode jc --g 1e200 --tmax 1e200", cli.EXIT_NUMERICAL),
        ("--mode analytic --noise ou --sigma 1 --tau 1 --tmax 1e300", cli.EXIT_NUMERICAL),
    ],
    ids=["ou-1-traj", "pdd-10-traj", "randomfield-overflow", "jc-overflow", "analytic-ou-overflow"],
)
def test_edge_runs_end_cleanly(tmp_path, args, code):
    out = tmp_path / "x.csv"
    result = run_entdyn([*args.split(), "-o", str(out)], PYTHONWARNINGS="error")
    assert result.returncode == code, result.stderr
    if code == cli.EXIT_OK:
        header, data = read_csv(out)
        assert np.all(data[:, header.index("concurrence")] <= 1.0)
    else:
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert result.stderr.startswith("entdyn: numerical failure:")
        assert not out.exists()


def test_analytic_subnormal_tau_is_white_noise_limit(tmp_path):
    # x = dt / tau overflows: chi is sigma^2 tau t ~ 0 there, so C = 1,
    # with exit 0 and no warning (every warning is an error here).
    out = tmp_path / "x.csv"
    args = "--mode analytic --noise ou --sigma 1 --tau 1e-320 --points 11"
    assert main([*args.split(), "-o", str(out)]) == cli.EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 11 and all(row[2] == "1" for row in rows)


def test_analytic_ou_pdd_csv_bytes_unchanged(tmp_path):
    # The benchmark's analytic OU PDD run: a change to the white-noise
    # guard of the OU recursion must leave every byte of its CSV alone.
    out = tmp_path / "x.csv"
    args = "--mode analytic --noise ou --sigma 1.0 --tau 20.0 --protocol pdd --dt-pulse 0.25 --tmax 8.0 --points 161"
    assert main([*args.split(), "-o", str(out)]) == cli.EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "f8850f6df3abf1b1694c6ce7f02e1ae369b809bc76f685164fc35cf0de437a6f"


# The MC bytes hold on one numpy build and SIMD target, so each MC pin has
# one digest per set of numpy's active dispatch targets (the manifest's
# platform.simd_targets), all taken with numpy 2.4.6. The X86_V3 digests
# were taken on an AVX-512 host under NPY_DISABLE_CPU_FEATURES=LOWERED_SIMD.
_AVX512_TARGETS = ("AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4")


def _check_mc_pin(tmp_path, args, digests):
    """Run ``args`` and compare its CSV's digest with the one recorded for
    the host's SIMD targets; a host with the LOWERED_SIMD targets also runs
    them in a child at the lowered target and checks that pin."""
    import json

    targets = tuple(cli._platform()["simd_targets"] or ())
    if targets not in digests:
        pytest.fail(f"no MC digest recorded for numpy SIMD targets {targets}")
    out = tmp_path / "x.csv"
    assert main([*args.split(), "-o", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[targets]
    if set(LOWERED_SIMD.split()) <= set(targets):
        lowered = tmp_path / "lowered.csv"
        result = run_entdyn([*args.split(), "-o", str(lowered)], NPY_DISABLE_CPU_FEATURES=LOWERED_SIMD)
        assert result.returncode == 0, result.stderr
        with open(str(lowered) + ".manifest.json") as handle:
            assert json.load(handle)["platform"]["simd_targets"] == ["X86_V3"]
        assert hashlib.sha256(lowered.read_bytes()).hexdigest() == digests[("X86_V3",)]


def test_mc_ou_echo_csv_bytes_pinned(tmp_path):
    # One Monte Carlo CSV, pinned: a change to the random stream, the OU
    # maps or the kernel's rounding moves these bytes, and is a change to
    # every MC cell that CHANGES.md must announce.
    args = (
        "--mode mc --noise ou --sigma 1.0 --tau 20.0 --protocol echo --tbar 4.0 --tmax 8.0 "
        "--points 161 --ntraj 20000 --seed 2101"
    )
    _check_mc_pin(tmp_path, args, {
        _AVX512_TARGETS: "5eeb847218d29aa5410a59bd6cce6db19bb3d1555775b878ab9fa9e2a38fa6f5",
        ("X86_V3",): "5eeb847218d29aa5410a59bd6cce6db19bb3d1555775b878ab9fa9e2a38fa6f5",
    })


def test_mc_static_csv_bytes_pinned(tmp_path):
    # The static kernel's CSV, pinned: 20000 trajectories leave a
    # 3616-trajectory tail batch that ends in a partial group of table rows,
    # and a change to the order of the static sums moves these bytes.
    args = (
        "--mode mc --noise static --sigma 1.0 --protocol free --tmax 8.0 "
        "--points 801 --ntraj 20000 --seed 2101"
    )
    _check_mc_pin(tmp_path, args, {
        _AVX512_TARGETS: "91bf99cc0170a8f8cf8e5662aade80aa6a241db16f574ab6e81408d217a94461",
        ("X86_V3",): "46f4cbaac69d41b86e5c0652b01d9a13aafea6c45a2cbbf9111750fc1d067448",
    })


def test_decayed_mc_cells_print_no_negative_zero(tmp_path):
    # Static noise at sigma 1 decays C to 0 in hundreds of cells; E_f there
    # must be +0.0, which prints "0", and no cell may print "-0".
    out = tmp_path / "x.csv"
    assert main(["--mode", "mc", "--noise", "static", "--sigma", "1", "--ntraj", "8192", "-o", str(out)]) == cli.EXIT_OK
    header, *lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    e_f = header.split(",").index("e_f")
    assert sum(row[e_f] == "0" for row in rows) > 100
    assert not any(cell == "-0" for row in rows for cell in row)


MODE_ARGS = {
    "mc": "--mode mc --noise static --sigma 1 --ntraj 64",
    "analytic": "--mode analytic --noise ou --sigma 1 --tau 20",
    "randomfield": "--mode randomfield --omega 1",
    "jc": "--mode jc --g 1",
}


@pytest.mark.parametrize("mode", sorted(MODE_ARGS))
def test_points_above_cap_exits_2(tmp_path, capsys, mode):
    out = tmp_path / "x.csv"
    argv = [*MODE_ARGS[mode].split(), "--points", "1000000000", "-o", str(out)]
    assert main(argv) == cli.EXIT_CONFIG
    message = _one_line_error(capsys)
    assert "points must be at most 1048576" in message and "1000000000" in message
    assert not out.exists()
    assert parse_config([*MODE_ARGS[mode].split(), "--points", str(cli.MAX_POINTS)]).grid.n_points == 2**20


def test_ntraj_above_cap_exits_2(tmp_path, capsys):
    # Refused before any batch bookkeeping is built; the accepted 2^30 is
    # only parsed, never run.
    out = tmp_path / "x.csv"
    base = "--mode mc --noise static --sigma 1 --ntraj".split()
    assert main([*base, str(2**30 + 1), "-o", str(out)]) == cli.EXIT_CONFIG
    message = _one_line_error(capsys)
    assert "ntraj must be in [1, 1073741824]" in message and str(2**30 + 1) in message
    assert not out.exists()
    assert parse_config([*base, str(cli.MAX_NTRAJ)]).n_traj == 2**30


@pytest.mark.parametrize("where", ["flag", "file"])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, where):
    # The stream keys take the seed as a uint64: a seed outside [0, 2^64)
    # would alias one inside it, so it is refused, not wrapped.
    out = tmp_path / "x.csv"

    def argv(seed):
        if where == "flag":
            return [*MODE_ARGS["mc"].split(), "--seed", str(seed), "-o", str(out)]
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = {seed}\n")
        return [*MODE_ARGS["mc"].split(), "--config", str(config), "-o", str(out)]

    for seed in (-1, 2**64):
        assert main(argv(seed)) == cli.EXIT_CONFIG
        message = _one_line_error(capsys)
        assert "seed must be in [0, 2^64)" in message and str(seed) in message
        assert not out.exists()
    for seed in (0, 2**64 - 1):
        assert parse_config(argv(seed)).master_seed == seed


def test_empty_output_path_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("output =\n")
    for extra in (["--output", ""], ["--config", "run.cfg"]):
        assert main(["--mode", "jc", *extra]) == cli.EXIT_CONFIG
        assert "output must be a non-empty path" in _one_line_error(capsys)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("mode", sorted(MODE_ARGS))
def test_no_cell_reads_negative_zero(tmp_path, mode):
    # the default scenario grids hit the zero of the entanglement at t = pi
    out = tmp_path / "x.csv"
    assert main([*MODE_ARGS[mode].split(), "-o", str(out)]) == cli.EXIT_OK
    cells = [cell for line in out.read_text().splitlines()[1:] for cell in line.split(",")]
    assert "-0" not in cells and "0" in cells


def test_pdd_below_grid_step_exits_2():
    args = "--mode analytic --noise static --sigma 1 --protocol pdd --dt-pulse 1e-12 --points 11"
    result = run_entdyn(args.split())
    assert result.returncode == cli.EXIT_CONFIG
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("entdyn: config error:") and "below the grid step" in result.stderr


def test_static_mc_bytes_independent_of_workers_and_blas_threads(tmp_path):
    # The static table is a matrix product per batch: its sums must not
    # depend on the engine's worker count or on the BLAS thread count.
    args = "--mode mc --noise static --sigma 1 --protocol echo --tbar 4 --ntraj 30000 --seed 5".split()
    outputs = set()
    for workers in ("1", "2", "4"):
        for blas in ("1", "2"):
            out = tmp_path / f"w{workers}b{blas}.csv"
            result = run_entdyn([*args, "-o", str(out)], ENTDYN_WORKERS=workers, OPENBLAS_NUM_THREADS=blas)
            assert result.returncode == 0, result.stderr
            outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_unknown_flag_exits_2():
    result = run_entdyn(["--frobnicate"])
    assert result.returncode == 2


@pytest.mark.parametrize(
    "args, flag",
    [
        ("--frobnicate", "--frobnicate"),
        ("--mode randomfield stray", "stray"),
        ("--mode randomfield --sigma", "--sigma"),
        ("--mode analytic --noise ou --sigma abc --tau 20", "--sigma"),
        ("--mode randomfield --points 8.5", "--points"),
        ("--mode analytic --noise gauss --sigma 1", "--noise"),
    ],
)
def test_flag_error_is_one_line(tmp_path, args, flag):
    out = tmp_path / "x.csv"
    result = run_entdyn(["-o", str(out), *args.split()])
    assert result.returncode == cli.EXIT_CONFIG
    assert result.stderr.count("\n") == 1, result.stderr
    assert result.stderr.startswith("entdyn: config error:") and flag in result.stderr, result.stderr
    assert result.stdout == "" and not out.exists()


FLAG_BASE = "--mode analytic --noise static --sigma 1 --protocol echo --points 81"


@pytest.mark.parametrize(
    "args, same_as",
    [
        ("--tbar=4", "--tbar 4"),
        ("--tbar 2 --tbar 4", "--tbar 4"),  # the last of a repeated flag wins
        ("--tbar 4 -o x.csv", "--tbar 4 --output x.csv"),
        ("--tbar 4 --output=x.csv", "--tbar 4 -o x.csv"),
        ("--tbar 4 -o --x.csv", "--tbar 4 --output=--x.csv"),  # the argument after a flag is its value
        ("--tbar=4 --sigma=2 --points=161", "--sigma 2 --points 161 --tbar 4"),
    ],
)
def test_flag_forms_parse_alike(args, same_as):
    config = parse_config([*FLAG_BASE.split(), *args.split()])
    assert config == parse_config([*FLAG_BASE.split(), *same_as.split()])
    assert config.protocol.tbar == 4.0


def test_bad_flag_and_bad_file_line_give_one_message(tmp_path, capsys):
    # one validator: the messages differ only in where the value came from
    config_file = tmp_path / "run.cfg"
    config_file.write_text("noise = gauss\n")
    messages = []
    for where, args in ((f"{config_file}:1", ["--config", str(config_file)]), ("--noise", ["--noise", "gauss"])):
        assert main(["--mode", "analytic", "--sigma", "1", *args]) == cli.EXIT_CONFIG
        message = _one_line_error(capsys)
        prefix = f"entdyn: config error: {where}: "
        assert message.startswith(prefix), message
        messages.append(message[len(prefix):])
    assert messages[0] == messages[1] == "bad value for 'noise': 'gauss' (choose from static, ou)\n"


def test_short_help_is_help(capsys):
    outputs = []
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as stop:
            main(["--mode", "jc", flag, "--frobnicate"])
        assert stop.value.code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""
    assert outputs[0].out.startswith("usage: entdyn")


def test_console_script_runs(tmp_path):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'entdyn = "entdyn.cli:main"' in scripts.splitlines()
    out = tmp_path / "cli.csv"
    result = run_entdyn(["--mode", "randomfield", "--points", "21", "-o", str(out)])
    assert result.returncode == 0, result.stderr
    assert out.exists()


SETTINGS_ECHO = {
    "mc-static-echo": (
        "--mode mc --noise static --sigma 1 --protocol echo --tbar 4 --points 401 --ntraj 10 --seed 2 -o a.csv",
        {"mode": "mc", "tmax": 8.0, "points": 401, "output": "a.csv", "noise": "static", "sigma": 1.0,
         "protocol": "echo", "tbar": 4.0, "ntraj": 10, "seed": 2},
    ),
    "mc-ou-pdd": (
        "--mode mc --noise ou --sigma 2 --tau 7 --protocol pdd --dt-pulse 0.5 --tmax 4 --points 401 "
        "--ntraj 10 --seed 2",
        {"mode": "mc", "tmax": 4.0, "points": 401, "output": "mc.csv", "noise": "ou", "sigma": 2.0,
         "tau": 7.0, "protocol": "pdd", "dt_pulse": 0.5, "ntraj": 10, "seed": 2},
    ),
    "analytic-ou-free": (
        "--mode analytic --noise ou --sigma 1 --tau 20",
        {"mode": "analytic", "tmax": 8.0, "points": 801, "output": "analytic.csv", "noise": "ou",
         "sigma": 1.0, "tau": 20.0, "protocol": "free"},
    ),
    "randomfield": (
        "--mode randomfield --omega 2 --points 11",
        {"mode": "randomfield", "tmax": math.pi, "points": 11, "output": "randomfield.csv", "omega": 2.0},
    ),
    "jc": (
        "--mode jc --g 0.5 --tmax 3 -o j.csv",
        {"mode": "jc", "tmax": 3.0, "points": 401, "output": "j.csv", "g": 0.5},
    ),
}


def test_settings_echo_round_trip():
    # the whole manifest echo: a key that does not apply (tau under static
    # noise, tbar under pdd, ntraj outside mc) must be absent, not None
    for name, (args, expected) in SETTINGS_ECHO.items():
        assert parse_config(args.split()).settings() == expected, name


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("entdyn ")]
    assert len(commands) == 4
    for command in commands:
        parse_config(shlex.split(command)[1:])


def test_help_lists_one_flag_per_field(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = re.findall(r"^  (-[-\w]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags == ["-h", "--config", *("--" + key.replace("_", "-") for key in cli._FIELDS)]

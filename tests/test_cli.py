import math
import os
from pathlib import Path

import numpy as np
import pytest

import entdyn.cli as cli
from entdyn.cli import ConfigError, RunConfig, execute, main, parse_config
from entdyn.filters import NumericalError
from entdyn.io import column_checksums_from_csv
from cli_command import run_entdyn


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


def test_main_exit_codes(tmp_path, monkeypatch):
    assert main(["--mode", "mc"]) == cli.EXIT_CONFIG
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert (
        main(f"--mode randomfield --points 21 -o {missing_dir}".split()) == cli.EXIT_IO
    )

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
        ("--mode randomfield --omega inf", "omega"),
        ("--mode analytic --noise static --sigma 1e-320", "t_max"),  # default tmax 8/sigma overflows
    ],
)
def test_nonfinite_value_exits_2_naming_field(tmp_path, capsys, args, field):
    assert main([*args.split(), "-o", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
    assert f"{field} must be" in _one_line_error(capsys)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("workers", ["abc", "0", "1.5"])
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


def test_unknown_flag_exits_2():
    result = run_entdyn(["--frobnicate"])
    assert result.returncode == 2


def test_console_script_runs(tmp_path):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'entdyn = "entdyn.cli:main"' in scripts.splitlines()
    out = tmp_path / "cli.csv"
    result = run_entdyn(["--mode", "randomfield", "--points", "21", "-o", str(out)])
    assert result.returncode == 0, result.stderr
    assert out.exists()


def test_settings_echo_round_trip():
    config = parse_config(
        "--mode mc --noise ou --sigma 2 --tau 7 --protocol pdd --dt-pulse 0.5 "
        "--tmax 4 --points 401 --ntraj 10 --seed 2".split()
    )
    flat = config.settings()
    assert flat["noise"] == "ou" and flat["tau"] == 7.0
    assert flat["protocol"] == "pdd" and flat["dt_pulse"] == 0.5
    assert flat["ntraj"] == 10 and flat["seed"] == 2

"""entdyn benchmark: end-to-end and per-layer metrics of the `entdyn` CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program under test is imported
from its `src/` directory. Workloads are listed in `workloads.py` and
explained, with the layer-to-metric predictions, in `README.md`.

One client, closed loop: each pass of a workload starts after the previous
one ended. A pass runs every operation of the workload through
`entdyn.cli.main` in a fresh interpreter (`worker.py`), so its peak resident
memory is its own. Passes run until the next one would end after
`--seconds`; each kind of pass runs at least once:

- `--trace 0`: ENTDYN_WORKERS=1 passes for the end-to-end metrics, and one
  ENTDYN_WORKERS=2 pass, second, whose time is reported beside them and
  whose CSVs must match the 1-worker ones byte for byte. Three set-up
  samples precede every pass;
- `--trace 1`: untraced and traced passes alternate (both one worker), for
  the per-layer metrics and the tracing overhead.

Every output of every pass is checked against an independent reference
(`checks.py`) and against the CSV bytes of the workload's first pass. An
operation that fails any check counts in `failed`. The last stdout line is
the result, `{"correct", "attempted", "failed", "metrics"}`; the lines above
it are a readable summary, and `.perfbench/results/` keeps the full record
with every sample, the run environment and each failure.
"""

from __future__ import annotations

import os

# Cap numerical-library threads before numpy is imported here or in a worker:
# the only parallelism left is ENTDYN_WORKERS, which never exceeds the CPUs.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import ANALYTIC, JC, RANDOMFIELD, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

SETUP_PER_PASS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {name: unit for name, unit, _needs, _value in tracing.LAYER_METRICS}
PER_LAYER["trace_overhead_s"] = "s"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "thread_env": THREAD_ENV,
        "entdyn_workers": [1, min(2, usable_cpus())],
    }


def _child(request: dict, path: Path, workers: int, deadline: float) -> dict:
    """Run one worker to completion; returns its result or {"error": ...}."""
    path.write_text(json.dumps(request))
    env = dict(os.environ, ENTDYN_WORKERS=str(workers))
    try:
        done = subprocess.run([sys.executable, str(WORKER), str(SRC), str(path)], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    if done.returncode != 0:
        return {"error": f"worker exited with {done.returncode}"}
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "worker printed no result"}
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        return {"error": f"entdyn was imported from {result['module']}, not {SRC}"}
    return result


def _summary(values: list) -> dict:
    """Median, quartiles and count of the samples (None when there are none)."""
    values = [v for v in values if v is not None]
    if not values:
        return {"value": None, "n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"value": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "samples": values}


def _pass_kind(index: int, trace: bool) -> tuple[str, int, bool]:
    """(kind, ENTDYN_WORKERS, traced) of pass number `index`."""
    if trace:
        return ("untraced", 1, False) if index % 2 == 0 else ("traced", 1, True)
    return ("w2", min(2, usable_cpus()), False) if index == 1 else ("w1", 1, False)


def bench(name: str, ops, seed: int, seconds: int, trace: bool, reference=checks.reference) -> dict:
    """Measure one workload; returns the full record (see the module docstring)."""
    if not (SRC / "entdyn" / "cli.py").is_file():
        raise BenchError(f"no entdyn sources under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    attempted = failed = 0
    failures: list[str] = []

    refs = {op.name: reference(op) for op in ops}
    first_csv: dict[str, bytes] = {}
    max_err = {}
    setup_s = []
    passes = []
    last_duration = {}
    start = time.monotonic()
    for index in itertools.count():
        kind, workers, traced = _pass_kind(index, trace)
        began = time.monotonic()
        if index >= 2 and began - start + last_duration[kind] > seconds:
            break
        # Set-up samples are spread over the run, a few before each pass.
        for _ in range(0 if trace else SETUP_PER_PASS):
            request = {"kind": "setup", "ops": [ops[0].argv(str(work / "setup.csv"))]}
            result = _child(request, work / "request.json", 1, deadline)
            attempted += 1
            if "error" in result:
                failed += 1
                failures.append(f"setup before pass {index}: {result['error']}")
            else:
                setup_s.append(result["setup_s"])
        pass_dir = work / f"pass{index}"
        pass_dir.mkdir()
        request = {"kind": "pass", "trace": traced, "spans_path": str(work / f"spans-pass{index}.json"),
                   "ops": [op.argv(str(pass_dir / f"{op.name}.csv")) for op in ops]}
        result = _child(request, work / "request.json", workers, deadline)
        result.update(kind=kind, workers=workers)
        passes.append(result)
        for k, op in enumerate(ops):
            attempted += 1
            errors = _check_op(op, k, result, pass_dir, refs[op.name], first_csv, max_err)
            if errors:
                failed += 1
                failures.extend(f"pass {index} ({kind}): {e}" for e in errors)
        shutil.rmtree(pass_dir)
        last_duration[kind] = time.monotonic() - began
        if "error" in result or time.monotonic() > deadline:
            break

    def samples(kind, key):
        return [p.get(key) for p in passes if p["kind"] == kind and "error" not in p]

    if trace:
        metrics = {m: _summary([(p.get("layers") or {}).get(m) for p in passes
                                if p["kind"] == "traced" and "error" not in p])
                   for m in PER_LAYER if m != "trace_overhead_s"}
        traced, untraced = _summary(samples("traced", "wall_s")), _summary(samples("untraced", "wall_s"))
        overhead = None if None in (traced["value"], untraced["value"]) else traced["value"] - untraced["value"]
        metrics["trace_overhead_s"] = {"value": overhead, "n": min(traced["n"], untraced["n"])}
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": _summary(samples("w1", "wall_s")),
            "setup_s": _summary(setup_s),
            "peak_rss_mb": _summary(samples("w1", "peak_rss_mb")),
        }
        units = END_TO_END
    for metric, unit in units.items():
        metrics[metric]["unit"] = unit
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted if attempted else None,
        "max_abs_err": max(max_err.values()) if max_err else None,
        "max_abs_err_by_op": max_err,
        "metrics": metrics,
        "wall_s_w2": None if trace else dict(_summary(samples("w2", "wall_s")), unit="s"),
        "missing_hooks": sorted({h for p in passes for h in p.get("missing_hooks", [])}),
        "passes": passes,
        "failures": failures,
    }


def _check_op(op, k, result, pass_dir: Path, ref, first_csv: dict, max_err: dict) -> list[str]:
    """Errors of operation k in one pass; records its deterministic error."""
    if "error" in result:
        return [f"{op.name}: {result['error']}"]
    code = result["exit_codes"][k]
    if code != 0:
        return [f"{op.name}: exit code {code}"]
    csv_path = pass_dir / f"{op.name}.csv"
    try:
        csv_bytes = csv_path.read_bytes()
        manifest = Path(str(csv_path) + ".manifest.json").read_text()
        errors, err = checks.check_output(op, csv_bytes, manifest, ref)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{op.name}: unreadable output: {exc}"]
    if first_csv.setdefault(op.name, csv_bytes) != csv_bytes:
        errors.append(f"{op.name}: CSV bytes differ from the first pass")
    # Monte Carlo error is statistical and seed-dependent; only deterministic
    # outputs enter max_abs_err.
    if op.mode in (ANALYTIC, RANDOMFIELD, JC):
        max_err[op.name] = max(err, max_err.get(op.name, 0.0))
    return errors


def contract_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v["value"], "unit": v["unit"]} for m, v in record["metrics"].items()},
    }


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
          f"trace {record['trace']}")
    print(f"  nproc {env['nproc']} (usable {env['usable_cpus']})  python {env['python']}  "
          f"numpy {env['numpy']}  commit {env['commit']}  BLAS/OpenMP threads 1  "
          f"ENTDYN_WORKERS {env['entdyn_workers']}")
    for metric, v in record["metrics"].items():
        value = "null" if v["value"] is None else f"{v['value']:.6g}"
        spread = f"  [q1 {v['q1']:.6g}, q3 {v['q3']:.6g}]" if "q1" in v else ""
        print(f"  {metric:26s} {value:>14s} {v['unit']:6s} n={v['n']}{spread}")
    print(f"  {'fail_rate':26s} {record['fail_rate']:>14.6g} {'1':6s} "
          f"({record['failed']} of {record['attempted']} operations failed)")
    if record["wall_s_w2"] is not None:
        w2 = record["wall_s_w2"]
        print(f"  {'wall_s_w2':26s} {w2['value']:>14.6g} {'s':6s} n={w2['n']} "
              f"(ENTDYN_WORKERS={record['environment']['entdyn_workers'][1]}, same CSV bytes)")
    err = record["max_abs_err"]
    print(f"  {'max_abs_err':26s} {'n/a' if err is None else f'{err:.3e}':>14s} {'1':6s} "
          "(|C - C_ref| over analytic and scenario outputs)")
    metrics = record["metrics"]
    if "unattributed_s" in metrics and None not in (metrics["unattributed_s"]["value"],
                                                    metrics["cli.execute_s"]["value"]):
        share = metrics["unattributed_s"]["value"] / metrics["cli.execute_s"]["value"]
        print(f"  unattributed share of cli.execute_s: {share:.2%}")
    if record["missing_hooks"]:
        print(f"  missing hooks: {', '.join(record['missing_hooks'])}")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}", file=sys.stderr)


def save(record: dict) -> Path:
    path = OUT / "results" / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [bench(n, WORKLOADS[n](args.seed), args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_summary(record)
        print(f"  record: {save(record).relative_to(ROOT)}")
    if len(records) == 1:
        line = contract_line(records[0])
    else:
        line = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{m}": v for r in records
                        for m, v in contract_line(r)["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

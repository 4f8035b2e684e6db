"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that:
- both trace modes emit every metric BENCHMARK.json names, with its unit,
  and the saved result record parses back;
- a deliberately wrong reference gives a non-zero fail rate;
- a hook whose target was renamed reports its metrics as null while the
  pass goes on, and the exact counts repeat from pass to pass;
- the benchmark exits non-zero, printing no result, without the program's
  sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run  # sets the thread caps before numpy loads
import checks
import tracing
from workloads import ANALYTIC, JC, MC, RANDOMFIELD, Op

TINY = [
    Op("mc_static_echo", MC, 8.0, 17, noise="static", sigma=1.0, protocol="echo", tbar=4.0,
       ntraj=1024, seed=5),
    Op("mc_ou_free", MC, 8.0, 17, noise="ou", sigma=1.0, tau=20.0, protocol="free", ntraj=1024, seed=5),
    Op("analytic_ou_pdd", ANALYTIC, 2.0, 9, noise="ou", sigma=1.0, tau=20.0, protocol="pdd", dt_pulse=0.5),
    Op("analytic_static_echo", ANALYTIC, 8.0, 17, noise="static", sigma=1.0, protocol="echo", tbar=4.0),
    Op("randomfield", RANDOMFIELD, 2.0 * math.pi, 21, omega=1.0),
    Op("jc", JC, 2.0 * math.pi, 21, g=1.0),
]


def check_metrics_and_record(spec: dict) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = run.bench("selftest", TINY, 5, 1, trace)
        assert record["correct"] and record["failed"] == 0, record["failures"]
        reloaded = json.loads(run.save(record).read_text())
        line = json.loads(json.dumps(run.contract_line(reloaded)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {name: v["unit"] for name, v in line["metrics"].items()}
        assert emitted == expected, set(emitted) ^ set(expected)
        for name, v in line["metrics"].items():
            assert isinstance(v["value"], (int, float)), (name, v)
        assert reloaded["max_abs_err"] < checks.ANALYTIC_TOL


def check_wrong_reference() -> None:
    def wrong(op):
        ref = checks.reference(op)
        ref["concurrence"] = 1.0 - ref["concurrence"]
        return ref

    record = run.bench("selftest-wrong-reference", TINY, 5, 1, True, reference=wrong)
    assert record["fail_rate"] > 0 and not record["correct"], record["fail_rate"]


def check_missing_hook() -> None:
    sys.path.insert(0, str(run.SRC))
    from entdyn import cli

    renamed = tuple(("mc", "_phase_block_renamed", span, counter) if span == "mc.phase"
                    else (module, attr, span, counter) for module, attr, span, counter in tracing.HOOKS)
    tracer = tracing.Tracer()
    tracing.install(tracer, renamed)
    out = run.OUT / "work" / "selftest-missing-hook"
    out.mkdir(parents=True, exist_ok=True)
    counts = []
    for _ in range(2):
        tracer.spans.clear()
        tracer.counts.clear()
        for op in TINY:
            assert cli.main(op.argv(str(out / f"{op.name}.csv"))) == 0
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert tracer.missing == {"mc.phase"}
    assert metrics["mc.phase_s"] is None and metrics["mc.reduce_s"] is None, metrics
    assert metrics["mc.batches"] == 2 and metrics["cli.execute_s"] > 0.0, metrics
    assert counts[0] == counts[1], (counts[0], counts[1])


def check_refuses_without_sources(spec: dict) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([*spec["command"], "--workload", "mc_ou_echo", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert done.returncode != 0 and "{" not in done.stdout, (done.returncode, done.stdout)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics_and_record(spec)
    check_wrong_reference()
    check_refuses_without_sources(spec)
    check_missing_hook()  # last: it leaves entdyn wrapped in this process
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark measurement in a fresh interpreter.

    python3 worker.py <src dir> <request.json>

The request's "kind" is either "setup", which times importing `entdyn.cli`
and parsing one configuration, or "pass", which runs every operation of a
workload through `entdyn.cli.main` in this process, one after another. A
traced pass installs the layer hooks first and writes its spans to
"spans_path". The result is one JSON line on stdout.
"""

import json
import sys
import time

START = time.perf_counter()


def setup(src: str, request: dict) -> dict:
    sys.path.insert(0, src)
    from entdyn import cli

    cli.parse_config(request["ops"][0])
    elapsed = time.perf_counter() - START
    return {"setup_s": elapsed, "module": cli.__file__}


def run_pass(src: str, request: dict) -> dict:
    import resource
    import traceback

    sys.path.insert(0, src)
    from entdyn import cli

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    seconds, codes = [], []
    for argv in request["ops"]:
        start = time.perf_counter()
        try:
            codes.append(cli.main(argv))
        except Exception as exc:  # an uncaught error is a failed operation, not a stopped run
            traceback.print_exc()
            codes.append(f"{type(exc).__name__}: {exc}")
        seconds.append(time.perf_counter() - start)
    result = {
        "wall_s": sum(seconds),
        "op_seconds": seconds,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing_hooks"] = sorted(tracer.missing | tracer.broken)
        with open(request["spans_path"], "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, handle)
    return result


if __name__ == "__main__":
    src_dir, request_path = sys.argv[1], sys.argv[2]
    with open(request_path) as handle:
        req = json.load(handle)
    kind = {"setup": setup, "pass": run_pass}[req["kind"]]
    print(json.dumps(kind(src_dir, req)))

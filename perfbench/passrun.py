"""One benchmark pass in a fresh interpreter.

Runs a plan of `tablesync` CLI invocations in-process through
`tablesync.cli.main`, timing each call, and writes a JSON result with the
timings, exit codes, the number of `Gateway.complete` calls, the process's
peak RSS and, when the plan asks for tracing, the per-layer metrics (spans
go to the plan's `spans` file). A fresh process per pass means no module
cache of one pass serves the next, as for separate CLI runs.

    PYTHONPATH=src python3 perfbench/passrun.py PLAN.json RESULT.json

PLAN.json: {"trace": bool, "spans": path or null, "steps": [{"argv": [...]}, ...]}
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import tracer


def run_step(recorder: tracer.Recorder, main, argv: list[str]) -> dict:
    output = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            code = recorder.run_root(main, argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # noqa: BLE001 - an untyped exception aborts the invocation
            code = None
            error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"exit": code, "seconds": seconds, "error": error, "output": output.getvalue()[-4000:]}


def main() -> None:
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)

    import tablesync.cli

    recorder = tracer.Recorder(trace=bool(plan["trace"]))
    missing = tracer.install(recorder)
    steps = [run_step(recorder, tablesync.cli.main, step["argv"]) for step in plan["steps"]]
    result = {
        "steps": steps,
        "gateway_calls": recorder.gateway_calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing_targets": missing,
    }
    if recorder.trace:
        result["layers"] = recorder.layer_metrics()
        recorder.write_spans(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

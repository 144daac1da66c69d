"""The tablesync benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload lexicon-heavy --seed 1 --seconds 10 --trace 0

Each run generates its corpus from the seed (see corpus.py), then repeats
passes until `--seconds` have been measured. A pass is a fresh interpreter
(passrun.py) that drives the public CLI, `tablesync.cli.main`, as a closed
loop of the workload's clients (`--concurrency`). Every pass's outputs are
checked (see `check_pass`) and the last line printed is the JSON result: with
`--trace 0` every end-to-end metric of BENCHMARK.json, with `--trace 1` every
per-layer metric, from a traced pass run between two untraced ones; all three
must write byte-identical outputs. The CLI cold start is scaled to a nominal
machine speed, measured by a reference import timed just before it (see
REFERENCE_IMPORT). Spans and a summary, with the unscaled cold start, stay in
`.perfbench_work/<workload>-seed<n>-trace<t>/`.

Exit codes: 0 when every check passed, 1 when a check failed (the result line
says `"correct": false`), 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import corpus as gen

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

STRATEGIES = ("direct", "joint", "two", "decompose", "hierarchical")
# Import times drift with the host's speed by up to 1.5x for minutes at a time.
# Before each pass a fresh interpreter imports a fixed set of modules that no
# change to tablesync alters, and right after it another imports tablesync.cli;
# setup_s is NOMINAL_REFERENCE_S (the reference's median on the machine the
# benchmark was built on: two shared vCPUs, Python 3.11.7) times the median
# ratio of the two.
REFERENCE_IMPORT = (
    "import argparse, concurrent.futures, csv, dataclasses, decimal, inspect, json, logging, requests"
)
NOMINAL_REFERENCE_S = 0.29
MIN_PASSES = 3
RUN_BUDGET_S = 170.0
# http-latency: the fake server spoils every merge answer of one instance and
# the first graph-to-table and first row-comparison answer of every fourth.
POISONED_INDEX = 2
FLAKY_EVERY = 4


@dataclass(frozen=True)
class Workload:
    params: gen.CorpusParams
    strategies: tuple[str, ...]
    backend: str  # "stub", "http", or "replay" (stub record pass, then replay pass)
    clients: int  # the CLI's --concurrency
    ledger: bool = False


# Why each workload exists, with its loop, clients and the layers it stresses
# and bypasses, is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "lexicon-heavy": Workload(gen.CorpusParams(8, (20, 20), 300, 0.0), ("hierarchical",), "stub", 1, ledger=True),
    "wide-tables": Workload(gen.CorpusParams(4, (120, 160), 0, 0.9), ("two",), "stub", 1),
    "http-latency": Workload(gen.CorpusParams(8, (8, 8), 30, 0.25), ("hierarchical",), "http", 2),
    "replay-sweep": Workload(gen.CorpusParams(5, (30, 30), 60, 0.5), STRATEGIES, "replay", 1),
}

DETERMINISTIC_OUTPUTS = ("report.json", "traces.json", "failure.json", "ledger.json")


class RunError(Exception):
    """The benchmark could not run at all."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def time_import(statement: str = "import tablesync.cli") -> float:
    """Seconds for a fresh interpreter to run an import statement (by default
    the CLI cold start)."""
    start = time.perf_counter()
    # A blocking wait: waiting with a timeout polls in steps of up to 50 ms.
    code = subprocess.Popen([sys.executable, "-c", statement], env=child_env()).wait()
    if code != 0:
        raise RunError(f"{statement!r} failed with exit code {code}")
    return time.perf_counter() - start


def outputs_digest(root: Path) -> str:
    """sha256 over the deterministic artifacts (reports, traces, failures,
    ledgers, output tables) under root, by relative path."""
    digest = hashlib.sha256()
    files = sorted(
        p
        for p in root.rglob("*")
        if p.is_file() and (p.name in DETERMINISTIC_OUTPUTS or p.name.startswith("output."))
    )
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_corpus_digest(params: gen.CorpusParams, seed: int, digest: str) -> str | None:
    """Record the tree digest of (params, seed) on first sight; later runs in
    this checkout must generate the same bytes."""
    record = WORK / "corpus_digests.json"
    known = json.loads(record.read_text("utf-8")) if record.is_file() else {}
    key = f"{json.dumps(params.as_dict(), sort_keys=True)} seed={seed}"
    if key in known:
        if known[key] != digest:
            return f"corpus for {key} changed: {known[key]} -> {digest}"
        return None
    known[key] = digest
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1) + "\n", "utf-8")
    tmp.replace(record)
    return None


class FakeServer:
    """The fake chat-completion server as a child process."""

    def __init__(self, corpus: gen.Corpus) -> None:
        poisoned = corpus.instances[POISONED_INDEX].entity
        flaky = [inst.entity for inst in corpus.instances[::FLAKY_EVERY]]
        command = [sys.executable, str(HERE / "fake_llm.py"), "--lexicons", str(corpus.lexicon_dir)]
        command += ["--poison", poisoned]
        for name in flaky:
            command += ["--flaky", name]
        # Two spoiled merge answers (first try and reprompt), two per flaky instance.
        self.expected_faults = 2 + 2 * len(flaky)
        self.process = subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.process.stdout], [], [], 30)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.stop()
            raise RunError(f"fake server did not start (said {line!r})")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def endpoint(self, namespace: str) -> str:
        return f"{self.base}/{namespace}/chat/completions"

    def stats(self, namespace: str) -> dict[str, int]:
        with urllib.request.urlopen(f"{self.base}/stats/{namespace}", timeout=10) as response:
            return json.load(response)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def plan_steps(workload: Workload, corpus: gen.Corpus, out: Path, endpoint: str | None) -> list[dict]:
    """CLI invocations of one pass; each sync step names its output directory."""
    common = ["--corpus", str(corpus.corpus_dir), "--lexicons", str(corpus.lexicon_dir)]
    common += ["--concurrency", str(workload.clients)]
    steps: list[dict] = []
    for strategy in workload.strategies:
        sync = ["sync", "--strategy", strategy, *common]
        if workload.backend == "replay":
            transcript = str(out / f"{strategy}.jsonl")
            record, replay = out / f"{strategy}-record", out / f"{strategy}-replay"
            steps.append(
                {
                    "argv": sync + ["--out", str(record), "--record", "--transcripts", transcript],
                    "out": str(record),
                    "strategy": strategy,
                }
            )
            steps.append(
                {
                    "argv": sync + ["--out", str(replay), "--backend", "replay", "--transcripts", transcript],
                    "out": str(replay),
                    "strategy": strategy,
                    "replays": str(record),
                }
            )
            continue
        target = out / strategy
        argv = sync + ["--out", str(target)]
        if workload.backend == "http":
            argv += ["--backend", "http", "--endpoint", endpoint]
        steps.append({"argv": argv, "out": str(target), "strategy": strategy})
        if workload.ledger:
            for inst in corpus.instances:
                steps.append(
                    {
                        "argv": [
                            "errors",
                            "--instance-dir",
                            str(corpus.corpus_dir / inst.rel),
                            "--traces",
                            str(target / inst.rel / "traces.json"),
                            "--lexicons",
                            str(corpus.lexicon_dir),
                            "--out",
                            str(target / inst.rel / "ledger.json"),
                        ],
                        "ledger_of": inst.rel,
                        "sync_out": str(target),
                    }
                )
    return steps


def _load(path: Path) -> dict:
    return json.loads(path.read_text("utf-8"))


def check_pass(corpus: gen.Corpus, steps: list[dict], result: dict, expect_failed: set[str]) -> dict:
    """Check one pass's outputs; returns its counts, report values and problems.

    Checks: every invocation exits 0, or 1 with exactly the scheduled
    failures, each a typed failure.json of the merge stage; each report.json
    counts the instances that completed; on hierarchical syncs every lexicon
    gap shows in its instance report as designed (a reference gap leaves one
    gold row missed, a back-translation gap one source row deleted); ledgers
    exist and the reference-gap ledgers are not all zeros; a replay is
    byte-identical to its record pass.
    """
    problems: list[str] = []
    n = len(corpus.instances)
    attempted = completed = unexpected = 0
    updated: list[float] = []
    missed: list[float] = []
    gaps = {inst.rel: inst.gap for inst in corpus.instances}
    for step, outcome in zip(steps, result["steps"]):
        label = " ".join(step["argv"][:3])
        if outcome["error"] is not None:
            problems.append(f"{label}: untyped exception\n{outcome['error']}")
        if "ledger_of" in step:
            ledger_path = Path(step["sync_out"]) / step["ledger_of"] / "ledger.json"
            if outcome["exit"] != 0 or not ledger_path.is_file():
                problems.append(f"ledger of {step['ledger_of']}: exit {outcome['exit']}")
                continue
            final = _load(ledger_path)["stages"][-1]["cumulative"]["total"]
            if gaps[step["ledger_of"]] == gen.GAP_REFERENCE and final == 0:
                problems.append(f"ledger of {step['ledger_of']} misses its lexicon gap")
            continue
        out = Path(step["out"])
        attempted += n
        failed = {p.parent.relative_to(out).as_posix() for p in out.rglob("failure.json")}
        if outcome["error"] is not None:
            failed = {inst.rel for inst in corpus.instances}
        completed += n - len(failed)
        unexpected += len(failed ^ expect_failed)
        if failed != expect_failed:
            problems.append(f"{label}: failed {sorted(failed)}, expected {sorted(expect_failed)}")
        if outcome["exit"] != (1 if expect_failed else 0):
            problems.append(f"{label}: exit {outcome['exit']}\n{outcome['output']}")
        for rel in sorted(failed & expect_failed):
            stage = _load(out / rel / "failure.json").get("stage")
            if stage != "merge":
                problems.append(f"{rel}: failed in stage {stage!r}, expected 'merge'")
        if not (out / "report.json").is_file():
            problems.append(f"{label}: no report.json")
            continue
        report = _load(out / "report.json")
        if report.get("instances") != n - len(expect_failed):
            problems.append(f"{label}: report counts {report.get('instances')} instances")
            continue
        updated.append(report["updated"]["value"])
        missed.append(report["missed_gold"]["value"])
        if step["strategy"] == "hierarchical":
            for inst in corpus.instances:
                if inst.rel in failed:
                    continue
                ensemble = _load(out / inst.rel / "report.json")["ensemble"]
                shown = (ensemble["missed_gold"], ensemble["deleted_input"])
                wanted = (int(inst.gap == gen.GAP_REFERENCE), int(inst.gap == gen.GAP_BACK))
                if shown != wanted:
                    problems.append(f"{inst.rel}: (missed, deleted) = {shown}, expected {wanted}")
        if "replays" in step and outputs_digest(out) != outputs_digest(Path(step["replays"])):
            problems.append(f"{label}: replay outputs differ from the record pass")
    seconds = sum(outcome["seconds"] for outcome in result["steps"])
    return {
        "attempted": attempted,
        "completed": completed,
        "unexpected": unexpected,
        "seconds": seconds,
        "llm_calls_per_instance": result["gateway_calls"] / attempted if attempted else 0.0,
        "completed_share": completed / attempted if attempted else 0.0,
        "report_updated": statistics.fmean(updated) if updated else 0.0,
        "report_missed_gold": statistics.fmean(missed) if missed else 0.0,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "problems": problems,
    }


def run_pass(
    index: int,
    workload: Workload,
    corpus: gen.Corpus,
    work: Path,
    server: FakeServer | None,
    trace: bool,
    timeout: float,
) -> tuple[dict, dict]:
    out = work / f"pass{index}"
    out.mkdir()
    namespace = f"pass{index}"
    endpoint = server.endpoint(namespace) if server else None
    steps = plan_steps(workload, corpus, out, endpoint)
    plan = {"trace": trace, "spans": str(work / "spans.jsonl") if trace else None, "steps": steps}
    plan_path, result_path = work / f"plan{index}.json", work / f"result{index}.json"
    plan_path.write_text(json.dumps(plan, indent=1), "utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), str(plan_path), str(result_path)],
        env=child_env(),
        cwd=ROOT,
        check=True,
        timeout=max(timeout, 1.0),
    )
    result = _load(result_path)
    expect_failed = set()
    if workload.backend == "http":
        expect_failed = {corpus.instances[POISONED_INDEX].rel}
    summary = check_pass(corpus, steps, result, expect_failed)
    if result["missing_targets"]:
        print(f"perfbench: traced functions not found: {result['missing_targets']}", file=sys.stderr)
    if server:
        stats = server.stats(namespace)
        result["fake_llm"] = stats
        if stats["requests"] != result["gateway_calls"]:
            summary["problems"].append(
                f"fake server saw {stats['requests']} requests, gateway made {result['gateway_calls']}"
            )
        if stats["faults_served"] != server.expected_faults:
            summary["problems"].append(
                f"fake server served {stats['faults_served']} faults, scheduled {server.expected_faults}"
            )
    summary["digest"] = outputs_digest(out)
    shutil.rmtree(out)
    return summary, result


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.monotonic()
    workload = WORKLOADS[workload_name]
    specs = load_metric_specs()
    work = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    corpus = gen.generate(work / "input", seed, workload.params)
    problems = []
    digest_problem = check_corpus_digest(workload.params, seed, corpus.digest)
    if digest_problem:
        problems.append(digest_problem)

    server = None
    if workload.backend == "http":
        server = FakeServer(corpus)
    passes: list[tuple[dict, dict]] = []
    references: list[float] = []
    imports: list[float] = []
    try:
        if not trace:
            # Not counted: these compile the bytecode and fill the page cache.
            time_import(REFERENCE_IMPORT)
            time_import()
        measure_start = time.monotonic()
        while True:
            if not trace:
                references.append(time_import(REFERENCE_IMPORT))
                imports.append(time_import())
            remaining = RUN_BUDGET_S - (time.monotonic() - started)
            traced_pass = trace and len(passes) == 1
            passes.append(run_pass(len(passes), workload, corpus, work, server, traced_pass, remaining))
            if trace:
                if len(passes) == 3:
                    break
                continue
            elapsed = time.monotonic() - measure_start
            last = passes[-1][0]["seconds"]
            if len(passes) >= MIN_PASSES and elapsed >= seconds:
                break
            if time.monotonic() - started + 2 * last > RUN_BUDGET_S:
                break
    finally:
        if server:
            server.stop()

    if gen.tree_digest(work / "input") != corpus.digest:
        problems.append("the run modified its input corpus")
    summaries = [summary for summary, _ in passes]
    for i, summary in enumerate(summaries):
        problems.extend(f"pass {i}: {p}" for p in summary["problems"])
    if len({s["digest"] for s in summaries}) != 1:
        problems.append("pass outputs differ between repeats" + (" (traced vs untraced)" if trace else ""))
    shutil.rmtree(work / "input")

    timed = summaries[::2] if trace else summaries
    if trace:
        (before, _), (traced, traced_result), (after, _) = passes
        untraced_s = (before["seconds"] + after["seconds"]) / 2
        values = dict(traced_result["layers"])
        values["trace_overhead_share"] = (traced["seconds"] - untraced_s) / untraced_s
        fake = traced_result.get("fake_llm", {})
        values["fake_llm.requests"] = fake.get("requests", 0)
        values["fake_llm.faults_served"] = fake.get("faults_served", 0)
        names = specs["per_layer"]
    else:
        values = {
            name: statistics.median(s[name] for s in summaries)
            for name in (
                "llm_calls_per_instance",
                "completed_share",
                "report_updated",
                "report_missed_gold",
                "peak_rss_mb",
            )
        }
        # Completed syncs over all timed seconds: with noise that comes and goes
        # within seconds, the whole timed phase estimates the rate more steadily
        # than a median of per-pass rates.
        values["instances_per_s"] = sum(s["completed"] for s in summaries) / sum(
            s["seconds"] for s in summaries
        )
        # Each cold start against the reference import timed just before it.
        values["setup_s"] = NOMINAL_REFERENCE_S * statistics.median(
            t / ref for t, ref in zip(imports, references)
        )
        names = specs["end_to_end"]
        imports_record = {
            "reference_import_s": references,
            "cli_import_s": imports,
            "setup_s_unscaled": statistics.median(imports),
        }
    missing = sorted(set(names) - set(values))
    if missing:
        raise RunError(f"metrics not produced: {missing}")
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in timed),
        "failed": sum(s["unexpected"] for s in timed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    summary = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "params": workload.params.as_dict(),
        "corpus_sha256": corpus.digest,
        "passes": [{k: v for k, v in s.items() if k != "problems"} for s in summaries],
        "problems": problems,
        "result": result,
    }
    if not trace:
        summary["imports"] = imports_record
    return result, summary


def main() -> int:
    parser = argparse.ArgumentParser(description="tablesync benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tablesync" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (needs src/tablesync and BENCHMARK.json)", file=sys.stderr)
        return 2
    try:
        result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", "utf-8")
    for problem in summary["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"corpus sha256 {summary['corpus_sha256']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around tablesync's public functions, installed from outside.

`install(recorder)` rebinds each traced function under every name a tablesync
module looks it up by: module globals (so `translate_cells` is wrapped both in
`stub` and in `error_analysis`, `evaluate_instance` in `cli`), class
attributes for methods, and keyword defaults (`evaluate_instance`'s
`align_fn`). Spans stay in memory until `write_spans`.

A span records name, start, end, parent span and instance id. Its parent is
the innermost open span of its thread, or the `cli.main` root span for work a
pool thread starts. `layer_metrics` turns the spans into per-layer numbers:
`<name>.s` sums the outermost calls of a function in each thread (a call
nested in a call of the same function adds nothing), and self time is a
span's duration minus the union of its children's intervals.

With tracing off only `Gateway.complete` is wrapped, by a call counter.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

from tablesync.alignment import RETRY_ATTEMPT_OFFSET
from tablesync.gateway import request_digest

# Stage tags the gateway sees, one counter each; reported as 0 when unused.
GATEWAY_TAGS = (
    "translate_source",
    "translate_reference",
    "table_to_kg_source",
    "table_to_kg_reference",
    "merge",
    "kg_to_table",
    "back_translate",
    "align",
    "update",
    "align_update",
    "direct",
    "direct_decompose",
    "evaluate",
)

# (module, attribute, span name): functions, rebound wherever they are bound.
FUNCTIONS = (
    ("tablesync.stub", "translate_cells", "stub.translate_cells"),
    ("tablesync.stub", "merge_graphs", "stub.merge_graphs"),
    ("tablesync.alignment", "greedy_key_matches", "alignment.greedy_key_matches"),
    ("tablesync.alignment", "align_deterministic", "alignment.align_deterministic"),
    ("tablesync.metrics", "evaluate_instance", "metrics.evaluate_instance"),
    ("tablesync.metrics", "compare_rows", "metrics.compare_rows"),
    ("tablesync.tables", "parse_table", "tables.parse_table"),
    ("tablesync.tables", "parse_kg", "tables.parse_kg"),
    ("tablesync.tables", "serialize_table", "tables.serialize_table"),
    ("tablesync.tables", "serialize_kg", "tables.serialize_kg"),
    ("tablesync.dataset", "load_instance", "dataset.load_instance"),
)

# (module, class, method, span name).
METHODS = (
    ("tablesync.gateway", "Gateway", "complete", "gateway.complete"),
    ("tablesync.stub", "StubBackend", "complete", "backend.complete"),
    ("tablesync.gateway", "HttpBackend", "complete", "backend.complete"),
    ("tablesync.gateway", "ReplayBackend", "complete", "backend.complete"),
    ("tablesync.error_analysis", "ErrorAnalyzer", "stagewise_ledger", "error_analysis.stagewise_ledger"),
    ("tablesync.pipeline", "Pipeline", "run", "pipeline.run"),
)

# Functions whose busy seconds are reported as `<name>.s`.
BUSY = (
    "stub.translate_cells",
    "stub.merge_graphs",
    "backend.complete",
    "error_analysis.stagewise_ledger",
    "alignment.greedy_key_matches",
    "alignment.align_deterministic",
    "metrics.evaluate_instance",
    "metrics.compare_rows",
    "tables.parse_table",
    "tables.parse_kg",
    "tables.serialize_table",
    "tables.serialize_kg",
    "pipeline.run",
    "dataset.load_instance",
)

ROOT = "cli.main"


def _entity(table) -> str | None:
    return getattr(table, "entity", None)


def _instance_id(name: str, args: tuple) -> str | None:
    """Entity of the instance a call works on, where its arguments name one."""
    try:
        if name == "pipeline.run":
            return _entity(args[1].source)
        if name == "error_analysis.stagewise_ledger":
            return _entity(args[1].gold)
        if name == "metrics.evaluate_instance":
            return _entity(args[0])
        if name == "dataset.load_instance":
            manifest = (Path(args[0]) / "manifest").read_text("utf-8")
            return next(
                (line.split(":", 1)[1].strip() for line in manifest.splitlines() if line.startswith("entity:")),
                None,
            )
    except (AttributeError, IndexError, TypeError, OSError):
        return None
    return None


class Recorder:
    """In-memory spans and counters for one pass."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans: list[tuple] = []  # (id, name, start, end, parent, instance, thread, outermost)
        self.counts: dict[str, float] = defaultdict(float)
        self.gateway_calls = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: tuple[int, str | None] | None = None
        self._seen_digests: set[str] = set()

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1][0], stack[-1][2]
        elif self._root is not None:
            parent, inherited = self._root
        else:
            parent, inherited = None, None
        instance = _instance_id(name, args) or inherited
        outermost = all(frame[1] != name for frame in stack)
        span_id = next(self._ids)
        stack.append((span_id, name, instance))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, instance, threading.get_ident(), outermost)
            )

    def run_root(self, fn, *args):
        """Call fn as the root span that pool-thread spans attach to."""
        if not self.trace:
            return fn(*args)
        span_id = next(self._ids)
        self._root = (span_id, None)
        stack = self._stack()
        stack.append((span_id, ROOT, None))
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append((span_id, ROOT, start, end, None, None, threading.get_ident(), True))

    # gateway bookkeeping

    def gateway_call(self, args: tuple, kwargs: dict) -> None:
        request = kwargs.get("request", args[1] if len(args) > 1 else None)
        attempt = kwargs.get("attempt", args[2] if len(args) > 2 else 0)
        if not self.trace:
            with self._lock:
                self.gateway_calls += 1
            return
        digest = request_digest(request, attempt)
        with self._lock:
            self.gateway_calls += 1
            tag = request.tag
            self.counts[f"gateway.calls.{tag}"] += 1
            if digest in self._seen_digests:
                self.counts["gateway.repeat_calls"] += 1
            self._seen_digests.add(digest)
            if attempt >= RETRY_ATTEMPT_OFFSET and tag != "evaluate":
                self.counts["pipeline.reprompts"] += 1

    # output

    def layer_metrics(self) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            span_id, name, start, end, parent, _, _, outermost = span
            if outermost:
                busy[name] += end - start
                calls[name] += 1
            if parent is not None:
                children[parent].append(span)

        def self_time(span: tuple) -> float:
            _, _, start, end, *_ = span
            covered = 0.0
            reach = start
            for _, _, c_start, c_end, *_ in sorted(children[span[0]], key=lambda s: s[2]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            return (end - start) - covered

        metrics = {f"{name}.s": busy[name] for name in BUSY}
        metrics["stub.translate_cells.calls"] = calls["stub.translate_cells"]
        metrics["metrics.compare_rows.calls"] = calls["metrics.compare_rows"]
        for name in (
            "stub.translate_cells.cell_entries",
            "alignment.pairs_scored",
            "metrics.flagged_rows",
            "tables.parsed_bytes",
            "pipeline.reprompts",
        ):
            metrics[name] = self.counts[name]
        metrics["gateway.calls"] = self.gateway_calls
        for tag in GATEWAY_TAGS:
            metrics[f"gateway.calls.{tag}"] = self.counts[f"gateway.calls.{tag}"]
        metrics["gateway.repeat_digest_share"] = (
            self.counts["gateway.repeat_calls"] / self.gateway_calls if self.gateway_calls else 0.0
        )
        wall = busy[ROOT]
        metrics["gateway.in_flight_mean"] = busy["backend.complete"] / wall if wall else 0.0
        metrics["gateway.overhead_s"] = sum(
            self_time(s) for s in self.spans if s[1] == "gateway.complete"
        )
        metrics["cli.self_s"] = sum(self_time(s) for s in self.spans if s[1] == ROOT)
        return metrics

    def write_spans(self, path: str | Path) -> None:
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, instance, thread, _ in sorted(self.spans):
                record = {
                    "id": span_id,
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent,
                    "instance": instance,
                    "thread": thread,
                }
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")


# argument counters, called before the wrapped function runs


def _count_cells(recorder: Recorder, args: tuple, kwargs: dict) -> None:
    rows = kwargs.get("rows", args[0] if args else ())
    pairs = kwargs.get("pairs", args[1] if len(args) > 1 else ())
    recorder.add("stub.translate_cells.cell_entries", 2 * len(rows) * len(pairs))


def _count_pairs(recorder: Recorder, args: tuple, kwargs: dict) -> None:
    left = kwargs.get("left_keys", args[0] if args else ())
    right = kwargs.get("right_keys", args[1] if len(args) > 1 else ())
    recorder.add("alignment.pairs_scored", len(dict.fromkeys(left)) * len(dict.fromkeys(right)))


def _count_parsed(recorder: Recorder, args: tuple, kwargs: dict) -> None:
    text = kwargs.get("text", args[0] if args else "")
    recorder.add("tables.parsed_bytes", len(text.encode("utf-8")))


ARGUMENT_COUNTERS = {
    "gateway.complete": Recorder.gateway_call,
    "stub.translate_cells": _count_cells,
    "alignment.greedy_key_matches": _count_pairs,
    "tables.parse_table": _count_parsed,
    "tables.parse_kg": _count_parsed,
}


def _traced(recorder: Recorder, name: str, fn):
    before = ARGUMENT_COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(recorder, args, kwargs)
        result = recorder.call(name, fn, args, kwargs)
        if name == "metrics.evaluate_instance":
            recorder.add("metrics.flagged_rows", len(getattr(result, "flagged", ())))
        return result

    return traced


def _counting(recorder: Recorder, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        recorder.gateway_call(args, kwargs)
        return fn(*args, **kwargs)

    return counted


def _tablesync_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "tablesync" or name.startswith("tablesync."))
    ]


def _rebind_everywhere(original, wrapper) -> None:
    """Replace original by wrapper in every tablesync module global and in
    every keyword or positional default of a tablesync function."""
    for module in _tablesync_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
        functions = [v for v in vars(module).values() if isinstance(v, types.FunctionType)]
        for cls in (v for v in vars(module).values() if isinstance(v, type)):
            functions.extend(v for v in vars(cls).values() if isinstance(v, types.FunctionType))
        for function in map(inspect.unwrap, functions):
            if function.__kwdefaults__ and original in function.__kwdefaults__.values():
                function.__kwdefaults__ = {
                    k: (wrapper if v is original else v) for k, v in function.__kwdefaults__.items()
                }
            if function.__defaults__ and any(v is original for v in function.__defaults__):
                function.__defaults__ = tuple(
                    wrapper if v is original else v for v in function.__defaults__
                )


def install(recorder: Recorder) -> list[str]:
    """Wrap the traced functions (or only the gateway counter when tracing is
    off); returns the targets that no longer exist, so a renamed layer is
    reported instead of silently measuring zero."""
    missing: list[str] = []
    for module_name, cls_name, attr, name in METHODS:
        if not recorder.trace and name != "gateway.complete":
            continue
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        method = vars(cls).get(attr) if cls is not None else None
        if method is None:
            missing.append(f"{module_name}.{cls_name}.{attr}")
            continue
        wrapper = _traced(recorder, name, method) if recorder.trace else _counting(recorder, method)
        setattr(cls, attr, wrapper)
    if not recorder.trace:
        return missing
    for module_name, attr, name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        _rebind_everywhere(original, _traced(recorder, name, original))
    return missing

"""Command-line workflow: sync, eval, align, errors, stats, fetch, transcripts.

Exit codes are a stable contract: 0 success, 1 partial failure, 2 bad
configuration or usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import dataset, gateway as gw
from .alignment import (
    align_deterministic,
    alignment_from_doc,
    alignment_to_doc,
    multi_vote_align,
    score_alignment,
)
from .error_analysis import ErrorAnalyzer, ledger_jsonable, render_ledger
from .errors import ConfigError, ParseError, StageFailed, TableSyncError
from .metrics import UpdateReport, aggregate_reports, evaluate_instance, report_jsonable
from .pipeline import Pipeline, Strategy, traces_from_jsonable, traces_jsonable
from .stub import StubBackend, StubRuleSet
from .tables import DEFAULT_PIVOT, LANGUAGE_NAMES, InfoTable, parse_table, serialize_table
from .wiki import MediaWikiClient

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

# Settings taken only from flags, never from a config file.
_FLAG_ONLY = ("record",)


@dataclass
class RunConfig:
    """Resolved run settings; precedence is flags > environment > config file."""

    strategy: str = "hierarchical"
    backend: str = "stub"
    model: str = "stub-model"
    models: tuple[str, ...] = ()
    eval_models: tuple[str, ...] = ()
    rounds: int = 1
    pivot: str = DEFAULT_PIVOT
    concurrency: int = 4
    corpus: str = ""
    out: str = ""
    lexicons: str = ""
    transcripts: str = ""
    record: bool = False
    endpoint: str = ""
    api_key: str = ""

    def snapshot_lines(self) -> list[str]:
        values = {f.name: _render(getattr(self, f.name)) for f in fields(self)}
        if self.api_key:
            values["api_key"] = "***"
        return [f"{key} = {values[key]}" for key in sorted(values)]


def _render(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _parse(name: str, text: str, default: object) -> object:
    """Convert a flag, environment or config-file string to the field's type."""
    if isinstance(default, tuple):
        return tuple(part.strip() for part in text.split(",") if part.strip())
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {text!r}") from None
    return text


def _registered_language(code: str, flag: str) -> str:
    if code not in LANGUAGE_NAMES:
        known = ", ".join(sorted(LANGUAGE_NAMES))
        raise ConfigError(f"{flag} {code!r} is not a registered language code ({known})")
    return code


def _read_json(path: str, what: str, decode):
    """decode() the JSON document at path; an unreadable or malformed file is a
    ConfigError naming it."""
    try:
        return decode(json.loads(Path(path).read_text("utf-8")))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, LookupError, TypeError, AttributeError, TableSyncError) as exc:
        raise ConfigError(f"malformed {what} file {path}: {exc!r}") from exc


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"malformed config line: {line!r}")
        values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The settings the command reads, merged and checked.

    A command reads the RunConfig fields its parser declares as flags; the
    others keep their defaults, which pass every check. A flag left out falls
    back to its SYNC_LLM_* environment variable (its default), then to the
    optional config file. A config-file key that is not a setting is an error;
    one the command does not read is ignored.
    """
    file_values = _read_config_file(args.config) if args.config else {}
    settable = {f.name for f in fields(RunConfig)} - set(_FLAG_ONLY)
    for key in file_values:
        if key not in settable:
            raise ConfigError(f"unknown config key {key!r}")

    values: dict[str, object] = {}
    for f in fields(RunConfig):
        if not hasattr(args, f.name):
            continue
        flag = getattr(args, f.name)
        if f.name in _FLAG_ONLY:
            values[f.name] = bool(flag)
        elif flag not in (None, ""):
            values[f.name] = _parse(f.name, str(flag), f.default)
        elif f.name in file_values:
            values[f.name] = _parse(f.name, file_values[f.name], f.default)
    config = RunConfig(**values)

    if not config.eval_models:
        config.eval_models = (config.model,)
    if config.rounds < 1:
        raise ConfigError("rounds must be >= 1")
    if config.concurrency < 1:
        raise ConfigError("concurrency must be >= 1")
    _registered_language(config.pivot, "pivot")
    if config.backend not in ("stub", "http", "replay"):
        raise ConfigError(f"unknown backend {config.backend!r}")
    if config.record and not config.transcripts:
        raise ConfigError("--record requires --transcripts")
    if config.transcripts and not config.record and config.backend != "replay":
        raise ConfigError(f"transcripts {config.transcripts!r} is read only by --record or the replay backend")
    if config.record:
        gw.Transcript(config.transcripts).check_appendable()
    if config.backend == "replay":
        if config.record:
            raise ConfigError("--record cannot be combined with the replay backend")
        if not config.transcripts:
            raise ConfigError("replay backend requires --transcripts")
        if not Path(config.transcripts).is_file():
            raise ConfigError(f"transcript file not found: {config.transcripts}")
    if config.backend == "http" and not config.endpoint:
        raise ConfigError("http backend requires --endpoint or SYNC_LLM_ENDPOINT")
    return config


def load_rules(config: RunConfig) -> StubRuleSet:
    if config.lexicons:
        if not Path(config.lexicons).is_dir():
            raise ConfigError(f"lexicon directory not found: {config.lexicons}")
        return StubRuleSet.from_dir(config.lexicons)
    return StubRuleSet()


def build_gateway(config: RunConfig) -> gw.Gateway:
    transcript = gw.Transcript(config.transcripts) if config.transcripts else None
    if config.backend == "stub":
        backend = StubBackend(load_rules(config))
    elif config.backend == "replay":
        backend = gw.ReplayBackend(transcript)
    else:
        backend = gw.HttpBackend(config.endpoint, config.api_key)
    return gw.Gateway(
        backend, transcript=transcript if config.record else None, concurrency=config.concurrency
    )


def _write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n", "utf-8")


def _write_snapshot(out_dir: Path, config: RunConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.snapshot").write_text("\n".join(config.snapshot_lines()) + "\n", "utf-8")


def _require_corpus(corpus: str) -> None:
    if not corpus or not Path(corpus).is_dir():
        raise ConfigError(f"corpus directory not found: {corpus!r}")


def _select_instances(corpus: str, selector: str | None) -> list[Path]:
    _require_corpus(corpus)
    dirs = dataset.iter_instance_dirs(corpus)
    if selector:
        dirs = [d for d in dirs if selector in str(d.relative_to(corpus))]
    if not dirs:
        raise ConfigError("no instances matched")
    return dirs


def _evaluate_and_write(
    out_dir: Path,
    instance,
    output: InfoTable,
    config: RunConfig,
    gateway: gw.Gateway,
) -> UpdateReport:
    evaluation = evaluate_instance(
        instance.source,
        output,
        instance.gold,
        gateway=gateway,
        evaluator_models=config.eval_models,
    )
    payload = {
        "entity": instance.source.entity,
        "category": instance.source.category,
        "languages": {
            "source": instance.source.language,
            "reference": instance.reference.language,
        },
        "ensemble": report_jsonable(evaluation.ensemble),
        "per_model": {m: report_jsonable(r) for m, r in evaluation.per_model.items()},
        "flagged_rows": [list(item) for item in evaluation.flagged],
    }
    _write_json(out_dir / "report.json", payload)
    return evaluation.ensemble


def _run_instances(config: RunConfig, instance_dirs: list[Path], gateway: gw.Gateway, produce) -> int:
    """Run each instance through `gateway.map`: load it, take its output table
    from `produce(instance, rel)`, evaluate it.

    A TableSyncError fails only its own instance. It writes that instance's
    failure.json, whose stage is the failed pipeline stage (partial traces go
    to traces.json), "load" or "evaluate". Each instance prints its `ok` or
    `FAIL` line as it ends, in one write.
    """
    out_root = Path(config.out)

    def run_one(directory: Path) -> UpdateReport | None:
        rel = directory.relative_to(config.corpus)
        stage = "load"
        try:
            instance = dataset.load_instance(directory)
            output = produce(instance, rel)
            stage = "evaluate"
            report = _evaluate_and_write(out_root / rel, instance, output, config, gateway)
            sys.stdout.write(f"ok {rel}\n")
            return report
        except StageFailed as exc:
            _write_json(out_root / rel / "traces.json", traces_jsonable(exc.traces))
            failure = exc
        except TableSyncError as exc:
            failure = StageFailed(stage, exc)
        _write_json(out_root / rel / "failure.json", {"stage": failure.stage, "error": str(failure)})
        sys.stderr.write(f"FAIL {rel}: {failure}\n")
        return None

    reports = [report for report in gateway.map(run_one, instance_dirs) if report is not None]
    _write_json(out_root / "report.json", aggregate_reports(reports))
    _write_snapshot(out_root, config)
    return EXIT_OK if len(reports) == len(instance_dirs) else EXIT_PARTIAL


def cmd_sync(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if not config.out:
        raise ConfigError("sync requires --out")
    try:
        strategy = Strategy(config.strategy)
    except ValueError:
        raise ConfigError(f"unknown strategy {config.strategy!r}") from None
    instance_dirs = _select_instances(config.corpus, args.instance)
    with build_gateway(config) as gateway:
        pipeline = Pipeline(gateway, config.model, pivot=config.pivot)

        def synced(instance, rel: Path) -> InfoTable:
            result = pipeline.run(instance, strategy)
            out_dir = Path(config.out) / rel
            _write_json(out_dir / "traces.json", traces_jsonable(result.traces))
            (out_dir / f"output.{result.output.language}.table").write_text(
                serialize_table(result.output) + "\n", "utf-8"
            )
            return result.output

        return _run_instances(config, instance_dirs, gateway, synced)


def cmd_eval(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if not args.outputs:
        raise ConfigError("eval requires --outputs")
    if not config.out:
        raise ConfigError("eval requires --out")
    instance_dirs = _select_instances(config.corpus, args.instance)

    def stored(instance, rel: Path) -> InfoTable:
        table_path = Path(args.outputs) / rel / f"output.{instance.source.language}.table"
        try:
            rows = parse_table(table_path.read_text("utf-8"))
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot read output table {table_path}: {exc}") from exc
        return instance.source.with_rows(rows)

    with build_gateway(config) as gateway:
        return _run_instances(config, instance_dirs, gateway, stored)


def _table_from_file(path: str, language: str, name: str) -> InfoTable:
    try:
        rows = parse_table(Path(path).read_text("utf-8"))
    except (OSError, ValueError, TableSyncError) as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    return InfoTable(name, language, "Uncategorized", rows)


def cmd_align(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    language = _registered_language(args.language, "language")
    left = _table_from_file(args.left, language, "left")
    right = _table_from_file(args.right, language, "right")
    gold = _read_json(args.gold_alignment, "gold alignment", alignment_from_doc) if args.gold_alignment else None
    if config.models:
        with build_gateway(config) as gateway:
            alignment = multi_vote_align(left, right, config.models, config.rounds, gateway)
    else:
        alignment = align_deterministic(left, right)
    doc = alignment_to_doc(alignment)
    if args.out_file:
        _write_json(Path(args.out_file), doc)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False))
    if gold is not None:
        score = score_alignment(alignment, gold)
        print(f"precision={score.precision:.4f} recall={score.recall:.4f} f1={score.f1:.4f}")
    return EXIT_OK


def cmd_errors(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if not (Path(args.instance_dir) / dataset.MANIFEST_NAME).is_file():
        raise ConfigError(f"not an instance directory (no {dataset.MANIFEST_NAME}): {args.instance_dir}")
    instance = dataset.load_instance(args.instance_dir)
    traces = _read_json(args.traces, "traces", traces_from_jsonable)
    analyzer = ErrorAnalyzer(load_rules(config), pivot=config.pivot)
    try:
        ledger = analyzer.stagewise_ledger(instance, traces)
    except ConfigError as exc:
        raise ConfigError(f"{args.traces}: {exc}") from exc
    print(render_ledger(ledger))
    if args.out_file:
        _write_json(Path(args.out_file), ledger_jsonable(ledger))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    _require_corpus(args.corpus)
    stats = dataset.corpus_stats(args.corpus)
    payload = {
        "instances": stats.instance_count,
        "by_language": dict(sorted(stats.tables_by_language.items())),
        "by_category": dict(sorted(stats.tables_by_category.items())),
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))
    else:
        print(f"instances: {stats.instance_count}")
        for name, counts in (("language", payload["by_language"]), ("category", payload["by_category"])):
            print(f"by {name}:")
            for key, value in counts.items():
                print(f"  {key}: {value}")
    return EXIT_OK


def cmd_fetch(args: argparse.Namespace) -> int:
    _registered_language(args.lang, "lang")
    if not args.category.strip():
        raise ConfigError("category is empty")
    try:
        args.api_template.format(lang=args.lang)
    except (LookupError, ValueError, AttributeError) as exc:  # another placeholder, or a stray brace
        raise ConfigError(f"--api-template {args.api_template!r} is not a template over {{lang}}: {exc!r}") from None
    client = MediaWikiClient(api_template=args.api_template)
    table = client.fetch_revision(args.title, args.lang, args.as_of, category=args.category)
    text = serialize_table(table) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, "utf-8")
        print(f"wrote {len(table.rows)} rows ({table.revision_tag}) to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_transcripts(args: argparse.Namespace) -> int:
    transcript = gw.Transcript(args.file)
    if args.digest:
        # The response replay serves: the last one recorded under the digest.
        responses = transcript.responses()
        matches = [digest for digest in responses if digest.startswith(args.digest)]
        if not matches:
            raise ConfigError(f"digest {args.digest!r} not in transcript")
        if len(matches) > 1:
            raise ConfigError(f"digest prefix {args.digest!r} matches {len(matches)} digests")
        print(responses[matches[0]])
        return EXIT_OK
    records = list(transcript.records())
    for record in records:
        tag = record.get("request", {}).get("tag", "")
        print(f"{record['digest']}  tag={tag}  latency_ms={record.get('latency_ms', '?')}")
    print(f"{len(records)} records")
    return EXIT_OK


def _add_setting_flags(
    parser: argparse.ArgumentParser, *, backend=False, models=False, pivot=False, votes=False
) -> None:
    """Declare the flags of the settings parser's command reads: resolve_config
    reads exactly the RunConfig fields these flags set. A flag's default is
    its environment variable, if it has one."""
    add = parser.add_argument
    add("--config", help="flat key=value config file")
    add("--lexicons", help="stub lexicon directory")
    if backend:
        add("--backend", choices=["stub", "http", "replay"])
        add("--concurrency", type=int, help="completions in flight (>= 1); instances and calls share 2N-1 threads")
        add("--transcripts", help="transcript file for --record or the replay backend")
        add("--record", action="store_true", help="append completions to the --transcripts file")
        add("--endpoint", default=os.environ.get("SYNC_LLM_ENDPOINT"), help="http backend endpoint URL")
        add("--api-key", default=os.environ.get("SYNC_LLM_API_KEY"), help="http backend API key")
    if models:
        add("--model", default=os.environ.get("SYNC_LLM_MODEL"), help="pipeline model id")
        add("--eval-models", help="comma-separated evaluator model ids")
    if pivot:
        add("--pivot", help="pivot language code (default en)")
    if votes:
        add("--models", help="comma-separated alignment voter model ids")
        add("--rounds", type=int, help="voting rounds per model")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tablesync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sync = sub.add_parser("sync", help="run a synchronization strategy over a corpus")
    p_sync.add_argument("--corpus", help="corpus root directory")
    p_sync.add_argument("--out", help="output directory for tables, traces, reports")
    p_sync.add_argument("--strategy", choices=[s.value for s in Strategy])
    p_sync.add_argument("--instance", help="substring selector over instance paths")
    _add_setting_flags(p_sync, backend=True, models=True, pivot=True)
    p_sync.set_defaults(func=cmd_sync)

    p_eval = sub.add_parser("eval", help="evaluate existing output tables against gold")
    p_eval.add_argument("--corpus", help="corpus root directory")
    p_eval.add_argument("--outputs", help="directory holding output tables from sync")
    p_eval.add_argument("--out", help="report output directory")
    p_eval.add_argument("--instance", help="substring selector over instance paths")
    _add_setting_flags(p_eval, backend=True, models=True)
    p_eval.set_defaults(func=cmd_eval)

    # No abbreviations, so that `--model` is not taken for `--models`.
    p_align = sub.add_parser("align", help="align two table files", allow_abbrev=False)
    p_align.add_argument("--left", required=True)
    p_align.add_argument("--right", required=True)
    p_align.add_argument("--language", default=DEFAULT_PIVOT)
    p_align.add_argument("--out", dest="out_file", help="write the alignment document here")
    p_align.add_argument("--gold-alignment", dest="gold_alignment", help="score against this alignment doc")
    _add_setting_flags(p_align, backend=True, votes=True)
    p_align.set_defaults(func=cmd_align)

    p_errors = sub.add_parser("errors", help="stage-wise error ledger from run traces")
    p_errors.add_argument("--instance-dir", dest="instance_dir", required=True)
    p_errors.add_argument("--traces", required=True)
    p_errors.add_argument("--out", dest="out_file", help="write the ledger JSON here")
    _add_setting_flags(p_errors, pivot=True)
    p_errors.set_defaults(func=cmd_errors)

    p_stats = sub.add_parser("stats", help="corpus statistics")
    p_stats.add_argument("--corpus", required=True)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=cmd_stats)

    p_fetch = sub.add_parser("fetch", help="fetch an infobox revision from a wiki")
    p_fetch.add_argument("--title", required=True)
    p_fetch.add_argument("--lang", required=True)
    p_fetch.add_argument("--as-of", dest="as_of", required=True, help="ISO timestamp upper bound")
    p_fetch.add_argument("--category", default="Uncategorized")
    p_fetch.add_argument("--api-template", dest="api_template", default="https://{lang}.wikipedia.org/w/api.php")
    p_fetch.add_argument("--out", help="write the table file here")
    p_fetch.set_defaults(func=cmd_fetch)

    p_tr = sub.add_parser("transcripts", help="inspect a transcript file")
    p_tr.add_argument("file")
    p_tr.add_argument("--digest", help="print the response replay serves for this digest prefix")
    p_tr.set_defaults(func=cmd_transcripts)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TableSyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())

import errno
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tablesync import cli, dataset, gateway as gw, prompts, wiki
from tablesync.alignment import align_deterministic, alignment_to_doc
from tablesync.errors import BackendUnavailable, ConfigError
from tablesync.error_analysis import ErrorAnalyzer, ledger_jsonable
from tablesync.pipeline import Pipeline, Strategy, traces_jsonable
from tablesync.stub import StubBackend, StubRuleSet
from tablesync.tables import InfoTable, TableRow, parse_table
from conftest import FaultBackend, output_files


def run_cli(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture()
def corpus(corpus_dir) -> str:
    return str(corpus_dir)


@pytest.fixture()
def lexicons(lexicon_dir) -> str:
    return str(lexicon_dir)


class TestSync:
    def test_stub_end_to_end(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(out),
            "--strategy", "hierarchical",
            "--backend", "stub",
            "--lexicons", lexicons,
            "--instance", "musterstadt",
        )
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["instances"] == 1
        assert report["missed_gold"]["value"] == 0.0
        instance_out = out / "City" / "musterstadt"
        assert (instance_out / "output.de.table").is_file()
        assert (instance_out / "traces.json").is_file()
        assert (instance_out / "report.json").is_file()
        assert (out / "config.snapshot").is_file()
        snapshot = (out / "config.snapshot").read_text()
        assert "strategy = hierarchical" in snapshot

    def test_unknown_strategy_is_usage_error(self, corpus, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sync", "--corpus", corpus, "--out", str(tmp_path), "--strategy", "bogus")
        assert excinfo.value.code == cli.EXIT_CONFIG

    def test_replay_without_transcript_is_config_error(self, corpus, tmp_path):
        code = run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(tmp_path / "x"),
            "--backend", "replay",
        )
        assert code == cli.EXIT_CONFIG

    def test_missing_corpus_is_config_error(self, tmp_path):
        code = run_cli("sync", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_CONFIG

    def test_config_file_precedence(self, corpus, lexicons, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(f"strategy = direct\nlexicons = {lexicons}\n")
        out = tmp_path / "out"
        code = run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(out),
            "--config", str(config),
            "--instance", "musterstadt",
        )
        assert code == cli.EXIT_OK
        assert "strategy = direct" in (out / "config.snapshot").read_text()

    def test_flag_overrides_config_file(self, corpus, lexicons, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("strategy = direct\n")
        out = tmp_path / "out"
        run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(out),
            "--config", str(config),
            "--strategy", "hierarchical",
            "--lexicons", lexicons,
            "--instance", "musterstadt",
        )
        assert "strategy = hierarchical" in (out / "config.snapshot").read_text()

    def test_concurrency_bounds_calls_in_flight(self, corpus, lexicons, tmp_path, monkeypatch):
        lock = threading.Lock()
        in_flight = peak = 0
        callers = set()
        complete = StubBackend.complete

        def counted(self, request, attempt):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
                callers.add(threading.current_thread().name)
            try:
                time.sleep(0.002)
                return complete(self, request, attempt)
            finally:
                with lock:
                    in_flight -= 1

        monkeypatch.setattr(StubBackend, "complete", counted)
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "o"),
            "--lexicons", lexicons, "--concurrency", "2",
        )
        assert code == cli.EXIT_OK
        assert peak == 2  # the gateway overlaps calls, never beyond the bound
        # Every call runs on the calling thread or a gateway helper: one pool.
        main = threading.main_thread().name
        assert callers and all(name == main or name.startswith("tablesync-gateway") for name in callers)


def patch_stub(monkeypatch, around):
    """Route every StubBackend completion through around(complete, request, attempt)."""
    complete = StubBackend.complete
    monkeypatch.setattr(StubBackend, "complete", lambda self, request, attempt: around(
        lambda: complete(self, request, attempt), request
    ))


class TestOverlap:
    """Independent completions of one instance overlap under the --concurrency bound."""

    def test_concurrency_one_runs_every_call_on_one_thread(self, corpus, lexicons, tmp_path, monkeypatch):
        callers, names = set(), set()

        def recorded(complete, request):
            callers.add(threading.current_thread())
            names.update(thread.name for thread in threading.enumerate())
            return complete()

        patch_stub(monkeypatch, recorded)
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "o"),
            "--lexicons", lexicons, "--concurrency", "1", "--instance", "City",
        )
        assert code == cli.EXIT_OK
        assert callers == {threading.main_thread()}
        assert not [name for name in names if name.startswith("tablesync-gateway")]

    def test_one_hierarchical_instance_takes_six_rounds(self, corpus, lexicons, tmp_path, monkeypatch):
        def slow(complete, request):
            time.sleep(0.1)
            return complete()

        patch_stub(monkeypatch, slow)
        started = time.perf_counter()
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "o"), "--lexicons", lexicons,
            "--strategy", "hierarchical", "--concurrency", "8", "--instance", "musterstadt",
        )
        elapsed = time.perf_counter() - started
        assert code == cli.EXIT_OK
        # Translation, the two graph extractions, merge, graph-to-table,
        # back-translation, then both row-comparison prompts at once: 6 rounds
        # of 100 ms. The 8 calls one after another take 0.8 s.
        assert elapsed < 0.7
        # No instance worker or gateway helper outlives the command.
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith(("ThreadPoolExecutor", "tablesync-gateway"))]

    @pytest.mark.parametrize(
        "strategy, rounds", [("hierarchical", 6), ("two", 3), ("direct", 2), ("joint", 2), ("decompose", 2)]
    )
    def test_serial_rounds_per_strategy(self, corpus, lexicons, tmp_path, monkeypatch, strategy, rounds):
        # One instance with every call taking 100 ms and enough slots for all
        # of a round's calls: the wall time, evaluation included, counts the
        # calls that must run one after another.
        def slow(request, attempt, answer):
            time.sleep(0.1)
            return answer

        monkeypatch.setattr(cli, "StubBackend", lambda rules: FaultBackend(rules, {"*": slow}))
        started = time.perf_counter()
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "o"), "--lexicons", lexicons,
            "--strategy", strategy, "--concurrency", "8", "--instance", "musterstadt",
        )
        wall = time.perf_counter() - started
        assert code == cli.EXIT_OK
        assert round(wall / 0.1) == rounds, f"{wall:.3f} s"


class TestFailureIsolation:
    """A failing instance writes its own failure.json; the other nine complete."""

    def failure(self, out: Path, rel: str) -> dict:
        return json.loads((out / rel / "failure.json").read_text())

    def assert_nine_reported(self, out: Path, capsys) -> None:
        assert json.loads((out / "report.json").read_text())["instances"] == 9
        assert sorted(p.parent for p in out.rglob("failure.json")) == [out / "City" / "musterstadt"]
        assert capsys.readouterr().out.count("ok ") == 9

    def test_evaluation_backend_error(self, corpus, lexicons, tmp_path, monkeypatch, capsys):
        complete = StubBackend.complete

        def failing(self, request, attempt):
            if request.tag == "evaluate" and "Eva Neu" in request.prompt:  # a musterstadt gold value
                raise BackendUnavailable("HTTP 503")
            return complete(self, request, attempt)

        monkeypatch.setattr(StubBackend, "complete", failing)
        out = tmp_path / "out"
        assert run_cli("sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons) == cli.EXIT_PARTIAL
        assert self.failure(out, "City/musterstadt") == {
            "stage": "evaluate", "error": "stage 'evaluate' failed: HTTP 503"
        }
        assert (out / "City" / "musterstadt" / "output.de.table").is_file()
        assert (out / "City" / "musterstadt" / "traces.json").is_file()
        self.assert_nine_reported(out, capsys)

    def test_fact_in_two_lists_fails_only_its_instance(self, corpus_dir, lexicons, tmp_path, capsys):
        # With " <> " in a cell the stub judge writes the consistent fact
        # "Motto: a <> c" and the contradiction a <> c as one text.
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        for name, value in (("source.de.table", "a <> c, a"), ("gold.de.table", "a <> c, c")):
            path = corpus / "City" / "musterstadt" / name
            text = path.read_text("utf-8")
            end = text.rindex("]")
            path.write_text(f'{text[:end].rstrip()},\n    ["Motto","{value}"]\n{text[end:]}', "utf-8")
        out = tmp_path / "out"
        assert run_cli("sync", "--corpus", str(corpus), "--out", str(out), "--lexicons", lexicons) == cli.EXIT_PARTIAL
        failure = self.failure(out, "City/musterstadt")
        assert failure["stage"] == "evaluate" and "'Motto: a <> c' is in two" in failure["error"]
        self.assert_nine_reported(out, capsys)

    @pytest.mark.parametrize("concurrency", ["1", "4"])
    def test_evaluation_error_is_the_first_in_plan_order(
        self, corpus, lexicons, tmp_path, monkeypatch, concurrency
    ):
        # Gold keys in plan order: Bürgermeister (source "Hans Alt") before
        # Einwohner (source "210000"). The later comparison fails first.
        def failing(complete, request):
            if "Hans Alt" in request.prompt and request.tag == "evaluate":
                time.sleep(0.1)
                raise BackendUnavailable("HTTP 503")
            if "210000" in request.prompt and request.tag == "evaluate":
                raise BackendUnavailable("HTTP 502")
            return complete()

        patch_stub(monkeypatch, failing)
        out = tmp_path / "out"
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons,
            "--concurrency", concurrency, "--instance", "musterstadt",
        )
        assert code == cli.EXIT_PARTIAL
        assert self.failure(out, "City/musterstadt") == {
            "stage": "evaluate", "error": "stage 'evaluate' failed: HTTP 503"
        }

    @pytest.mark.parametrize("failing_stage", ["translate_source", "translate_reference"])
    def test_failure_is_the_first_failing_stage_in_recipe_order(
        self, corpus, lexicons, rules, tmp_path, monkeypatch, failing_stage
    ):
        # colegio-mayor translates both tables (es and fr, pivot en); the
        # other translation finishes after the failure.
        def failing(complete, request):
            if request.tag == failing_stage:
                raise BackendUnavailable("HTTP 503")
            time.sleep(0.1)
            return complete()

        patch_stub(monkeypatch, failing)
        out = tmp_path / "out"
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons,
            "--concurrency", "4", "--instance", "colegio-mayor",
        )
        monkeypatch.undo()
        assert code == cli.EXIT_PARTIAL
        rel = "College/colegio-mayor"
        assert self.failure(out, rel) == {
            "stage": failing_stage, "error": f"stage '{failing_stage}' failed: HTTP 503"
        }
        # The traces of the stages before the failing one, as a serial run writes them.
        expected = []
        if failing_stage == "translate_reference":
            source = dataset.load_instance(Path(corpus) / rel).source
            pipeline = Pipeline(gw.Gateway(StubBackend(rules)), "stub-model")
            expected.append(pipeline.translate_table(source, "en", stage="translate_source")[1])
        assert (out / rel / "traces.json").read_bytes() == cli._json(traces_jsonable(expected)).encode("utf-8")

    @pytest.mark.parametrize(
        "name, content",
        [("source.de.table", b'[["Name", '), ("manifest", b"\xff\xfe not utf-8")],
        ids=["truncated-table", "undecodable-manifest"],
    )
    def test_corrupt_corpus_file(self, corpus_dir, lexicons, tmp_path, capsys, name, content):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        (corpus / "City" / "musterstadt" / name).write_bytes(content)
        out = tmp_path / "out"
        assert run_cli("sync", "--corpus", str(corpus), "--out", str(out), "--lexicons", lexicons) == cli.EXIT_PARTIAL
        failure = self.failure(out, "City/musterstadt")
        assert failure["stage"] == "load" and name in failure["error"]
        self.assert_nine_reported(out, capsys)

    def test_unreadable_table(self, corpus, lexicons, tmp_path, monkeypatch, capsys):
        read_text = Path.read_text
        unreadable = Path(corpus) / "City" / "musterstadt" / "source.de.table"

        def denied(self, *args, **kwargs):
            if self == unreadable:
                raise PermissionError(13, "Permission denied", str(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
        out = tmp_path / "out"
        assert run_cli("sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons) == cli.EXIT_PARTIAL
        failure = self.failure(out, "City/musterstadt")
        assert failure["stage"] == "load" and "source.de.table" in failure["error"]
        self.assert_nine_reported(out, capsys)

    def test_completed_rerun_deletes_the_stale_failure(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        stale = out / "City" / "musterstadt" / "failure.json"
        stale.parent.mkdir(parents=True)
        stale.write_text('{"stage": "merge", "error": "from an earlier run"}\n', "utf-8")
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons, "--instance", "musterstadt"
        )
        assert code == cli.EXIT_OK
        assert not stale.exists()
        assert (stale.parent / "report.json").is_file()

    @pytest.mark.parametrize("failing_stage", ["load", "translate_source"])
    def test_failed_rerun_deletes_the_stale_outputs(
        self, corpus_dir, lexicons, tmp_path, monkeypatch, capsys, failing_stage
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        if failing_stage == "load":
            (corpus / "City" / "musterstadt" / "source.de.table").write_text('[["Name", ', "utf-8")
        else:
            def failing(complete, request):
                if request.tag == failing_stage:
                    raise BackendUnavailable("HTTP 503")
                return complete()

            patch_stub(monkeypatch, failing)
        out = tmp_path / "out"
        instance_out = out / "City" / "musterstadt"
        instance_out.mkdir(parents=True)
        for name in ("report.json", "output.de.table", "traces.json"):
            (instance_out / name).write_text("from an earlier run\n", "utf-8")
        code = run_cli(
            "sync", "--corpus", str(corpus), "--out", str(out), "--lexicons", lexicons,
            "--instance", "musterstadt",
        )
        assert code == cli.EXIT_PARTIAL
        assert self.failure(out, "City/musterstadt")["stage"] == failing_stage
        assert not (instance_out / "report.json").exists()
        assert not (instance_out / "output.de.table").exists()
        # A failed pipeline stage writes the traces of the stages before it.
        traces = instance_out / "traces.json"
        assert traces.exists() == (failing_stage != "load")
        if traces.exists():
            assert json.loads(traces.read_text()) == []

    @pytest.mark.parametrize("command, concurrency", [("sync", "1"), ("sync", "4"), ("eval", "1")])
    def test_interrupted_rerun_leaves_no_run_report(
        self, corpus, lexicons, tmp_path, monkeypatch, capsys, command, concurrency
    ):
        synced, out = tmp_path / "synced", tmp_path / "out"
        argv = {
            "sync": ["sync", "--corpus", corpus],
            "eval": ["eval", "--corpus", corpus, "--outputs", str(synced)],
        }[command] + ["--out", str(out), "--lexicons", lexicons, "--concurrency", concurrency]
        assert run_cli("sync", "--corpus", corpus, "--out", str(synced), "--lexicons", lexicons) == cli.EXIT_OK
        assert run_cli(*argv) == cli.EXIT_OK
        assert (out / "report.json").is_file() and (out / "config.snapshot").is_file()
        calls, lock = [], threading.Lock()

        def interrupted(complete, request):
            with lock:
                calls.append(request)
                third = len(calls) == 3
            if third:
                raise KeyboardInterrupt
            return complete()

        patch_stub(monkeypatch, interrupted)
        capsys.readouterr()
        assert run_cli(*argv) == cli.EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"
        assert not (out / "report.json").exists() and not (out / "config.snapshot").exists()
        # The gateway closed before main returned: no helper outlives it.
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith(("ThreadPoolExecutor", "tablesync-gateway"))]

    def test_eval_unparseable_output(self, corpus, lexicons, tmp_path, capsys):
        synced = tmp_path / "sync"
        assert run_cli("sync", "--corpus", corpus, "--out", str(synced), "--lexicons", lexicons) == cli.EXIT_OK
        (synced / "City" / "musterstadt" / "output.de.table").write_text("no table here", "utf-8")
        capsys.readouterr()
        out = tmp_path / "eval"
        assert run_cli(
            "eval", "--corpus", corpus, "--outputs", str(synced), "--out", str(out), "--lexicons", lexicons
        ) == cli.EXIT_PARTIAL
        assert self.failure(out, "City/musterstadt")["stage"] == "load"
        self.assert_nine_reported(out, capsys)


class TestConfig:
    ALIGN_COMMAND = ("align", "--left", "l.table", "--right", "r.table")  # files resolve_config does not read

    def resolve(self, *argv, command=("sync",)):
        return cli.resolve_config(cli.build_parser().parse_args([*command, *argv]))

    @pytest.mark.parametrize(
        "setting, value, command",
        [
            pytest.param("concurrency", "0", ("sync",), id="0"),
            pytest.param("concurrency", "-1", ("sync",), id="-1"),
            pytest.param("rounds", "0", ALIGN_COMMAND, id="rounds-0"),
            pytest.param("rounds", "-1", ALIGN_COMMAND, id="rounds--1"),
        ],
    )
    def test_concurrency_below_one_rejected(self, setting, value, command):
        """The one check of each setting that the gateway and the voter rely on."""
        with pytest.raises(ConfigError, match=f"{setting} must be >= 1"):
            self.resolve(f"--{setting}", value, command=command)

    def test_record_requires_transcripts(self, corpus, lexicons, tmp_path, capsys):
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "o"),
            "--lexicons", lexicons, "--record", "--instance", "musterstadt",
        )
        assert code == cli.EXIT_CONFIG
        assert "--record requires --transcripts" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_record_while_replaying_rejected(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("")
        with pytest.raises(ConfigError, match="replay"):
            self.resolve("--backend", "replay", "--transcripts", str(transcript), "--record")

    def test_record_is_flag_only(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("record = true\n")
        with pytest.raises(ConfigError, match="unknown config key 'record'"):
            self.resolve("--config", str(config))

    def test_non_integer_config_value_rejected(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("rounds = three\n")
        with pytest.raises(ConfigError, match="rounds"):
            self.resolve("--config", str(config), command=self.ALIGN_COMMAND)

    def test_byte_order_mark_before_the_config_file(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("\ufeffstrategy = direct\n", "utf-8")
        assert self.resolve("--config", str(config)).strategy == "direct"

    def test_config_file_env_and_flag_precedence(self, tmp_path, monkeypatch):
        config = tmp_path / "run.conf"
        config.write_text("model = from-file\nmodels = a, b\nconcurrency = 3\nendpoint = file-url\n")
        monkeypatch.setenv("SYNC_LLM_MODEL", "from-env")
        monkeypatch.delenv("SYNC_LLM_ENDPOINT", raising=False)
        synced = self.resolve("--config", str(config))
        aligned = self.resolve("--config", str(config), "--rounds", "2", command=self.ALIGN_COMMAND)
        assert (synced.model, aligned.models, synced.eval_models) == ("from-env", ("a", "b"), ("from-env",))
        assert (aligned.concurrency, aligned.rounds, aligned.endpoint) == (3, 2, "file-url")
        assert self.resolve("--config", str(config), "--model", "flag").model == "flag"

    def test_resolved_config_is_an_immutable_value(self):
        # An empty evaluator list falls back to the pipeline model, as an unset one does.
        config = self.resolve("--model", "m", "--eval-models", " , ")
        assert config.eval_models == ("m",)
        with pytest.raises(AttributeError):
            config.model = "other"
        same = self.resolve("--model", "m")
        assert config == same and hash(config) == hash(same)

    def test_config_file_settings_the_command_does_not_read_are_ignored(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("pivot = xx\nmodels = a, b\nrounds = 0\nstrategy = bogus\n")
        resolved = self.resolve("--config", str(config), command=("eval",))
        assert (resolved.pivot, resolved.models, resolved.rounds, resolved.strategy) == ("en", (), 1, "hierarchical")

    def test_snapshot_lines(self):
        config = cli.RunConfig(models=("a", "b"), api_key="secret", record=True)
        assert config.snapshot_lines(cli.RunConfig.SETTINGS) == [
            "api_key = ***",
            "backend = stub",
            "concurrency = 4",
            "corpus = ",
            "endpoint = ",
            "eval_models = ",
            "lexicons = ",
            "model = stub-model",
            "models = a,b",
            "out = ",
            "pivot = en",
            "record = true",
            "rounds = 1",
            "strategy = hierarchical",
            "transcripts = ",
        ]

    def test_snapshot_lists_only_the_settings_read(self, corpus, lexicons, tmp_path):
        synced = tmp_path / "sync"
        common = ("--corpus", corpus, "--lexicons", lexicons, "--instance", "musterstadt")
        assert run_cli("sync", *common, "--out", str(synced)) == cli.EXIT_OK
        assert run_cli("eval", *common, "--outputs", str(synced), "--out", str(tmp_path / "eval")) == cli.EXIT_OK

        def names(out: Path) -> set[str]:
            return {line.split(" = ")[0] for line in (out / "config.snapshot").read_text().splitlines()}

        assert {"strategy", "pivot", "model"} <= names(synced)
        assert not {"models", "rounds"} & names(synced)
        assert not {"strategy", "pivot", "models", "rounds"} & names(tmp_path / "eval")

class TestRecordReplay:
    def test_replayed_reports_byte_identical(self, corpus, lexicons, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        out_record = tmp_path / "record"
        out_replay = tmp_path / "replay"

        assert run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(out_record),
            "--lexicons", lexicons,
            "--transcripts", str(transcript),
            "--record",
            "--instance", "Person",
        ) == cli.EXIT_OK

        assert run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(out_replay),
            "--backend", "replay",
            "--transcripts", str(transcript),
            "--instance", "Person",
        ) == cli.EXIT_OK

        recorded = sorted(p.relative_to(out_record) for p in out_record.rglob("report.json"))
        replayed = sorted(p.relative_to(out_replay) for p in out_replay.rglob("report.json"))
        assert recorded == replayed and recorded
        for rel in recorded:
            assert (out_record / rel).read_bytes() == (out_replay / rel).read_bytes()

    def test_eval_replays_what_sync_recorded(self, corpus, lexicons, tmp_path):
        # sync and eval cut an instance's row comparisons into the same prompts.
        transcript, synced, evaluated = tmp_path / "t.jsonl", tmp_path / "sync", tmp_path / "eval"
        assert run_cli(
            "sync", "--corpus", corpus, "--lexicons", lexicons, "--out", str(synced),
            "--record", "--transcripts", str(transcript),
        ) == cli.EXIT_OK
        assert run_cli(
            "eval", "--corpus", corpus, "--outputs", str(synced), "--out", str(evaluated),
            "--backend", "replay", "--transcripts", str(transcript),
        ) == cli.EXIT_OK
        reports = sorted(p.relative_to(synced) for p in synced.rglob("report.json"))
        assert len(reports) == 11  # one per instance and the run's
        for rel in reports:
            assert (evaluated / rel).read_bytes() == (synced / rel).read_bytes()

    def test_transcripts_listing(self, corpus, lexicons, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(tmp_path / "o"),
            "--lexicons", lexicons,
            "--transcripts", str(transcript),
            "--record",
            "--instance", "musterstadt",
        )
        capsys.readouterr()
        assert run_cli("transcripts", str(transcript)) == cli.EXIT_OK
        listing = capsys.readouterr().out
        assert "records" in listing and "tag=" in listing
        digest = listing.split()[0]
        assert run_cli("transcripts", str(transcript), "--digest", digest[:12]) == cli.EXIT_OK

    def test_digest_shows_the_response_replay_serves(self, tmp_path, capsys):
        transcript = gw.Transcript(tmp_path / "t.jsonl")
        request = gw.CompletionRequest(prompt="p", model_id="m")
        transcript.append(request, 0, "FIRST", 1)
        transcript.append(request, 0, "SECOND", 1)
        transcript.close()
        digest = gw.request_digest(request)
        assert transcript.responses() == {digest: "SECOND"}
        assert run_cli("transcripts", str(transcript.path), "--digest", digest[:12]) == cli.EXIT_OK
        assert capsys.readouterr().out == "SECOND\n"

    def test_ambiguous_digest_prefix_is_config_error(self, tmp_path, capsys):
        transcript = gw.Transcript(tmp_path / "t.jsonl")
        digests = []
        for prompt in map(str, range(17)):  # 17 digests: two share a first hex digit
            request = gw.CompletionRequest(prompt=prompt, model_id="m")
            transcript.append(request, 0, prompt, 1)
            digests.append(gw.request_digest(request))
        transcript.close()
        prefix = max("0123456789abcdef", key=lambda c: sum(d.startswith(c) for d in digests))
        count = sum(d.startswith(prefix) for d in digests)
        assert count > 1
        assert run_cli("transcripts", str(transcript.path), "--digest", prefix) == cli.EXIT_CONFIG
        assert f"matches {count} digests" in capsys.readouterr().err

    def test_truncated_transcript_is_config_error(self, corpus, lexicons, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        assert run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "rec"), "--lexicons", lexicons,
            "--transcripts", str(transcript), "--record", "--instance", "musterstadt",
        ) == cli.EXIT_OK
        lines = transcript.read_text("utf-8").splitlines()
        transcript.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]), "utf-8")
        capsys.readouterr()

        assert run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "rep"), "--backend", "replay",
            "--transcripts", str(transcript), "--instance", "musterstadt",
        ) == cli.EXIT_CONFIG
        assert f"t.jsonl:{len(lines)}: malformed transcript record" in capsys.readouterr().err
        assert run_cli("transcripts", str(transcript)) == cli.EXIT_CONFIG
        assert f"t.jsonl:{len(lines)}: malformed transcript record" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["response", "tag"])
    def test_lone_surrogate_in_a_shown_field_is_config_error(self, corpus, lexicons, tmp_path, capsys, field):
        # json reads a "\\ud800" escape as a lone surrogate, which print and replay cannot encode.
        transcript = tmp_path / "t.jsonl"
        assert run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "rec"), "--lexicons", lexicons,
            "--strategy", "direct", "--transcripts", str(transcript), "--record", "--instance", "musterstadt",
        ) == cli.EXIT_OK
        lines = transcript.read_text("utf-8").splitlines()
        record = json.loads(lines[0])
        if field == "tag":
            record["request"]["tag"] += "\ud800"
        else:
            record["response"] = "\ud800" + record["response"]
        lines[0] = json.dumps(record)
        transcript.write_text("\n".join(lines) + "\n", "utf-8")
        capsys.readouterr()

        shown = ("--digest", record["digest"][:12]) if field == "response" else ()
        assert run_cli("transcripts", str(transcript), *shown) == cli.EXIT_CONFIG
        assert "t.jsonl:1: malformed transcript record" in capsys.readouterr().err
        assert run_cli(
            "sync", "--corpus", corpus, "--out", str(tmp_path / "rep"), "--backend", "replay",
            "--strategy", "direct", "--transcripts", str(transcript), "--instance", "musterstadt",
        ) == cli.EXIT_CONFIG
        assert "t.jsonl:1: malformed transcript record" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "City").exists()

    def test_record_onto_torn_transcript_is_refused(self, corpus, lexicons, tmp_path, capsys, monkeypatch):
        transcript = tmp_path / "t.jsonl"
        record = (
            "sync", "--corpus", corpus, "--out", str(tmp_path / "rec"), "--lexicons", lexicons,
            "--transcripts", str(transcript), "--record", "--instance", "musterstadt",
        )
        transcript.write_bytes(b"")
        assert run_cli(*record) == cli.EXIT_OK
        torn = transcript.read_bytes()[:-10]
        transcript.write_bytes(torn)
        calls = []
        monkeypatch.setattr(StubBackend, "complete", lambda self, request, attempt: calls.append(request))
        capsys.readouterr()

        assert run_cli(*record) == cli.EXIT_CONFIG
        assert "t.jsonl: last line is cut off" in capsys.readouterr().err
        assert calls == []
        assert transcript.read_bytes() == torn


class TestEval:
    def test_eval_previous_outputs(self, corpus, lexicons, tmp_path, capsys):
        out_sync = tmp_path / "sync"
        run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(out_sync),
            "--lexicons", lexicons,
            "--instance", "City",
        )
        out_eval = tmp_path / "eval"
        code = run_cli(
            "eval",
            "--corpus", corpus,
            "--outputs", str(out_sync),
            "--out", str(out_eval),
            "--lexicons", lexicons,
            "--instance", "City",
        )
        assert code == cli.EXIT_OK
        report = json.loads((out_eval / "report.json").read_text())
        assert report["instances"] == 2

    def test_missing_outputs_partial(self, corpus, lexicons, tmp_path):
        code = run_cli(
            "eval",
            "--corpus", corpus,
            "--outputs", str(tmp_path / "empty"),
            "--out", str(tmp_path / "eval"),
            "--lexicons", lexicons,
            "--instance", "musterstadt",
        )
        assert code == cli.EXIT_PARTIAL


class TestAlign:
    def test_align_files_and_score(self, tmp_path, capsys):
        left = tmp_path / "left.table"
        right = tmp_path / "right.table"
        left.write_text('[["Name","x"],["Country","y"]]')
        right.write_text('[["Name","x"],["Country","y"],["Extra","z"]]')
        out = tmp_path / "alignment.json"
        assert run_cli("align", "--left", str(left), "--right", str(right), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert [["country"], ["country"]] in doc["pairs"]
        assert doc["unaligned_right"] == ["extra"]

        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(
            "align", "--left", str(left), "--right", str(right), "--gold-alignment", str(gold)
        ) == 0
        assert "f1=1.0000" in capsys.readouterr().out

    def test_without_models_the_document_is_the_deterministic_alignment(self, corpus_dir, tmp_path, capsys):
        # Source against gold of every fixture instance, to stdout and to --out.
        for directory in dataset.iter_instance_dirs(corpus_dir):
            (left,), (right,) = directory.glob("source.*.table"), directory.glob("gold.*.table")
            language = left.suffixes[0].lstrip(".")
            tables = [InfoTable(name, language, "Uncategorized", dataset.read_table(path))
                      for name, path in (("left", left), ("right", right))]
            expected = json.dumps(
                alignment_to_doc(align_deterministic(*tables)), sort_keys=True, indent=2, ensure_ascii=False
            ) + "\n"
            argv = ["align", "--left", str(left), "--right", str(right), "--language", language]
            capsys.readouterr()
            assert run_cli(*argv) == cli.EXIT_OK
            assert capsys.readouterr().out == expected
            out = tmp_path / f"{directory.name}.json"
            assert run_cli(*argv, "--out", str(out)) == cli.EXIT_OK
            assert out.read_bytes() == expected.encode("utf-8")


TABLE = '[["Name","x"]]'
ALIGN = ["align", "--left", "{tmp}/ok.table", "--right", "{tmp}/ok.table"]
# id: (files written under the temp dir, argv, text the error must contain);
# "{tmp}" and "{corpus}" are filled in.
INPUT_ERRORS = {
    "sync-pivot": ({}, ["sync", "--corpus", "{corpus}", "--out", "{tmp}/o", "--pivot", "xx"], "'xx'"),
    "align-language": ({"ok.table": TABLE}, [*ALIGN, "--language", "xx"], "'xx'"),
    "gold-alignment-missing": (
        {"ok.table": TABLE}, [*ALIGN, "--gold-alignment", "{tmp}/absent.json"], "{tmp}/absent.json"
    ),
    "gold-alignment-malformed": (
        {"ok.table": TABLE, "gold.json": '{"pairs": 5}'},
        [*ALIGN, "--gold-alignment", "{tmp}/gold.json"],
        "{tmp}/gold.json",
    ),
    "align-out-under-a-file": (
        {"ok.table": TABLE, "f": "a regular file"}, [*ALIGN, "--out", "{tmp}/f/a.json"], "{tmp}/f/a.json"
    ),
    "align-lexicons-missing": (
        {"ok.table": TABLE}, [*ALIGN, "--lexicons", "{tmp}/nonexistent"], "{tmp}/nonexistent"
    ),
    "align-endpoint-not-http": (
        {"ok.table": TABLE}, [*ALIGN, "--backend", "http", "--endpoint", "ftp://x"], "'ftp://x'"
    ),
    "unparseable-table": (
        {"ok.table": TABLE, "bad.table": "no table here"},
        ["align", "--left", "{tmp}/bad.table", "--right", "{tmp}/ok.table"],
        "{tmp}/bad.table",
    ),
    "lexicon-line-without-tab": (
        {"lex/de-en.tsv": "# de to en\nLand Country\n"},
        ["sync", "--corpus", "{corpus}", "--out", "{tmp}/o", "--lexicons", "{tmp}/lex"],
        "{tmp}/lex/de-en.tsv:2",
    ),
    "config-line-without-equals": (
        {"run.conf": "model = m\n\nrounds 2\n"},
        ["sync", "--corpus", "{corpus}", "--out", "{tmp}/o", "--config", "{tmp}/run.conf"],
        "{tmp}/run.conf:3: malformed config file line 'rounds 2'",
    ),
    "transcripts-unread-stub": (
        {}, ["sync", "--corpus", "{corpus}", "--out", "{tmp}/o", "--transcripts", "{tmp}/t.jsonl"],
        "transcripts '{tmp}/t.jsonl' is read only by --record or the replay backend",
    ),
    "transcripts-unread-http": (
        {},
        [
            "sync", "--corpus", "{corpus}", "--out", "{tmp}/o", "--backend", "http",
            "--endpoint", "http://127.0.0.1:9", "--transcripts", "{tmp}/t.jsonl",
        ],
        "transcripts '{tmp}/t.jsonl' is read only by --record or the replay backend",
    ),
    "transcripts-unread-config-file": (
        {"run.conf": "transcripts = t.jsonl\n"},
        ["eval", "--corpus", "{corpus}", "--outputs", "{tmp}", "--out", "{tmp}/o", "--config", "{tmp}/run.conf"],
        "transcripts 't.jsonl' is read only by --record or the replay backend",
    ),
    "stats-missing-corpus": (
        {},
        ["stats", "--corpus", "{tmp}/nonexistent"],
        "{tmp}/nonexistent",
    ),
    "errors-missing-instance-dir": (
        {"t.json": "[]"},
        ["errors", "--instance-dir", "{tmp}/nonexistent", "--traces", "{tmp}/t.json", "--out", "{tmp}/o"],
        "{tmp}/nonexistent",
    ),
    "errors-instance-dir-without-manifest": (
        {"t.json": "[]"},
        ["errors", "--instance-dir", "{tmp}", "--traces", "{tmp}/t.json", "--out", "{tmp}/o"],
        "no manifest",
    ),
}


class TestInputErrors:
    @pytest.mark.parametrize("case", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
    def test_named_config_error(self, case, corpus, tmp_path, capsys):
        files, argv, needle = case
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text, "utf-8")

        def fill(text: str) -> str:
            return text.format(tmp=tmp_path, corpus=corpus)

        assert run_cli(*map(fill, argv)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and fill(needle) in err
        assert not (tmp_path / "o").exists()


# A flag per setting the command does not read; each was accepted and ignored.
UNREAD_FLAGS = [
    ("sync", "--models", "a,b"),
    ("sync", "--rounds", "7"),
    ("eval", "--pivot", "de"),
    ("eval", "--models", "a,b"),
    ("eval", "--rounds", "7"),
    ("align", "--pivot", "de"),
    ("align", "--model", "m"),
    ("align", "--eval-models", "a,b"),
    ("errors", "--pivot", "de"),
]
COMMAND_ARGV = {
    "sync": ["sync", "--corpus", "{corpus}", "--out", "{tmp}/o"],
    "eval": ["eval", "--corpus", "{corpus}", "--outputs", "{tmp}", "--out", "{tmp}/o"],
    "align": [*ALIGN, "--out", "{tmp}/o"],
    "errors": ["errors", "--instance-dir", "{corpus}/City/musterstadt", "--traces", "{tmp}/t.json", "--out", "{tmp}/o"],
}


class TestUnreadFlags:
    @pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS, ids=[c + f for c, f, _ in UNREAD_FLAGS])
    def test_usage_error(self, corpus, tmp_path, capsys, command, flag, value):
        (tmp_path / "ok.table").write_text(TABLE, "utf-8")
        argv = [arg.format(tmp=tmp_path, corpus=corpus) for arg in COMMAND_ARGV[command]]
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv, flag, value)
        assert excinfo.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# One argv per command, setting most of its flags.
REPRESENTATIVE_ARGV = {
    "sync": [
        "sync", "--corpus", "c", "--out", "o", "--strategy", "two", "--instance", "x", "--config", "f",
        "--lexicons", "l", "--backend", "http", "--concurrency", "2", "--transcripts", "t", "--record",
        "--endpoint", "e", "--api-key", "k", "--model", "m", "--eval-models", "a,b", "--pivot", "de",
    ],
    "eval": ["eval", "--corpus", "c", "--outputs", "p", "--out", "o", "--inst", "x", "--backend", "replay"],
    "align": ["align", "--left", "l", "--right", "r", "--out", "o", "--models", "a,b", "--rounds", "3"],
    "errors": ["errors", "--instance-dir", "d", "--traces", "t", "--out", "o", "--lexicons", "l"],
    "stats": ["stats", "--corpus", "c", "--json"],
    "fetch": ["fetch", "--title", "T", "--lang", "en", "--as-of", "2018", "--api-template", "http://h/{lang}"],
    "transcripts": ["transcripts", "f.jsonl", "--digest", "ab"],
}


def parse_outcome(parser, argv, capsys):
    """(Namespace or exit code, stdout, stderr) of parser.parse_args(argv)."""
    try:
        outcome = parser.parse_args(argv)
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


class TestParser:
    """Each command builds only its own parser, and parses, errs and helps as
    the parser of every command does."""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_a_command_parser_knows_no_other_command(self, command, capsys):
        parser = cli.build_parser(command)
        for other in cli.COMMANDS:
            outcome, _, err = parse_outcome(parser, REPRESENTATIVE_ARGV[other], capsys)
            if other == command:
                assert outcome.command == command
            else:
                assert outcome == cli.EXIT_CONFIG and f"invalid choice: '{other}'" in err

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize(
        "suffix", [["--help"], [], ["--bogus"]], ids=["help", "representative", "unknown-flag"]
    )
    def test_one_command_parser_equals_the_full_parser(self, command, suffix, capsys):
        argv = [command, "--help"] if suffix == ["--help"] else REPRESENTATIVE_ARGV[command] + suffix
        alone = parse_outcome(cli.build_parser(command), argv, capsys)
        assert alone == parse_outcome(cli.build_parser(), argv, capsys)
        if suffix == ["--help"]:
            assert alone[0] == 0 and alone[1].startswith(f"usage: tablesync {command} ")
        elif suffix:
            assert alone[0] == cli.EXIT_CONFIG and "unrecognized arguments: --bogus" in alone[2]
        else:
            assert alone[0].command == command

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["sync", "--bogus"]], ids=" ".join)
    def test_top_level_output_is_the_full_parsers(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out, err) == parse_outcome(cli.build_parser(), argv, capsys)
        usage = "usage: tablesync [-h] {sync,eval,align,errors,stats,fetch,transcripts} ...\n"
        assert (out or err).startswith(usage)


def load_perfbench(name: str, monkeypatch=None):
    """A benchmark module, perfbench/<name>.py, loaded from its file. With
    monkeypatch, it is in sys.modules under its own name until teardown, as
    its dataclasses and the modules that import it need."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class TestHttpEndToEnd:
    def test_sync_over_http_with_faults(self, corpus, lexicons, tmp_path, no_proxy_env, capsys):
        # Every merge answer for musterstadt is garbage; the first graph-to-table
        # and row-comparison answers for estadio-central are garbage once.
        fake_llm = load_perfbench("fake_llm")
        complete = fake_llm.stub_completer(lexicons)
        fake = fake_llm.FakeLLM(complete, "Eva Neu", ("Estadio Central",), delay_s=0.0)
        server = fake_llm.make_server(fake)
        thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
        thread.start()
        outs = {}
        try:
            for concurrency in ("1", "4"):
                outs[concurrency] = tmp_path / f"c{concurrency}"
                endpoint = f"http://127.0.0.1:{server.server_address[1]}/c{concurrency}/chat/completions"
                assert run_cli(
                    "sync", "--corpus", corpus, "--lexicons", lexicons, "--out", str(outs[concurrency]),
                    "--backend", "http", "--endpoint", endpoint, "--concurrency", concurrency,
                ) == cli.EXIT_PARTIAL
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        stub_out = tmp_path / "stub"
        assert run_cli("sync", "--corpus", corpus, "--lexicons", lexicons, "--out", str(stub_out)) == cli.EXIT_OK

        poisoned = Path("City/musterstadt")
        failure = json.loads((outs["1"] / poisoned / "failure.json").read_text())
        assert failure["stage"] == "merge"
        assert fake.stats["c1"] == fake.stats["c4"] and fake.stats["c1"]["faults_served"] == 4
        serial, overlapped, stub = (output_files(out) for out in (outs["1"], outs["4"], stub_out))
        for files in (serial, overlapped, stub):
            del files[Path("config.snapshot")]  # names the backend and the concurrency
        assert serial == overlapped
        del serial[Path("report.json")], stub[Path("report.json")]  # the stub run also reports musterstadt
        assert {rel: data for rel, data in serial.items() if poisoned not in rel.parents} == {
            rel: data for rel, data in stub.items() if poisoned not in rel.parents
        }


class TestBatchedEvaluation:
    """An instance's row comparisons go out as a few evaluate prompts."""

    @pytest.mark.parametrize("concurrency", ["1", "4"])
    def test_hierarchical_call_counts(self, corpus, lexicons, tmp_path, monkeypatch, concurrency):
        lock, tags = threading.Lock(), Counter()

        def counted(complete, request):
            with lock:
                tags[request.tag] += 1
            return complete()

        patch_stub(monkeypatch, counted)
        assert run_cli(
            "sync", "--corpus", corpus, "--lexicons", lexicons, "--out", str(tmp_path / "o"),
            "--strategy", "hierarchical", "--concurrency", concurrency,
        ) == cli.EXIT_OK
        assert sum(tags.values()) == 71
        assert tags["evaluate"] == 9  # one chunk per instance that has a row unequal to its gold row

    def test_benchmark_fault_rule_costs_one_reprompt(self, corpus, lexicons, instances, tmp_path, monkeypatch):
        # The benchmark's fake server spoils the first answer to a row
        # comparison that names a flaky instance's entity. Here every entity
        # is flaky.
        fault_for = load_perfbench("fake_llm").fault_for
        entities = tuple(instance.gold.entity for instance in instances)
        lock, seen, calls = threading.Lock(), Counter(), Counter()
        faulty = False

        def owner(request) -> str:
            rows = set(parse_table(prompts.slots_of(prompts.EVALUATE, request.prompt)["table_2"]))
            (entity,) = [i.gold.entity for i in instances if rows <= set(i.gold.rows)]
            return entity

        def judged(complete, request):
            if request.tag != "evaluate":
                return complete()
            with lock:
                repeat = seen[faulty, request.prompt]
                seen[faulty, request.prompt] += 1
                calls[owner(request)] += 1
            if faulty and fault_for(request.prompt, repeat, "", entities):
                return "Sorry, I cannot produce that table right now."
            return complete()

        patch_stub(monkeypatch, judged)

        def run(out: Path, spoil: bool) -> Counter:
            nonlocal faulty
            faulty = spoil
            calls.clear()
            assert run_cli("sync", "--corpus", corpus, "--lexicons", lexicons, "--out", str(out)) == cli.EXIT_OK
            return Counter(calls)

        clean, faulted = run(tmp_path / "clean", False), run(tmp_path / "faulted", True)
        # Every evaluate prompt names its entity, so each instance that sends
        # one pays exactly one reprompt; none sends two.
        assert {e: faulted[e] - clean[e] for e in entities} == {e: int(clean[e] > 0) for e in entities}
        files = {kind: output_files(tmp_path / kind) for kind in ("clean", "faulted")}
        for kind in files:
            del files[kind][Path("config.snapshot")]  # names the output directory
        assert files["faulted"] == files["clean"]
        reports = [json.loads(data) for rel, data in files["faulted"].items() if rel.name == "report.json"]
        assert len(reports) == 11 and not any(report.get("flagged_rows") for report in reports)


class TestBenchmarkFaultSchedule:
    """The http-latency workload's fault schedule, met on the stub.

    perfbench/run.py checks that its fake server serves every scheduled
    fault: two for the poisoned instance's merge (first try and reprompt),
    and for each flaky instance the first answer to its graph-to-table prompt
    and to the one evaluate prompt that names it. An evaluation plan that
    names a flaky entity in no prompt, or in two, breaks that run.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_flaky_entity_named_by_one_evaluate_prompt(self, seed, tmp_path, monkeypatch):
        load_perfbench("corpus", monkeypatch)  # run.py imports it by that name
        bench, fake_llm = load_perfbench("run", monkeypatch), load_perfbench("fake_llm")
        workload = bench.WORKLOADS["http-latency"]
        generated = bench.gen.generate(tmp_path / "gen", seed, workload.params)
        poisoned = generated.instances[bench.POISONED_INDEX]
        flaky = tuple(instance.entity for instance in generated.instances[:: bench.FLAKY_EVERY])
        lock, seen, named, spoiled = threading.Lock(), Counter(), Counter(), Counter()

        def served(complete, request):
            # As the fake server does: repeat counts earlier sightings of the same request body.
            body = (request.prompt, request.model_id, request.temperature, request.max_tokens)
            with lock:
                repeat = seen[body]
                seen[body] += 1
                if request.tag == "evaluate" and not repeat:
                    named.update(name for name in flaky if name in request.prompt)
                faulty = fake_llm.fault_for(request.prompt, repeat, poisoned.entity, flaky)
                spoiled[request.tag] += faulty
            return fake_llm.GARBAGE if faulty else complete()

        patch_stub(monkeypatch, served)
        out = tmp_path / "out"
        assert run_cli(
            "sync", "--corpus", str(generated.corpus_dir), "--lexicons", str(generated.lexicon_dir),
            "--out", str(out), "--strategy", "hierarchical", "--concurrency", str(workload.clients),
        ) == cli.EXIT_PARTIAL
        assert json.loads((out / poisoned.rel / "failure.json").read_text())["stage"] == "merge"
        assert named == Counter(flaky)
        assert sum(spoiled.values()) == 2 + 2 * len(flaky)


class TestStartup:
    def test_cli_import_leaves_requests_unloaded(self):
        # Nor the standard library's HTTP stack, which only the http backend and fetch load.
        src = str(Path(cli.__file__).resolve().parents[1])
        check = "import sys, tablesync.cli; sys.exit(bool({'requests', 'http.client', 'ssl'} & sys.modules.keys()))"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0

    def test_cli_import_leaves_first_use_modules_unloaded(self):
        # The value types are plain classes, so neither dataclasses nor inspect; the executor
        # serves concurrency > 1, logging a warning, and the wiki client fetch alone.
        src = str(Path(cli.__file__).resolve().parents[1])
        modules = {"dataclasses", "inspect", "logging", "concurrent.futures", "tablesync.wiki"}
        check = f"import sys, tablesync.cli; print(sorted({modules!r} & sys.modules.keys()))"
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, "[]\n")


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["stats", "sync"])
    def test_exit_141_without_traceback(self, command, corpus, lexicons, tmp_path):
        # The reader of stdout is gone before the command writes its first line.
        argv = {
            "stats": ["stats", "--corpus", corpus],
            "sync": ["sync", "--corpus", corpus, "--lexicons", lexicons, "--out", str(tmp_path / "out")],
        }[command]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "tablesync.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (cli.EXIT_PIPE_CLOSED, "")


class TestErrors:
    def test_ledger_from_traces(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(
            "sync",
            "--corpus", corpus,
            "--out", str(out),
            "--lexicons", lexicons,
            "--instance", "musterstadt",
        )
        capsys.readouterr()
        ledger_out = tmp_path / "ledger.json"
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(out / "City" / "musterstadt" / "traces.json"),
            "--lexicons", lexicons,
            "--out", str(ledger_out),
        )
        assert code == cli.EXIT_OK
        assert "in_reference" in capsys.readouterr().out
        doc = json.loads(ledger_out.read_text())
        assert doc["stages"][-1]["cumulative"]["total"] == 0

    def test_byte_order_mark_before_the_traces(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons, "--instance", "musterstadt"
        ) == cli.EXIT_OK
        traces = out / "City" / "musterstadt" / "traces.json"
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + traces.read_bytes())
        ledgers = []
        for path in (traces, marked):
            capsys.readouterr()
            code = run_cli(
                "errors", "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
                "--traces", str(path), "--lexicons", lexicons,
            )
            captured = capsys.readouterr()
            assert code == cli.EXIT_OK, captured.err
            ledgers.append(captured.out)
        assert ledgers[0] == ledgers[1]

    def test_ledger_in_the_pivot_of_the_traces(self, corpus, lexicons, tmp_path, capsys):
        # The traces' pivot is the language translate_reference wrote the reference in.
        instance_dir = Path(corpus) / "City" / "musterstadt"
        rules = StubRuleSet.from_dir(lexicons)
        instance = dataset.load_instance(instance_dir)
        for pivot in ("de", "en", "fr"):
            out = tmp_path / pivot
            assert run_cli(
                "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons,
                "--instance", "musterstadt", "--pivot", pivot,
            ) == cli.EXIT_OK
            code = run_cli(
                "errors",
                "--instance-dir", str(instance_dir),
                "--traces", str(out / "City" / "musterstadt" / "traces.json"),
                "--lexicons", lexicons,
                "--out", str(out / "ledger.json"),
            )
            assert code == cli.EXIT_OK, capsys.readouterr().err
            result = Pipeline(gw.Gateway(StubBackend(rules)), "stub-model", pivot=pivot).run(
                instance, Strategy.HIERARCHICAL
            )
            ledger = ErrorAnalyzer(rules, pivot=pivot).stagewise_ledger(
                instance, {t.stage: t.output_artifact for t in result.traces}
            )
            assert json.loads((out / "ledger.json").read_text("utf-8")) == ledger_jsonable(ledger)

    def test_records_the_ledger_does_not_score_are_not_read(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons, "--instance", "musterstadt")
        traces = out / "City" / "musterstadt" / "traces.json"
        ledgers = []
        for damaged in (False, True):
            if damaged:
                docs = json.loads(traces.read_text("utf-8"))
                (translate_source,) = (doc for doc in docs if doc["stage"] == "translate_source")
                translate_source["input"] = translate_source["output"] = {"kind": "bogus"}
                traces.write_text(json.dumps(docs), "utf-8")
            ledger = tmp_path / f"ledger-{damaged}.json"
            code = run_cli(
                "errors",
                "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
                "--traces", str(traces),
                "--lexicons", lexicons,
                "--out", str(ledger),
            )
            assert code == cli.EXIT_OK, capsys.readouterr().err
            ledgers.append(ledger.read_bytes())
        assert ledgers[0] == ledgers[1]

    def test_ledger_counts_a_lexicon_gap(self, corpus, lexicon_dir, tmp_path, capsys):
        # The traces are made with the full lexicons; the ledger reads them
        # with one lacking "Einwohner -> Population". Its English view of the
        # gold table then keeps "Einwohner", which no English column holds.
        # back_translate compares German with German and needs no lexicon.
        out = tmp_path / "out"
        run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", str(lexicon_dir), "--instance", "musterstadt"
        )
        gapped = tmp_path / "lexicons"
        shutil.copytree(lexicon_dir, gapped)
        lines = (gapped / "de-en.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines.pop(7) == "Einwohner\tPopulation\n"
        (gapped / "de-en.tsv").write_text("".join(lines), encoding="utf-8")
        ledger_out = tmp_path / "ledger.json"
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(out / "City" / "musterstadt" / "traces.json"),
            "--lexicons", str(gapped),
            "--out", str(ledger_out),
        )
        capsys.readouterr()
        assert code == cli.EXIT_OK
        stages = json.loads(ledger_out.read_text())["stages"]
        zero = dict.fromkeys(("missing", "outdated_full", "outdated_partial", "redundant", "total"), 0)
        one_missing = zero | {"missing": 1, "total": 1}
        pivot_columns = ("in_reference", "translate_en", "kg_construction", "merge", "table_conversion")
        assert [(stage["stage"], stage["cumulative"]) for stage in stages] == [
            *((name, one_missing) for name in pivot_columns),
            ("back_translate", zero),
        ]
        assert stages[-1]["delta"] == zero | {"missing": -1, "total": -1}


    def test_ledger_needs_hierarchical_traces(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons,
            "--strategy", "two", "--instance", "musterstadt",
        )
        capsys.readouterr()
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(out / "City" / "musterstadt" / "traces.json"),
            "--lexicons", lexicons,
        )
        assert code == cli.EXIT_CONFIG
        assert "translate_reference" in capsys.readouterr().err


    def test_trace_holding_no_table_or_graph_is_config_error(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons, "--instance", "musterstadt"
        )
        traces = out / "City" / "musterstadt" / "traces.json"
        docs = json.loads(traces.read_text("utf-8"))
        (merge,) = (doc for doc in docs if doc["stage"] == "merge")
        merge["output"] = merge["input"]  # the pair of graphs the stage merged
        assert merge["output"]["kind"] == "pair"
        traces.write_text(json.dumps(docs), "utf-8")
        capsys.readouterr()
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(traces),
            "--lexicons", lexicons,
        )
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed traces file {traces}:") and "kind: 'pair'" in err

    def test_config_file_settings_it_does_not_read_are_ignored(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons, "--instance", "musterstadt"
        )
        config = tmp_path / "shared.cfg"
        config.write_text(f"concurrency = 0\nbackend = http\nrounds = many\npivot = xx\nlexicons = {lexicons}\n")
        capsys.readouterr()
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(out / "City" / "musterstadt" / "traces.json"),
            "--config", str(config),
        )
        assert code == cli.EXIT_OK
        assert "in_reference" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, fault",
        [(b"concurency = 2\n", "unknown config key 'concurency'"), (b"\xff\xfepivot = en\n", "cannot read config file")],
        ids=["unknown-key", "not-utf8"],
    )
    def test_config_file_errors_it_reads(self, corpus, tmp_path, capsys, text, fault):
        config = tmp_path / "shared.cfg"
        config.write_bytes(text)
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(tmp_path / "traces.json"),
            "--config", str(config),
        )
        assert code == cli.EXIT_CONFIG
        # The traces file does not exist either: the error must name the config file's fault.
        assert capsys.readouterr().err.startswith(f"config error: {fault}")

    @pytest.mark.parametrize("flag", [["--concurrency", "2"], ["--backend", "http"]])
    def test_unread_run_flags_are_usage_errors(self, corpus, tmp_path, flag):
        traces = tmp_path / "traces.json"
        traces.write_text("[]", "utf-8")
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                "errors",
                "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
                "--traces", str(traces),
                *flag,
            )
        assert excinfo.value.code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("malformed", ["es-en.tsv", "de-en.tsv"])
    def test_reads_only_its_instances_lexicons(self, corpus, lexicon_dir, tmp_path, capsys, malformed):
        # A de instance with an en reference and the en pivot: of the
        # lexicons, its ledger reads de-en.tsv alone.
        out, lexicons = tmp_path / "out", tmp_path / "lexicons"
        shutil.copytree(lexicon_dir, lexicons)
        selected = ["--corpus", corpus, "--lexicons", str(lexicons), "--instance", "musterstadt"]
        assert run_cli("sync", *selected, "--out", str(out)) == cli.EXIT_OK
        with (lexicons / malformed).open("a", encoding="utf-8") as handle:
            handle.write("no tab here\n")
        line = len((lexicons / malformed).read_text("utf-8").splitlines())
        capsys.readouterr()
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(out / "City" / "musterstadt" / "traces.json"),
            "--lexicons", str(lexicons),
        )
        captured = capsys.readouterr()
        if malformed == "es-en.tsv":
            assert code == cli.EXIT_OK and "in_reference" in captured.out
        else:
            assert code == cli.EXIT_CONFIG
            assert captured.err.startswith(f"config error: {lexicons / malformed}:{line}: ")
        # sync reads every lexicon file.
        assert run_cli("sync", *selected, "--out", str(tmp_path / "again")) == cli.EXIT_CONFIG

    LEDGER_STAGES = (
        "translate_source", "translate_reference", "table_to_kg_source",
        "table_to_kg_reference", "merge", "kg_to_table", "back_translate",
    )

    @pytest.mark.parametrize(
        "text, fault",
        [
            ('[{"stage": ', "JSONDecodeError"),  # truncated
            ('{"stage": "merge"}', "TypeError"),  # an object, not a list
            ('[{"stage": "merge"}]', "KeyError('output')"),  # a trace without artifacts
            (
                json.dumps([  # every ledger stage, none holding a table or graph
                    {"stage": stage, "input": {"kind": "none"}, "output": {"kind": "none"}}
                    for stage in LEDGER_STAGES
                ]),
                "unknown artifact kind: 'none'",
            ),
            ("[" * 100_000 + "]" * 100_000, "RecursionError"),  # nested beyond the JSON decoder's depth
            (
                json.dumps([  # every ledger stage holding a graph, the pivot table's too
                    {"stage": stage, "output": {"kind": "kg", "root": {"Name": "Musterstadt"}}}
                    for stage in LEDGER_STAGES
                ]),
                "the translate_reference output is not a table",
            ),
        ],
        ids=["truncated", "object", "no-artifacts", "no-tables", "deeply-nested", "graph-pivot"],
    )
    def test_malformed_traces_file(self, corpus, lexicons, tmp_path, capsys, text, fault):
        traces = tmp_path / "traces.json"
        traces.write_text(text, "utf-8")
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(traces),
            "--lexicons", lexicons,
        )
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(traces) in err and fault in err


class TestUnwritableOut:
    """An output path that cannot be written is a config error naming it."""

    @pytest.fixture()
    def blocker(self, tmp_path) -> Path:
        path = tmp_path / "f"
        path.write_text("a regular file", "utf-8")
        return path

    @pytest.mark.parametrize("command", ["sync", "eval"])
    def test_out_checked_before_any_instance(self, command, corpus, blocker, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.dataset, "load_instance", lambda d: pytest.fail(f"instance {d} ran"))
        outputs = ["--outputs", str(tmp_path)] if command == "eval" else []
        assert run_cli(command, "--corpus", corpus, *outputs, "--out", str(blocker)) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and str(blocker) in captured.err
        assert captured.out == ""

    def test_errors_out_under_a_file(self, corpus, lexicons, blocker, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons, "--instance", "musterstadt")
        capsys.readouterr()
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(out / "City" / "musterstadt" / "traces.json"),
            "--lexicons", lexicons,
            "--out", str(blocker / "x.json"),
        )
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(blocker / "x.json") in err

    @pytest.mark.parametrize(
        "name", ["City/musterstadt/output.de.table", "City/musterstadt/traces.json", "config.snapshot"]
    )
    def test_output_file_is_a_directory(self, name, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code = run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons, "--instance", "musterstadt"
        )
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write {out / name}:")
        assert not list(out.rglob("failure.json"))

    def test_fetch_out_under_a_file(self, blocker, http_server, capsys):
        http_server.script = [(200, json.dumps(WIKI_PAGE).encode())]
        code = run_cli(
            "fetch", "--title", "Ada", "--lang", "en", "--as-of", "2018-01-01T00:00:00Z",
            "--api-template", f"{http_server.base}/{{lang}}/api.php", "--out", str(blocker / "x.table"),
        )
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write {blocker / 'x.table'}:")

    @pytest.mark.parametrize("command", ["sync", "eval", "align", "errors", "fetch"])
    def test_every_written_file_is_checked(
        self, command, corpus, lexicons, tmp_path, http_server, monkeypatch, capsys
    ):
        instance_dir = Path(corpus) / "City" / "musterstadt"
        synced, denied = tmp_path / "synced", tmp_path / "denied"
        selected = ["--lexicons", lexicons, "--instance", "musterstadt"]
        assert run_cli("sync", "--corpus", corpus, "--out", str(synced), *selected) == cli.EXIT_OK
        http_server.script = [(200, json.dumps(WIKI_PAGE).encode())]
        table = str(instance_dir / "source.de.table")
        traces = str(synced / "City" / "musterstadt" / "traces.json")
        argv = {
            "sync": ["sync", "--corpus", corpus, *selected, "--out", str(denied)],
            "eval": ["eval", "--corpus", corpus, "--outputs", str(synced), *selected, "--out", str(denied)],
            "align": [
                "align", "--left", table, "--right", table, "--language", "de", "--out", str(denied / "a.json"),
            ],
            "errors": [
                "errors", "--instance-dir", str(instance_dir), "--traces", traces,
                "--lexicons", lexicons, "--out", str(denied / "ledger.json"),
            ],
            "fetch": [
                "fetch", "--title", "Ada", "--lang", "en", "--as-of", "2018-01-01T00:00:00Z",
                "--api-template", f"{http_server.base}/{{lang}}/api.php", "--out", str(denied / "ada.table"),
            ],
        }[command]
        write_text = Path.write_text

        def refuse(self, *args, **kwargs):
            if self.is_relative_to(denied):
                raise PermissionError(13, "Permission denied", str(self))
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", refuse)
        capsys.readouterr()
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {denied}") and "Traceback" not in err


WIKI_PAGE = {
    "query": {
        "pages": [{
            "title": "Ada",
            "revisions": [{"revid": 1, "timestamp": "2017-01-01T00:00:00Z",
                           "slots": {"main": {"content": "{{Infobox person|name=Ada}}"}}}],
        }]
    }
}


# Text drawn with NUL, LINE SEPARATOR, quotes, backslashes and non-ASCII letters in plenty.
json_texts = st.text(st.one_of(st.sampled_from("\x00\u2028\"\\éß"), st.characters()))
json_scalars = st.one_of(json_texts, st.integers(), st.floats(), st.booleans(), st.none())
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(json_texts, children),
        # The shapes the writer joins at once: lists of text and lists of text pairs.
        st.lists(json_texts),
        st.lists(st.lists(json_texts, min_size=2, max_size=2)),
    ),
    max_leaves=20,
)


class TestAtomicWrite:
    """cli._write leaves the old file or the whole new one, never a cut one."""

    @pytest.mark.parametrize("old", [None, "old text"], ids=["new-file", "old-file"])
    def test_write_failing_halfway(self, tmp_path, monkeypatch, old):
        path = tmp_path / "report.json"
        if old is not None:
            path.write_text(old, "utf-8")
        write_text = Path.write_text

        def cut(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device", str(self))

        monkeypatch.setattr(Path, "write_text", cut)
        with pytest.raises(ConfigError, match=f"cannot write {path}: .*No space left"):
            cli._write(path, "new text " * 100)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == ([] if old is None else [path])
        if old is not None:
            assert path.read_text("utf-8") == old

    def test_missing_parents_are_made(self, tmp_path):
        path = tmp_path / "a" / "b" / "report.json"
        cli._write(path, "first")
        cli._write(path, "second")
        assert path.read_text("utf-8") == "second"
        assert list(tmp_path.rglob("*")) == [tmp_path / "a", path.parent, path]


class TestJsonWriter:
    @given(json_documents)
    @example({"b": [float("nan"), float("-inf"), 1e16], "a": {"\x00\u2028é": [[], {}, True, None, -0.0]}})
    def test_equals_json_dumps(self, document):
        assert cli._json(document) == json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class TestStats:
    def test_stats_text(self, corpus, capsys):
        assert run_cli("stats", "--corpus", corpus) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "instances: 10" in out
        assert "de: 3" in out

    def test_stats_json(self, corpus, capsys):
        assert run_cli("stats", "--corpus", corpus, "--json") == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["by_language"]["es"] == 4


class TestFetch:
    def test_fetch_writes_table(self, tmp_path, capsys, monkeypatch):
        table = InfoTable("Ada", "en", "Person", (TableRow("name", "Ada"),), "1@t")

        class FakeClient:
            def __init__(self, **kwargs):
                pass

            def fetch_revision(self, title, lang, as_of, category="Uncategorized"):
                return table

        monkeypatch.setattr(wiki, "MediaWikiClient", FakeClient)
        out = tmp_path / "ada.table"
        code = run_cli(
            "fetch", "--title", "Ada", "--lang", "en", "--as-of", "2018-01-01T00:00:00Z",
            "--out", str(out),
        )
        assert code == cli.EXIT_OK
        assert '["name","Ada"]' in out.read_text()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--lang", "xx"), "'xx' is not a registered language"),
            (("--lang", "en", "--category", " "), "category"),
            (("--lang", "en", "--api-template", "http://127.0.0.1:9/{foo}"), "KeyError('foo')"),
            (("--lang", "en", "--api-template", "http://127.0.0.1:9/x{"), "Single '{'"),
        ],
        ids=["unregistered-lang", "blank-category", "unknown-placeholder", "stray-brace"],
    )
    def test_bad_arguments_rejected_before_any_request(self, http_server, capsys, flags, message):
        code = run_cli(
            "fetch", "--title", "Ada", "--as-of", "2018-01-01T00:00:00Z",
            "--api-template", f"{http_server.base}/{{lang}}/api.php", *flags,
        )
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert http_server.seen == []

    def test_help_shows_the_default_api_template(self, capsys):
        # The fetch parser imports wiki for this default: the CLI loads wiki only when fetch is built.
        with pytest.raises(SystemExit):
            run_cli("fetch", "--help")
        assert f"({wiki.DEFAULT_API_TEMPLATE})" in capsys.readouterr().out.replace("\n", "").replace(" ", "")

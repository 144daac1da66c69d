import importlib.util
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tablesync import cli, dataset, gateway as gw
from tablesync.errors import BackendUnavailable, ConfigError
from tablesync.pipeline import Pipeline, traces_jsonable
from tablesync.stub import StubBackend
from tablesync.tables import InfoTable, TableRow


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
            time.sleep(0.05)
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
        # back-translation, then every row comparison at once: 6 rounds of
        # 50 ms. The 14 calls one after another take 0.7 s.
        assert elapsed < 0.45
        # No instance worker or gateway helper outlives the command.
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith(("ThreadPoolExecutor", "tablesync-gateway"))]


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
        cli._write_json(tmp_path / "expected.json", traces_jsonable(expected))
        assert (out / rel / "traces.json").read_bytes() == (tmp_path / "expected.json").read_bytes()

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

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_concurrency_below_one_rejected(self, value):
        with pytest.raises(ConfigError, match="concurrency"):
            self.resolve("--concurrency", value)

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

    def test_config_file_settings_the_command_does_not_read_are_ignored(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("pivot = xx\nmodels = a, b\nrounds = 0\nstrategy = bogus\n")
        resolved = self.resolve("--config", str(config), command=("eval",))
        assert (resolved.pivot, resolved.models, resolved.rounds, resolved.strategy) == ("en", (), 1, "hierarchical")

    def test_snapshot_lines(self):
        config = cli.RunConfig(models=("a", "b"), api_key="secret", record=True)
        assert config.snapshot_lines() == [
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


TABLE = '[["Name","x"]]'
ALIGN = ["align", "--left", "{tmp}/ok.table", "--right", "{tmp}/ok.table"]
# id: (files written under the temp dir, argv, text the error must contain);
# "{tmp}" and "{corpus}" are filled in.
INPUT_ERRORS = {
    "sync-pivot": ({}, ["sync", "--corpus", "{corpus}", "--out", "{tmp}/o", "--pivot", "xx"], "'xx'"),
    "errors-pivot": (
        {"traces.json": "[]"},
        ["errors", "--instance-dir", "{corpus}/City/musterstadt", "--traces", "{tmp}/traces.json", "--pivot", "xx"],
        "'xx'",
    ),
    "align-language": ({"ok.table": TABLE}, [*ALIGN, "--language", "xx"], "'xx'"),
    "gold-alignment-missing": (
        {"ok.table": TABLE}, [*ALIGN, "--gold-alignment", "{tmp}/absent.json"], "{tmp}/absent.json"
    ),
    "gold-alignment-malformed": (
        {"ok.table": TABLE, "gold.json": '{"pairs": 5}'},
        [*ALIGN, "--gold-alignment", "{tmp}/gold.json"],
        "{tmp}/gold.json",
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
]
COMMAND_ARGV = {
    "sync": ["sync", "--corpus", "{corpus}", "--out", "{tmp}/o"],
    "eval": ["eval", "--corpus", "{corpus}", "--outputs", "{tmp}", "--out", "{tmp}/o"],
    "align": [*ALIGN, "--out", "{tmp}/o"],
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


def load_fake_llm():
    """perfbench/fake_llm.py, the benchmark's fake chat-completion server."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "fake_llm.py"
    spec = importlib.util.spec_from_file_location("fake_llm", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output_files(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestHttpEndToEnd:
    def test_sync_over_http_with_faults(self, corpus, lexicons, tmp_path, no_proxy_env, capsys):
        # Every merge answer for musterstadt is garbage; the first graph-to-table
        # and row-comparison answers for estadio-central are garbage once.
        fake_llm = load_fake_llm()
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


class TestStartup:
    def test_cli_import_leaves_requests_unloaded(self):
        # Nor the standard library's HTTP stack, which only the http backend and fetch load.
        src = str(Path(cli.__file__).resolve().parents[1])
        check = "import sys, tablesync.cli; sys.exit(bool({'requests', 'http.client', 'ssl'} & sys.modules.keys()))"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


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


    def test_config_file_settings_it_does_not_read_are_ignored(self, corpus, lexicons, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(
            "sync", "--corpus", corpus, "--out", str(out), "--lexicons", lexicons, "--instance", "musterstadt"
        )
        config = tmp_path / "shared.cfg"
        config.write_text(f"concurrency = 0\nbackend = http\nrounds = many\nlexicons = {lexicons}\n")
        capsys.readouterr()
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(out / "City" / "musterstadt" / "traces.json"),
            "--config", str(config),
        )
        assert code == cli.EXIT_OK
        assert "in_reference" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["concurency = 2\n", "pivot = xx\n"], ids=["unknown-key", "bad-pivot"])
    def test_config_file_errors_it_reads(self, corpus, tmp_path, capsys, text):
        config = tmp_path / "shared.cfg"
        config.write_text(text)
        code = run_cli(
            "errors",
            "--instance-dir", str(Path(corpus) / "City" / "musterstadt"),
            "--traces", str(tmp_path / "traces.json"),
            "--config", str(config),
        )
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

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

    @pytest.mark.parametrize(
        "text",
        [
            '[{"stage": ',  # truncated
            '{"stage": "merge"}',  # an object, not a list
            '[{"stage": "merge"}]',  # a trace without artifacts
            json.dumps([  # every ledger stage, none holding a table or graph
                {"stage": stage, "input": {"kind": "none"}, "output": {"kind": "none"}}
                for stage in (
                    "translate_source", "translate_reference", "table_to_kg_source",
                    "table_to_kg_reference", "merge", "kg_to_table", "back_translate",
                )
            ]),
        ],
        ids=["truncated", "object", "no-artifacts", "no-tables"],
    )
    def test_malformed_traces_file(self, corpus, lexicons, tmp_path, capsys, text):
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
        assert err.startswith("config error:") and str(traces) in err


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

        monkeypatch.setattr(cli, "MediaWikiClient", FakeClient)
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

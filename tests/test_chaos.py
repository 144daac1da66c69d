"""Whole runs under spoiled model answers: every failure stays typed and
scoped to its own instance, and the outputs do not depend on --concurrency."""

import json
import random
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablesync import cli, gateway as gw
from tablesync.gateway import request_digest
from tablesync.pipeline import Strategy
from conftest import FaultBackend, output_files, quiet_cli

STAGES = {
    "load", "evaluate", "translate_source", "translate_reference", "table_to_kg_source",
    "table_to_kg_reference", "merge", "kg_to_table", "back_translate", "align", "update",
    "align_update", "direct", "direct_decompose",
}
WIRE_CHARACTERS = "[]{}\",:\\'"
WRONG_SHAPES = ('{"a": "b"}', '[["a", "b", "c"]]', "[1, 2]", '"text"', '{"a": [1]}', "[[]]", "{}", "null")


def spoil(rng: random.Random, answer: str) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        return ""
    if kind == 1:
        return answer[: rng.randrange(len(answer) + 1)]
    if kind == 2:
        return "".join(rng.choice(string.printable) for _ in range(rng.randrange(1, 80)))
    if kind == 3:
        return rng.choice("[{") * rng.randrange(1, 400) + answer[: rng.randrange(len(answer) + 1)]
    if kind == 4:
        return rng.choice(WRONG_SHAPES)
    at = rng.randrange(len(answer) + 1)
    if kind == 5:
        return answer[:at] + rng.choice(WIRE_CHARACTERS) + answer[at:]
    return answer[:at] + "\ud800" + answer[at:]  # a lone surrogate, as json.loads makes of "\ud800"


def chaos(seed: int):
    """An edit that spoils the answer to one request in three, chosen by the
    request's digest and the seed alone, so that call order does not matter."""

    def edit(request, attempt, answer):
        rng = random.Random(f"{seed}:{request_digest(request, attempt)}")
        return spoil(rng, answer) if rng.randrange(3) == 0 else answer

    return edit


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spoiled_answers_fail_only_their_instance(corpus_dir, lexicon_dir, strategy, seed):
    edit = chaos(seed)
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "StubBackend", lambda rules: FaultBackend(rules, {"*": edit}))
        outs = {}
        for concurrency in ("1", "4"):
            outs[concurrency] = out = Path(scratch) / f"c{concurrency}"
            code = quiet_cli(
                "sync", "--corpus", str(corpus_dir), "--lexicons", str(lexicon_dir), "--out", str(out),
                "--strategy", strategy, "--concurrency", concurrency,
            )
            assert code in (cli.EXIT_OK, cli.EXIT_PARTIAL)
            failed = {p.parent for p in out.rglob("failure.json")}
            reported = {p.parent for p in out.rglob("report.json")} - {out}
            assert len(failed) + len(reported) == 10 and not failed & reported
            assert json.loads((out / "report.json").read_text("utf-8"))["instances"] == len(reported)
            assert (code == cli.EXIT_OK) == (not failed)
            assert not list(out.rglob("*.tmp"))
            for directory in failed:
                assert json.loads((directory / "failure.json").read_text("utf-8"))["stage"] in STAGES
        serial, overlapped = output_files(outs["1"]), output_files(outs["4"])
        del serial[Path("config.snapshot")], overlapped[Path("config.snapshot")]  # names the concurrency
        assert serial == overlapped
        for traces in outs["1"].rglob("traces.json"):
            code = quiet_cli(
                "errors", "--instance-dir", str(corpus_dir / traces.parent.relative_to(outs["1"])),
                "--traces", str(traces), "--lexicons", str(lexicon_dir),
            )
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)


def reencoded(dump):
    """An edit that writes an answer that is a JSON document anew with
    dump(value), as APIs write JSON in different ways; any other answer stays
    as it is."""

    def edit(request, attempt, answer):
        try:
            value = json.loads(answer)
        except ValueError:
            return answer
        return dump(value)

    return edit


# Ways to dress an answer that keep its meaning; many APIs escape non-ASCII text as ensure_ascii does.
DRESSINGS = {
    "ensure-ascii": reencoded(lambda value: json.dumps(value, ensure_ascii=True)),
    "indent": reencoded(lambda value: json.dumps(value, ensure_ascii=False, indent=2)),
    "escaped-slash": reencoded(lambda value: json.dumps(value, ensure_ascii=False).replace("/", "\\/")),
    "fenced": lambda request, attempt, answer: f"Here is the result.\n```json\n{answer}\n```\nAnything else?",
}


# An ensure-ascii case is named by its strategy alone, so that its test id stays stable.
@pytest.mark.parametrize(
    "strategy, dressing",
    [
        pytest.param(s.value, dressing, id=s.value if dressing == "ensure-ascii" else f"{s.value}-{dressing}")
        for dressing in DRESSINGS
        for s in Strategy
    ],
)
def test_ascii_escaped_answers_change_no_output(corpus_dir, lexicon_dir, tmp_path, monkeypatch, strategy, dressing):
    outputs = []
    for dressed in (False, True):
        if dressed:
            edit = DRESSINGS[dressing]
            monkeypatch.setattr(cli, "StubBackend", lambda rules: FaultBackend(rules, {"*": edit}))
        out = tmp_path / f"dressed-{dressed}"
        code = quiet_cli(
            "sync", "--corpus", str(corpus_dir), "--lexicons", str(lexicon_dir), "--out", str(out),
            "--strategy", strategy, "--concurrency", "1",
        )
        assert code == cli.EXIT_OK
        # traces.json holds the raw answers, so it differs.
        outputs.append({
            path: data for path, data in output_files(out).items()
            if path.suffix == ".table" or path.name == "report.json"
        })
    assert outputs[0] == outputs[1] and len(outputs[0]) == 21


def completion(content: str, **choice) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}, **choice}]}).encode()


SOURCE_TABLE = '[["Name","Musterstadt"],["Land","Deutschland"],["Einwohner","210000"],["Bürgermeister","Hans Alt"]]'
STORMS = {
    # name: (responses served in order, the stage that fails, its cause)
    "429": ([(429, b"slow down")] * 3, "direct", "rate limited after 3 attempts"),
    "500": ([(500, b"oops")] * 3, "direct", "no response after 3 attempts: HTTP 500"),
    "cut-body": ([(200, completion(SOURCE_TABLE)[:50])], "direct", "malformed completion body"),
    "empty-body": ([(200, b"")], "direct", "malformed completion body"),
    "nested-body": ([(200, b"[" * 100_000 + b"]" * 100_000)], "direct", "malformed completion body"),
    "nested-answer": ([(200, completion("[" * 1500))] * 2, "direct", "no balanced list-of-pairs candidate"),
    # An answer cut at the token limit fails its stage at once: the same request would be cut again.
    "cut-answer": (
        [(200, completion(SOURCE_TABLE[:40], finish_reason="length"))],
        "direct",
        "answer cut at max_tokens 2048",
    ),
    # One answer only: an answer UTF-8 cannot encode fails its stage without a reprompt.
    "lone-surrogate": (
        [(200, completion(SOURCE_TABLE.replace("Hans Alt", "Hans \ud800Alt")))],
        "direct",
        "answer is not UTF-8 text: surrogates not allowed",
    ),
    # The direct answer comes after a 429 and a 500; the server answers every
    # later request, the first row comparison's, with an unscripted 500.
    "evaluate-500": (
        [(429, b""), (500, b""), (200, completion(SOURCE_TABLE))],
        "evaluate",
        "no response after 3 attempts: HTTP 500",
    ),
}


@pytest.mark.parametrize("storm", STORMS)
def test_http_storm_fails_its_instance_with_a_typed_error(
    storm, corpus_dir, lexicon_dir, http_server, tmp_path, monkeypatch, capsys
):
    script, stage, cause = STORMS[storm]
    http_server.script = list(script)
    monkeypatch.setattr(gw, "HTTP_BACKOFF_S", 0.001)
    out = tmp_path / "out"
    code = cli.main([
        "sync", "--corpus", str(corpus_dir), "--lexicons", str(lexicon_dir), "--out", str(out),
        "--backend", "http", "--endpoint", f"{http_server.base}/chat/completions",
        "--strategy", "direct", "--concurrency", "1", "--instance", "musterstadt",
    ])
    assert code == cli.EXIT_PARTIAL
    failure = json.loads((out / "City" / "musterstadt" / "failure.json").read_text("utf-8"))
    assert failure["stage"] == stage and failure["error"].startswith(f"stage '{stage}' failed: {cause}")
    assert "Traceback" not in capsys.readouterr().err
    assert not list(out.rglob("*.tmp"))

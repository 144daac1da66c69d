import json
import sys
import threading

import pytest

from tablesync.errors import BackendUnavailable, RateLimited, ReplayMiss
from tablesync.gateway import (
    CompletionRequest,
    Gateway,
    HttpBackend,
    ReplayBackend,
    Transcript,
    request_digest,
)
from tablesync.errors import ConfigError
from tablesync.stub import StubBackend, StubRuleSet
from tablesync import prompts


def translation_request(table_text='[["Pays","France"]]'):
    prompt = prompts.fill(
        prompts.TRANSLATE_TO_PIVOT,
        source_language="French",
        target_language="English",
        category="Country",
        table=table_text,
    )
    return CompletionRequest(prompt=prompt, model_id="stub-model", tag="translate")


class TestRequests:
    def test_rejects_empty_prompt(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="", model_id="m")

    def test_rejects_out_of_range_temperature(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="p", model_id="m", temperature=1.5)

    def test_digest_stable_and_attempt_sensitive(self):
        request = CompletionRequest(prompt="p", model_id="m", temperature=0.0)
        same = CompletionRequest(prompt="p", model_id="m", temperature=0.0, tag="other")
        assert request_digest(request) == request_digest(same)  # tag not hashed
        assert request_digest(request, 0) != request_digest(request, 1)

    def test_digest_ignores_max_tokens(self):
        a = CompletionRequest(prompt="p", model_id="m", max_tokens=10)
        b = CompletionRequest(prompt="p", model_id="m", max_tokens=999)
        assert request_digest(a) == request_digest(b)


class TestStubBackend:
    def test_lexicon_substitution(self):
        rules = StubRuleSet(lexicons={("fr", "en"): (("Pays", "Country"),)})
        gateway = Gateway(StubBackend(rules))
        response = gateway.complete(translation_request())
        assert '["Country","France"]' in response

    def test_pure_function_of_request(self):
        rules = StubRuleSet(lexicons={("fr", "en"): (("Pays", "Country"),)})
        gateway = Gateway(StubBackend(rules))
        request = translation_request()
        assert gateway.complete(request) == gateway.complete(request)

    def test_canned_response_wins(self):
        rules = StubRuleSet(canned_responses=(("into English", "[[\"x\",\"y\"]]"),))
        gateway = Gateway(StubBackend(rules))
        assert gateway.complete(translation_request()) == '[["x","y"]]'

    def test_attempts_identical_on_stub(self):
        gateway = Gateway(StubBackend(StubRuleSet()))
        texts = [gateway.complete(translation_request(), attempt=i) for i in range(3)]
        assert len(texts) == 3
        assert len(set(texts)) == 1

    def test_empty_lexicon_entry_rejected(self):
        with pytest.raises(ValueError):
            StubRuleSet(lexicons={("a", "b"): (("", "x"),)})


class TestRecordReplay:
    def test_replay_returns_recorded_bytes(self, tmp_path):
        transcript = Transcript(tmp_path / "transcript.jsonl")
        rules = StubRuleSet(lexicons={("fr", "en"): (("Pays", "Country"),)})
        recording = Gateway(StubBackend(rules), transcript=transcript)
        request = translation_request()
        recorded = [recording.complete(request, attempt=i) for i in range(3)]
        assert len(transcript.responses()) == 3  # attempts keep digests distinct

        replay = Gateway(ReplayBackend(transcript))
        assert [replay.complete(request, attempt=i) for i in range(3)] == recorded

    def test_replay_miss(self, tmp_path):
        transcript = Transcript(tmp_path / "transcript.jsonl")
        Gateway(StubBackend(StubRuleSet()), transcript=transcript).complete(translation_request())
        replay = Gateway(ReplayBackend(transcript))
        with pytest.raises(ReplayMiss):
            replay.complete(CompletionRequest(prompt="never recorded", model_id="m"))

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            json.dumps({"digest": "d1", "response": "old"}),
            json.dumps({"digest": "d1", "response": "new"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        assert Transcript(path).responses() == {"d1": "new"}

    def test_transcript_records_shape(self, tmp_path):
        transcript = Transcript(tmp_path / "t.jsonl")
        gateway = Gateway(StubBackend(StubRuleSet()), transcript=transcript)
        request = translation_request()
        gateway.complete(request)
        (record,) = list(transcript.records())
        assert record["digest"] == request_digest(request, 0)
        assert record["request"]["tag"] == "translate"
        assert "latency_ms" in record and "timestamp" in record

    def test_unicode_line_separators_survive(self, tmp_path):
        transcript = Transcript(tmp_path / "t.jsonl")
        request = CompletionRequest(prompt="p", model_id="m")
        transcript.append(request, 0, "a\u2028b\x85c\u2029d", latency_ms=0)
        assert Gateway(ReplayBackend(transcript)).complete(request) == "a\u2028b\x85c\u2029d"

    def test_concurrent_appends_write_whole_lines(self, tmp_path):
        transcript = Transcript(tmp_path / "t.jsonl")
        requests = [CompletionRequest(prompt=f"p{i}", model_id="m") for i in range(8)]

        def append_all(request):
            for attempt in range(40):
                transcript.append(request, attempt, "r" * 2000, latency_ms=0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append_all, args=(r,)) for r in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(transcript.responses()) == 8 * 40

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"digest": "d2", "respo',
            "[1, 2]",
            '{"digest": "d2"}',
            '{"digest": 7, "response": "x"}',
            '{"digest": "d2", "response": "x", "request": "r"}',
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, bad_line):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"digest": "d1", "response": "ok"}) + "\n\n" + bad_line + "\n")
        with pytest.raises(ConfigError, match=r"t\.jsonl:3: malformed"):
            Transcript(path).responses()

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            list(Transcript(tmp_path / "absent.jsonl").records())


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def post(self, url, **kwargs):
        self.calls += 1
        return self.responses.pop(0)


class TestHttpBackend:
    def test_parses_chat_completion_shape(self):
        payload = {"choices": [{"message": {"content": "hello"}}]}
        backend = HttpBackend("http://api", session=FakeSession([FakeResponse(200, payload)]))
        request = CompletionRequest(prompt="p", model_id="m")
        assert backend.complete(request, 0) == "hello"

    def test_retries_transient_500_then_succeeds(self):
        payload = {"choices": [{"message": {"content": "ok"}}]}
        session = FakeSession([FakeResponse(500), FakeResponse(200, payload)])
        backend = HttpBackend("http://api", session=session, backoff_s=0.0)
        assert backend.complete(CompletionRequest(prompt="p", model_id="m"), 0) == "ok"
        assert session.calls == 2

    def test_rate_limited_after_attempts(self):
        session = FakeSession([FakeResponse(429)] * 3)
        backend = HttpBackend("http://api", session=session, attempts=3, backoff_s=0.0)
        with pytest.raises(RateLimited):
            backend.complete(CompletionRequest(prompt="p", model_id="m"), 0)

    def test_unavailable_after_attempts(self):
        session = FakeSession([FakeResponse(503)] * 3)
        backend = HttpBackend("http://api", session=session, attempts=3, backoff_s=0.0)
        with pytest.raises(BackendUnavailable):
            backend.complete(CompletionRequest(prompt="p", model_id="m"), 0)

    def test_hard_client_error_not_retried(self):
        session = FakeSession([FakeResponse(400, text="bad request")])
        backend = HttpBackend("http://api", session=session, backoff_s=0.0)
        with pytest.raises(BackendUnavailable):
            backend.complete(CompletionRequest(prompt="p", model_id="m"), 0)
        assert session.calls == 1

    @pytest.mark.parametrize(
        "payload",
        [
            json.JSONDecodeError("Expecting value", "<html>", 0),
            ["not", "an", "object"],
            {"choices": []},
            {"choices": [{"text": "legacy shape"}]},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": ["a", "list"]}}]},
        ],
    )
    def test_malformed_200_body_is_backend_unavailable(self, payload):
        session = FakeSession([FakeResponse(200, payload)])
        backend = HttpBackend("http://api", session=session, backoff_s=0.0)
        with pytest.raises(BackendUnavailable):
            backend.complete(CompletionRequest(prompt="p", model_id="m"), 0)
        assert session.calls == 1

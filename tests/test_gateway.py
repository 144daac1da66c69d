import base64
import json
import sys
import threading
import time

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
from tablesync import gateway as gateway_module, prompts


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
        request = translation_request()
        with Gateway(StubBackend(rules), transcript=transcript) as recording:
            recorded = [recording.complete(request, attempt=i) for i in range(3)]
        assert len(transcript.responses()) == 3  # attempts keep digests distinct

        replay = Gateway(ReplayBackend(transcript))
        assert [replay.complete(request, attempt=i) for i in range(3)] == recorded

    def test_replay_miss(self, tmp_path):
        transcript = Transcript(tmp_path / "transcript.jsonl")
        with Gateway(StubBackend(StubRuleSet()), transcript=transcript) as recording:
            recording.complete(translation_request())
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
        request = translation_request()
        with Gateway(StubBackend(StubRuleSet()), transcript=transcript) as gateway:
            gateway.complete(request)
        (record,) = list(transcript.records())
        assert record["digest"] == request_digest(request, 0)
        assert record["request"]["tag"] == "translate"
        assert "latency_ms" in record and "timestamp" in record

    def test_unicode_line_separators_survive(self, tmp_path):
        transcript = Transcript(tmp_path / "t.jsonl")
        request = CompletionRequest(prompt="p", model_id="m")
        transcript.append(request, 0, "a\u2028b\x85c\u2029d", latency_ms=0)
        transcript.close()
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
            transcript.close()
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


class CountingBackend:
    """Echoes the prompt after a short wait, recording the peak of calls in flight."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.in_flight = self.peak = self.calls = 0

    def complete(self, request, attempt):
        with self.lock:
            self.in_flight += 1
            self.calls += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0.001)
        with self.lock:
            self.in_flight -= 1
        return request.prompt


class TestGatewayMap:
    def test_results_in_item_order_under_the_bound(self):
        backend = CountingBackend()
        gateway = Gateway(backend, concurrency=4)
        results = {}

        def caller(name):
            prompts_ = [f"{name}-{i}" for i in range(60)]
            requests_ = [CompletionRequest(prompt=text, model_id="m") for text in prompts_]
            results[name] = (gateway.map(gateway.complete, requests_), prompts_)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(f"c{n}",)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            gateway.close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 6 and all(got == wanted for got, wanted in results.values())
        assert backend.calls == 6 * 60 and 1 < backend.peak <= 4
        assert not [t for t in threading.enumerate() if t.name.startswith("tablesync-gateway")]

    def test_raises_the_first_failure_in_item_order(self):
        def fn(item):
            if item == 3:
                time.sleep(0.05)
                raise ValueError("item 3")
            if item == 6:
                raise ValueError("item 6")
            return item

        with Gateway(StubBackend(StubRuleSet()), concurrency=4) as gateway:
            with pytest.raises(ValueError, match="item 3"):
                gateway.map(fn, range(10))
            assert gateway.map(fn, [0, 1, 2]) == [0, 1, 2]
            assert gateway.map(fn, []) == []

    def test_nested_maps_leave_no_task_waiting(self):
        # Each outer item runs an inner map, as an instance does. Every helper
        # is busy in the outer map, so a task handed to the pool for an inner
        # map would wait in its queue, holding that batch, until one frees.
        with Gateway(StubBackend(StubRuleSet()), concurrency=2) as gateway:
            lock = threading.Lock()
            waiting = peak = 0
            submit = gateway._helpers.submit

            def counted_submit(fn):
                nonlocal waiting, peak

                def started():
                    nonlocal waiting
                    with lock:
                        waiting -= 1
                    fn()

                with lock:
                    waiting += 1
                    peak = max(peak, waiting)
                return submit(started)

            def inner(item):
                time.sleep(0.001)
                return item

            gateway._helpers.submit = counted_submit
            assert gateway.map(lambda n: sum(gateway.map(inner, range(n))), range(8)) == [
                n * (n - 1) // 2 for n in range(8)
            ]
        assert peak <= 2

    def test_free_helper_joins_an_open_batch(self):
        # Item 2's inner map opens while both helpers are busy; the one that
        # frees first joins it.
        threads = set()

        def inner(_):
            threads.add(threading.current_thread().name)
            time.sleep(0.03)

        def outer(item):
            if item == 2:
                return gateway.map(inner, range(6))
            time.sleep(0.02)

        with Gateway(StubBackend(StubRuleSet()), concurrency=2) as gateway:
            gateway.map(outer, range(3))
        assert len(threads) > 1

    def test_concurrency_one_runs_on_the_calling_thread(self):
        gateway = Gateway(StubBackend(StubRuleSet()))
        assert gateway.map(lambda _: threading.get_ident(), range(5)) == [threading.get_ident()] * 5
        assert not [t for t in threading.enumerate() if t.name.startswith("tablesync-gateway")]
        gateway.close()


def completion_body(content) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


REQUEST = CompletionRequest(prompt="p", model_id="m")


class TestHttpBackend:
    """HttpBackend against a loopback server (see conftest.ScriptedServer)."""

    @pytest.fixture()
    def backend(self, http_server):
        """Factory of backends on the loopback server, closed after the test."""
        made = []

        def make(**kwargs):
            endpoint = f"{http_server.base}/v1/chat/completions"
            made.append(HttpBackend(endpoint, **{"backoff_s": 0.0, **kwargs}))
            return made[-1]

        yield make
        for backend in made:
            backend.close()

    def test_parses_chat_completion_shape(self, backend, http_server):
        http_server.script = [(200, completion_body("hello"))]
        assert backend(api_key="k3y").complete(REQUEST, 0) == "hello"
        ((method, path, headers, body, _),) = http_server.seen
        assert (method, path, headers["Authorization"]) == ("POST", "/v1/chat/completions", "Bearer k3y")
        assert json.loads(body)["messages"] == [{"role": "user", "content": "p"}]

    def test_retries_transient_500_then_succeeds(self, backend, http_server):
        http_server.script = [(500, b"{}"), (200, completion_body("ok"))]
        assert backend().complete(REQUEST, 0) == "ok"
        assert len(http_server.seen) == 2

    def test_rate_limited_after_attempts(self, backend, http_server):
        http_server.script = [(429, b"{}")] * 3
        with pytest.raises(RateLimited):
            backend(attempts=3).complete(REQUEST, 0)
        assert len(http_server.seen) == 3

    def test_unavailable_after_attempts(self, backend, http_server):
        http_server.script = [(503, b"{}")] * 3
        with pytest.raises(BackendUnavailable):
            backend(attempts=3).complete(REQUEST, 0)
        assert len(http_server.seen) == 3

    def test_hard_client_error_not_retried(self, backend, http_server):
        http_server.script = [(400, b"bad request")]
        with pytest.raises(BackendUnavailable, match="HTTP 400: bad request"):
            backend().complete(REQUEST, 0)
        assert len(http_server.seen) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            bytearray(b"<html>"),  # not JSON; sent as is
            ["not", "an", "object"],
            {"choices": []},
            {"choices": [{"text": "legacy shape"}]},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": ["a", "list"]}}]},
        ],
    )
    def test_malformed_200_body_is_backend_unavailable(self, backend, http_server, payload):
        body = bytes(payload) if isinstance(payload, bytearray) else json.dumps(payload).encode()
        http_server.script = [(200, body)]
        with pytest.raises(BackendUnavailable):
            backend().complete(REQUEST, 0)
        assert len(http_server.seen) == 1

    def test_calls_from_one_thread_share_one_connection(self, backend, http_server):
        http_server.script = [(200, completion_body(str(i))) for i in range(3)]
        client = backend()
        assert [client.complete(REQUEST, 0) for _ in range(3)] == ["0", "1", "2"]
        assert len(http_server.seen) == 3 and len(http_server.clients()) == 1

    def test_connection_closed_while_idle_is_reopened_without_sleep(self, backend, http_server, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds} s")

        monkeypatch.setattr(gateway_module.time, "sleep", no_sleep)
        http_server.script = [(200, completion_body("first"), "close"), (200, completion_body("second"))]
        client = backend(backoff_s=1.0)
        http_server.closed.clear()
        assert client.complete(REQUEST, 0) == "first"
        assert http_server.closed.wait(timeout=10)
        assert client.complete(REQUEST, 0) == "second"
        assert len(http_server.seen) == 2 and len(http_server.clients()) == 2

    def test_http_proxy_from_environment(self, http_server, closed_port, monkeypatch):
        monkeypatch.setenv("http_proxy", http_server.base)
        endpoint = f"http://127.0.0.1:{closed_port}/v1/chat/completions"
        http_server.script = [(200, completion_body("via proxy"))]
        client = HttpBackend(endpoint)
        assert client.complete(REQUEST, 0) == "via proxy"
        client.close()
        ((_, path, headers, _, _),) = http_server.seen
        assert path == endpoint
        assert headers["Host"] == f"127.0.0.1:{closed_port}"

    def test_https_endpoint_tunnels_through_proxy_with_credentials(
        self, http_server, closed_port, monkeypatch
    ):
        monkeypatch.setenv("https_proxy", http_server.base.replace("http://", "http://us%40r:pw@"))
        http_server.script = [(407, b"")]
        client = HttpBackend(f"https://127.0.0.1:{closed_port}/v1/chat/completions", attempts=1)
        with pytest.raises(BackendUnavailable, match="407"):
            client.complete(REQUEST, 0)
        client.close()
        ((method, path, headers, _, _),) = http_server.seen
        assert (method, path) == ("CONNECT", f"127.0.0.1:{closed_port}")
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"us@r:pw").decode()

    def test_connection_refused_is_backend_unavailable(self, closed_port, no_proxy_env):
        backend = HttpBackend(f"http://127.0.0.1:{closed_port}/", attempts=2, backoff_s=0.0)
        with pytest.raises(BackendUnavailable, match="no response after 2 attempts"):
            backend.complete(REQUEST, 0)

    @pytest.mark.parametrize("endpoint", ["api.example/v1", "ftp://host/v1", "http:///v1"])
    def test_endpoint_must_be_http_url(self, endpoint):
        with pytest.raises(ConfigError, match="not an http or https URL"):
            HttpBackend(endpoint)

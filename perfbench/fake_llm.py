"""Fake chat-completion server for the http-latency workload.

Serves `POST /<namespace>/chat/completions` in the OpenAI-style shape that
`tablesync.gateway.HttpBackend` reads, answering with `StubBackend` output
after a fixed delay (`DELAY_S`) counted from the moment the request line
arrives. Status line, headers and body leave in one send: separate header and
body writes meet the peer's delayed ACK and can stall each call by tens of
milliseconds.

Faults are a pure function of the prompt and of how often the same request
body was already seen in its namespace (see `fault_for`). Each benchmark pass uses a
fresh namespace, so every pass meets the same schedule.
`GET /stats/<namespace>` returns that namespace's request and fault counts.

Run (prints `PORT <n>` once listening; stop it with SIGTERM):

    PYTHONPATH=src python3 perfbench/fake_llm.py --lexicons DIR --poison TEXT --flaky TEXT
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

GARBAGE = "Sorry, I cannot produce that table right now."
# Fixed model latency per call, counted from request receipt.
DELAY_S = 0.020


def is_merge_prompt(prompt: str) -> bool:
    return "Graph A:" in prompt and "Graph B:" in prompt


def is_retry_target(prompt: str) -> bool:
    """Graph-to-table and row-comparison prompts: one pipeline stage and one
    evaluation call per instance that a spoiled first answer sends to a retry."""
    return "Knowledge Graph G:" in prompt or ("Table 1:" in prompt and "Table 2:" in prompt)


def fault_for(prompt: str, repeat: int, poison: str, flaky: tuple[str, ...]) -> bool:
    """True when this request is answered with garbage.

    `repeat` counts earlier sightings of the same request body. A merge prompt
    that holds the poison text is spoiled every time, so its instance must end
    in a typed stage failure. A graph-to-table or row-comparison prompt that
    holds a flaky instance's text is spoiled on its first sighting only, which
    forces exactly one retry. Entity names are the texts used, and the
    schedule does not depend on the seed's spellings.
    """
    if poison and poison in prompt and is_merge_prompt(prompt):
        return True
    return repeat == 0 and is_retry_target(prompt) and any(name in prompt for name in flaky)


class FakeLLM:
    """Request bookkeeping shared by the handler threads."""

    def __init__(self, complete, poison: str, flaky: tuple[str, ...], delay_s: float = DELAY_S) -> None:
        self.complete = complete  # prompt, model, temperature, max_tokens -> text
        self.poison = poison
        self.flaky = flaky
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.seen: dict[tuple[str, bytes], int] = {}
        self.stats: dict[str, dict[str, int]] = {}

    def answer(self, namespace: str, body: bytes) -> str:
        request = json.loads(body)
        prompt = request["messages"][0]["content"]
        key = (namespace, hashlib.sha256(body).digest())
        with self.lock:
            repeat = self.seen.get(key, 0)
            self.seen[key] = repeat + 1
            stats = self.stats.setdefault(namespace, {"requests": 0, "faults_served": 0})
            stats["requests"] += 1
            faulty = fault_for(prompt, repeat, self.poison, self.flaky)
            if faulty:
                stats["faults_served"] += 1
        if faulty:
            return GARBAGE
        return self.complete(
            prompt, request["model"], request["temperature"], request["max_tokens"]
        )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server_version = "fake-llm"

    def parse_request(self) -> bool:
        self.received = time.monotonic()
        return super().parse_request()

    def log_message(self, format, *args) -> None:  # noqa: A002 - base signature
        pass

    def _send(self, status: int, reason: str, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_POST(self) -> None:
        fake: FakeLLM = self.server.fake
        namespace = self.path.strip("/").split("/", 1)[0]
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            content = fake.answer(namespace, body)
        except Exception as exc:  # noqa: BLE001 - report any stub failure to the client
            self._send(500, "Internal Server Error", {"error": f"{type(exc).__name__}: {exc}"})
            return
        remaining = self.received + fake.delay_s - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)
        self._send(
            200,
            "OK",
            {
                "object": "chat.completion",
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": content},
                        "finish_reason": "stop",
                    }
                ],
            },
        )

    def do_GET(self) -> None:
        fake: FakeLLM = self.server.fake
        parts = self.path.strip("/").split("/")
        if len(parts) != 2 or parts[0] != "stats":
            self._send(404, "Not Found", {"error": "unknown path"})
            return
        with fake.lock:
            stats = dict(fake.stats.get(parts[1], {"requests": 0, "faults_served": 0}))
        self._send(200, "OK", stats)


def make_server(fake: FakeLLM, port: int = 0) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    server.daemon_threads = True
    server.fake = fake
    return server


def stub_completer(lexicon_dir: str):
    from tablesync.gateway import CompletionRequest
    from tablesync.stub import StubBackend, StubRuleSet

    backend = StubBackend(StubRuleSet.from_dir(lexicon_dir))

    def complete(prompt: str, model: str, temperature: float, max_tokens: int) -> str:
        request = CompletionRequest(prompt, model, temperature, max_tokens)
        return backend.complete(request, 0)

    return complete


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lexicons", required=True)
    parser.add_argument("--poison", default="", help="text whose merge prompts always fail")
    parser.add_argument("--flaky", action="append", default=[], help="text whose prompts fail once")
    args = parser.parse_args()

    fake = FakeLLM(stub_completer(args.lexicons), args.poison, tuple(args.flaky))
    server = make_server(fake)

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        sys.stdout.flush()


if __name__ == "__main__":
    main()

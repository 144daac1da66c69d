import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from tablesync.dataset import iter_instance_dirs, load_instance
from tablesync.gateway import Gateway
from tablesync.stub import StubBackend, StubRuleSet
from tablesync.tables import InfoTable, TableRow

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def lexicon_dir() -> Path:
    return FIXTURES / "lexicons"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return FIXTURES / "corpus"


@pytest.fixture(scope="session")
def rules(lexicon_dir) -> StubRuleSet:
    return StubRuleSet.from_dir(lexicon_dir)


@pytest.fixture()
def stub_gateway(rules) -> Gateway:
    return Gateway(StubBackend(rules))


@pytest.fixture(scope="session")
def instances(corpus_dir):
    return [load_instance(d) for d in iter_instance_dirs(corpus_dir)]


@pytest.fixture()
def mk_table():
    def make(pairs, lang="en", entity="Entity", category="City", revision_tag=None) -> InfoTable:
        rows = tuple(TableRow(k, v) for k, v in pairs)
        return InfoTable(entity, lang, category, rows, revision_tag)

    return make


class ScriptedServer(ThreadingHTTPServer):
    """Loopback HTTP/1.1 server answering from a script, recording each request.

    `script` holds (status, body) or (status, body, "close") entries served in
    order; "close" drops the connection after the response without saying so
    in a header, as a server closing an idle keep-alive connection does.
    `seen` holds (method, path, headers, body, client address) per request,
    and `closed` is set each time the server closes a connection.
    """

    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.script: list[tuple] = []
        self.seen: list[tuple] = []
        self.lock = threading.Lock()
        self.closed = threading.Event()

    @property
    def base(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def clients(self) -> set:
        return {seen[4] for seen in self.seen}

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.closed.set()


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args) -> None:  # noqa: A002 - base signature
        pass

    def _serve(self) -> None:
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with server.lock:
            server.seen.append((self.command, self.path, self.headers, body, self.client_address))
            status, payload, *close = server.script.pop(0) if server.script else (500, b"unscripted")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection = bool(close)

    do_CONNECT = do_GET = do_POST = _serve


@pytest.fixture()
def no_proxy_env(monkeypatch):
    """Clear every *_proxy variable, which urllib.request.getproxies reads."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture()
def http_server(no_proxy_env):
    server = ScriptedServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture()
def closed_port() -> int:
    """A loopback port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]

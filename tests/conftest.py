import importlib.util
import io
import os
import socket
import threading
from contextlib import redirect_stderr, redirect_stdout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from tablesync import cli
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


class FaultBackend(StubBackend):
    """The stub with faults injected by stage tag: the one way tests spoil answers.

    `faults` maps a request's tag to what the backend does instead of simply
    answering: a str is served as the answer, an exception is raised, and a
    callable edit(request, attempt, answer) gets the stub's answer and returns
    the one served. The tag "*" stands for every tag without an entry of its
    own. `calls` logs each (tag, attempt) served, in the order served.
    """

    def __init__(self, rules: StubRuleSet, faults: dict | None = None) -> None:
        super().__init__(rules)
        self.faults = dict(faults or {})
        self.calls: list[tuple[str, int]] = []

    def complete(self, request, attempt):
        self.calls.append((request.tag, attempt))
        fault = self.faults.get(request.tag, self.faults.get("*"))
        if isinstance(fault, BaseException):
            raise fault
        if isinstance(fault, str):
            return fault
        answer = super().complete(request, attempt)
        return answer if fault is None else fault(request, attempt, answer)


def quiet_cli(*argv) -> int:
    """cli.main(argv) with what it prints discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def output_files(root: Path) -> dict[Path, bytes]:
    """Every file under root, by path relative to root, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="session")
def generator():
    """tests/fixtures/generate_corpus.py, which owns the corpus writer."""
    spec = importlib.util.spec_from_file_location("generate_corpus", FIXTURES / "generate_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    `script` holds (status, body), (status, body, "close") or (status, body,
    "announce") entries served in order. "close" drops the connection after the
    response without saying so in a header, as a server closing an idle
    keep-alive connection does; "announce" sends `Connection: close` first.
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
        if close == ["announce"]:
            self.send_header("Connection", "close")
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

"""Pluggable text-completion gateway with transcript record/replay."""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, TypeVar

from .errors import BackendUnavailable, ConfigError, RateLimited, ReplayMiss, TableSyncError

T = TypeVar("T")
R = TypeVar("R")

log = logging.getLogger(__name__)

ENV_ENDPOINT = "SYNC_LLM_ENDPOINT"
ENV_API_KEY = "SYNC_LLM_API_KEY"
ENV_MODEL = "SYNC_LLM_MODEL"

DEFAULT_PIPELINE_TEMPERATURE = 0.0
DEFAULT_EVAL_TEMPERATURE = 0.2
DEFAULT_MAX_TOKENS = 2048
# Offset keeping reprompt digests apart from voting-round digests.
RETRY_ATTEMPT_OFFSET = 1000


@dataclass(frozen=True)
class CompletionRequest:
    """One prompt for one model; tag labels the pipeline stage for the transcript."""

    prompt: str
    model_id: str
    temperature: float = DEFAULT_PIPELINE_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt is empty")
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")


def request_digest(request: CompletionRequest, attempt: int = 0) -> str:
    """Stable content hash of (model_id, prompt, temperature, attempt)."""
    payload = json.dumps(
        {
            "model_id": request.model_id,
            "prompt": request.prompt,
            "temperature": request.temperature,
            "attempt": attempt,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Backend(Protocol):
    def complete(self, request: CompletionRequest, attempt: int) -> str: ...


class HttpBackend:
    """Generic chat-completion client on the standard library.

    Each thread keeps one keep-alive connection (http.client, TCP_NODELAY) and
    sends each request's header block and body in one write. A connection the
    server closed while idle is found before the write and reopened at once;
    a request is never sent twice on one attempt. Proxies come from the
    environment (http_proxy, https_proxy, no_proxy): an http endpoint is
    reached by absolute URI through the proxy, an https endpoint through a
    CONNECT tunnel. https verifies against the system CA store.

    Transient failures (connection errors, 429, 5xx) are retried with capped
    exponential backoff.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str = "",
        *,
        attempts: int = 3,
        backoff_s: float = 1.0,
        backoff_cap_s: float = 8.0,
        timeout_s: float = 60.0,
    ) -> None:
        # Imported where HTTP is used, so other commands start without them.
        import base64
        import http.client
        import urllib.request

        self.endpoint = endpoint
        self.api_key = api_key
        self.attempts = attempts
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s

        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"endpoint is not an http or https URL: {endpoint!r}")
        https = url.scheme == "https"
        port = url.port or (443 if https else 80)
        host = url.netloc.rpartition("@")[2]
        target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        headers = {"Host": host, "Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        self._address, self._tunnel = (url.hostname, port), None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.hostname):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                raise ConfigError(f"{url.scheme}_proxy is not an http:// proxy URL: {proxy!r}")
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            proxy_headers = {}
            if proxy_url.username is not None:
                user = urllib.parse.unquote(proxy_url.username)
                password = urllib.parse.unquote(proxy_url.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode()
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if https:
                self._tunnel = (url.hostname, port, proxy_headers)
            else:
                target = urllib.parse.urlunsplit((url.scheme, host, url.path or "/", url.query, ""))
                headers.update(proxy_headers)
        if https:
            import ssl

            self._connection_class = http.client.HTTPSConnection
            self._connection_args = {"context": ssl.create_default_context()}
        else:
            self._connection_class = http.client.HTTPConnection
            self._connection_args = {}

        lines = [f"POST {target} HTTP/1.1", *(f"{name}: {value}" for name, value in headers.items())]
        if any(ch in line for line in lines for ch in "\r\n"):
            raise ConfigError("endpoint, API key and proxy settings must not hold line breaks")
        try:
            self._head = ("\r\n".join(lines) + "\r\n").encode("latin-1")
        except UnicodeEncodeError as exc:
            raise ConfigError(f"endpoint or API key is not Latin-1 text: {exc}") from None
        self._local = threading.local()
        self._connections: list = []  # every thread's connection, for close()
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest, attempt: int) -> str:
        import http.client

        body = json.dumps(
            {
                "model": request.model_id,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
            }
        ).encode("utf-8")
        message = self._head + b"Content-Length: %d\r\n\r\n" % len(body) + body

        last_error: Exception | None = None
        rate_limited = False
        for retry in range(self.attempts):
            if retry:
                log.warning("retrying completion (%d/%d): %s", retry, self.attempts, last_error)
                time.sleep(min(self.backoff_s * 2 ** (retry - 1), self.backoff_cap_s))
            try:
                status, data = self._exchange(message)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status == 429:
                rate_limited = True
                last_error = RateLimited("HTTP 429")
                continue
            if status >= 500:
                last_error = BackendUnavailable(f"HTTP {status}")
                continue
            if status != 200:
                text = data[:200].decode("utf-8", "replace")
                raise BackendUnavailable(f"HTTP {status}: {text}")
            try:
                content = json.loads(data)["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise BackendUnavailable(f"malformed completion body: {exc!r}") from exc
            if not isinstance(content, str):
                raise BackendUnavailable(f"completion content is not text: {content!r}")
            return content
        if rate_limited:
            raise RateLimited(f"rate limited after {self.attempts} attempts")
        raise BackendUnavailable(f"no response after {self.attempts} attempts: {last_error}")

    def _exchange(self, message: bytes) -> tuple[int, bytes]:
        """Send one request on this thread's connection; (status, body)."""
        import select

        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(
                *self._address, timeout=self.timeout_s, **self._connection_args
            )
            if self._tunnel is not None:
                host, port, headers = self._tunnel
                connection.set_tunnel(host, port, headers)
            with self._lock:
                self._connections.append(connection)
            self._local.connection = connection
        elif connection.sock is not None and select.select([connection.sock], [], [], 0)[0]:
            # An idle keep-alive socket is readable only when the server
            # closed it (or sent bytes nobody asked for): reopen before writing.
            connection.close()
        keep = False
        try:
            if connection.sock is None:
                connection.connect()
            connection.sock.sendall(message)
            response = connection.response_class(connection.sock, method="POST")
            response.begin()
            data = response.read()
            keep = not response.will_close
            return response.status, data
        finally:
            if not keep:
                connection.close()

    def close(self) -> None:
        """Close every thread's connection; call when no completion is running."""
        with self._lock:
            for connection in self._connections:
                connection.close()


class ReplayBackend:
    """Serves recorded responses by request digest; misses are hard errors."""

    def __init__(self, transcript: Transcript) -> None:
        self.responses = transcript.responses()

    def complete(self, request: CompletionRequest, attempt: int) -> str:
        digest = request_digest(request, attempt)
        try:
            return self.responses[digest]
        except KeyError:
            raise ReplayMiss(
                f"no recorded response for digest {digest} (tag={request.tag!r})"
            ) from None


class Transcript:
    """Line-delimited JSON file with one record per completion.

    The only code that reads or writes the transcript format. Appends are
    serialized, so concurrent Gateway.complete() calls each write one whole line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None  # opened by the first append

    def records(self) -> Iterator[dict]:
        """Records in file order, read one line at a time; a malformed line is
        a ConfigError naming it."""
        try:
            with open(self.path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, 1):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                        valid = (
                            isinstance(record["digest"], str)
                            and isinstance(record["response"], str)
                            and isinstance(record.get("request", {}), dict)
                        )
                    except (ValueError, TypeError, KeyError):
                        valid = False
                    if not valid:
                        raise ConfigError(f"{self.path}:{number}: malformed transcript record")
                    yield record
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read transcript {self.path}: {exc}") from exc

    def responses(self) -> dict[str, str]:
        """Digest -> response map; last write wins."""
        return {record["digest"]: record["response"] for record in self.records()}

    def append(self, request: CompletionRequest, attempt: int, response: str, latency_ms: int) -> None:
        record = {
            "digest": request_digest(request, attempt),
            "request": {
                "model_id": request.model_id,
                "prompt": request.prompt,
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
                "tag": request.tag,
                "attempt": attempt,
            },
            "response": response,
            "timestamp": time.time(),
            "latency_ms": latency_ms,
        }
        line = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class Gateway:
    """Front door for completions, and the one worker pool of a run.

    At most `concurrency` backend calls are in flight at once, whichever
    threads ask. `map` overlaps independent calls on the calling thread and
    up to 2 * (concurrency - 1) helper threads; nested `map` calls share the
    helpers. There are more threads than slots so that a slot does not sit
    idle while its thread parses or writes between calls. Each completion is
    appended to the transcript when one is given. `close` (or leaving a
    `with` block) stops the helpers and closes the transcript and the backend.
    """

    def __init__(
        self, backend: Backend, *, transcript: Transcript | None = None, concurrency: int = 1
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.backend = backend
        self.transcript = transcript
        self._slots = threading.Semaphore(concurrency)
        self._lock = threading.Lock()
        self._open: list[_Batch] = []  # batches of the map calls running, oldest first
        self._idle = 2 * (concurrency - 1)  # helpers not working on a batch
        self._helpers = None
        if self._idle:
            self._helpers = ThreadPoolExecutor(self._idle, "tablesync-gateway")

    def __enter__(self) -> Gateway:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._helpers is not None:
            self._helpers.shutdown()
        if self.transcript is not None:
            self.transcript.close()
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            close_backend()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """[fn(item) for item in items], with the calls overlapped.

        The calling thread takes part, with helpers as they come free, so
        with concurrency 1 every call runs on it, in item order. Once a call
        raises, calls not yet started are skipped; when the started ones have
        finished, the exception of the first failing item in item order is
        raised.
        """
        batch = _Batch(fn, list(items))
        with self._lock:
            self._open.append(batch)
            woken = max(0, min(self._idle, len(batch.items) - 1))
            self._idle -= woken
        for _ in range(woken):
            self._helpers.submit(self._help)
        batch.run()
        with self._lock:
            self._open.remove(batch)
        return batch.results()

    def _help(self) -> None:
        """Work on the oldest open batch with an item left, then the next,
        until none has one; then go idle. A busy helper thus joins batches
        opened while it worked, and no task waits in the pool's queue for a
        busy helper."""
        while True:
            with self._lock:
                batch = next((b for b in self._open if b.unclaimed()), None)
                if batch is None:
                    self._idle += 1
                    return
            batch.run()  # never raises: run() keeps every outcome

    def complete(self, request: CompletionRequest, attempt: int = 0) -> str:
        with self._slots:
            started = time.monotonic()
            response = self.backend.complete(request, attempt)
        if self.transcript is not None:
            latency_ms = int((time.monotonic() - started) * 1000)
            self.transcript.append(request, attempt, response, latency_ms)
        return response

    def complete_parsed(self, request: CompletionRequest, parse: Callable[[str], object], attempt: int = 0):
        """Complete and parse, reprompting once when parse raises a TableSyncError.

        The reprompt uses attempt + RETRY_ATTEMPT_OFFSET, so it has its own
        digest. Backend errors propagate without a reprompt. Returns the parsed
        value and the response it came from.
        """
        response = self.complete(request, attempt=attempt)
        try:
            return parse(response), response
        except TableSyncError as exc:
            log.warning("%s output unparseable (%s); reprompting once", request.tag, exc)
        response = self.complete(request, attempt=attempt + RETRY_ATTEMPT_OFFSET)
        return parse(response), response


class _Batch:
    """The items of one `Gateway.map` call, claimed in order by the caller and
    by the helpers that join it."""

    def __init__(self, fn: Callable, items: list) -> None:
        self.fn = fn
        self.items = items
        self._outcomes: list[tuple[bool, object] | None] = [None] * len(items)  # (raised, value)
        self._next = 0
        self._running = 0
        self._failed = False
        self._lock = threading.Lock()
        self._done = threading.Event()
        if not items:
            self._done.set()

    def unclaimed(self) -> bool:
        with self._lock:
            return not self._failed and self._next < len(self.items)

    def _claim(self) -> int | None:
        with self._lock:
            if self._failed or self._next == len(self.items):
                return None
            self._next += 1
            self._running += 1
            return self._next - 1

    def run(self) -> None:
        while (index := self._claim()) is not None:
            try:
                outcome = (False, self.fn(self.items[index]))
            except BaseException as exc:  # noqa: BLE001 - re-raised by results() in the caller
                outcome = (True, exc)
            with self._lock:
                self._outcomes[index] = outcome
                self._failed = self._failed or outcome[0]
                self._running -= 1
                finished = not self._running and (self._failed or self._next == len(self.items))
            if finished:
                self._done.set()

    def results(self) -> list:
        self._done.wait()
        for outcome in self._outcomes:
            if outcome is not None and outcome[0]:
                raise outcome[1]
        return [value for _, value in self._outcomes]

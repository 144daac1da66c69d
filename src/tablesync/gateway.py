"""Pluggable text-completion gateway with transcript record/replay."""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, TypeVar

from .errors import BackendUnavailable, ConfigError, RateLimited, ReplayMiss, TableSyncError, Truncated
from .tables import Value

T = TypeVar("T")
R = TypeVar("R")

DEFAULT_PIPELINE_TEMPERATURE = 0.0
DEFAULT_EVAL_TEMPERATURE = 0.2
DEFAULT_MAX_TOKENS = 2048
# Offset keeping reprompt digests apart from voting-round digests.
RETRY_ATTEMPT_OFFSET = 1000
# HttpBackend's transport policy: tries per completion, the first backoff and
# its cap (it doubles after each retry), and the socket timeout.
HTTP_ATTEMPTS = 3
HTTP_BACKOFF_S = 1.0
HTTP_BACKOFF_CAP_S = 8.0
HTTP_TIMEOUT_S = 60.0


class CompletionRequest(Value):
    """One prompt for one model; tag labels the pipeline stage for the transcript.
    Unchecked: every prompt is a package template filled by `prompts.fill`, so
    never empty, and every temperature and max_tokens is one of the constants above."""

    __slots__ = ("prompt", "model_id", "temperature", "max_tokens", "tag")
    _defaults = {"temperature": DEFAULT_PIPELINE_TEMPERATURE, "max_tokens": DEFAULT_MAX_TOKENS, "tag": ""}


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


def _http_url(text: str, schemes: tuple[str, ...], refusal: str) -> tuple[urllib.parse.SplitResult, tuple[str, int]]:
    """The URL split, and its (host in IDNA form, port). ConfigError(refusal) when its scheme is
    not in schemes, it has no host, or urlsplit, the port or IDNA refuses it (a bad IPv6 literal
    or port, a host label empty or over 63 characters), which would fail only at send time."""
    try:
        url = urllib.parse.urlsplit(text)
        if url.scheme in schemes and url.hostname:
            host = url.hostname.encode("idna").decode("ascii")
            return url, (host, url.port or (443 if url.scheme == "https" else 80))
    except ValueError:  # IDNA's UnicodeError is one
        pass
    raise ConfigError(f"{refusal} with a valid host and port: {text!r}")


class HttpBackend:
    """Generic chat-completion client on the standard library.

    Each thread keeps one keep-alive connection and sends through http.client's
    request path (TCP_NODELAY; header block and body in two writes). A
    connection the server closed while idle is found before the write and
    reopened at once; a request is never sent twice on one attempt. Proxies
    come from the environment (http_proxy, https_proxy, no_proxy): an http
    endpoint is reached by absolute URI through the proxy, an https endpoint
    through a CONNECT tunnel. https verifies against the system CA store.

    Transient failures (connection errors, 429, 5xx) are retried with capped
    exponential backoff (HTTP_ATTEMPTS, HTTP_BACKOFF_S, HTTP_BACKOFF_CAP_S).
    An answer cut at max_tokens (finish_reason "length") is Truncated, not
    retried: the same request would be cut again.
    """

    def __init__(self, endpoint: str, api_key: str = "") -> None:
        # Imported where HTTP is used, so other commands start without them.
        import base64
        import http.client
        import urllib.request

        url, address = _http_url(endpoint, ("http", "https"), "endpoint is not an http or https URL")
        https = url.scheme == "https"
        target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        self._address, self._tunnel = address, None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.hostname):
            proxy = proxy if "://" in proxy else f"http://{proxy}"
            proxy_url, self._address = _http_url(proxy, ("http",), f"{url.scheme}_proxy is not an http:// proxy URL")
            proxy_headers = {}
            if proxy_url.username is not None:
                user = urllib.parse.unquote(proxy_url.username)
                password = urllib.parse.unquote(proxy_url.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode()
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if https:  # http.client writes the CONNECT line in ASCII
                self._tunnel = (*address, proxy_headers)
            else:
                netloc = url.netloc.rpartition("@")[2]  # http.client sends it as Host
                target = urllib.parse.urlunsplit((url.scheme, netloc, url.path or "/", url.query, ""))
                headers.update(proxy_headers)
        if https:
            import ssl

            self._connection_class = http.client.HTTPSConnection
            self._connection_args = {"context": ssl.create_default_context()}
        else:
            self._connection_class = http.client.HTTPConnection
            self._connection_args = {}

        # http.client refuses these only when it sends, and not as errors a caller types.
        if not (target.isascii() and target.isprintable()) or " " in target:
            raise ConfigError(f"endpoint path holds a space, a control or a non-ASCII character: {endpoint!r}")
        if "\r" in api_key or "\n" in api_key or max(api_key, default="") > "\xff":
            raise ConfigError("API key holds a line break or a character outside Latin-1")
        self._target, self._headers = target, headers
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

        last_error: Exception | None = None
        rate_limited = False
        for retry in range(HTTP_ATTEMPTS):
            if retry:
                import logging  # imported where a run warns: most never do

                log = logging.getLogger(__name__)
                log.warning("retrying completion (%d/%d): %s", retry, HTTP_ATTEMPTS, last_error)
                time.sleep(min(HTTP_BACKOFF_S * 2 ** (retry - 1), HTTP_BACKOFF_CAP_S))
            try:
                status, data = self._exchange(body)
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
                choice = json.loads(data)["choices"][0]
                content = choice["message"]["content"]
            except (ValueError, LookupError, TypeError, RecursionError) as exc:  # too deeply nested
                raise BackendUnavailable(f"malformed completion body: {exc!r}") from exc
            if not isinstance(content, str):
                raise BackendUnavailable(f"completion content is not text: {content!r}")
            if choice.get("finish_reason") == "length":
                raise Truncated(f"answer cut at max_tokens {request.max_tokens}")
            return content
        if rate_limited:
            raise RateLimited(f"rate limited after {HTTP_ATTEMPTS} attempts")
        raise BackendUnavailable(f"no response after {HTTP_ATTEMPTS} attempts: {last_error}")

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """Send one request on this thread's connection; (status, body). Any exception
        closes the connection; http.client closes it when the answer says it will."""
        import select

        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(
                *self._address, timeout=HTTP_TIMEOUT_S, **self._connection_args
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
        try:
            connection.request("POST", self._target, body, self._headers)
            response = connection.getresponse()
            return response.status, response.read()
        except BaseException:
            connection.close()
            raise

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
        """Records in file order, read one line at a time (a leading byte-order
        mark dropped, as dataset.read_text drops it); a malformed line, or one
        whose digest, response, tag or latency UTF-8 cannot encode, is a
        ConfigError naming it."""
        try:
            with open(self.path, encoding="utf-8-sig") as handle:
                for number, line in enumerate(handle, 1):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                        digest, response = record["digest"], record["response"]
                        valid = isinstance(digest, str) and isinstance(response, str)
                        # What is printed or served must encode: json reads "\ud800" as a lone surrogate.
                        tag, latency = record.get("request", {}).get("tag", ""), record.get("latency_ms")
                        f"{digest}{response}{tag}{latency}".encode("utf-8")
                    except (ValueError, TypeError, KeyError, AttributeError, RecursionError):
                        valid = False
                    if not valid:
                        raise ConfigError(f"{self.path}:{number}: malformed transcript record")
                    yield record
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read transcript {self.path}: {exc}") from exc

    def check_appendable(self) -> None:
        """ConfigError when the file does not end in a newline: a record
        appended to its cut-off last line could never be read back."""
        try:
            with open(self.path, "rb") as handle:
                size = handle.seek(0, os.SEEK_END)
                handle.seek(max(size - 1, 0))
                last = handle.read(1)
        except FileNotFoundError:
            return
        except OSError as exc:
            raise ConfigError(f"cannot read transcript {self.path}: {exc}") from exc
        if last not in (b"", b"\n"):
            raise ConfigError(f"{self.path}: last line is cut off; records appended after it could never be replayed")

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
    idle while its thread parses or writes between calls; `cli.resolve_config`
    checks concurrency >= 1. An answer UTF-8 cannot encode is refused; the
    others go to the transcript when one is given. `close` (or leaving a `with`
    block) stops the helpers and closes the transcript and the backend.
    """

    def __init__(
        self, backend: Backend, *, transcript: Transcript | None = None, concurrency: int = 1
    ) -> None:
        self.backend = backend
        self.transcript = transcript
        self._slots = threading.Semaphore(concurrency)
        self._lock = threading.Lock()
        self._open: list[_Batch] = []  # batches of the map calls running, oldest first
        self._idle = 2 * (concurrency - 1)  # helpers not working on a batch
        self._helpers = None
        if self._idle:  # concurrency > 1; serial runs start without the executor module
            from concurrent.futures import ThreadPoolExecutor

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
        try:  # json.loads turns a "\ud800" escape into a lone surrogate, which no writer takes
            response.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise BackendUnavailable(f"answer is not UTF-8 text: {exc.reason} at character {exc.start}") from None
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
            import logging

            logging.getLogger(__name__).warning("%s output unparseable (%s); reprompting once", request.tag, exc)
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

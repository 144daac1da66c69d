"""Pluggable text-completion gateway with transcript record/replay."""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

from .errors import BackendUnavailable, ConfigError, RateLimited, ReplayMiss, TableSyncError

if TYPE_CHECKING:  # imported where HTTP is used, so other commands start without it
    import requests

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
    """Generic chat-completion client; endpoint and key come from configuration.

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
        session: requests.Session | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.api_key = api_key
        self.attempts = attempts
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def complete(self, request: CompletionRequest, attempt: int) -> str:
        import requests

        body = {
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error: Exception | None = None
        rate_limited = False
        for retry in range(self.attempts):
            if retry:
                log.warning("retrying completion (%d/%d): %s", retry, self.attempts, last_error)
                time.sleep(min(self.backoff_s * 2 ** (retry - 1), self.backoff_cap_s))
            try:
                response = self.session.post(
                    self.endpoint, json=body, headers=headers, timeout=self.timeout_s
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code == 429:
                rate_limited = True
                last_error = RateLimited("HTTP 429")
                continue
            if response.status_code >= 500:
                last_error = BackendUnavailable(f"HTTP {response.status_code}")
                continue
            if response.status_code != 200:
                raise BackendUnavailable(f"HTTP {response.status_code}: {response.text[:200]}")
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise BackendUnavailable(f"malformed completion body: {exc!r}") from exc
            if not isinstance(content, str):
                raise BackendUnavailable(f"completion content is not text: {content!r}")
            return content
        if rate_limited:
            raise RateLimited(f"rate limited after {self.attempts} attempts")
        raise BackendUnavailable(f"no response after {self.attempts} attempts: {last_error}")


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
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")


class Gateway:
    """Front door for completions; appends each one to the transcript when given.

    Callers bound concurrency themselves (the CLI's instance pool).
    """

    def __init__(self, backend: Backend, *, transcript: Transcript | None = None) -> None:
        self.backend = backend
        self.transcript = transcript

    def complete(self, request: CompletionRequest, attempt: int = 0) -> str:
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

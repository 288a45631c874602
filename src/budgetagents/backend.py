"""Agent invocation backends.

Two implementations of the same call interface: a deterministic scripted mock
whose responses and token counts come from data (so cost scenarios are exactly
controllable in tests and offline dataset synthesis), and an OpenAI-compatible
chat-completions HTTP client for real runs. Cost accounting always uses the
token usage reported by the backend, never local tokenization.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import ssl
import threading
import time
from dataclasses import dataclass
from typing import Protocol
from urllib.parse import urlsplit

from .schema import INT, STRING, check, each, non_negative, nullable, obj, positive


@dataclass(frozen=True)
class CallRequest:
    model: str
    system: str
    user: str
    max_tokens: int
    temperature: float = 0.0
    role: str = "executor"  # routing hint for scripted backends

    def __post_init__(self) -> None:
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")


@dataclass(frozen=True)
class CallResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")


class BackendError(Exception):
    """Base class for invocation failures."""

    retryable = False


class TransportError(BackendError):
    """Connection failure or timeout; worth one retry."""

    retryable = True


class HTTPStatusError(BackendError):
    """Non-2xx response. Rate limits and server errors are retryable."""

    def __init__(self, status: int, detail: str):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.retryable = status == 429 or status >= 500


class ProtocolError(BackendError):
    """Response parsed but lacked required fields (text or token usage)."""


class ScriptError(BackendError):
    """The scripted backend had no rule for a request."""


class Backend(Protocol):
    def invoke(self, request: CallRequest) -> CallResponse: ...


_FILLER_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)


@dataclass
class ScriptRule:
    """One response rule. Matches on role (or "*") and optionally on the
    1-based occurrence index of that role; rules are tried in order and the
    first match wins."""

    role: str = "*"
    step: int | None = None
    text: str | None = None
    seed: int | None = None  # deterministic filler text instead of fixed text
    completion_tokens: int = 10
    prompt_tokens: int | None = None

    def matches(self, role: str, occurrence: int) -> bool:
        if self.role != "*" and self.role != role:
            return False
        return self.step is None or self.step == occurrence

    def render_text(self, occurrence: int) -> str:
        if self.text is not None:
            return self.text
        rng = random.Random((self.seed or 0) * 1000003 + occurrence)
        n_words = max(1, min(self.completion_tokens, 40))
        return " ".join(rng.choice(_FILLER_WORDS) for _ in range(n_words))


# The spec of each field of a mock_script rule, and of the script itself.
_RULE_FIELDS = {
    "role": STRING,
    "step": nullable(positive(INT)),
    "text": nullable(STRING),
    "seed": nullable(INT),
    "completion_tokens": non_negative(INT),
    "prompt_tokens": nullable(non_negative(INT)),
}
_SCRIPT_FIELDS = {"rules": each(obj(_RULE_FIELDS)), "default_prompt_tokens": non_negative(INT)}


class ScriptedBackend:
    """Deterministic mock backend driven by an ordered rule list.

    Token counts come from the rules, not from text length. The instance is
    stateful (it counts per-role occurrences); use a fresh instance for each
    independent run.
    """

    def __init__(self, rules: list[ScriptRule], default_prompt_tokens: int = 500):
        self.rules = list(rules)
        self.default_prompt_tokens = default_prompt_tokens
        self.calls: list[CallRequest] = []
        self._role_counts: dict[str, int] = {}

    @classmethod
    def from_config(cls, config: dict) -> "ScriptedBackend":
        """Builds the backend from a profile's `mock_script`, checking its shape."""
        check(config, _SCRIPT_FIELDS, "mock_script")
        return cls(
            [ScriptRule(**entry) for entry in config.get("rules", [])],
            default_prompt_tokens=config.get("default_prompt_tokens", 500),
        )

    def invoke(self, request: CallRequest) -> CallResponse:
        self.calls.append(request)
        occurrence = self._role_counts.get(request.role, 0) + 1
        self._role_counts[request.role] = occurrence
        for rule in self.rules:
            if rule.matches(request.role, occurrence):
                completion = min(rule.completion_tokens, request.max_tokens)
                prompt = rule.prompt_tokens if rule.prompt_tokens is not None else self.default_prompt_tokens
                return CallResponse(
                    text=rule.render_text(occurrence),
                    prompt_tokens=prompt,
                    completion_tokens=completion,
                )
        raise ScriptError(f"script exhausted: no rule for role={request.role!r} occurrence={occurrence}")


class HttpBackend:
    """OpenAI-compatible chat-completions client.

    Issues POST <base_url>/chat/completions and trusts the provider-reported
    usage fields for token accounting. Retryable failures (transport, 429,
    5xx) are retried exactly once, after a pause of `backoff_base` seconds.
    Each thread keeps one kept-alive connection, because one backend serves
    every collect worker; `close()` ends them all.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str = "",
        timeout: float = 60.0,
        backoff_base: float = 1.0,
        requests_per_second: float | None = None,
    ):
        self.api_key = api_key
        self.timeout = timeout
        self.backoff_base = backoff_base
        self._min_interval = 1.0 / requests_per_second if requests_per_second else 0.0
        self._last_request = 0.0
        self._throttle_lock = threading.Lock()  # one backend serves every collect worker
        url = urlsplit(base_url.rstrip("/"))
        try:
            self._host, self._port = url.hostname, url.port  # .port raises on a malformed port
            if url.scheme not in ("http", "https") or not self._host:
                raise ValueError
        except ValueError:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {base_url!r}") from None
        self._path = f"{url.path}/chat/completions"
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []  # every thread's, for close()
        self._opened_lock = threading.Lock()

    def _throttle(self) -> None:
        if self._min_interval <= 0.0:
            return
        with self._throttle_lock:
            wait = self._last_request + self._min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection; one the peer closed while idle is reopened."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._tls is None:
                conn = http.client.HTTPConnection(self._host, self._port, timeout=self.timeout)
            else:
                conn = http.client.HTTPSConnection(
                    self._host, self._port, timeout=self.timeout, context=self._tls
                )
            self._local.conn = conn
            with self._opened_lock:
                self._opened.append(conn)
        elif conn.sock is not None and _readable(conn.sock):
            # An idle socket that reads is at EOF (or holds bytes nobody asked
            # for): sending on it would fail only after the POST went out.
            conn.close()
        return conn

    def close(self) -> None:
        """Closes every thread's kept-alive connection. A later call reconnects."""
        with self._opened_lock:
            for conn in self._opened:
                conn.close()

    def _post_once(self, body: bytes) -> CallResponse:
        self._throttle()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        conn = self._connection()
        try:
            conn.request("POST", self._path, body=body, headers=headers)
            response = conn.getresponse()
            status, raw = response.status, response.read()
        except TimeoutError as exc:
            conn.close()
            raise TransportError(f"request timed out after {self.timeout}s") from exc
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(str(exc) or type(exc).__name__) from exc
        if not 200 <= status < 300:
            raise HTTPStatusError(status, raw.decode("utf-8", "replace")[:500])
        try:
            data = json.loads(raw)
            text = data["choices"][0]["message"]["content"]
            usage = data["usage"]
            prompt_tokens = int(usage["prompt_tokens"])
            completion_tokens = int(usage["completion_tokens"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"unexpected response shape: {exc!r}") from exc
        if text is None:
            raise ProtocolError("response had no message content")
        return CallResponse(text=text, prompt_tokens=prompt_tokens, completion_tokens=completion_tokens)

    def invoke(self, request: CallRequest) -> CallResponse:
        payload = {
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        body = json.dumps(payload, allow_nan=False).encode()
        try:
            return self._post_once(body)
        except BackendError as exc:
            if not exc.retryable:
                raise
            time.sleep(self.backoff_base)
            return self._post_once(body)


def _readable(sock: socket.socket) -> bool:
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # closed, or a descriptor beyond select's range
        return True

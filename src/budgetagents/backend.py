"""Agent invocation backends.

Two implementations of the same call interface: a deterministic scripted mock
whose responses and token counts come from data (so cost scenarios are exactly
controllable in tests and offline dataset synthesis), and an OpenAI-compatible
chat-completions HTTP client for real runs. Cost accounting always uses the
token usage reported by the backend, never local tokenization.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol
from urllib.parse import urlsplit

from .profile import ROLE_EXECUTOR
from .schema import INT, STRING, check, each, non_negative, nullable, obj, positive, spec, table, validate

if TYPE_CHECKING:
    import http.client
    import socket


# The call types are plain dataclasses: a frozen one sets each field through
# object.__setattr__, which makes it about three times as slow to build, and
# every call builds a request and a response.
@dataclass
class CallRequest:
    model: str
    system: str
    user: str
    max_tokens: int
    role: str = ROLE_EXECUTOR  # scripted backends route on role and occurrence; HttpBackend sends neither
    occurrence: int = 1  # 1-based index of this role's call within its run

    def __post_init__(self) -> None:
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")


@dataclass
class CallResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int  # the run's ledger refuses a negative count (catalog.estimate_cost)


class BackendError(Exception):
    """Base class for invocation failures. `usage` is the (prompt, completion)
    token counts the provider billed for the failed call, if it reported them."""

    retryable = False
    usage: tuple[int, int] | None = None


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

    def __init__(self, message: str, usage: tuple[int, int] | None = None):
        super().__init__(message)
        self.usage = usage


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
    request's occurrence, the 1-based index of that role's call within its
    run; rules are tried in order and the first match wins."""

    role: str = spec(STRING, default="*")
    step: int | None = spec(nullable(positive(INT)), default=None)
    text: str | None = spec(nullable(STRING), default=None)
    seed: int | None = spec(nullable(INT), default=None)  # deterministic filler text instead of fixed text
    completion_tokens: int = spec(non_negative(INT), default=10)
    prompt_tokens: int | None = spec(nullable(non_negative(INT)), default=None)

    def __post_init__(self) -> None:
        validate(self)

    def filler_text(self, occurrence: int) -> str:
        """The response of a rule without fixed `text`: words drawn from its
        seed and the call's occurrence."""
        rng = random.Random((self.seed or 0) * 1000003 + occurrence)
        n_words = max(1, min(self.completion_tokens, 40))
        return " ".join(rng.choice(_FILLER_WORDS) for _ in range(n_words))


# The spec of each field of a mock_script rule, and of the script itself.
_RULE_FIELDS = table(ScriptRule)
_SCRIPT_FIELDS = {"rules": each(obj(_RULE_FIELDS)), "default_prompt_tokens": non_negative(INT)}


class ScriptedBackend:
    """Deterministic mock backend driven by an ordered rule list.

    Token counts come from the rules, not from text length. A response depends
    only on the rules and the request, whose `occurrence` the run supplies, so
    one instance serves every run and every thread.
    """

    def __init__(self, rules: list[ScriptRule], default_prompt_tokens: int = 500):
        self.rules = list(rules)
        self.default_prompt_tokens = default_prompt_tokens

    @classmethod
    def from_config(cls, config: dict) -> "ScriptedBackend":
        """Builds the backend from a profile's `mock_script`, checking its shape."""
        check(config, _SCRIPT_FIELDS, "mock_script")
        return cls(**dict(config, rules=[ScriptRule(**entry) for entry in config.get("rules", [])]))

    def invoke(self, request: CallRequest) -> CallResponse:
        role, occurrence = request.role, request.occurrence
        for rule in self.rules:
            if (rule.role == role or rule.role == "*") and (rule.step is None or rule.step == occurrence):
                text, prompt, completion = rule.text, rule.prompt_tokens, rule.completion_tokens
                return CallResponse(
                    rule.filler_text(occurrence) if text is None else text,
                    self.default_prompt_tokens if prompt is None else prompt,
                    completion if completion < request.max_tokens else request.max_tokens,
                )
        raise ScriptError(f"script exhausted: no rule for role={role!r} occurrence={occurrence}")


_USAGE_KEYS = ("prompt_tokens", "completion_tokens")
_TOKEN_COUNT = non_negative(INT)  # a JSON integer: not a bool, "400" or 12.9


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
        # HTTP and TLS load with the first real backend: provision, report
        # and mock runs never pay for them.
        import http.client
        import select
        import ssl

        self._http = http.client
        self._select = select.select
        self.api_key = api_key
        self.timeout = float(timeout)
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
                conn = self._http.HTTPConnection(self._host, self._port, timeout=self.timeout)
            else:
                conn = self._http.HTTPSConnection(
                    self._host, self._port, timeout=self.timeout, context=self._tls
                )
            self._local.conn = conn
            with self._opened_lock:
                self._opened.append(conn)
        elif conn.sock is not None and self._readable(conn.sock):
            # An idle socket that reads is at EOF (or holds bytes nobody asked
            # for): sending on it would fail only after the POST went out.
            conn.close()
        return conn

    def _readable(self, sock: socket.socket) -> bool:
        try:
            return bool(self._select([sock], [], [], 0)[0])
        except (OSError, ValueError):  # closed, or a descriptor beyond select's range
            return True

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
        except (OSError, self._http.HTTPException) as exc:
            conn.close()
            raise TransportError(str(exc) or type(exc).__name__) from exc
        if not 200 <= status < 300:
            raise HTTPStatusError(status, raw.decode("utf-8", "replace")[:500])
        # Usage is read first: a call the provider billed is charged even if
        # its content is unusable, so the ProtocolError carries the counts.
        try:
            data = json.loads(raw)
            usage = tuple(data["usage"][key] for key in _USAGE_KEYS)
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"unexpected response shape: {exc!r}") from exc
        for key, count in zip(_USAGE_KEYS, usage):
            if not _TOKEN_COUNT[0](count):
                raise ProtocolError(f"usage.{key} must be {_TOKEN_COUNT[1]}, got {count!r}")
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"unexpected response shape: {exc!r}", usage) from exc
        if text is None:
            raise ProtocolError("response had no message content", usage)
        return CallResponse(text, *usage)

    def invoke(self, request: CallRequest) -> CallResponse:
        payload = {
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": 0.0,
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

"""Agent invocation backends.

Two implementations of the same call interface: a deterministic scripted mock
whose responses and token counts come from data (so cost scenarios are exactly
controllable in tests and offline dataset synthesis), and an OpenAI-compatible
chat-completions HTTP client for real runs. Cost accounting always uses the
token usage reported by the backend, never local tokenization.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Protocol

import requests


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
        rules = [
            ScriptRule(
                role=entry.get("role", "*"),
                step=entry.get("step"),
                text=entry.get("text"),
                seed=entry.get("seed"),
                completion_tokens=int(entry.get("completion_tokens", 10)),
                prompt_tokens=entry.get("prompt_tokens"),
            )
            for entry in config.get("rules", [])
        ]
        return cls(rules, default_prompt_tokens=int(config.get("default_prompt_tokens", 500)))

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
    5xx) are retried exactly once with exponential backoff.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str = "",
        timeout: float = 60.0,
        backoff_base: float = 1.0,
        requests_per_second: float | None = None,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.backoff_base = backoff_base
        self._min_interval = 1.0 / requests_per_second if requests_per_second else 0.0
        self._last_request = 0.0
        self._throttle_lock = threading.Lock()  # one backend serves every collect worker
        self._session = session or requests.Session()

    def _throttle(self) -> None:
        if self._min_interval <= 0.0:
            return
        with self._throttle_lock:
            wait = self._last_request + self._min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def _post_once(self, payload: dict) -> CallResponse:
        self._throttle()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = self._session.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=self.timeout,
            )
        except requests.Timeout as exc:
            raise TransportError(f"request timed out after {self.timeout}s") from exc
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if not 200 <= response.status_code < 300:
            raise HTTPStatusError(response.status_code, response.text[:500])
        try:
            data = response.json()
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
        try:
            return self._post_once(payload)
        except BackendError as exc:
            if not exc.retryable:
                raise
            time.sleep(self.backoff_base)
            return self._post_once(payload)

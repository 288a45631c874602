import threading

import pytest

from budgetagents.backend import (
    CallRequest,
    HTTPStatusError,
    HttpBackend,
    ProtocolError,
    ScriptError,
    ScriptRule,
    ScriptedBackend,
    TransportError,
)


def request(role="executor", max_tokens=100):
    return CallRequest(model="m", system="sys", user="usr", max_tokens=max_tokens, role=role)


def test_request_validation():
    with pytest.raises(ValueError):
        CallRequest(model="m", system="s", user="u", max_tokens=0)
    assert request().temperature == 0.0


# -- scripted backend ---------------------------------------------------------


def test_fixed_text_rule():
    backend = ScriptedBackend([ScriptRule(role="executor", text="42", completion_tokens=10)])
    response = backend.invoke(request())
    assert response.text == "42"
    assert response.completion_tokens == 10
    assert response.prompt_tokens == 500


def test_step_keyed_rules_drive_feedback_rounds():
    backend = ScriptedBackend(
        [
            ScriptRule(role="critic", step=1, text="REJECT: fix sign", completion_tokens=5),
            ScriptRule(role="critic", step=2, text="ACCEPT", completion_tokens=2),
        ]
    )
    assert backend.invoke(request(role="critic")).text == "REJECT: fix sign"
    assert backend.invoke(request(role="critic")).text == "ACCEPT"


def test_script_replay_is_identical():
    rules = [
        ScriptRule(role="executor", step=1, text="draft", completion_tokens=7),
        ScriptRule(role="executor", text="revised", completion_tokens=9),
        ScriptRule(role="critic", seed=3, completion_tokens=12),
    ]
    sequence = [request("executor"), request("critic"), request("executor"), request("critic")]
    first = ScriptedBackend(rules)
    second = ScriptedBackend(rules)
    out1 = [first.invoke(r) for r in sequence]
    out2 = [second.invoke(r) for r in sequence]
    assert out1 == out2


def test_seeded_rule_text_varies_by_occurrence():
    backend = ScriptedBackend([ScriptRule(role="*", seed=11, completion_tokens=6)])
    a = backend.invoke(request()).text
    b = backend.invoke(request()).text
    assert a != b  # occurrence index feeds the generator


def test_completion_tokens_capped_by_max_tokens():
    backend = ScriptedBackend([ScriptRule(text="x", completion_tokens=500)])
    assert backend.invoke(request(max_tokens=64)).completion_tokens == 64


def test_script_exhausted():
    backend = ScriptedBackend([ScriptRule(role="critic", text="ACCEPT")])
    with pytest.raises(ScriptError, match="exhausted"):
        backend.invoke(request(role="executor"))


def test_from_config():
    backend = ScriptedBackend.from_config(
        {
            "default_prompt_tokens": 123,
            "rules": [{"role": "executor", "text": "hi", "completion_tokens": 4}],
        }
    )
    response = backend.invoke(request())
    assert (response.text, response.prompt_tokens, response.completion_tokens) == ("hi", 123, 4)


def test_request_log_records_prompts():
    backend = ScriptedBackend([ScriptRule(text="ok")])
    backend.invoke(request(role="planner"))
    assert backend.calls[0].role == "planner"
    assert backend.calls[0].user == "usr"


# -- http backend -------------------------------------------------------------


def chat_payload(text="hello", prompt_tokens=12, completion_tokens=3):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def test_http_ok_reads_usage(fake_server):
    fake_server.enqueue(200, chat_payload("the answer", 42, 7))
    backend = HttpBackend(fake_server.url, api_key="key123", backoff_base=0.01)
    response = backend.invoke(request())
    assert response.text == "the answer"
    assert (response.prompt_tokens, response.completion_tokens) == (42, 7)
    sent = fake_server.requests[0]
    assert sent["path"] == "/chat/completions"
    assert sent["body"]["temperature"] == 0.0
    assert sent["body"]["max_tokens"] == 100
    assert sent["body"]["messages"][0] == {"role": "system", "content": "sys"}
    assert sent["headers"]["Authorization"] == "Bearer key123"


def test_http_retries_server_error_once(fake_server):
    fake_server.enqueue(500, {"error": "flaky"})
    fake_server.enqueue(200, chat_payload())
    backend = HttpBackend(fake_server.url, backoff_base=0.01)
    assert backend.invoke(request()).text == "hello"
    assert len(fake_server.requests) == 2


def test_http_retries_rate_limit_once(fake_server):
    fake_server.enqueue(429, {"error": "slow down"})
    fake_server.enqueue(429, {"error": "slow down"})
    backend = HttpBackend(fake_server.url, backoff_base=0.01)
    with pytest.raises(HTTPStatusError) as info:
        backend.invoke(request())
    assert info.value.status == 429
    assert info.value.retryable
    assert len(fake_server.requests) == 2  # exactly one retry


def test_http_client_error_is_fatal(fake_server):
    fake_server.enqueue(404, {"error": "no such model"})
    backend = HttpBackend(fake_server.url, backoff_base=0.01)
    with pytest.raises(HTTPStatusError) as info:
        backend.invoke(request())
    assert not info.value.retryable
    assert len(fake_server.requests) == 1  # no retry on 4xx


def test_http_missing_usage_is_protocol_error(fake_server):
    fake_server.enqueue(200, {"choices": [{"message": {"content": "hi"}}]})
    backend = HttpBackend(fake_server.url, backoff_base=0.01)
    with pytest.raises(ProtocolError):
        backend.invoke(request())


def test_http_transport_error_retries_then_raises():
    backend = HttpBackend("http://127.0.0.1:9", timeout=0.2, backoff_base=0.01)
    with pytest.raises(TransportError):
        backend.invoke(request())


def test_throttle_spaces_requests_across_threads():
    stamps = []

    class StampedBackend(HttpBackend):
        # Records every update of the last-request time, in update order.
        @property
        def _last_request(self):
            return self.__dict__.get("_stamp", 0.0)

        @_last_request.setter
        def _last_request(self, value):
            self.__dict__["_stamp"] = value
            stamps.append(value)

    backend = StampedBackend("http://127.0.0.1:9", requests_per_second=50.0)
    start = threading.Barrier(4)

    def worker():
        start.wait()
        for _ in range(3):
            backend._throttle()

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    times = sorted(stamps[1:])  # stamps[0] is the constructor's 0.0
    assert len(times) == 12
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) >= backend._min_interval - 1e-4

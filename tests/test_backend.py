import http.client
import re
import sys
import threading
import time

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
from synth import RecordingBackend


def request(role="executor", max_tokens=100, occurrence=1):
    return CallRequest(model="m", system="sys", user="usr", max_tokens=max_tokens, role=role, occurrence=occurrence)


def test_request_validation():
    with pytest.raises(ValueError):
        CallRequest(model="m", system="s", user="u", max_tokens=0)


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
    assert backend.invoke(request(role="critic", occurrence=1)).text == "REJECT: fix sign"
    assert backend.invoke(request(role="critic", occurrence=2)).text == "ACCEPT"
    assert backend.invoke(request(role="critic", occurrence=1)).text == "REJECT: fix sign"


def test_script_replay_is_identical():
    rules = [
        ScriptRule(role="executor", step=1, text="draft", completion_tokens=7),
        ScriptRule(role="executor", text="revised", completion_tokens=9),
        ScriptRule(role="critic", seed=3, completion_tokens=12),
    ]
    sequence = [request("executor", occurrence=1), request("critic", occurrence=1),
                request("executor", occurrence=2), request("critic", occurrence=2)]
    backend = ScriptedBackend(rules)
    out1 = [backend.invoke(r) for r in sequence]
    # Replayed in reverse on the same instance: no earlier call shifts a response.
    out2 = [backend.invoke(r) for r in reversed(sequence)][::-1]
    assert out1 == out2
    assert [out.text for out in out1[::2]] == ["draft", "revised"]
    assert out1[1].text != out1[3].text  # the seeded critic varies by occurrence


def test_seeded_rule_text_varies_by_occurrence():
    backend = ScriptedBackend([ScriptRule(role="*", seed=11, completion_tokens=6)])
    a = backend.invoke(request(occurrence=1)).text
    b = backend.invoke(request(occurrence=2)).text
    assert a != b  # occurrence index feeds the generator
    assert backend.invoke(request(occurrence=1)).text == a


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



@pytest.mark.parametrize(
    "script, message",
    [
        ([{"role": "executor"}], "mock_script must be an object"),
        ({"rules": {"role": "executor"}}, "mock_script.rules must be a list"),
        ({"rules": [], "default_prompt_tokens": "500"}, "mock_script.default_prompt_tokens must be an integer"),
        ({"rules": [], "rule": []}, "unknown field mock_script.rule; expected one of rules, default_prompt_tokens"),
        ({"rules": ["x"]}, "mock_script.rules[0] must be an object, got 'x'"),
        ({"rules": [{"text": "a"}, {"completion_tokens": "ten"}]},
         "mock_script.rules[1].completion_tokens must be an integer >= 0, got 'ten'"),
        ({"rules": [{"completion_tokens": -1}]}, "mock_script.rules[0].completion_tokens must be"),
        ({"rules": [{"role": None}]}, "mock_script.rules[0].role must be a string"),
        ({"rules": [{"step": 0}]}, "mock_script.rules[0].step must be null or an integer > 0"),
        ({"rules": [{"text": 42}]}, "mock_script.rules[0].text must be null or a string"),
        ({"rules": [{"seed": 1.5}]}, "mock_script.rules[0].seed must be null or an integer"),
        ({"rules": [{"prompt_tokens": True}]}, "mock_script.rules[0].prompt_tokens must be"),
        ({"rules": [{"text": "a"}, {"txt": "b"}]}, "unknown field mock_script.rules[1].txt;"),
    ],
    ids=[
        "script_list", "rules_object", "default_string", "unknown_script_field", "rule_string",
        "tokens_string", "tokens_negative", "role_null", "step_zero", "text_number", "seed_float",
        "prompt_bool", "unknown_rule_field",
    ],
)
def test_from_config_rejects_malformed_script(script, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        ScriptedBackend.from_config(script)

def test_request_log_records_prompts():
    # Tests that read prompts record them with a subclass; the backend keeps none.
    backend = RecordingBackend([ScriptRule(text="ok")])
    response = backend.invoke(request(role="planner", occurrence=2))
    assert backend.calls == [request(role="planner", occurrence=2)]
    assert response == ScriptedBackend([ScriptRule(text="ok")]).invoke(request(role="planner", occurrence=2))
    assert not hasattr(ScriptedBackend([]), "calls")


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


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"choices": [{"message": {"content": None}}]}, "response had no message content"),
        ({"choices": []}, "unexpected response shape: IndexError"),
    ],
    ids=["null_content", "no_choices"],
)
def test_http_error_after_usage_carries_the_billed_counts(fake_server, payload, message):
    fake_server.enqueue(200, dict(payload, usage={"prompt_tokens": 400, "completion_tokens": 300}))
    backend = HttpBackend(fake_server.url, backoff_base=0.01)
    with pytest.raises(ProtocolError, match=message) as info:
        backend.invoke(request())
    assert info.value.usage == (400, 300)
    assert len(fake_server.requests) == 1


@pytest.mark.parametrize(
    "usage, named",
    [
        ({"prompt_tokens": "400", "completion_tokens": 3}, "usage.prompt_tokens must be an integer >= 0, got '400'"),
        ({"prompt_tokens": 12.9, "completion_tokens": 3}, "usage.prompt_tokens must be an integer >= 0, got 12.9"),
        ({"prompt_tokens": 12, "completion_tokens": -1}, "usage.completion_tokens must be an integer >= 0, got -1"),
        ({"prompt_tokens": 12, "completion_tokens": False}, "usage.completion_tokens must be an integer >= 0, got False"),
    ],
    ids=["string", "fractional", "negative", "bool"],
)
def test_http_token_counts_must_be_json_integers(fake_server, usage, named):
    fake_server.enqueue(200, {"choices": [{"message": {"content": "hi"}}], "usage": usage})
    backend = HttpBackend(fake_server.url, backoff_base=0.01)
    with pytest.raises(ProtocolError) as info:
        backend.invoke(request())
    assert str(info.value) == named
    assert info.value.usage is None


def test_http_timeout_is_a_float(fake_server):
    # A catalog's `"timeout": 30` reads "timed out after 30.0s".
    assert repr(HttpBackend(fake_server.url, timeout=30).timeout) == "30.0"


def test_https_backend_builds_its_tls_context_without_connecting():
    backend = HttpBackend("https://example.invalid/v1")
    try:
        assert backend._tls is not None
        conn = backend._connection()  # an HTTPS connection object; nothing is sent or resolved
        assert isinstance(conn, http.client.HTTPSConnection)
        assert (conn.host, conn.port, conn.sock) == ("example.invalid", 443, None)
    finally:
        backend.close()


def test_http_transport_error_retries_then_raises():
    backend = HttpBackend("http://127.0.0.1:9", timeout=0.2, backoff_base=0.01)
    with pytest.raises(TransportError):
        backend.invoke(request())



def test_http_keep_alive_reuses_one_connection(keep_alive_server):
    backend = HttpBackend(keep_alive_server.url, backoff_base=0.01)
    for _ in range(2):
        keep_alive_server.enqueue(200, chat_payload())
        assert backend.invoke(request()).text == "hello"
    assert len(keep_alive_server.requests) == 2
    assert keep_alive_server.connections == 1
    backend.close()


def test_http_idle_close_reconnects_without_a_second_post(keep_alive_server):
    keep_alive_server.idle_timeout = 0.05
    backend = HttpBackend(keep_alive_server.url, backoff_base=0.01)
    keep_alive_server.enqueue(200, chat_payload("first"))
    assert backend.invoke(request()).text == "first"
    time.sleep(0.5)  # the server drops the idle connection after 0.05 s
    attempts = []
    post_once = backend._post_once
    backend._post_once = lambda body: attempts.append(body) or post_once(body)
    keep_alive_server.enqueue(200, chat_payload("second"))
    assert backend.invoke(request()).text == "second"
    assert len(attempts) == 1  # no failed attempt on the dropped connection, no retry
    assert len(keep_alive_server.requests) == 2
    assert keep_alive_server.connections == 2
    backend.close()


def test_http_reopens_a_connection_whose_socket_was_closed(keep_alive_server):
    # select refuses a closed socket; `_readable` counts it as readable, so the
    # connection is reopened before the POST instead of failing it.
    backend = HttpBackend(keep_alive_server.url, backoff_base=0.01)
    keep_alive_server.enqueue(200, chat_payload("first"))
    assert backend.invoke(request()).text == "first"
    sock = backend._local.conn.sock
    sock.close()
    assert backend._readable(sock) is True
    attempts = []
    post_once = backend._post_once
    backend._post_once = lambda body: attempts.append(body) or post_once(body)
    keep_alive_server.enqueue(200, chat_payload("second"))
    assert backend.invoke(request()).text == "second"
    assert len(attempts) == 1 and keep_alive_server.connections == 2
    backend.close()


def test_http_threads_share_one_backend(keep_alive_server):
    for _ in range(20):
        keep_alive_server.enqueue(200, chat_payload())
    backend = HttpBackend(keep_alive_server.url, backoff_base=0.01)
    start = threading.Barrier(4)
    texts = []

    def worker():
        start.wait()
        for _ in range(5):
            texts.append(backend.invoke(request()).text)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert texts == ["hello"] * 20
    assert len(keep_alive_server.requests) == 20
    assert keep_alive_server.connections == 4  # one kept-alive connection per thread
    backend.close()


def test_http_close_closes_every_threads_connection(keep_alive_server):
    backend = HttpBackend(keep_alive_server.url, backoff_base=0.01)
    for _ in range(3):
        keep_alive_server.enqueue(200, chat_payload())
    backend.invoke(request())
    worker = threading.Thread(target=backend.invoke, args=(request(),))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert keep_alive_server.connections == 2
    backend.close()
    deadline = time.monotonic() + 5
    while keep_alive_server.closed < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert keep_alive_server.closed == 2  # the server saw both connections end
    assert backend.invoke(request()).text == "hello"  # and a later call reconnects
    assert keep_alive_server.connections == 3
    backend.close()


def test_http_timeout_retries_once_then_raises(fake_server):
    fake_server.delay = 1.0
    backend = HttpBackend(fake_server.url, timeout=0.1, backoff_base=0.01)
    with pytest.raises(TransportError, match="timed out"):
        backend.invoke(request())
    assert len(fake_server.requests) == 2


def test_http_base_url_path_prefix_is_kept(fake_server):
    fake_server.enqueue(200, chat_payload())
    backend = HttpBackend(fake_server.url + "/v1/", backoff_base=0.01)
    backend.invoke(request())
    assert fake_server.requests[0]["path"] == "/v1/chat/completions"


@pytest.mark.parametrize("url", ["api.example.com/v1", "ftp://example.com", "http://", "http://host:port"])
def test_http_malformed_base_url_rejected(url):
    with pytest.raises(ValueError, match="base_url must be an http"):
        HttpBackend(url)

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

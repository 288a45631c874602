"""Simulated OpenAI-compatible chat-completions provider for the `io` workload.

Run as its own process: `python3 bench/simulator.py`. It binds 127.0.0.1 on
a free port, prints the port on the first line of stdout, and serves until
its stdin closes, so it cannot outlive the benchmark that started it.

Every POST /v1/chat/completions is answered after inputs.SIM_DELAY_MS.
Answers are a pure function of (model, role inferred from the system prompt,
prompt text): executors add the two numbers of the task, except that
inputs.WEAK_MODEL answers sum + 1 when the sum is even; critics accept a
proposed solution exactly when its final number is the true sum; planners
return a fixed three-step plan. Prompt
tokens are derived from the prompt length; completion tokens are fixed per
role and answer (executor 40, planner 24, critic 2 to accept, 12 to reject).
No errors are served. GET /log?since=N returns the requests served from
index N on, as [model, prompt_tokens, completion_tokens] triples.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from inputs import SIM_DELAY_MS, WEAK_MODEL

_TASK_RE = re.compile(r"What is (\d+) plus (\d+)\?")
_NUMBER_RE = re.compile(r"-?\d+")
PLAN = "1. Read both numbers.\n2. Add them.\n3. State the sum."


def role_of(system: str) -> str:
    lowered = system.lower()
    if "planner" in lowered:
        return "planner"
    if "audit" in lowered:
        return "critic"
    return "executor"


def answer(model: str, system: str, user: str) -> tuple[str, int, int]:
    """(text, prompt_tokens, completion_tokens) for one request."""
    role = role_of(system)
    prompt_tokens = (len(system) + len(user)) // 4 + 8
    match = _TASK_RE.search(user)
    a, b = (int(match.group(1)), int(match.group(2))) if match else (0, 0)
    total = a + b
    if role == "planner":
        return PLAN, prompt_tokens, 24
    if role == "critic":
        proposed = user.rsplit("solution:\n", 1)[-1].rsplit("Result:\n", 1)[-1]
        numbers = _NUMBER_RE.findall(proposed.rsplit("####", 1)[-1])
        if numbers and int(numbers[-1]) == total:
            return "ACCEPT", prompt_tokens, 2
        return "REJECT\nThe sum is wrong; add the numbers again.", prompt_tokens, 12
    value = total + 1 if model == WEAK_MODEL and total % 2 == 0 else total
    return f"Adding {a} and {b}. #### {value}", prompt_tokens, 40


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this the header and body segments wait on the client's delayed ACK.
    disable_nagle_algorithm = True

    def _send(self, status: int, payload) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        messages = {m["role"]: m["content"] for m in body["messages"]}
        text, prompt_tokens, completion_tokens = answer(
            body["model"], messages.get("system", ""), messages.get("user", ""),
        )
        completion_tokens = min(completion_tokens, int(body.get("max_tokens", completion_tokens)))
        time.sleep(SIM_DELAY_MS / 1000.0)
        with self.server.lock:
            self.server.log.append((body["model"], prompt_tokens, completion_tokens))
        self._send(200, {
            "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
        })

    def do_GET(self):
        url = urlparse(self.path)
        if url.path != "/log":
            self._send(404, {"error": "not found"})
            return
        since = int(parse_qs(url.query).get("since", ["0"])[0])
        with self.server.lock:
            entries = self.server.log[since:]
        self._send(200, entries)

    def log_message(self, *args):
        pass


class SimServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.lock = threading.Lock()
        self.log: list[tuple[str, int, int]] = []


def main() -> int:
    server = SimServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # returns at EOF: the parent closed the pipe or exited
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())

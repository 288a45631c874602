import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=100)
settings.load_profile("ci")


class _Handler(BaseHTTPRequestHandler):
    """Replays canned responses; the server instance holds the queue."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append({"path": self.path, "body": body, "headers": dict(self.headers)})
        if self.server.delay:
            time.sleep(self.server.delay)
        if not self.server.responses:
            status, payload = 200, {"ok": True}
        else:
            status, payload = self.server.responses.pop(0)
        if status == -1:  # simulate a transport failure mid-response
            self.wfile.close()
            return
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_Handler):
    """HTTP/1.1: the connection stays open between requests until it has been
    idle for the server's `idle_timeout` seconds."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        self.timeout = self.server.idle_timeout
        super().setup()


class FakeServer(ThreadingHTTPServer):
    """The default handler speaks HTTP/1.0 and closes after every response."""

    def __init__(self, handler=_Handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.requests: list[dict] = []
        self.responses: list[tuple[int, dict]] = []
        self.delay = 0.0  # seconds each POST waits between being logged and answered
        self.lock = threading.Lock()
        self.idle_timeout: float | None = None
        self.connections = 0
        self.closed = 0  # connections whose handler has finished

    def process_request(self, request, client_address):
        self.connections += 1  # the serving thread accepts one connection at a time
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.closed += 1

    def handle_error(self, request, client_address):
        pass  # a client that timed out leaves the delayed handler a closed socket

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def enqueue(self, status: int, payload: dict) -> None:
        self.responses.append((status, payload))


def _serving(server: FakeServer):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def fake_server():
    yield from _serving(FakeServer())


@pytest.fixture
def keep_alive_server():
    yield from _serving(FakeServer(_KeepAliveHandler))

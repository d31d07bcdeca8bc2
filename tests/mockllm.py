"""In-process mock of a completions endpoint with echo logprobs.

The handler never imports the package under test. It recognises a
candidate by suffix match against the configured candidate texts, then
fabricates an echo-style logprobs payload: prefix tokens carry decoy
logprobs (so a scorer that wrongly includes them computes a visibly wrong
value) and the candidate suffix carries the configured logprobs split
across two tokens when possible.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockLlmServer:
    def __init__(self, candidate_logprobs=None, handler_delay=0.0):
        # candidate text -> list of token logprobs for its " <text>" suffix
        self.candidate_logprobs = dict(candidate_logprobs or {})
        self.handler_delay = handler_delay
        self.fail_statuses: list[int] = []
        self.malformed = False  # True, or the exact reply body as bytes
        self.redirect_to: str | None = None  # answer every POST with a 302 here
        self.request_count = 0
        self.requests: list[dict] = []
        self.headers: list[dict] = []  # of every request, GET included
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._make_handler())
        # A short poll interval, so that shutdown() on exit returns promptly.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "MockLlmServer":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False

    def _payload_for(self, prompt: str) -> dict:
        for text, logprobs in self.candidate_logprobs.items():
            suffix = " " + text
            if not prompt.endswith(suffix):
                continue
            prefix = prompt[: len(prompt) - len(suffix)]
            split = max(1, len(prefix) // 2)
            tokens = [prefix[:split], prefix[split:]]
            offsets = [0, split]
            # Decoy values: a correct scorer must ignore these two.
            token_logprobs = [None, -7.25]
            cursor = len(prefix)
            remaining = suffix
            for i, lp in enumerate(logprobs):
                if i == len(logprobs) - 1:
                    piece = remaining
                else:
                    cut = max(1, len(remaining) // (len(logprobs) - i))
                    piece = remaining[:cut]
                tokens.append(piece)
                offsets.append(cursor)
                token_logprobs.append(lp)
                cursor += len(piece)
                remaining = remaining[len(piece) :]
            return {
                "choices": [
                    {
                        "text": prompt,
                        "logprobs": {
                            "tokens": tokens,
                            "token_logprobs": token_logprobs,
                            "text_offset": offsets,
                        },
                    }
                ]
            }
        raise AssertionError(f"mock has no candidate matching prompt: {prompt!r}")

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                with server._lock:
                    server.headers.append(dict(self.headers))
                self.send_response(404)
                self.end_headers()

            def do_POST(self):
                with server._lock:
                    server.headers.append(dict(self.headers))
                    server.request_count += 1
                    server.in_flight += 1
                    server.max_in_flight = max(server.max_in_flight, server.in_flight)
                    status = server.fail_statuses.pop(0) if server.fail_statuses else 200
                try:
                    if server.handler_delay:
                        time.sleep(server.handler_delay)
                    length = int(self.headers.get("Content-Length", 0))
                    body = json.loads(self.rfile.read(length)) if length else {}
                    with server._lock:
                        server.requests.append(body)
                    if server.redirect_to:
                        self.send_response(302)
                        self.send_header("Location", server.redirect_to)
                        self.end_headers()
                        return
                    if status != 200:
                        self.send_response(status)
                        self.end_headers()
                        return
                    if isinstance(server.malformed, bytes):
                        payload = server.malformed
                    elif server.malformed:
                        payload = b'{"unexpected": true}'
                    else:
                        payload = json.dumps(server._payload_for(body["prompt"])).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                finally:
                    with server._lock:
                        server.in_flight -= 1

        return Handler

"""Mock completions endpoint with echo logprobs, run as one child process.

The parent writes one JSON line of score tables to the child's stdin; the
child answers with ``PORT <n>`` on stdout and serves until its stdin
closes, then prints its final counters as one JSON line. Each table maps
(resolved command, "Completed skills" text) to candidate scores, and a
candidate's tokens carry logprobs summing to ln(score). The LLM scorer's
argmax is invariant to that rescaling, so its plan must equal the scripted
plan. ``GET /stats`` returns the counters; ``?reset=1`` zeroes them.

The child never imports semplan; it reads the prompt text alone.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

# Fixed service time per completion request, standing in for model time.
DELAY_MS = 2.0

_TOKEN = re.compile(r"\s*[A-Za-z_]+|\s*[^\sA-Za-z_]")
_PREFIX_END = "Next skill:"


def _counters() -> dict:
    return {"requests": 0, "connections": 0, "max_in_flight": 0, "busy_ms": 0.0,
            "non_200": 0}


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, tables: dict, delay: float):
        self.tables = tables
        self.delay = delay
        self.lock = threading.Lock()
        self.counts = _counters()
        self.in_flight = 0
        super().__init__(("127.0.0.1", 0), _Handler)

    def snapshot(self, reset: bool) -> dict:
        with self.lock:
            out = dict(self.counts)
            if reset:
                self.counts = _counters()
                self.counts["max_in_flight"] = self.in_flight
        return out

    def choice(self, prompt: str, index: int) -> dict:
        """One echo choice for a prompt; raises KeyError for unknown prompts."""
        cut = prompt.rindex(_PREFIX_END) + len(_PREFIX_END)
        fields = dict(line.split(": ", 1) for line in prompt[:cut].split("\n")[1:3])
        row = self.tables[(fields["Command"], fields["Completed skills"])]
        score = row[prompt[cut + 1:]]
        tokens, offsets, logprobs = [], [], []
        for match in _TOKEN.finditer(prompt):
            tokens.append(match.group(0))
            offsets.append(match.start())
        suffix = sum(1 for o in offsets if o >= cut)
        for i, offset in enumerate(offsets):
            if offset >= cut:
                logprobs.append(math.log(score) / suffix)
            else:
                # The API gives no logprob for the first token; the rest of the
                # prefix carries decoys a correct scorer ignores.
                logprobs.append(None if i == 0 else -1.5)
        return {"index": index, "text": prompt, "finish_reason": "length",
                "logprobs": {"tokens": tokens, "token_logprobs": logprobs,
                             "text_offset": offsets}}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _reply(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path.startswith("/stats"):
            self._reply(200, self.server.snapshot(reset="reset=1" in self.path))
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        server = self.server
        with server.lock:
            # One handler serves one connection; count those that carry completions.
            if not getattr(self, "counted", False):
                self.counted = True
                server.counts["connections"] += 1
            server.counts["requests"] += 1
            server.in_flight += 1
            server.counts["max_in_flight"] = max(server.counts["max_in_flight"], server.in_flight)
        start = time.perf_counter()
        status, doc = 200, None
        try:
            time.sleep(server.delay)
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            prompts = body["prompt"]
            if isinstance(prompts, str):
                prompts = [prompts]
            doc = {"object": "text_completion", "model": body.get("model"),
                   "choices": [server.choice(p, i) for i, p in enumerate(prompts)]}
        except (KeyError, ValueError, TypeError) as err:
            status, doc = 400, {"error": f"unscripted request: {err!r}"}
        finally:
            with server.lock:
                server.in_flight -= 1
                server.counts["busy_ms"] += (time.perf_counter() - start) * 1000.0
                if status != 200:
                    server.counts["non_200"] += 1
        self._reply(status, doc)


def serve(delay_ms: float) -> int:
    rows = json.loads(sys.stdin.readline())
    tables = {(r["command"], r["history"]): r["scores"] for r in rows}
    server = _Server(tables, delay_ms / 1000.0)
    # A short poll interval lets shutdown return quickly; set-up restarts
    # the mock several times per run.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
    print(json.dumps(server.snapshot(reset=False)), flush=True)
    return 0


class MockServer:
    """Parent-side handle: starts the child, reads counters, stops it."""

    def __init__(self, tables: list, delay_ms: float = DELAY_MS):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.proc.stdin.write(json.dumps(tables) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"mock server did not start: {line!r}")
        except BaseException:
            self.close()
            raise
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def stats(self, reset: bool = False) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats?reset=1" if reset else "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> dict:
        """Stop the child and wait for it; returns its final counters."""
        if self.proc.poll() is not None:
            return {}
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return {}
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


if __name__ == "__main__":
    sys.exit(serve(float(sys.argv[1])))

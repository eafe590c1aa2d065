"""Localhost chat-completions stub that stands in for a small extraction model.

Run as ``python3 kgbench/stub.py``. It binds 127.0.0.1 on a free port, prints
``PORT <n>`` on stdout and serves ``POST /chat/completions`` until it is
terminated; ``GET /stats`` returns how many chat requests it has received.
It is a single-threaded stdlib server, so every request is answered in turn.

Each reply is a pure function of the chunk text (:func:`plan_reply`), so the
benchmark can predict exactly what the program should extract:

- it reads the generator's two sentence templates and emits one
  ``(subject | predicate | object) {year=...}`` line per fact;
- about 10% of fact lines come out malformed (two fields instead of three);
- about 5% of first replies are prose with no parseable line, which forces
  the client's one repair re-prompt; the repair reply is the normal one.

It never answers 5xx: the client's fixed retry backoff would then measure a
sleep constant instead of the program.
"""

from __future__ import annotations

import hashlib
import json
import re
import socketserver
import subprocess
import sys
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

UNPARSEABLE_PERCENT = 5
MALFORMED_PERCENT = 10

_NAME = r"[A-Z][a-z]+ [A-Z][a-z]+"
_FACT = re.compile(rf"^({_NAME}) ([a-z]+) ({_NAME}) in (\d{{4}})$")
_IS_A = re.compile(rf"^({_NAME}) is a ([a-z]+)$")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_REPAIR_MARKER = "Your previous output could not be parsed"

# (subject, predicate, object, year or None, line is malformed)
Fact = tuple[str, str, str, "str | None", bool]


def _percent_bucket(text: str) -> int:
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16) % 100


def plan_reply(text: str) -> tuple[bool, list[Fact]]:
    """What the stub answers for a chunk: whether the first reply is
    unparseable prose, and the facts it reports in order."""
    facts: list[Fact] = []
    for sentence in _SENTENCE_SPLIT.split(text.strip()):
        body = sentence.strip().rstrip(".")
        match = _FACT.match(body)
        if match:
            subject, predicate, obj, year = match.groups()
        else:
            match = _IS_A.match(body)
            if not match:
                continue
            subject, obj = match.groups()
            predicate, year = "is_a", None
        malformed = _percent_bucket(sentence) < MALFORMED_PERCENT
        facts.append((subject, predicate, obj, year, malformed))
    return _percent_bucket("reply:" + text) < UNPARSEABLE_PERCENT, facts


def needs_repair(text: str) -> bool:
    """True when the client must re-prompt for this chunk: the first reply is
    non-empty but no line of it parses."""
    unparseable, facts = plan_reply(text)
    return unparseable or (bool(facts) and all(f[4] for f in facts))


def render_reply(facts: list[Fact], unparseable: bool) -> str:
    if unparseable:
        return "Sure! Here are the facts I found:\n" + "\n".join(
            f"- {s} {p} {o}" for s, p, o, _, _ in facts
        )
    lines = []
    for subject, predicate, obj, year, malformed in facts:
        context = f" {{year={year}}}" if year else ""
        if malformed:
            lines.append(f"({subject} | {predicate}){context}")
        else:
            lines.append(f"({subject} | {predicate} | {obj}){context}")
    return "\n".join(lines)


class _Handler(BaseHTTPRequestHandler):
    server: "_StubServer"

    def _send_json(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self) -> None:
        if self.path != "/chat/completions":
            self._send_json(404, {"error": "unknown path"})
            return
        self.server.chat_requests += 1
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length))
            messages = body["messages"]
            user = messages[-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self._send_json(400, {"error": f"bad request: {exc}"})
            return
        unparseable, facts = plan_reply(user.rpartition("Text:\n")[2])
        repair = user.startswith(_REPAIR_MARKER)
        content = render_reply(facts, unparseable and not repair)
        prompt_tokens = sum(len(str(m.get("content", "")).split()) for m in messages)
        completion_tokens = len(content.split())
        self._send_json(
            200,
            {
                "object": "chat.completion",
                "model": body.get("model", "stub"),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": content},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                    "total_tokens": prompt_tokens + completion_tokens,
                },
            },
        )

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send_json(200, {"chat_requests": self.server.chat_requests})
        else:
            self._send_json(404, {"error": "unknown path"})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


class _StubServer(HTTPServer):
    chat_requests = 0

    def server_bind(self) -> None:
        # HTTPServer.server_bind resolves the host name, which may query DNS.
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]


class StubProcess:
    """The stub running as a child process; stop it with :meth:`stop`."""

    def __init__(self) -> None:
        tick = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._process.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"stub failed to start: {line!r}")
        self.base_url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.startup_s = time.perf_counter() - tick
        # Never route the stub's traffic through a proxy from the environment.
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def chat_requests(self) -> int:
        with self._opener.open(f"{self.base_url}/stats", timeout=10) as response:
            return json.load(response)["chat_requests"]

    def stop(self) -> None:
        if self._process.poll() is None:
            self._process.terminate()
        self._process.wait(timeout=10)
        self._process.stdout.close()


def main() -> None:
    server = _StubServer(("127.0.0.1", 0), _Handler)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()

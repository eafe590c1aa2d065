"""Completion client: mock determinism, retry behavior, error mapping."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

import lightkg
from lightkg.client import (
    ChatMessage,
    CompletionHTTPError,
    CompletionParams,
    CompletionTimeoutError,
    EndpointUnreachableError,
    FixtureMissError,
    HttpChatClient,
    MalformedResponseError,
    MockChatClient,
    prompt_fingerprint,
)

DATA = Path(__file__).parent / "data"
PARAMS = CompletionParams(model_name="test-model", max_tokens=64, timeout=1.0)


def user(text: str) -> list[ChatMessage]:
    return [ChatMessage("system", "sys"), ChatMessage("user", text)]


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text: str = ""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload is not None else "")

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class ScriptedPost:
    """Stand-in for requests.post that replays a script of responses or
    exceptions and records every call."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def ok_response(content: str) -> FakeResponse:
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


def make_client(script, **kwargs) -> tuple[HttpChatClient, ScriptedPost, list[float]]:
    post = ScriptedPost(script)
    sleeps: list[float] = []
    client = HttpChatClient(
        "http://example.test/v1",
        post=post,
        sleep=sleeps.append,
        **kwargs,
    )
    return client, post, sleeps


class TestMockClient:
    def test_registered_prompt_returns_fixture(self):
        messages = user("hello")
        client = MockChatClient({prompt_fingerprint(messages): "world"})
        assert client.complete(messages, PARAMS) == "world"

    def test_unregistered_prompt_names_the_hash(self):
        messages = user("mystery")
        client = MockChatClient({})
        with pytest.raises(FixtureMissError) as err:
            client.complete(messages, PARAMS)
        assert prompt_fingerprint(messages) in str(err.value)

    def test_same_prompt_twice_is_identical(self):
        messages = user("again")
        client = MockChatClient({prompt_fingerprint(messages): "stable"})
        assert client.complete(messages, PARAMS) == client.complete(messages, PARAMS)

    @given(contents=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=4))
    def test_fingerprint_depends_only_on_contents(self, contents):
        messages = [ChatMessage("user", c) for c in contents]
        assert prompt_fingerprint(messages) == prompt_fingerprint(list(messages))

    def test_register_after_miss(self):
        messages = user("later")
        client = MockChatClient()
        with pytest.raises(FixtureMissError) as err:
            client.complete(messages, PARAMS)
        client.fixtures[err.value.fingerprint] = "added"
        assert client.complete(messages, PARAMS) == "added"


class TestHttpClient:
    def test_happy_path_sends_expected_body(self):
        client, post, _ = make_client([ok_response("hi")], api_key="sekret")
        assert client.complete(user("ping"), PARAMS) == "hi"
        (call,) = post.calls
        assert call["url"] == "http://example.test/v1/chat/completions"
        assert call["json"]["model"] == "test-model"
        assert call["json"]["messages"][-1] == {"role": "user", "content": "ping"}
        assert call["headers"]["Authorization"] == "Bearer sekret"
        assert call["timeout"] == PARAMS.timeout

    def test_no_auth_header_without_key(self):
        client, post, _ = make_client([ok_response("hi")])
        client.complete(user("ping"), PARAMS)
        assert "Authorization" not in post.calls[0]["headers"]

    def test_429_twice_then_success(self):
        script = [FakeResponse(429, text="slow down")] * 2 + [ok_response("done")]
        client, post, sleeps = make_client(script, retry_count=2)
        assert client.complete(user("x"), PARAMS) == "done"
        assert len(post.calls) == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_unreachable_after_retries(self):
        script = [requests.ConnectionError("refused")] * 3
        client, post, _ = make_client(script, retry_count=2)
        with pytest.raises(EndpointUnreachableError):
            client.complete(user("x"), PARAMS)
        assert len(post.calls) == 3  # 1 + retry_count

    def test_timeout_maps_to_timeout_error(self):
        script = [requests.Timeout("too slow")] * 2
        client, _, _ = make_client(script, retry_count=1)
        with pytest.raises(CompletionTimeoutError):
            client.complete(user("x"), PARAMS)

    def test_non_transient_status_fails_immediately(self):
        client, post, _ = make_client([FakeResponse(400, text="bad request")], retry_count=2)
        with pytest.raises(CompletionHTTPError) as err:
            client.complete(user("x"), PARAMS)
        assert err.value.status_code == 400
        assert len(post.calls) == 1

    def test_malformed_response_is_not_retried(self):
        script = [FakeResponse(200, {"choices": []})]
        client, post, _ = make_client(script, retry_count=2)
        with pytest.raises(MalformedResponseError):
            client.complete(user("x"), PARAMS)
        assert len(post.calls) == 1

    def test_non_json_body_is_malformed(self):
        client, _, _ = make_client([FakeResponse(200, payload=None, text="oops")])
        with pytest.raises(MalformedResponseError):
            client.complete(user("x"), PARAMS)

    def test_empty_content_is_allowed(self):
        client, _, _ = make_client([ok_response("")])
        assert client.complete(user("x"), PARAMS) == ""

    def test_preconditions(self):
        client, _, _ = make_client([])
        with pytest.raises(ValueError):
            client.complete([], PARAMS)
        with pytest.raises(ValueError):
            client.complete([ChatMessage("system", "only system")], PARAMS)


class TestAgainstLoopbackServer:
    """One real-socket round trip through the default requests transport."""

    def test_complete_against_local_http_server(self):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        received = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                received.append(
                    {
                        "path": self.path,
                        "auth": self.headers.get("Authorization"),
                        "body": json.loads(self.rfile.read(length)),
                    }
                )
                payload = json.dumps(
                    {"choices": [{"message": {"content": "(a | likes | b)"}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpChatClient(
                f"http://127.0.0.1:{server.server_port}/v1", api_key="k3y"
            )
            content = client.complete(user("ping"), PARAMS)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert content == "(a | likes | b)"
        (call,) = received
        assert call["path"] == "/v1/chat/completions"
        assert call["auth"] == "Bearer k3y"
        assert call["body"]["model"] == "test-model"
        assert call["body"]["messages"][-1]["content"] == "ping"

    def test_default_transport_maps_refused_connection_to_unreachable(self):
        import socket

        with socket.socket() as probe:  # a port that was free a moment ago, now closed
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        waits = []
        client = HttpChatClient(f"http://127.0.0.1:{port}", retry_count=1, sleep=waits.append)
        with pytest.raises(EndpointUnreachableError):
            client.complete(user("ping"), PARAMS)
        assert waits == [0.5]  # two attempts, one wait between them


_SRC = Path(lightkg.__file__).resolve().parents[1]
_DEMO_RUN = f"""
import sys
from lightkg import PipelineConfig, evaluate_run, run_pipeline
config = PipelineConfig.load({str(DATA / "demo_config_pattern.json")!r})
run_pipeline(config, {str(DATA / "demo_corpus.jsonl")!r}, sys.argv[1])
evaluate_run(sys.argv[1] + "/graph.json", {str(DATA / "demo_gold.jsonl")!r})
"""
_GOLDEN = DATA / "golden"
_GRAPHML_WRITE = f"""
from lightkg import deserialize_graph, serialize_graph
serialize_graph(deserialize_graph({str(_GOLDEN / "pattern_graph.json")!r}), "graphml")
"""
_GRAPHML_READ = f"""
from lightkg import deserialize_graph
deserialize_graph({str(_GOLDEN / "pattern_graph.graphml")!r}, "graphml")
"""


def _modules_loaded_by(code: str, names: tuple[str, ...], tmp_path) -> str:
    """The printed sorted list of the ``names`` in ``sys.modules`` after
    ``code`` runs in a fresh interpreter with ``sys.argv[1]`` under
    ``tmp_path``."""
    probe = code + f"\nimport sys; print(sorted(set({names!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(_SRC), os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "run")],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


class TestImportHygiene:
    """The HTTP stack loads only when an HttpChatClient is built, and
    ElementTree only when GraphML is read. Each check runs in a fresh
    interpreter, so no other test's imports can hide a regression."""

    @pytest.mark.parametrize(
        "code, loaded",
        [
            ("import lightkg", False),
            ("import lightkg.cli", False),
            (_DEMO_RUN, False),
            ("from lightkg import HttpChatClient; HttpChatClient('http://127.0.0.1:1')", True),
        ],
        ids=["import", "import_cli", "pattern_run_and_eval", "http_client"],
    )
    def test_requests_loaded_only_by_http_client(self, tmp_path, code, loaded):
        expected = "['requests', 'urllib3']" if loaded else "[]"
        assert _modules_loaded_by(code, ("requests", "urllib3"), tmp_path) == expected

    @pytest.mark.parametrize(
        "code, loaded",
        [
            ("import lightkg", False),
            ("import lightkg.cli", False),
            (_DEMO_RUN, False),
            (_GRAPHML_WRITE, False),
            (_GRAPHML_READ, True),
        ],
        ids=["import", "import_cli", "pattern_run_and_eval", "graphml_write", "graphml_read"],
    )
    def test_element_tree_loaded_only_by_a_graphml_read(self, tmp_path, code, loaded):
        expected = "['xml.etree.ElementTree']" if loaded else "[]"
        assert _modules_loaded_by(code, ("xml.etree.ElementTree",), tmp_path) == expected


class TestParams:
    def test_validation(self):
        for temperature in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="temperature"):
                CompletionParams(temperature=temperature)
        with pytest.raises(ValueError):
            CompletionParams(max_tokens=0)
        for timeout in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="timeout"):
                CompletionParams(timeout=timeout)
        with pytest.raises(ValueError):
            ChatMessage("narrator", "bad role")
        with pytest.raises(ValueError):
            ChatMessage("user", "")

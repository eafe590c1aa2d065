"""The traced run: the program's own ``run_pipeline``, with a span around each
call into a layer.

During a traced run the module globals that ``run_pipeline`` and the stages
look up are replaced by timing wrappers around the originals, and restored
afterwards (:func:`patched`). Nothing inside the package changes, so the
spans time the program's own calls. Each span has a name
``<layer>.<step>`` (layers are named after lightkg's modules), a start, an
end, a parent and a run id; spans stay in memory until the benchmark writes
them out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import requests
from lightkg import ChatClient, ChatMessage, CompletionParams, HttpChatClient
from lightkg import evaluation, pipeline, topology


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a span's parent defaults to the innermost
    open span of the calling thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        return self._local.__dict__.setdefault("stack", [])

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, run_id: str, parent: int | None = None) -> Iterator[int]:
        stack = self._stack()
        if parent is None:
            parent = self.current()
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, run_id))

    def of_run(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def self_times(self, run_id: str) -> dict[str, float]:
        """Per layer, the summed span time not covered by child spans. Child
        intervals are merged first, because pool workers overlap."""
        spans = self.of_run(run_id)
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: dict[str, float] = {}
        for s in spans:
            covered = 0.0
            cursor = s.start
            for child in sorted(children.get(s.span_id, []), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[s.layer] = totals.get(s.layer, 0.0) + s.duration - covered
        return totals

    def write(self, path: Path) -> None:
        payload = [
            {"id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run_id": s.run_id}
            for s in sorted(self.spans, key=lambda s: s.span_id)
        ]
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


class CountingHttpChatClient(HttpChatClient):
    """The real HTTP client, counting the HTTP requests it sends."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, post=self._counted_post, **kwargs)
        self.requests = 0
        self._lock = threading.Lock()

    def _counted_post(self, *args, **kwargs):
        with self._lock:
            self.requests += 1
        return requests.post(*args, **kwargs)


class ClientTimer:
    """Stands in for ``HttpChatClient`` in ``lightkg.pipeline``: its
    ``from_env`` builds the real client and returns it behind a delegating
    :class:`TimingClient` that times each ``complete`` call."""

    def __init__(self, tracer: Tracer, run_id: str) -> None:
        self.tracer = tracer
        self.run_id = run_id
        self.clients: list[CountingHttpChatClient] = []
        self.latencies_ms: list[float] = []
        self.failures = 0
        self.lock = threading.Lock()

    def from_env(self, retry_count: int = 2) -> ChatClient:
        inner = CountingHttpChatClient.from_env(retry_count=retry_count)
        self.clients.append(inner)
        return TimingClient(inner, self)

    @property
    def requests(self) -> int:
        return sum(c.requests for c in self.clients)


class TimingClient(ChatClient):
    def __init__(self, inner: ChatClient, timer: ClientTimer) -> None:
        self.inner = inner
        self.timer = timer

    def complete(self, messages: Sequence[ChatMessage], params: CompletionParams) -> str:
        timer = self.timer
        tick = time.perf_counter()
        try:
            with timer.tracer.span("client.request", timer.run_id):
                return self.inner.complete(messages, params)
        except Exception:
            with timer.lock:
                timer.failures += 1
            raise
        finally:
            with timer.lock:
                timer.latencies_ms.append((time.perf_counter() - tick) * 1000)


@dataclass
class Captured:
    """Return values of the traced stage calls of one run."""

    extracted: tuple = ()
    outcome: object = None
    graph: object = None

    @property
    def chunks(self) -> list:
        return self.extracted[0]

    @property
    def results(self) -> list:
        return self.extracted[1]


# (module, global name, span name, field of Captured for the return value)
TRACED_CALLS = (
    (pipeline, "read_corpus", "extraction.read_corpus", None),
    (pipeline, "extract_corpus", "extraction.extract", "extracted"),
    (pipeline, "chunk_document", "extraction.chunk", None),
    (pipeline, "aggregate", "aggregation.aggregate", "outcome"),
    (pipeline, "serialize_graph", "serialize.serialize_graph", None),
    (pipeline, "load_rules", "topology.load_rules", None),
    (pipeline, "load_senses", "topology.load_senses", None),
    (pipeline, "discover", "topology.discover", "graph"),
    (topology, "reinforce_confidence", "topology.reinforce", None),
    (topology, "_attach_senses", "topology.senses", None),
    (topology, "infer_implicit_relations", "topology.infer", None),
    (evaluation, "evaluate_run", "evaluation.evaluate", None),
    (evaluation, "deserialize_graph", "serialize.parse", None),
    (evaluation, "load_gold", "evaluation.load_gold", None),
)


@contextmanager
def patched(tracer: Tracer, run_id: str, timer: ClientTimer | None = None) -> Iterator[Captured]:
    """Replace the stage functions with timing wrappers for one traced run,
    and put the originals back afterwards."""
    captured = Captured()
    span = tracer.span

    def timed(name: str, keep: str | None, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with span(name, run_id):
                result = fn(*args, **kwargs)
            if keep:
                setattr(captured, keep, result)
            return result

        return call

    def timed_runner_builder(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def build(*args, **kwargs):
            runner = fn(*args, **kwargs)
            # Pool threads have no open span; their parent is the caller's.
            parent = tracer.current()

            def run_chunk(chunk):
                with span("extraction.extract_chunk", run_id, parent=parent):
                    return runner(chunk)

            return run_chunk

        return build

    def timed_relation_f1(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def call(g, gold, policy="strict", *args, **kwargs):
            step = "strict" if policy == "strict" else "relaxed"
            with span(f"evaluation.{step}", run_id):
                return fn(g, gold, policy, *args, **kwargs)

        return call

    replacements = [
        (module, attr, timed(name, keep, getattr(module, attr)))
        for module, attr, name, keep in TRACED_CALLS
    ]
    replacements += [
        (pipeline, "build_extract_runner", timed_runner_builder(pipeline.build_extract_runner)),
        (evaluation, "relation_f1", timed_relation_f1(evaluation.relation_f1)),
    ]
    if timer is not None:
        replacements.append((pipeline, "HttpChatClient", timer))
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, replacement in replacements:
            setattr(module, attr, replacement)
        yield captured
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)

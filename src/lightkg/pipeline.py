"""End-to-end driver: corpus in, scored graph plus run summary out.

Stages run as a linear flow (chunk, extract, aggregate, discover, export,
evaluate) with no shared mutable state. Each stage is one function,
``extract_stage`` to ``evaluate_stage``, that reads its settings from the
config; :func:`run_pipeline` and the ``lightkg`` subcommands call the same
ones. The in-process extractors (pattern, fixture) run chunk by chunk on the
calling thread; only the model extractor, whose time per chunk is spent
waiting on HTTP, sends up to ``worker_count`` requests at once. Results are
ordered by (source_id, chunk_index), so non-model extractors produce
byte-identical artifacts on every run. A run stages its files in a
directory of its own and publishes them once every stage has succeeded.
Failures are wrapped in :class:`StageError`; the failed run's directory,
with an earlier run's outputs under ``previous/``, then replaces the
quarantine directory, which so holds one failed run's files, never a mix.

A run's peak memory follows its largest stage, not everything built so far:
each stage's data is released once no later stage reads it. The documents
and chunks go before ``triples.jsonl`` is written, and the extraction
results, with their triples, as soon as aggregation returns; the summary
keeps only their counts and rejected lines. The discovered graph goes once
export has written its file; the summary keeps only its counts. The
aggregated graph stays alive to the end, because a later stage's failure
quarantines it as ``graph_aggregated.json``, but without an adjacency index:
reinforcement builds its own for the call. No stage holds a whole file in
memory on top of its data: ``triples.jsonl`` is written ``TRIPLES_BLOCK``
triples at a time, and the evaluate stage reads ``graph.json`` back one
record at a time. The extract stage, and each read, keeps one object per
distinct label string. So the peak is either the extract stage's, the results of every chunk, or
the evaluate stage's, the graph read back next to the aggregated graph and
nothing else of the run.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import shutil
import stat
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import evaluation
from .aggregation import (
    DEFAULT_BASE_CONFIDENCE,
    AggregationResult,
    NormalizationPolicy,
    aggregate,
)
from .client import ENV_MODEL, CompletionParams, HttpChatClient, MockChatClient
from .evaluation import RELATION_POLICIES, EvalReport
from .extraction import (
    DEFAULT_MAX_CHUNK_CHARS,
    ExtractionResult,
    TextChunk,
    chunk_document,
    extract_chunk,
    pattern_extract,
    read_corpus,
)
from .graph import KnowledgeGraph
from .serialize import (
    FORMATS,
    decode_settings,
    read_json,
    register_settings,
    serialize_graph,
    triple_to_dict,
    triples_to_jsonl,
)
from .topology import TopologyConfig, discover, load_rules, load_senses

EXTRACTORS = ("model", "pattern", "fixture")


class ConfigError(ValueError):
    """The pipeline config is invalid, or an input file it or the CLI names is not a file."""


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it and ``__cause__`` holds
    the underlying error."""

    def __init__(self, stage: str, cause: BaseException) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    """Everything a run needs, loadable from a single JSON file.

    The ablation switches are ``include_context`` (request and keep
    per-triple context) and ``topology_enabled`` (run the discovery stage).
    """

    extractor: str = "pattern"
    include_context: bool = True
    topology_enabled: bool = True
    normalization: NormalizationPolicy = field(default_factory=NormalizationPolicy)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    model: CompletionParams = field(default_factory=CompletionParams)
    base_confidence: float = DEFAULT_BASE_CONFIDENCE
    worker_count: int = 4
    max_chunk_chars: int = DEFAULT_MAX_CHUNK_CHARS
    retry_count: int = 2
    rules_path: str | None = None
    senses_path: str | None = None
    gold_path: str | None = None
    fixtures_path: str | None = None
    eval_policy: str = "strict"
    export_format: str = "json"
    confidence_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.extractor not in EXTRACTORS:
            raise ConfigError(f"extractor must be one of {EXTRACTORS}, got {self.extractor!r}")
        if self.export_format not in FORMATS:
            raise ConfigError(
                f"export_format must be one of {FORMATS}, got {self.export_format!r}"
            )
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError("confidence_threshold must be in [0, 1]")
        if self.worker_count < 1:
            raise ConfigError("worker_count must be >= 1")
        if self.eval_policy not in RELATION_POLICIES:
            raise ConfigError(
                f"eval_policy must be one of {RELATION_POLICIES}, got {self.eval_policy!r}"
            )
        if self.max_chunk_chars < 1:
            raise ConfigError("max_chunk_chars must be >= 1")
        if self.retry_count < 0:
            raise ConfigError("retry_count must be >= 0")
        if not 0.0 <= self.base_confidence <= 1.0:
            raise ConfigError("base_confidence must be in [0, 1]")
        if self.extractor == "fixture" and not self.fixtures_path:
            raise ConfigError("fixture extractor requires fixtures_path")

    @classmethod
    def from_dict(cls, payload: Any) -> PipelineConfig:
        """The config of ``payload``, a record of ``SHAPES["config"]``;
        :class:`ConfigError` names the nesting and the field at fault."""
        return decode_settings(payload, "config", cls, ConfigError, "config")

    @classmethod
    def load(cls, path) -> PipelineConfig:
        """Load from a JSON file; relative file references resolve against
        the config file's own directory."""
        config = cls.from_dict(read_json(path, ConfigError))
        base = Path(path).resolve().parent
        for attr in _PATH_FIELDS:
            value = getattr(config, attr)
            if value and not Path(value).is_absolute():
                setattr(config, attr, str(base / value))
        return config

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# The config's record shapes, "config" and one per nested settings field.
register_settings("config", PipelineConfig)


# The fields naming input files; ``load`` resolves them against the config
# file's directory and ``run_pipeline`` checks each with ``configured_file``.
_PATH_FIELDS = tuple(f.name for f in fields(PipelineConfig) if f.name.endswith("_path"))


def configured_file(path, what: str = "configured file") -> Path:
    """``Path(path)`` once it is known to name a file; :class:`ConfigError`
    naming ``what`` and ``path`` if nothing or a directory is there. The CLI
    checks each input file its command line names, ``run_pipeline`` every
    ``*_path`` field before any stage runs, and ``load_fixtures`` its own,
    for ``lightkg extract``."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} does not exist: {path}")
    if p.is_dir():
        raise ConfigError(f"{what} is a directory: {path}")
    return p


def load_fixtures(path) -> dict[str, str]:
    payload = read_json(configured_file(path), ConfigError)
    if not isinstance(payload, dict) or not all(
        isinstance(v, str) for v in payload.values()
    ):
        raise ConfigError(f"{path}: expected a json object of fingerprint -> response")
    return payload


def build_extract_runner(config: PipelineConfig) -> Callable[[TextChunk], ExtractionResult]:
    """Per-chunk extraction callable for the configured extractor. Its
    calls share one label table, which lives as long as the callable, so
    the triples of one extract stage hold each label string once."""
    # The model extractor's pool threads share it: a setdefault with a str key
    # is one dict operation, which the interpreter lock makes atomic.
    labels: dict[str, str] = {}
    if config.extractor == "pattern":

        def run_pattern(chunk: TextChunk) -> ExtractionResult:
            return pattern_extract(chunk, config.include_context, labels)

        return run_pattern

    if config.extractor == "fixture":
        client: MockChatClient | HttpChatClient = MockChatClient(
            load_fixtures(config.fixtures_path)
        )
    else:
        client = HttpChatClient.from_env(retry_count=config.retry_count)
    params = config.model
    env_model = os.environ.get(ENV_MODEL)
    if env_model and params.model_name == "default":
        params = replace(params, model_name=env_model)

    def run_model(chunk: TextChunk) -> ExtractionResult:
        return extract_chunk(chunk, client, params, config.include_context, labels)

    return run_model


def extract_corpus(
    config: PipelineConfig, documents
) -> tuple[list[TextChunk], list[ExtractionResult]]:
    """Chunk all documents and extract every chunk, returning results
    ordered by (source_id, chunk_index).

    The pattern and fixture extractors run chunk by chunk on the calling
    thread. The model extractor runs on a pool of ``worker_count`` threads,
    so up to that many requests are in flight at once."""
    chunks: list[TextChunk] = []
    for document in documents:
        chunks.extend(
            chunk_document(document.doc_id, document.text, config.max_chunk_chars)
        )
    chunks.sort(key=lambda c: (c.source_id, c.chunk_index))
    if not chunks:
        return [], []
    runner = build_extract_runner(config)
    if config.extractor != "model":
        return chunks, [runner(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
        results = list(pool.map(runner, chunks))
    return chunks, results


# --- one function per stage, for run_pipeline and the CLI -----------------------


def extract_stage(config: PipelineConfig, documents) -> tuple[list[ExtractionResult], dict]:
    """The results of :func:`extract_corpus` and the run summary's counts of
    them. The chunks die on return. ``rejected_triples`` is left None, in its
    place in the summary, for the aggregate stage to set."""
    chunks, results = extract_corpus(config, documents)
    counts = {
        "documents": len(documents),
        "chunks": len(chunks),
        "triples": sum(len(r.triples) for r in results),
        "rejected_lines": sum(len(r.rejected_lines) for r in results),
        "rejected_triples": None,
        "repaired_chunks": sum(1 for r in results if r.repaired),
    }
    return results, counts


# Triples encoded per block of the triples file.
TRIPLES_BLOCK = 1024


def triples_jsonl(results: Iterable[ExtractionResult]) -> Iterator[bytes]:
    """The extract stage's file in blocks: every triple of ``results``, in
    order, encoded ``TRIPLES_BLOCK`` at a time by ``triples_to_jsonl``, so
    one block's encoding is alive at once, not the file's. Joined, the
    blocks are ``triples_to_jsonl`` of all the triples.

    A block that cannot be encoded raises its ``UnicodeEncodeError`` with
    ``start`` and ``end`` counted from the start of the file; its
    ``object`` stays the block's text. Past the first block the message so
    reads ``can't encode characters in position N-N``."""
    triples = (t for r in results for t in r.triples)
    offset = 0  # characters in the blocks before
    while block := list(islice(triples, TRIPLES_BLOCK)):
        try:
            data = triples_to_jsonl(block)
        except UnicodeEncodeError as exc:
            raise UnicodeEncodeError(
                exc.encoding, exc.object, offset + exc.start, offset + exc.end, exc.reason
            ) from None
        offset += len(data) if data.isascii() else len(data.decode("utf-8"))
        yield data
        del data  # not alive while the next block is encoded


def write_blocks(path, blocks: Iterable[bytes]) -> None:
    """Write ``blocks`` one after another to the file at ``path``. If the
    write fails, a regular file at ``path`` is removed, so no partial file is
    left; a symlink, a device or a FIFO there is left as the write left it.
    The write's own error is raised, never one of the removal."""
    file = open(path, "wb")
    try:
        with file:
            file.writelines(blocks)
    except BaseException:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        raise


def aggregate_stage(config: PipelineConfig, results) -> AggregationResult:
    """The triples of ``results`` folded into one graph with the config's
    normalization and base confidence."""
    return aggregate(results, config.normalization, config.base_confidence)


def discover_stage(
    config: PipelineConfig, graph: KnowledgeGraph, rules_path, senses_path
) -> KnowledgeGraph:
    """The rules and senses files (either may be None) read with the config's
    normalization, then :func:`~lightkg.topology.discover` with its settings."""
    policy = config.normalization
    rules = load_rules(rules_path, policy) if rules_path else []
    senses = load_senses(senses_path, policy) if senses_path else {}
    return discover(graph, rules, senses, config.topology, config.topology_enabled)


def export_stage(config: PipelineConfig, graph: KnowledgeGraph, fmt=None) -> tuple[bytes, int]:
    """``graph`` serialized in ``fmt`` (the config's ``export_format`` if
    None) without its edges below the config's ``confidence_threshold``, and
    the number of edges written. The threshold filters the file only."""
    threshold = config.confidence_threshold
    if threshold > 0:
        kept = {eid: e for eid, e in graph.edges.items() if e.confidence >= threshold}
        graph = KnowledgeGraph(graph.nodes, kept)
    return serialize_graph(graph, fmt or config.export_format), graph.edge_count


def evaluate_stage(config: PipelineConfig, graph_path, gold_path, policy=None) -> EvalReport:
    """The graph file scored against the gold file, read with the config's
    normalization, under ``policy`` (the config's ``eval_policy`` if None)."""
    policy = policy or config.eval_policy
    return evaluation.evaluate_run(graph_path, gold_path, policy, config.normalization)


# Every name run_pipeline writes a finished output under.
_PRIMARY_OUTPUTS = (
    *(f"graph.{fmt}" for fmt in FORMATS), "triples.jsonl", "report.json", "summary.json"
)


def _json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False)


def _summary_bytes(summary: dict[str, Any], evaluation_text: str) -> bytes:
    """``summary`` as ``_json_text`` writes it, plus a newline, where its last
    key is "evaluation" and ``evaluation_text`` is ``_json_text`` of that
    value: the report is spliced in re-indented instead of encoded again.
    Indented JSON holds no raw newline inside a string, so the re-indent is
    exact."""
    head = _json_text({k: v for k, v in summary.items() if k != "evaluation"})
    tail = evaluation_text.replace("\n", "\n  ")
    return f'{head[:-2]},\n  "evaluation": {tail}\n}}\n'.encode("utf-8")


def run_pipeline(config: PipelineConfig, corpus_path, out_dir) -> dict[str, Any]:
    """Run chunk -> extract -> aggregate -> discover -> export (-> evaluate).

    Writes ``graph.json`` (or ``graph.graphml``), ``triples.jsonl``,
    ``summary.json`` and, with a gold file, ``report.json`` into ``out_dir``
    and returns the summary. Each file is written into the run's own
    directory, ``out_dir/.run-<hex>``, and moved to its own name only once
    every stage has succeeded; an earlier run's file under an output name
    this run does not write is then removed. On failure the run's directory
    replaces ``out_dir/quarantine``, with an earlier run's outputs under
    ``previous/`` (or, if there are none, the ``previous/`` of the
    quarantine it replaces), so no primary name is left describing another
    run, and a :class:`StageError` naming the stage is raised.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = out / f".run-{os.urandom(8).hex()}"
    run.mkdir()
    started = time.perf_counter()
    timings: dict[str, float] = {}
    aggregated: KnowledgeGraph | None = None
    stage = "configure"

    def quarantine() -> None:
        if aggregated is not None:
            try:
                write_blocks(run / "graph_aggregated.json", [serialize_graph(aggregated, "json")])
            except Exception:
                # Report it, but raise the stage's own error, not this one.
                logging.getLogger(__name__).warning(
                    "could not serialize the aggregated graph for quarantine", exc_info=True
                )
        qdir = out / "quarantine"
        earlier = [name for name in _PRIMARY_OUTPUTS if (out / name).exists()]
        if not (earlier or any(run.iterdir())):
            run.rmdir()
            return
        if earlier:
            (run / "previous").mkdir()
            for name in earlier:
                os.replace(out / name, run / "previous" / name)
        elif (qdir / "previous").is_dir():
            os.replace(qdir / "previous", run / "previous")
        with contextlib.suppress(FileNotFoundError):
            shutil.rmtree(qdir)
        os.replace(run, qdir)

    try:
        for path in filter(None, (getattr(config, name) for name in _PATH_FIELDS)):
            configured_file(path)

        stage = "read-corpus"
        tick = time.perf_counter()
        documents = read_corpus(corpus_path)
        timings["read_corpus_s"] = time.perf_counter() - tick

        stage = "extract"
        tick = time.perf_counter()
        results, counts = extract_stage(config, documents)
        timings["extract_s"] = time.perf_counter() - tick
        del documents
        rejected_lines = [
            {"fragment": fragment, "reason": reason}
            for r in results
            for fragment, reason in r.rejected_lines
        ]
        tick = time.perf_counter()
        write_blocks(run / "triples.jsonl", triples_jsonl(results))
        timings["write_triples_s"] = time.perf_counter() - tick

        stage = "aggregate"
        tick = time.perf_counter()
        outcome = aggregate_stage(config, results)
        timings["aggregate_s"] = time.perf_counter() - tick
        del results
        counts["rejected_triples"] = len(outcome.rejected)
        graph = aggregated = outcome.graph

        stage = "discover"
        tick = time.perf_counter()
        graph = discover_stage(config, graph, config.rules_path, config.senses_path)
        timings["discover_s"] = time.perf_counter() - tick
        counts["nodes"] = graph.node_count
        counts["edges"] = graph.edge_count
        counts["inferred_edges"] = sum(1 for e in graph.edges.values() if e.inferred)

        stage = "export"
        tick = time.perf_counter()
        graph_name = f"graph.{config.export_format}"
        data, exported_edges = export_stage(config, graph)
        write_blocks(run / graph_name, [data])
        del data, graph  # the evaluate stage reads the file back
        timings["export_s"] = time.perf_counter() - tick

        scores, scores_text = None, "null"
        if config.gold_path:
            stage = "evaluate"
            tick = time.perf_counter()
            report = evaluate_stage(config, run / graph_name, config.gold_path)
            scores, scores_text = report.to_dict(), report.to_json()
            write_blocks(run / "report.json", [(scores_text + "\n").encode("utf-8")])
            timings["evaluate_s"] = time.perf_counter() - tick

        stage = "summarize"
        timings["total_s"] = time.perf_counter() - started
        summary = {
            "config": config.to_dict(),
            "corpus": str(corpus_path),
            "counts": {**counts, "exported_edges": exported_edges},
            "rejects": {
                "lines": rejected_lines,
                "triples": [
                    {"triple": triple_to_dict(t), "reason": reason}
                    for t, reason in outcome.rejected
                ],
            },
            "timings": timings,
            "outputs": {
                "graph": str(out / graph_name),
                "triples": str(out / "triples.jsonl"),
            },
            "evaluation": scores,
        }
        write_blocks(run / "summary.json", [_summary_bytes(summary, scores_text)])
        for name in _PRIMARY_OUTPUTS:
            if (run / name).exists():
                os.replace(run / name, out / name)
            else:
                (out / name).unlink(missing_ok=True)
        run.rmdir()
        return summary
    except Exception as exc:
        quarantine()
        raise StageError(stage, exc) from exc

"""End-to-end driver: corpus in, scored graph plus run summary out.

Stages run as a linear flow (chunk, extract, aggregate, discover, export,
evaluate) with no shared mutable state; extraction fans out over a bounded
worker pool and results are re-ordered by (source_id, chunk_index) so
non-model extractors produce byte-identical artifacts on every run.
Failures are wrapped in :class:`StageError`; whatever was produced so far
goes to a quarantine directory, never to the primary output names.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from .aggregation import (
    DEFAULT_BASE_CONFIDENCE,
    NormalizationPolicy,
    aggregate,
)
from .client import ENV_MODEL, CompletionParams, HttpChatClient, MockChatClient
from .evaluation import RELATION_POLICIES
from .extraction import (
    DEFAULT_MAX_CHUNK_CHARS,
    ExtractionResult,
    TextChunk,
    chunk_document,
    extract_chunk,
    pattern_extract,
    read_corpus,
)
from .graph import ContextMap, KnowledgeGraph
from .serialize import serialize_graph, triple_to_dict, triples_to_jsonl
from .topology import TopologyConfig, discover, load_rules, load_senses

EXTRACTORS = ("model", "pattern", "fixture")
EXPORT_FORMATS = ("json", "graphml")


class ConfigError(ValueError):
    """The pipeline configuration is invalid or references missing files."""


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
        if self.export_format not in EXPORT_FORMATS:
            raise ConfigError(
                f"export_format must be one of {EXPORT_FORMATS}, got {self.export_format!r}"
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
    def from_dict(cls, payload: dict[str, Any]) -> PipelineConfig:
        if not isinstance(payload, dict):
            raise ConfigError("config must be a json object")
        known = {
            "extractor", "include_context", "topology_enabled", "normalization",
            "topology", "model", "base_confidence", "worker_count",
            "max_chunk_chars", "retry_count", "rules_path", "senses_path",
            "gold_path", "fixtures_path", "eval_policy", "export_format",
            "confidence_threshold",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(payload)
        try:
            if "normalization" in kwargs:
                kwargs["normalization"] = NormalizationPolicy(**kwargs["normalization"])
            if "topology" in kwargs:
                kwargs["topology"] = TopologyConfig(**kwargs["topology"])
            if "model" in kwargs:
                kwargs["model"] = CompletionParams(**kwargs["model"])
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, path) -> PipelineConfig:
        """Load from a JSON file; relative file references resolve against
        the config file's own directory."""
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid json: {exc.msg}") from exc
        config = cls.from_dict(payload)
        base = Path(path).resolve().parent
        for attr in ("rules_path", "senses_path", "gold_path", "fixtures_path"):
            value = getattr(config, attr)
            if value and not Path(value).is_absolute():
                setattr(config, attr, str(base / value))
        return config

    def to_dict(self) -> dict[str, Any]:
        return {
            "extractor": self.extractor,
            "include_context": self.include_context,
            "topology_enabled": self.topology_enabled,
            "normalization": {
                "lowercase": self.normalization.lowercase,
                "collapse_whitespace": self.normalization.collapse_whitespace,
                "strip_punctuation_edges": self.normalization.strip_punctuation_edges,
            },
            "topology": {
                "max_path_length": self.topology.max_path_length,
                "base_path_weight": self.topology.base_path_weight,
                "direct_edge_weight": self.topology.direct_edge_weight,
                "undirected_paths": self.topology.undirected_paths,
                "confidence_floor": self.topology.confidence_floor,
                "confidence_ceiling": self.topology.confidence_ceiling,
            },
            "model": {
                "model_name": self.model.model_name,
                "temperature": self.model.temperature,
                "max_tokens": self.model.max_tokens,
                "timeout": self.model.timeout,
            },
            "base_confidence": self.base_confidence,
            "worker_count": self.worker_count,
            "max_chunk_chars": self.max_chunk_chars,
            "retry_count": self.retry_count,
            "rules_path": self.rules_path,
            "senses_path": self.senses_path,
            "gold_path": self.gold_path,
            "fixtures_path": self.fixtures_path,
            "eval_policy": self.eval_policy,
            "export_format": self.export_format,
            "confidence_threshold": self.confidence_threshold,
        }

    def referenced_paths(self) -> list[str]:
        return [
            p
            for p in (self.rules_path, self.senses_path, self.gold_path, self.fixtures_path)
            if p
        ]


def load_fixtures(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid json: {exc.msg}") from exc
    if not isinstance(payload, dict) or not all(
        isinstance(v, str) for v in payload.values()
    ):
        raise ConfigError(f"{path}: expected a json object of fingerprint -> response")
    return payload


def build_extract_runner(config: PipelineConfig) -> Callable[[TextChunk], ExtractionResult]:
    """Per-chunk extraction callable for the configured extractor."""
    if config.extractor == "pattern":

        def run_pattern(chunk: TextChunk) -> ExtractionResult:
            result = pattern_extract(chunk)
            if not config.include_context:
                result.triples = [
                    replace(t, context=ContextMap()) for t in result.triples
                ]
            return result

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
        return extract_chunk(chunk, client, params, config.include_context)

    return run_model


def extract_corpus(
    config: PipelineConfig, documents
) -> tuple[list[TextChunk], list[ExtractionResult]]:
    """Chunk all documents and extract every chunk over a bounded pool,
    returning results ordered by (source_id, chunk_index)."""
    chunks: list[TextChunk] = []
    for document in documents:
        chunks.extend(
            chunk_document(document.doc_id, document.text, config.max_chunk_chars)
        )
    chunks.sort(key=lambda c: (c.source_id, c.chunk_index))
    if not chunks:
        return [], []
    runner = build_extract_runner(config)
    with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
        results = list(pool.map(runner, chunks))
    return chunks, results


def filter_for_export(g: KnowledgeGraph, threshold: float) -> KnowledgeGraph:
    """Drop edges below the confidence threshold; export-time only, nodes
    and the in-memory graph are untouched."""
    if threshold <= 0:
        return g
    kept = {eid: e for eid, e in g.edges.items() if e.confidence >= threshold}
    return KnowledgeGraph(dict(g.nodes), kept)


def run_pipeline(config: PipelineConfig, corpus_path, out_dir) -> dict[str, Any]:
    """Run chunk -> extract -> aggregate -> discover -> export (-> evaluate).

    Writes ``graph.json`` (or ``graph.graphml``), ``triples.jsonl`` and
    ``summary.json`` into ``out_dir`` and returns the summary. On failure,
    partial artifacts are written under ``out_dir/quarantine`` and a
    :class:`StageError` naming the stage is raised.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    timings: dict[str, float] = {}
    partial: dict[str, bytes] = {}
    stage = "configure"

    def quarantine() -> None:
        if not partial:
            return
        qdir = out / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        for name, data in partial.items():
            (qdir / name).write_bytes(data)

    try:
        for path in config.referenced_paths():
            if not Path(path).exists():
                raise ConfigError(f"configured file does not exist: {path}")

        stage = "read-corpus"
        tick = time.perf_counter()
        documents = read_corpus(corpus_path)
        timings["read_corpus_s"] = time.perf_counter() - tick

        stage = "extract"
        tick = time.perf_counter()
        chunks, results = extract_corpus(config, documents)
        timings["extract_s"] = time.perf_counter() - tick
        triples = [t for r in results for t in r.triples]
        partial["triples.jsonl"] = triples_to_jsonl(triples)

        stage = "aggregate"
        tick = time.perf_counter()
        outcome = aggregate(results, config.normalization, config.base_confidence)
        timings["aggregate_s"] = time.perf_counter() - tick
        graph = outcome.graph
        partial["graph_aggregated.json"] = serialize_graph(graph, "json")

        stage = "discover"
        tick = time.perf_counter()
        rules = load_rules(config.rules_path) if config.rules_path else []
        senses = load_senses(config.senses_path) if config.senses_path else {}
        graph = discover(
            graph,
            rules=rules,
            senses_by_node=senses,
            config=config.topology,
            enabled=config.topology_enabled,
        )
        timings["discover_s"] = time.perf_counter() - tick

        stage = "export"
        tick = time.perf_counter()
        graph_name = f"graph.{'graphml' if config.export_format == 'graphml' else 'json'}"
        exported = serialize_graph(
            filter_for_export(graph, config.confidence_threshold), config.export_format
        )
        (out / "triples.jsonl").write_bytes(partial["triples.jsonl"])
        (out / graph_name).write_bytes(exported)
        timings["export_s"] = time.perf_counter() - tick

        evaluation = None
        if config.gold_path:
            stage = "evaluate"
            tick = time.perf_counter()
            from .evaluation import evaluate_run

            report = evaluate_run(
                out / graph_name,
                config.gold_path,
                policy=config.eval_policy,
                normalization=config.normalization,
            )
            evaluation = report.to_dict()
            (out / "report.json").write_text(
                json.dumps(evaluation, indent=2, ensure_ascii=False) + "\n",
                encoding="utf-8",
            )
            timings["evaluate_s"] = time.perf_counter() - tick

        stage = "summarize"
        timings["total_s"] = time.perf_counter() - started
        summary = {
            "config": config.to_dict(),
            "corpus": str(corpus_path),
            "counts": {
                "documents": len(documents),
                "chunks": len(chunks),
                "triples": len(triples),
                "rejected_lines": sum(len(r.rejected_lines) for r in results),
                "rejected_triples": len(outcome.rejected),
                "repaired_chunks": sum(1 for r in results if r.repaired),
                "nodes": graph.node_count,
                "edges": graph.edge_count,
                "inferred_edges": sum(1 for e in graph.edges.values() if e.inferred),
                "exported_edges": len(
                    filter_for_export(graph, config.confidence_threshold).edges
                ),
            },
            "rejects": {
                "lines": [
                    {"fragment": fragment, "reason": reason}
                    for r in results
                    for fragment, reason in r.rejected_lines
                ],
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
            "evaluation": evaluation,
        }
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        return summary
    except StageError:
        quarantine()
        raise
    except Exception as exc:
        quarantine()
        raise StageError(stage, exc) from exc

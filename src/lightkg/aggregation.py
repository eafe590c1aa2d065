"""Folds extracted triples from all sources into one canonical graph.

Entities merge purely by canonical label (lowercased, whitespace-collapsed,
edge punctuation stripped); attribute and context values from different
sources coexist rather than overwrite each other.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field, replace
from typing import Iterable

from .graph import (
    ContextMap,
    ContextTriple,
    Edge,
    KnowledgeGraph,
    Node,
    Provenance,
    UnknownNodeError,
    empty_graph,
)

DEFAULT_BASE_CONFIDENCE = 0.5

_WS_RUN = re.compile(r"\s+")
_EDGE_STRIP_CHARS = string.punctuation + string.whitespace


class EmptyLabelError(ValueError):
    """A label normalized to the empty string (e.g. it was only punctuation)."""


@dataclass(frozen=True)
class NormalizationPolicy:
    """Label canonicalization switches. Lowercasing is mandatory."""

    lowercase: bool = True
    collapse_whitespace: bool = True
    strip_punctuation_edges: bool = True

    def __post_init__(self) -> None:
        if not self.lowercase:
            raise ValueError("lowercase normalization cannot be disabled")


DEFAULT_POLICY = NormalizationPolicy()


def normalize_label(raw: str, policy: NormalizationPolicy = DEFAULT_POLICY) -> str:
    """Canonical form of a surface label; idempotent.

    Lowercases, optionally collapses internal whitespace runs to single
    spaces, and optionally strips leading/trailing punctuation (interleaved
    with whitespace). Raises :class:`EmptyLabelError` when nothing remains.
    """
    s = raw.strip().lower()
    if policy.collapse_whitespace:
        s = _WS_RUN.sub(" ", s)
    if policy.strip_punctuation_edges:
        s = s.strip(_EDGE_STRIP_CHARS)
    if not s:
        raise EmptyLabelError(f"label {raw!r} is empty after normalization")
    return s


def add_triple(
    g: KnowledgeGraph,
    triple: ContextTriple,
    policy: NormalizationPolicy = DEFAULT_POLICY,
    base_confidence: float = DEFAULT_BASE_CONFIDENCE,
) -> KnowledgeGraph:
    """New graph with ``triple`` folded in under canonical labels.

    Subject and object become nodes (created if absent); a repeated
    (source, predicate, target) collapses onto the existing edge, unioning
    context and appending provenance. Raises :class:`EmptyLabelError` when
    any label normalizes to nothing; the graph is left unchanged.
    """
    fold = _Fold(g, policy, base_confidence)
    fold.add(triple)
    return fold.graph()


class _Fold:
    """Folds triples into a graph, as :func:`add_triple` describes.

    Each distinct raw label or context value is normalized once. Triples
    are collected per canonical (source, predicate, target) in plain
    containers, and :meth:`graph` builds each edge (and its content-hash id)
    once, in first-seen order; an edge already in the base graph keeps its
    confidence and ``inferred`` flag.
    """

    def __init__(
        self, base: KnowledgeGraph, policy: NormalizationPolicy, base_confidence: float
    ) -> None:
        self.base = base
        self.policy = policy
        self.base_confidence = base_confidence
        self.nodes = dict(base.nodes)
        self.labels: dict[str, str | EmptyLabelError] = {}
        # (source, predicate, target) -> (context key -> values, provenance)
        self.facts: dict[tuple[str, str, str], tuple[dict[str, set[str]], list[Provenance]]] = {}

    def label(self, raw: str) -> str:
        canonical = self.labels.get(raw)
        if canonical is None:
            try:
                canonical = normalize_label(raw, self.policy)
            except EmptyLabelError as exc:
                canonical = exc
            self.labels[raw] = canonical
        if isinstance(canonical, EmptyLabelError):
            raise canonical.with_traceback(None)
        return canonical

    def add(self, triple: ContextTriple) -> None:
        """Fold in one triple; labels are normalized before anything is
        changed, so an :class:`EmptyLabelError` leaves the fold as it was."""
        spo = (self.label(triple.subject), self.label(triple.predicate), self.label(triple.object))
        context: dict[str, list[str]] = {}
        for key, values in triple.context.items():
            kept = []
            for value in values:
                try:
                    kept.append(self.label(value))
                except EmptyLabelError:
                    continue  # values that normalize to nothing are dropped
            if kept:
                context[key] = kept

        for node_id in (spo[0], spo[2]):
            if node_id not in self.nodes:
                self.nodes[node_id] = Node(node_id)
        fact = self.facts.get(spo)
        if fact is None:
            fact = self.facts[spo] = ({}, [])
        fact_context, provenance = fact
        for key, kept in context.items():
            fact_context.setdefault(key, set()).update(kept)
        provenance.append(triple.provenance)

    def graph(self) -> KnowledgeGraph:
        edges = dict(self.base.edges)
        for (source, predicate, target), (context, provenance) in self.facts.items():
            edge = Edge(
                source=source,
                target=target,
                predicate=predicate,
                context=ContextMap(context),
                confidence=self.base_confidence,
                provenance=tuple(provenance),
            )
            existing = edges.get(edge.edge_id)
            if existing is not None:
                edge = replace(
                    existing,
                    context=existing.context.union(edge.context),
                    provenance=existing.provenance + edge.provenance,
                )
            edges[edge.edge_id] = edge
        return KnowledgeGraph(self.nodes, edges)


def merge_attribute(
    g: KnowledgeGraph,
    node_id: str,
    key: str,
    value: str,
    policy: NormalizationPolicy = DEFAULT_POLICY,
) -> KnowledgeGraph:
    """New graph with ``value`` added to the node's attribute set under
    ``key``. Existing values are never overwritten or discarded; duplicates
    (after normalization) collapse by set semantics."""
    node = g.nodes.get(node_id)
    if node is None:
        raise UnknownNodeError(node_id)
    normalized = normalize_label(value, policy)
    nodes = dict(g.nodes)
    nodes[node_id] = replace(node, attributes=node.attributes.with_value(key, normalized))
    return KnowledgeGraph(nodes, g.edges)


def merge_graphs(a: KnowledgeGraph, b: KnowledgeGraph) -> KnowledgeGraph:
    """Union of two graphs: nodes merge by id with attributes unioned, edges
    merge by edge id with contexts unioned and provenance concatenated.

    Merged-edge confidence takes the max of the two (a pre-scoring
    placeholder; topology scoring assigns the real value). Associative, and
    commutative up to provenance list order; ``empty_graph()`` is the
    identity.
    """
    nodes = dict(a.nodes)
    for node_id, nb in b.nodes.items():
        na = nodes.get(node_id)
        if na is None:
            nodes[node_id] = nb
        else:
            nodes[node_id] = replace(na, attributes=na.attributes.union(nb.attributes))
    edges = dict(a.edges)
    for eid, eb in b.edges.items():
        ea = edges.get(eid)
        if ea is None:
            edges[eid] = eb
        else:
            edges[eid] = replace(
                ea,
                context=ea.context.union(eb.context),
                provenance=ea.provenance + eb.provenance,
                confidence=max(ea.confidence, eb.confidence),
                inferred=ea.inferred and eb.inferred,
            )
    return KnowledgeGraph(nodes, edges)


@dataclass
class AggregationResult:
    graph: KnowledgeGraph
    rejected: list[tuple[ContextTriple, str]] = field(default_factory=list)


def aggregate_triples(
    triples: Iterable[ContextTriple],
    policy: NormalizationPolicy = DEFAULT_POLICY,
    base_confidence: float = DEFAULT_BASE_CONFIDENCE,
) -> AggregationResult:
    """Left-fold of :func:`add_triple` over triples ordered by
    (source_id, chunk_index, position). Triples whose labels normalize to
    nothing are dropped and reported, never fatal. The fold runs over plain
    containers; the graph is built and validated once, at the end."""
    fold = _Fold(empty_graph(), policy, base_confidence)
    rejected: list[tuple[ContextTriple, str]] = []
    # sorted() is stable, so equal keys keep their input position.
    for triple in sorted(
        triples, key=lambda t: (t.provenance.source_id, t.provenance.chunk_index)
    ):
        try:
            fold.add(triple)
        except EmptyLabelError as exc:
            rejected.append((triple, str(exc)))
    return AggregationResult(fold.graph(), rejected)


def aggregate(
    results: Iterable,
    policy: NormalizationPolicy = DEFAULT_POLICY,
    base_confidence: float = DEFAULT_BASE_CONFIDENCE,
) -> AggregationResult:
    """Aggregate extraction results (anything with a ``triples`` attribute)
    into one graph. Content-equal to merging per-result subgraphs."""
    all_triples: list[ContextTriple] = []
    for result in results:
        all_triples.extend(result.triples)
    return aggregate_triples(all_triples, policy, base_confidence)

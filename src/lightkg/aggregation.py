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
    UnknownNodeError,
    edge_key,
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


def _normalize_context(cm: ContextMap, policy: NormalizationPolicy) -> ContextMap:
    # Values that normalize to nothing are dropped; keys are already lowercase.
    entries: dict[str, list[str]] = {}
    for key, values in cm.items():
        kept = []
        for value in values:
            try:
                kept.append(normalize_label(value, policy))
            except EmptyLabelError:
                continue
        if kept:
            entries[key] = kept
    return ContextMap(entries)


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
    nodes = dict(g.nodes)
    edges = dict(g.edges)
    _fold_triple(nodes, edges, triple, policy, base_confidence)
    return KnowledgeGraph(nodes, edges)


def _fold_triple(
    nodes: dict[str, Node],
    edges: dict[str, Edge],
    triple: ContextTriple,
    policy: NormalizationPolicy,
    base_confidence: float,
) -> None:
    """Fold ``triple`` into ``nodes`` and ``edges`` in place, as
    :func:`add_triple` describes; labels are normalized before anything is
    changed, so an :class:`EmptyLabelError` leaves both dicts as they were."""
    subject = normalize_label(triple.subject, policy)
    predicate = normalize_label(triple.predicate, policy)
    obj = normalize_label(triple.object, policy)
    context = _normalize_context(triple.context, policy)

    for label in (subject, obj):
        if label not in nodes:
            nodes[label] = Node(label)

    eid = edge_key(subject, predicate, obj)
    existing = edges.get(eid)
    if existing is not None:
        edges[eid] = replace(
            existing,
            context=existing.context.union(context),
            provenance=existing.provenance + (triple.provenance,),
        )
    else:
        edges[eid] = Edge(
            source=subject,
            target=obj,
            predicate=predicate,
            context=context,
            confidence=base_confidence,
            provenance=(triple.provenance,),
        )


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
    return KnowledgeGraph(nodes, dict(g.edges))


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
    dicts; the graph is built and validated once, at the end."""
    keyed = [
        ((t.provenance.source_id, t.provenance.chunk_index, position), t)
        for position, t in enumerate(triples)
    ]
    keyed.sort(key=lambda kv: kv[0])
    nodes: dict[str, Node] = {}
    edges: dict[str, Edge] = {}
    rejected: list[tuple[ContextTriple, str]] = []
    for _, triple in keyed:
        try:
            _fold_triple(nodes, edges, triple, policy, base_confidence)
        except EmptyLabelError as exc:
            rejected.append((triple, str(exc)))
    return AggregationResult(KnowledgeGraph(nodes, edges), rejected)


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

"""Folds extracted triples from all sources into one canonical graph.

Entities merge purely by canonical label (lowercased, whitespace-collapsed,
edge punctuation stripped); attribute and context values from different
sources coexist rather than overwrite each other.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable

from .graph import (
    ContextMap,
    ContextTriple,
    Edge,
    KnowledgeGraph,
    Node,
    Provenance,
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


def label_normalizer(policy: NormalizationPolicy = DEFAULT_POLICY) -> Callable[[str], str]:
    """:func:`normalize_label` under ``policy``, run once per distinct raw
    label for as long as the returned function lives; a label that
    normalizes to nothing raises a new :class:`EmptyLabelError` each time."""
    canonical: dict[str, str | EmptyLabelError] = {}

    def label(raw: str) -> str:
        result = canonical.get(raw)
        if result is None:
            try:
                result = normalize_label(raw, policy)
            except EmptyLabelError as exc:
                result = exc.with_traceback(None)
            canonical[raw] = result
        if isinstance(result, EmptyLabelError):
            # A fresh error: raising the stored one would attach this call's
            # frames to it, a cycle that keeps the caller's data alive until
            # the garbage collector runs.
            raise EmptyLabelError(*result.args)
        return result

    return label


# The fold's order: by source, then chunk; sorted() keeps input order within.
_FOLD_ORDER = attrgetter("provenance.source_id", "provenance.chunk_index")


@dataclass
class AggregationResult:
    graph: KnowledgeGraph
    rejected: list[tuple[ContextTriple, str]] = field(default_factory=list)


def aggregate_triples(
    triples: Iterable[ContextTriple],
    policy: NormalizationPolicy = DEFAULT_POLICY,
    base_confidence: float = DEFAULT_BASE_CONFIDENCE,
) -> AggregationResult:
    """Fold triples, ordered by (source_id, chunk_index) and otherwise kept
    in input order, into one graph under canonical labels.

    Subject and object become nodes; triples with the same canonical
    (source, predicate, target) collapse onto one edge, unioning context
    and keeping provenance in fold order. Each distinct raw label is
    normalized once, and each distinct context's values once, however many
    triples carry an equal context; context values that normalize to
    nothing are dropped. A triple whose subject, predicate or object
    normalizes to nothing is dropped and reported, never fatal, and leaves
    no node behind. The fold runs over plain containers; each edge is built
    once, in first-seen order, and the graph is validated once, at the end.
    """
    label = label_normalizer(policy)
    # context -> its keys, each with the labels of its values; a value that
    # normalizes to nothing is dropped
    contexts: dict[ContextMap, list[tuple[str, set[str]]]] = {}

    def context_labels(cm: ContextMap) -> list[tuple[str, set[str]]]:
        pairs = []
        for key, values in cm.items():
            kept = set()
            for value in values:
                try:
                    kept.add(label(value))
                except EmptyLabelError:
                    continue
            pairs.append((key, kept))
        return pairs

    nodes: dict[str, Node] = {}
    # (source, predicate, target) -> (context key -> values, provenance)
    facts: dict[tuple[str, str, str], tuple[dict[str, set[str]], list[Provenance]]] = {}
    rejected: list[tuple[ContextTriple, str]] = []
    for triple in sorted(triples, key=_FOLD_ORDER):
        try:
            spo = (label(triple.subject), label(triple.predicate), label(triple.object))
        except EmptyLabelError as exc:
            rejected.append((triple, str(exc)))
            continue
        fact = facts.get(spo)
        if fact is None:
            fact = facts[spo] = ({}, [])
            for node_id in (spo[0], spo[2]):
                if node_id not in nodes:
                    nodes[node_id] = Node(node_id)
        context, provenance = fact
        pairs = contexts.get(triple.context)
        if pairs is None:
            pairs = contexts[triple.context] = context_labels(triple.context)
        for key, kept in pairs:
            context.setdefault(key, set()).update(kept)
        provenance.append(triple.provenance)

    edges = (
        Edge(
            source=source,
            target=target,
            predicate=predicate,
            context=ContextMap(context),
            confidence=base_confidence,
            provenance=tuple(provenance),
        )
        for (source, predicate, target), (context, provenance) in facts.items()
    )
    return AggregationResult(KnowledgeGraph(nodes, {e.edge_id: e for e in edges}), rejected)


def aggregate(
    results: Iterable,
    policy: NormalizationPolicy = DEFAULT_POLICY,
    base_confidence: float = DEFAULT_BASE_CONFIDENCE,
) -> AggregationResult:
    """Aggregate extraction results (anything with a ``triples`` attribute)
    into one graph with :func:`aggregate_triples`. How the triples are split
    into results changes at most the order of provenance lists."""
    triples = chain.from_iterable(result.triples for result in results)
    return aggregate_triples(triples, policy, base_confidence)

"""Precision/recall/F1 of a predicted graph against gold triples.

Entities match on exact canonical labels. Relations match either strictly
(exact subject/predicate/object) or with a relaxed predicate rule where the
endpoints must match and one predicate may be a substring of the other.
Each gold item is matched at most once; empty denominators score 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any

from .aggregation import DEFAULT_POLICY, NormalizationPolicy, label_normalizer
from .graph import KnowledgeGraph
from .serialize import decode_record, deserialize_graph, format_for_path, read_jsonl

RELATION_POLICIES = ("strict", "predicate_relaxed")

Triple = tuple[str, str, str]


class GoldFormatError(ValueError):
    """A gold JSONL line could not be parsed."""


@dataclass(frozen=True)
class GoldSet:
    """Reference entities and triples, already in canonical form."""

    entities: frozenset[str]
    triples: frozenset[Triple]

    def __post_init__(self) -> None:
        for subject, _, obj in self.triples:
            if subject not in self.entities or obj not in self.entities:
                raise ValueError(
                    f"gold triple endpoints {subject!r}/{obj!r} missing from entities"
                )


@dataclass(frozen=True)
class MatchResult:
    precision: float
    recall: float
    f1: float
    matched: tuple
    missing: tuple
    spurious: tuple


def _f1(precision: float, recall: float) -> float:
    if precision + recall <= 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _match_result(matched: set, missing: set, spurious: set) -> MatchResult:
    predicted_total = len(matched) + len(spurious)
    gold_total = len(matched) + len(missing)
    precision = len(matched) / predicted_total if predicted_total else 0.0
    recall = len(matched) / gold_total if gold_total else 0.0
    return MatchResult(
        precision,
        recall,
        _f1(precision, recall),
        tuple(sorted(matched)),
        tuple(sorted(missing)),
        tuple(sorted(spurious)),
    )


def entity_f1(g: KnowledgeGraph, gold: GoldSet) -> MatchResult:
    """Exact-label entity scores: P over predicted nodes, R over gold."""
    predicted = set(g.nodes)
    matched = predicted & gold.entities
    return _match_result(matched, gold.entities - predicted, predicted - matched)


def _predicates_match(a: str, b: str) -> bool:
    return a == b or a in b or b in a


def relation_f1(g: KnowledgeGraph, gold: GoldSet, policy: str = "strict") -> MatchResult:
    """Relation scores of the graph's non-inferred edges under the chosen
    matching policy.

    ``strict`` requires exact (s, p, o) equality; ``predicate_relaxed``
    requires exact endpoints and substring-compatible predicates.
    """
    if policy not in RELATION_POLICIES:
        raise ValueError(f"policy must be one of {RELATION_POLICIES}, got {policy!r}")
    predicted = {(e.source, e.predicate, e.target) for e in g.edges.values() if not e.inferred}
    if policy == "strict":
        matched = predicted & gold.triples
        return _match_result(matched, gold.triples - matched, predicted - matched)
    # Greedy in sorted order: each predicted triple takes the first unmatched
    # gold triple it matches. Only gold triples with its (subject, object)
    # can match, so the scan is limited to that group.
    gold_by_pair: dict[tuple[str, str], list[Triple]] = {}
    for g_triple in sorted(gold.triples):
        gold_by_pair.setdefault((g_triple[0], g_triple[2]), []).append(g_triple)
    matched_predicted: set[Triple] = set()
    matched_gold: set[Triple] = set()
    for p_triple in sorted(predicted):
        for g_triple in gold_by_pair.get((p_triple[0], p_triple[2]), ()):
            if g_triple not in matched_gold and _predicates_match(p_triple[1], g_triple[1]):
                matched_predicted.add(p_triple)
                matched_gold.add(g_triple)
                break
    return _match_result(
        matched_predicted,
        gold.triples - matched_gold,
        predicted - matched_predicted,
    )


@dataclass(frozen=True)
class EvalReport:
    entity: MatchResult
    relation: MatchResult

    def to_dict(self) -> dict[str, Any]:
        def entity_items(labels) -> list[dict[str, Any]]:
            return [{"type": "entity", "label": label} for label in labels]

        def relation_items(triples) -> list[dict[str, Any]]:
            return [{"type": "relation", "triple": list(t)} for t in triples]

        return {
            "entity": {
                "p": self.entity.precision,
                "r": self.entity.recall,
                "f1": self.entity.f1,
            },
            "relation": {
                "p": self.relation.precision,
                "r": self.relation.recall,
                "f1": self.relation.f1,
            },
            "matched": entity_items(self.entity.matched)
            + relation_items(self.relation.matched),
            "missing": entity_items(self.entity.missing)
            + relation_items(self.relation.missing),
            "spurious": entity_items(self.entity.spurious)
            + relation_items(self.relation.spurious),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, ensure_ascii=False)``, joined
        from strings: an indented ``json.dumps`` runs the pure-Python encoder.
        Strings go through ``encode_basestring``, the encoder it uses for them."""

        def scores(result: MatchResult) -> str:
            p, r, f1 = map(json.dumps, (result.precision, result.recall, result.f1))
            return f'{{\n    "p": {p},\n    "r": {r},\n    "f1": {f1}\n  }}'

        def items(name: str) -> str:
            entities = (
                '    {\n      "type": "entity",\n      "label": '
                + encode_basestring(label)
                + "\n    }"
                for label in getattr(self.entity, name)
            )
            relations = (
                '    {\n      "type": "relation",\n      "triple": [\n        '
                + ",\n        ".join(map(encode_basestring, triple))
                + "\n      ]\n    }"
                for triple in getattr(self.relation, name)
            )
            listed = ",\n".join(chain(entities, relations))
            return f"[\n{listed}\n  ]" if listed else "[]"

        return (
            f'{{\n  "entity": {scores(self.entity)},\n  "relation": {scores(self.relation)},\n'
            f'  "matched": {items("matched")},\n  "missing": {items("missing")},\n'
            f'  "spurious": {items("spurious")}\n}}'
        )

    def render_table(self) -> str:
        rows = [
            ("entity", self.entity),
            ("relation", self.relation),
        ]
        lines = [f"{'':10} {'P':>8} {'R':>8} {'F1':>8}"]
        for name, result in rows:
            lines.append(
                f"{name:10} {result.precision:8.4f} {result.recall:8.4f} {result.f1:8.4f}"
            )
        lines.append(
            f"matched={len(self.entity.matched)}e/{len(self.relation.matched)}r "
            f"missing={len(self.entity.missing)}e/{len(self.relation.missing)}r "
            f"spurious={len(self.entity.spurious)}e/{len(self.relation.spurious)}r"
        )
        return "\n".join(lines)


def load_gold(path, policy: NormalizationPolicy = DEFAULT_POLICY) -> GoldSet:
    """Load gold JSONL: triple objects ``{"subject","predicate","object"}``
    plus optional ``{"entity": ...}`` lines, normalized like aggregation,
    each distinct raw label once per call."""
    label = label_normalizer(policy)

    def labels(**fields: str) -> tuple[str, ...]:
        return tuple(map(label, fields.values()))

    entities: set[str] = set()
    triples: set[Triple] = set()
    for where, record in read_jsonl(path, GoldFormatError):
        # Picks the shape only: decode_record rejects a record that is no object.
        if isinstance(record, dict) and "entity" in record:
            entities.update(decode_record(record, "gold entity", labels, GoldFormatError, where))
        else:
            triple = decode_record(record, "gold triple", labels, GoldFormatError, where)
            triples.add(triple)
            entities.update((triple[0], triple[2]))
    return GoldSet(frozenset(entities), frozenset(triples))


def evaluate_run(
    predicted_graph_path,
    gold_path,
    policy: str = "strict",
    normalization: NormalizationPolicy = DEFAULT_POLICY,
) -> EvalReport:
    """Load a serialized graph and a gold file, compute both metrics."""
    graph = deserialize_graph(Path(predicted_graph_path), format_for_path(predicted_graph_path))
    gold = load_gold(gold_path, normalization)
    return EvalReport(
        entity=entity_f1(graph, gold),
        relation=relation_f1(graph, gold, policy),
    )

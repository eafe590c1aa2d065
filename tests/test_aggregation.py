"""Aggregation: canonical labels, coexistence merging, fold laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lightkg.aggregation import (
    EmptyLabelError,
    NormalizationPolicy,
    aggregate,
    aggregate_triples,
    normalize_label,
)
from lightkg import aggregation
from lightkg.extraction import ExtractionResult
from lightkg.graph import ContextMap, Edge, KnowledgeGraph, content_equal
from lightkg.serialize import serialize_graph


class TestNormalizeLabel:
    def test_lowercase_and_collapse(self):
        assert normalize_label("Marie  Curie ") == "marie curie"

    def test_fixed_point(self):
        assert normalize_label("marie curie") == "marie curie"

    def test_strip_edge_punctuation(self):
        assert normalize_label('"Apple"') == "apple"

    def test_interleaved_edge_noise(self):
        assert normalize_label(" -  'tidy label'.  ") == "tidy label"

    def test_empty_after_normalization(self):
        with pytest.raises(EmptyLabelError):
            normalize_label("...")

    def test_policy_switches(self):
        loose = NormalizationPolicy(collapse_whitespace=False, strip_punctuation_edges=False)
        assert normalize_label('"A  B"', loose) == '"a  b"'

    def test_lowercase_cannot_be_disabled(self):
        with pytest.raises(ValueError):
            NormalizationPolicy(lowercase=False)

    @given(raw=st.text(min_size=1, max_size=30))
    def test_idempotent(self, raw):
        try:
            once = normalize_label(raw)
        except EmptyLabelError:
            return
        assert normalize_label(once) == once


class TestAddTriple:
    """What adding a triple to the input of :func:`aggregate_triples` does."""

    def test_discovery_triple(self):
        g = aggregate_triples(
            [support.triple("Marie Curie", "discovered", "radium", {"year": ["1898"]})]
        ).graph
        assert sorted(g.nodes) == ["marie curie", "radium"]
        (edge,) = g.edges.values()
        assert edge.predicate == "discovered"
        assert edge.context.get("year") == frozenset({"1898"})
        assert edge.confidence == 0.5

    def test_duplicate_collapses_onto_one_edge(self):
        t = support.triple("a", "p", "b", {"year": ["1898"]})
        g = aggregate_triples([t, t]).graph
        assert g.edge_count == 1
        (edge,) = g.edges.values()
        assert len(edge.provenance) == 2
        assert edge.context.get("year") == frozenset({"1898"})

    def test_contexts_union_across_triples(self):
        g = aggregate_triples(
            [
                support.triple("a", "p", "b", {"year": ["1898"]}),
                support.triple("a", "p", "b", {"place": ["Paris"]}),
            ]
        ).graph
        (edge,) = g.edges.values()
        # independent oracle: plain dict union of the two context dicts
        assert edge.context.to_dict() == {"place": ["paris"], "year": ["1898"]}

    def test_empty_label_raises_and_leaves_graph_alone(self):
        triples = [support.triple("a", "p", "b"), support.triple("...", "p", "c")]
        outcome = aggregate_triples(triples)
        with pytest.raises(EmptyLabelError) as raised:
            normalize_label("...")
        assert outcome.rejected == [(triples[1], str(raised.value))]
        assert sorted(outcome.graph.nodes) == ["a", "b"]

    def test_context_values_are_normalized(self):
        g = aggregate_triples([support.triple("a", "p", "b", {"place": [" Paris "]})]).graph
        (edge,) = g.edges.values()
        assert edge.context.get("place") == frozenset({"paris"})


class TestAggregate:
    def test_empty_input(self):
        outcome = aggregate([])
        assert outcome.graph == KnowledgeGraph()
        assert outcome.rejected == []

    def test_single_result(self):
        result = ExtractionResult(
            triples=[support.triple("Marie Curie", "discovered", "radium", {"year": ["1898"]})]
        )
        outcome = aggregate([result])
        assert outcome.graph.node_count == 2
        assert outcome.graph.edge_count == 1

    def test_rejects_reported_not_fatal(self):
        result = ExtractionResult(
            triples=[support.triple("ok", "p", "fine"), support.triple("!!!", "p", "x")]
        )
        outcome = aggregate([result])
        assert outcome.graph.edge_count == 1
        assert len(outcome.rejected) == 1

    @settings(max_examples=100)
    @given(data=st.data())
    def test_order_insensitive_content(self, data):
        triples = data.draw(st.lists(support.context_triples, max_size=10))
        shuffled = data.draw(st.permutations(triples))
        a = aggregate_triples(triples).graph
        b = aggregate_triples(list(shuffled)).graph
        assert content_equal(a, b)

    @settings(max_examples=100)
    @given(batches=st.lists(st.lists(support.context_triples, max_size=5), max_size=4))
    def test_fold_equals_merge_of_per_result_graphs(self, batches):
        results = [ExtractionResult(triples=batch) for batch in batches]
        folded = aggregate(results).graph
        merged = support.union_graphs(*(aggregate_triples(batch).graph for batch in batches))
        assert content_equal(folded, merged)


class TestFoldMatchesAddTriple:
    @settings(max_examples=200)
    @given(triples=st.lists(support.raw_triples, max_size=25))
    def test_aggregate_equals_left_fold_of_add_triple(self, triples):
        outcome = aggregate_triples(triples)
        graph, rejected = support.reference_aggregate(triples)
        assert outcome.graph == graph  # provenance order included
        assert serialize_graph(outcome.graph) == serialize_graph(graph)
        assert outcome.rejected == rejected

    def test_rejected_triple_leaves_fold_unchanged(self):
        triples = [
            support.triple("a", "p", "b"),
            support.triple("a", "p", "..."),
            support.triple("c", "!!", "a"),
            support.triple(" A ", "P", "b."),
        ]
        outcome = aggregate_triples(triples)
        assert sorted(outcome.graph.nodes) == ["a", "b"]
        (edge,) = outcome.graph.edges.values()
        assert len(edge.provenance) == 2
        assert [t for t, _ in outcome.rejected] == triples[1:3]


class TestFoldWork:
    """Call counts, not timings: the fold builds each edge once and
    normalizes each distinct raw string once."""

    @staticmethod
    def repeated_facts() -> list:
        # 40 facts, each asserted 15 times under three surface forms and
        # five years, spread over five documents.
        triples = []
        for repeat in range(15):
            for fact in range(40):
                subject = ["Author %d", " author  %d", "AUTHOR %d."][repeat % 3] % fact
                triples.append(
                    support.triple(
                        subject,
                        "Wrote",
                        f"Book {fact % 13}",
                        {"year": [str(1900 + repeat % 5)], "place": [" Paris "]},
                        prov=support.Provenance(f"doc-{repeat % 5}", repeat),
                    )
                )
        return triples

    def test_each_edge_built_once(self, monkeypatch):
        built = []
        post_init = Edge.__post_init__

        def counting(edge):
            built.append((edge.source, edge.predicate, edge.target))
            post_init(edge)

        monkeypatch.setattr(Edge, "__post_init__", counting)
        outcome = aggregate_triples(self.repeated_facts())
        assert outcome.graph.edge_count == 40
        assert len(built) == 40
        assert all(len(e.provenance) == 15 for e in outcome.graph.edges.values())

    def test_each_raw_string_normalized_once(self, monkeypatch):
        calls = []
        normalize = aggregation.normalize_label

        def counting(raw, policy=aggregation.DEFAULT_POLICY):
            calls.append(raw)
            return normalize(raw, policy)

        monkeypatch.setattr(aggregation, "normalize_label", counting)
        triples = self.repeated_facts() + [support.triple("Author 1", "Wrote", "...")] * 2
        outcome = aggregate_triples(triples)
        distinct = {raw for t in triples for raw in (t.subject, t.predicate, t.object)}
        distinct |= {value for t in triples for _, values in t.context.items() for value in values}
        assert sorted(calls) == sorted(distinct)
        assert [reason for _, reason in outcome.rejected] == [
            "label '...' is empty after normalization"
        ] * 2

    def test_each_distinct_context_read_and_normalized_once(self, monkeypatch):
        calls, read = [], []
        normalize, items = aggregation.normalize_label, ContextMap.items

        def counting(raw, policy=aggregation.DEFAULT_POLICY):
            calls.append(raw)
            return normalize(raw, policy)

        def counting_items(self):
            read.append(self)
            return items(self)

        # Equal contexts as separate objects, over many facts; one value
        # normalizes to nothing and is dropped.
        triples = [
            support.triple(
                f"s{i}", "p", f"o{i % 7}", {"year": [f" {1900 + i % 3} "], "note": ["--"]}
            )
            for i in range(60)
        ]
        monkeypatch.setattr(aggregation, "normalize_label", counting)
        monkeypatch.setattr(ContextMap, "items", counting_items)
        outcome = aggregate_triples(triples)
        monkeypatch.undo()
        assert len(read) == len({t.context for t in triples}) == 3
        distinct = {raw for t in triples for raw in (t.subject, t.predicate, t.object)}
        distinct |= {value for t in triples for _, values in t.context.items() for value in values}
        assert sorted(calls) == sorted(distinct)
        assert {e.context.get("note") for e in outcome.graph.edges.values()} == {frozenset()}
        assert content_equal(outcome.graph, support.reference_aggregate(triples)[0])


class TestMonotoneCoexistence:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_value_sets_never_shrink(self, data):
        triples = data.draw(st.lists(support.raw_triples, max_size=6))
        snapshots = [aggregate_triples(triples).graph]
        for _ in range(data.draw(st.integers(1, 5))):
            triples = triples + [data.draw(support.raw_triples)]
            snapshots.append(aggregate_triples(triples).graph)
        for before, after in zip(snapshots, snapshots[1:]):
            assert set(before.nodes) <= set(after.nodes)
            for eid, edge in before.edges.items():
                for key, vals in edge.context.items():
                    assert vals <= after.edges[eid].context.get(key)

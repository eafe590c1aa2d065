"""Aggregation: canonical labels, coexistence merging, fold/merge laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lightkg.aggregation import (
    EmptyLabelError,
    NormalizationPolicy,
    add_triple,
    aggregate,
    aggregate_triples,
    merge_attribute,
    merge_graphs,
    normalize_label,
)
from lightkg.extraction import ExtractionResult
from lightkg.graph import (
    UnknownNodeError,
    content_equal,
    empty_graph,
)
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
    def test_discovery_triple(self):
        g = add_triple(empty_graph(), support.triple("Marie Curie", "discovered", "radium", {"year": ["1898"]}))
        assert sorted(g.nodes) == ["marie curie", "radium"]
        (edge,) = g.edges.values()
        assert edge.predicate == "discovered"
        assert edge.context.get("year") == frozenset({"1898"})
        assert edge.confidence == 0.5

    def test_duplicate_collapses_onto_one_edge(self):
        t = support.triple("a", "p", "b", {"year": ["1898"]})
        g = add_triple(add_triple(empty_graph(), t), t)
        assert g.edge_count == 1
        (edge,) = g.edges.values()
        assert len(edge.provenance) == 2
        assert edge.context.get("year") == frozenset({"1898"})

    def test_contexts_union_across_triples(self):
        g = add_triple(empty_graph(), support.triple("a", "p", "b", {"year": ["1898"]}))
        g = add_triple(g, support.triple("a", "p", "b", {"place": ["Paris"]}))
        (edge,) = g.edges.values()
        # independent oracle: plain dict union of the two context dicts
        assert edge.context.to_dict() == {"place": ["paris"], "year": ["1898"]}

    def test_empty_label_raises_and_leaves_graph_alone(self):
        g = support.graph_of(("a", "p", "b"))
        with pytest.raises(EmptyLabelError):
            add_triple(g, support.triple("...", "p", "c"))
        assert sorted(g.nodes) == ["a", "b"]

    def test_context_values_are_normalized(self):
        g = add_triple(empty_graph(), support.triple("a", "p", "b", {"place": [" Paris "]}))
        (edge,) = g.edges.values()
        assert edge.context.get("place") == frozenset({"paris"})


class TestMergeAttribute:
    def test_coexisting_occupations(self):
        g = support.graph_of(("alan turing", "born_in", "london"))
        g = merge_attribute(g, "alan turing", "occupation", "computer scientist")
        g = merge_attribute(g, "alan turing", "occupation", "mathematician")
        assert g.nodes["alan turing"].attributes.get("occupation") == frozenset(
            {"computer scientist", "mathematician"}
        )

    def test_duplicate_value_is_idempotent(self):
        g = support.graph_of(("x", "p", "y"))
        g = merge_attribute(g, "x", "k", "V alue")
        g = merge_attribute(g, "x", "k", "v  alue")
        assert g.nodes["x"].attributes.get("k") == frozenset({"v alue"})

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            merge_attribute(support.graph_of(("a", "p", "b")), "nope", "k", "v")


class TestMergeGraphs:
    def test_empty_is_identity(self):
        g = support.graph_of(("a", "p", "b", {"year": ["1"]}))
        assert merge_graphs(g, empty_graph()) == g
        assert merge_graphs(empty_graph(), g) == g

    def test_shared_node_attributes_coexist(self):
        left = merge_attribute(
            support.graph_of(("alan turing", "proved", "halting problem")),
            "alan turing", "occupation", "computer scientist",
        )
        right = merge_attribute(
            support.graph_of(("alan turing", "born_in", "london")),
            "alan turing", "occupation", "mathematician",
        )
        merged = merge_graphs(left, right)
        assert sorted(merged.nodes) == ["alan turing", "halting problem", "london"]
        assert merged.nodes["alan turing"].attributes.get("occupation") == frozenset(
            {"computer scientist", "mathematician"}
        )

    def test_merged_edge_takes_max_confidence(self):
        a = support.graph_of(("x", "p", "y"))
        b = support.graph_of(("x", "p", "y"))
        eid = next(iter(a.edges))
        from dataclasses import replace

        a.edges[eid] = replace(a.edges[eid], confidence=0.9)
        b.edges[eid] = replace(b.edges[eid], confidence=0.2)
        merged = merge_graphs(a, b)
        assert merged.edges[eid].confidence == 0.9

    @settings(max_examples=150)
    @given(a=support.graphs(), b=support.graphs())
    def test_commutative_up_to_provenance_order(self, a, b):
        assert content_equal(merge_graphs(a, b), merge_graphs(b, a))

    @settings(max_examples=100)
    @given(a=support.graphs(), b=support.graphs(), c=support.graphs())
    def test_associative(self, a, b, c):
        assert merge_graphs(merge_graphs(a, b), c) == merge_graphs(a, merge_graphs(b, c))

    @settings(max_examples=100)
    @given(g=support.graphs())
    def test_identity_element(self, g):
        assert merge_graphs(g, empty_graph()) == g
        assert merge_graphs(empty_graph(), g) == g


class TestAggregate:
    def test_empty_input(self):
        outcome = aggregate([])
        assert outcome.graph == empty_graph()
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
        merged = empty_graph()
        for batch in batches:
            merged = merge_graphs(merged, aggregate_triples(batch).graph)
        assert content_equal(folded, merged)


class TestFoldMatchesAddTriple:
    @settings(max_examples=200)
    @given(triples=st.lists(support.raw_triples, max_size=25))
    def test_aggregate_equals_left_fold_of_add_triple(self, triples):
        outcome = aggregate_triples(triples)
        graph, rejected = support.reference_aggregate(triples)
        assert content_equal(outcome.graph, graph)
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


class TestMonotoneCoexistence:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_value_sets_never_shrink(self, data):
        g = data.draw(support.graphs())
        snapshots = [g]
        for _ in range(data.draw(st.integers(1, 5))):
            op = data.draw(st.sampled_from(["triple", "attribute", "merge"]))
            if op == "triple":
                try:
                    g = add_triple(g, data.draw(support.context_triples))
                except EmptyLabelError:
                    pass
            elif op == "attribute" and g.nodes:
                node_id = data.draw(st.sampled_from(sorted(g.nodes)))
                g = merge_attribute(g, node_id, data.draw(support.labels), data.draw(support.labels))
            else:
                g = merge_graphs(g, data.draw(support.graphs()))
            snapshots.append(g)
        for before, after in zip(snapshots, snapshots[1:]):
            for node_id, node in before.nodes.items():
                for key, vals in node.attributes.items():
                    assert vals <= after.nodes[node_id].attributes.get(key)
            for eid, edge in before.edges.items():
                for key, vals in edge.context.items():
                    assert vals <= after.edges[eid].context.get(key)

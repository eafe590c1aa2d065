"""Graph model: context maps, edge identity, structural invariants."""

from __future__ import annotations

import pytest
from hypothesis import given

import support
from lightkg.graph import (
    ContextMap,
    ContextTriple,
    Edge,
    Extractor,
    GraphIntegrityError,
    KnowledgeGraph,
    Node,
    Provenance,
    UnknownNodeError,
    content_equal,
    edge_key,
    empty_graph,
)


class TestContextMap:
    def test_keys_are_trimmed_and_lowercased(self):
        cm = ContextMap({" Year ": ["1898"]})
        assert cm.keys() == ["year"]
        assert cm.get("year") == frozenset({"1898"})

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            ContextMap({"  ": ["x"]})

    def test_empty_values_dropped(self):
        cm = ContextMap({"year": ["", "  ", "1898", "1898 "]})
        assert cm.get("year") == frozenset({"1898"})

    def test_key_with_only_empty_values_disappears(self):
        cm = ContextMap({"year": ["", "  "]})
        assert not cm
        assert len(cm) == 0

    def test_with_value(self):
        cm = ContextMap({"occupation": ["chemist"]}).with_value("occupation", "physicist")
        assert cm.get("occupation") == frozenset({"chemist", "physicist"})

    def test_to_dict_sorted(self):
        cm = ContextMap({"b": ["2", "1"], "a": ["z"]})
        assert cm.to_dict() == {"a": ["z"], "b": ["1", "2"]}

    def test_round_trip(self):
        cm = ContextMap({"year": ["1898", "1902"], "place": ["paris"]})
        assert ContextMap(cm.to_dict()) == cm

    @given(a=support.context_maps, b=support.context_maps)
    def test_union_never_drops_a_value(self, a, b):
        union = a.union(b)
        for cm in (a, b):
            for key, vals in cm.items():
                assert vals <= union.get(key)

    @given(a=support.context_maps, b=support.context_maps)
    def test_union_commutes(self, a, b):
        assert a.union(b) == b.union(a)


class TestProvenance:
    def test_negative_chunk_index_rejected(self):
        with pytest.raises(ValueError):
            Provenance("doc", -1, Extractor.MODEL)

    def test_extractor_coerced_from_string(self):
        assert Provenance("doc", 0, "pattern").extractor is Extractor.PATTERN


class TestTripleAndNode:
    def test_blank_fields_rejected(self):
        for kwargs in (
            {"subject": " ", "predicate": "p", "object": "o"},
            {"subject": "s", "predicate": "", "object": "o"},
            {"subject": "s", "predicate": "p", "object": "\t"},
        ):
            with pytest.raises(ValueError):
                ContextTriple(provenance=support.PROV, **kwargs)

    def test_blank_node_id_rejected(self):
        with pytest.raises(ValueError):
            Node("  ")


class TestEdge:
    def test_edge_key_is_deterministic(self):
        assert edge_key("a", "p", "b") == edge_key("a", "p", "b")
        assert edge_key("a", "p", "b") != edge_key("b", "p", "a")
        assert edge_key("a", "p", "b") != edge_key("a", "q", "b")

    def test_id_computed_when_omitted(self):
        edge = Edge(source="a", target="b", predicate="p")
        assert edge.edge_id == edge_key("a", "p", "b")

    def test_mismatched_id_rejected(self):
        with pytest.raises(GraphIntegrityError):
            Edge(source="a", target="b", predicate="p", edge_id="bogus")

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            Edge(source="a", target="b", predicate="p", confidence=1.5)


class TestKnowledgeGraph:
    def test_empty_graph(self):
        g = empty_graph()
        assert g.node_count == 0 and g.edge_count == 0

    def test_dangling_edge_rejected(self):
        edge = Edge(source="a", target="b", predicate="p")
        with pytest.raises(GraphIntegrityError):
            KnowledgeGraph({"a": Node("a")}, {edge.edge_id: edge})

    def test_mismatched_node_key_rejected(self):
        with pytest.raises(GraphIntegrityError):
            KnowledgeGraph({"a": Node("b")}, {})

    def test_require_node(self):
        g = support.graph_of(("a", "p", "b"))
        assert g.require_node("a").id == "a"
        with pytest.raises(UnknownNodeError):
            g.require_node("zzz")

    def test_degree_counts_each_incidence(self):
        g = support.graph_of(("a", "p", "b"), ("b", "q", "a"), ("a", "r", "a"))
        assert g.degree("a") == 4  # out, in, and a self-loop twice
        assert g.degree("b") == 2

    def test_adjacent_labels_excludes_self(self):
        g = support.graph_of(("a", "p", "b"), ("c", "q", "a"), ("a", "r", "a"))
        assert g.adjacent_labels("a") == frozenset({"b", "c"})


class TestContentEqual:
    def test_ignores_provenance_order(self):
        p1 = Provenance("x", 0, Extractor.MODEL)
        p2 = Provenance("y", 1, Extractor.PATTERN)
        base = dict(source="a", target="b", predicate="p")
        e1 = Edge(provenance=(p1, p2), **base)
        e2 = Edge(provenance=(p2, p1), **base)
        nodes = {"a": Node("a"), "b": Node("b")}
        g1 = KnowledgeGraph(nodes, {e1.edge_id: e1})
        g2 = KnowledgeGraph(dict(nodes), {e2.edge_id: e2})
        assert g1 != g2
        assert content_equal(g1, g2)

    def test_detects_differences(self):
        g1 = support.graph_of(("a", "p", "b"))
        g2 = support.graph_of(("a", "p", "c"))
        assert not content_equal(g1, g2)

    @given(g=support.graphs())
    def test_reflexive(self, g):
        assert content_equal(g, g)

"""Graph model: context maps, edge identity, structural invariants."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given

import support
from lightkg import graph as graph_module
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
)
from lightkg.serialize import serialize_graph


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

    @pytest.mark.parametrize("chunk_index", [True, False, 1.5, 1.0, "1", None])
    def test_chunk_index_that_is_not_an_int_rejected(self, chunk_index):
        with pytest.raises(ValueError, match="chunk_index must be an int"):
            Provenance("doc", chunk_index, Extractor.MODEL)

    @pytest.mark.parametrize("source_id", [5, None, b"d", ["d"]])
    def test_source_id_that_is_not_a_str_rejected(self, source_id):
        with pytest.raises(ValueError, match="source_id must be a str"):
            Provenance(source_id, 0, Extractor.MODEL)

    def test_extractor_coerced_from_string(self):
        assert Provenance("doc", 0, "pattern").extractor is Extractor.PATTERN


class TestTripleAndNode:
    def test_blank_fields_rejected(self):
        # The message names the first blank field, in field order.
        for kwargs, name in (
            ({"subject": " ", "predicate": "p", "object": "o"}, "subject"),
            ({"subject": "s", "predicate": "", "object": "o"}, "predicate"),
            ({"subject": "s", "predicate": "p", "object": "\t"}, "object"),
            ({"subject": "s", "predicate": " ", "object": ""}, "predicate"),
            ({"subject": "", "predicate": "", "object": ""}, "subject"),
        ):
            with pytest.raises(ValueError, match=f"^triple {name} must be non-empty$"):
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

    def test_holds_only_values_both_formats_read_back(self):
        """A confidence is stored as a float, never a bool; inferred is a bool."""

        class Float(float):
            def __repr__(self):
                return f"Float({float.__repr__(self)})"

        for value, stored in ((1, 1.0), (0, 0.0), (Float(0.25), 0.25)):
            edge = Edge("a", "b", "p", confidence=value)
            assert type(edge.confidence) is float and edge.confidence == stored
            rescored = Edge("a", "b", "p").with_confidence(value)
            assert type(rescored.confidence) is float and rescored.confidence == stored
        for flag in (True, False):
            with pytest.raises(ValueError, match="confidence must be in"):
                Edge("a", "b", "p", confidence=flag)
        for inferred in (1, 0, "true", None):
            with pytest.raises(ValueError, match="inferred must be a bool"):
                Edge("a", "b", "p", inferred=inferred)

    def test_with_confidence_equals_replace_without_hashing_again(self, monkeypatch):
        edge = Edge(
            source="a", target="b", predicate="p", context=ContextMap({"year": ["1898"]}),
            provenance=(Provenance("doc", 0, Extractor.PATTERN),),
        )
        expected = replace(edge, confidence=0.7)
        hashed = []
        monkeypatch.setattr(graph_module, "edge_key", lambda *args: hashed.append(args))
        rescored = edge.with_confidence(0.7)
        assert rescored == expected and rescored.confidence == 0.7
        assert edge.confidence == 0.5
        assert hashed == []
        with pytest.raises(FrozenInstanceError):
            rescored.confidence = 0.1
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="confidence must be in"):
                edge.with_confidence(bad)


class TestSlottedRecords:
    """A graph holds many provenance records, nodes and edges, so each is a
    slotted frozen dataclass, with the fields it always had."""

    PROV = Provenance("doc", 3, Extractor.PATTERN)
    EDGE = Edge(
        source="a", target="b", predicate="p", context=ContextMap({"year": ["1898"]}),
        provenance=(PROV, Provenance("doc", 4)),
    )
    RECORDS = {
        "provenance": (PROV, ("source_id", "chunk_index", "extractor")),
        "node": (Node("a", ContextMap({"sense": ["x"]})), ("id", "attributes")),
        "edge": (EDGE, (
            "source", "target", "predicate", "context", "confidence", "provenance",
            "inferred", "edge_id",
        )),
    }

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_no_dict_frozen_fields_unchanged(self, kind):
        record, names = self.RECORDS[kind]
        assert not hasattr(record, "__dict__")
        assert tuple(f.name for f in fields(record)) == names
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, getattr(record, name))

    @pytest.mark.parametrize("confidence", [0.0, 0.25, 0.7, 1.0])
    def test_with_confidence_is_replace(self, confidence):
        rescored = self.EDGE.with_confidence(confidence)
        expected = replace(self.EDGE, confidence=confidence)
        assert not hasattr(rescored, "__dict__")
        assert rescored == expected and hash(rescored) == hash(expected)
        nodes = {"a": Node("a"), "b": Node("b")}
        for fmt in ("json", "graphml"):
            assert serialize_graph(
                KnowledgeGraph(nodes, {rescored.edge_id: rescored}), fmt
            ) == serialize_graph(KnowledgeGraph(nodes, {expected.edge_id: expected}), fmt)


class TestKnowledgeGraph:
    def test_empty_graph(self):
        g = KnowledgeGraph()
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


class TestImmutableSnapshot:
    def test_item_assignment_raises(self):
        g = support.graph_of(("a", "p", "b"))
        eid, edge = next(iter(g.edges.items()))
        with pytest.raises(TypeError):
            g.nodes["c"] = Node("c")
        with pytest.raises(TypeError):
            g.edges[eid] = replace(edge, confidence=0.9)
        with pytest.raises(TypeError):
            del g.nodes["a"]

    def test_attribute_assignment_raises(self):
        g = support.graph_of(("a", "p", "b"))
        with pytest.raises(FrozenInstanceError):
            g.nodes = {}
        with pytest.raises(FrozenInstanceError):
            g.edges = {}

    def test_constructor_copies_its_dicts(self):
        nodes = {"a": Node("a"), "b": Node("b")}
        edge = Edge(source="a", target="b", predicate="p")
        edges = {edge.edge_id: edge}
        g = KnowledgeGraph(nodes, edges)
        nodes["c"] = Node("c")
        del edges[edge.edge_id]
        assert sorted(g.nodes) == ["a", "b"]
        assert list(g.edges) == [edge.edge_id]

    def test_adjacency_built_once_per_mode(self):
        g = support.graph_of(("a", "p", "b"), ("c", "q", "a"))
        ab, ca = edge_key("a", "p", "b"), edge_key("c", "q", "a")
        directed = g.adjacency(undirected=False)
        assert directed.forward == {"a": {"b": [ab]}, "c": {"a": [ca]}}
        assert directed.backward == {"b": {"a": [ab]}, "a": {"c": [ca]}}
        undirected = g.adjacency(undirected=True)
        assert undirected.forward is undirected.backward
        assert undirected.forward == {
            "a": {"b": [ab], "c": [ca]},
            "b": {"a": [ab]},
            "c": {"a": [ca]},
        }
        assert g.adjacency(undirected=False) is directed
        assert g.adjacency(undirected=True) is undirected

    def test_threads_racing_on_a_cold_cache_get_equal_indexes(self):
        edges = [(f"n{i}", "p", f"n{(i * 7 + 3) % 40}") for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g = support.graph_of(*edges)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(g.adjacency, True) for _ in range(8)]
                    built = [f.result(timeout=10) for f in futures]
                expected = graph_module._adjacency_index(g, True)
                assert all(index == expected for index in built)
                assert g.adjacency(True) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_cached_index_is_not_compared_or_shown(self):
        g1 = support.graph_of(("a", "p", "b"))
        g2 = support.graph_of(("a", "p", "b"))
        g1.adjacency(undirected=True)
        assert g1 == g2
        assert repr(g1) == repr(g2)


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

"""Topology: path search vs brute-force oracles, scoring formula, rules."""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lightkg import topology
from lightkg.graph import (
    Edge,
    Extractor,
    KnowledgeGraph,
    Node,
    UnknownNodeError,
    edge_key,
)
from lightkg.serialize import serialize_graph
from lightkg.topology import (
    DEFAULT_CONFIG,
    InferenceRule,
    PathEvidence,
    SenseSignature,
    TopologyConfig,
    bidirectional_bfs,
    decode_witness,
    degree_centrality,
    disambiguate_entity,
    discover,
    edge_disjoint_paths,
    encode_witness,
    infer_implicit_relations,
    reinforce_confidence,
    witness_is_valid,
)

def einstein_graph():
    return support.graph_of(
        ("einstein", "worked_at", "princeton"),
        ("princeton", "collaborated_with", "godel"),
        ("einstein", "influenced", "godel"),
    )


def path_is_valid(g: KnowledgeGraph, path: PathEvidence, undirected: bool) -> bool:
    """Independent re-check that a PathEvidence is a concrete simple path."""
    if len(set(path.nodes)) != len(path.nodes):
        return False
    for (u, v), eid in zip(zip(path.nodes, path.nodes[1:]), path.edges):
        edge = g.edges.get(eid)
        if edge is None:
            return False
        forward = (edge.source, edge.target) == (u, v)
        backward = (edge.source, edge.target) == (v, u)
        if not (forward or (undirected and backward)):
            return False
    return True


class TestPathEvidence:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PathEvidence(("a",), ())
        with pytest.raises(ValueError):
            PathEvidence(("a", "b"), ("e1", "e2"))
        with pytest.raises(ValueError):
            PathEvidence(("a", "b", "a"), ("e1", "e2"))

    def test_length(self):
        assert PathEvidence(("a", "b", "c"), ("e1", "e2")).length == 2


class TestDegreeCentrality:
    def test_isolated_node(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "c"), ("c", "p", "d"))
        nodes = dict(g.nodes)
        nodes["lone"] = Node("lone")
        g = KnowledgeGraph(nodes, dict(g.edges))
        assert g.node_count == 5
        assert degree_centrality(g, "lone") == 0.0

    def test_full_star_hub(self):
        g = support.graph_of(
            ("hub", "p", "a"), ("hub", "p", "b"), ("hub", "p", "c"), ("hub", "p", "d")
        )
        assert degree_centrality(g, "hub") == 1.0

    def test_half_connected(self):
        g = support.graph_of(("x", "p", "a"), ("x", "p", "b"), ("a", "p", "c"), ("c", "p", "d"))
        # by hand: x touches 2 edges, 5 nodes total -> 2 / 4
        assert degree_centrality(g, "x") == 0.5

    def test_single_node_graph(self):
        g = support.graph_of(("solo", "loves", "solo"))
        assert degree_centrality(g, "solo") == 0.0

    def test_parallel_predicates_clamp_to_one(self):
        g = support.graph_of(("a", "p", "b"), ("a", "q", "b"), ("a", "r", "b"))
        assert degree_centrality(g, "a") == 1.0

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            degree_centrality(support.graph_of(("a", "p", "b")), "zzz")


class TestBidirectionalBfs:
    def test_two_hop_path(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "c"))
        path = bidirectional_bfs(g, "a", "c")
        assert path is not None
        assert path.nodes == ("a", "b", "c")
        assert path.length == 2

    def test_disconnected_pair(self):
        g = support.graph_of(("a", "p", "b"), ("c", "p", "d"))
        assert bidirectional_bfs(g, "a", "d") is None

    def test_direction_respected_when_directed(self):
        g = support.graph_of(("a", "p", "b"))
        assert bidirectional_bfs(g, "b", "a", undirected=False) is None
        assert bidirectional_bfs(g, "b", "a", undirected=True) is not None

    def test_max_len_bound(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "c"), ("c", "p", "d"))
        assert bidirectional_bfs(g, "a", "d", max_len=2) is None
        assert bidirectional_bfs(g, "a", "d", max_len=3).length == 3

    def test_lexicographic_tie_break(self):
        g = support.graph_of(("s", "p", "m"), ("m", "p", "t"), ("s", "p", "k"), ("k", "p", "t"))
        path = bidirectional_bfs(g, "s", "t")
        assert path.nodes == ("s", "k", "t")

    def test_same_node_rejected(self):
        g = support.graph_of(("a", "p", "b"))
        with pytest.raises(ValueError):
            bidirectional_bfs(g, "a", "a")
        with pytest.raises(UnknownNodeError):
            bidirectional_bfs(g, "a", "zzz")

    @settings(max_examples=200)
    @given(data=st.data())
    def test_matches_unidirectional_oracle(self, data):
        g = data.draw(support.graphs(max_nodes=8, max_edges=14))
        undirected = data.draw(st.booleans())
        pairs = support.edge_pairs(g)
        node_ids = sorted(g.nodes)
        for source in node_ids:
            for target in node_ids:
                if source == target:
                    continue
                expected = support.oracle_shortest_len(pairs, source, target, undirected)
                path = bidirectional_bfs(g, source, target, max_len=20, undirected=undirected)
                if expected is None:
                    assert path is None
                else:
                    assert path is not None
                    assert path.length == expected
                    assert path_is_valid(g, path, undirected)
                    assert path.nodes[0] == source and path.nodes[-1] == target

    @settings(max_examples=100)
    @given(data=st.data())
    def test_deterministic(self, data):
        g = data.draw(support.graphs(max_nodes=8, max_edges=14))
        node_ids = sorted(g.nodes)
        source = data.draw(st.sampled_from(node_ids))
        target = data.draw(st.sampled_from(node_ids))
        if source == target:
            return
        assert bidirectional_bfs(g, source, target) == bidirectional_bfs(g, source, target)


class TestEdgeDisjointPaths:
    def test_diamond(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "d"), ("a", "p", "c"), ("c", "p", "d"))
        paths = edge_disjoint_paths(g, "a", "d")
        assert [p.length for p in paths] == [2, 2]
        assert paths[0].edges and not (set(paths[0].edges) & set(paths[1].edges))
        # brute-force oracle: enumerate all simple paths, check the maximum
        # pairwise edge-disjoint subset has the same size
        node_paths = support.enumerate_simple_paths(support.edge_pairs(g), "a", "d", 4, True)
        realizations = [
            es for np in node_paths for es in support.path_edge_sets(g, np, True)
        ]
        assert support.max_edge_disjoint_count(realizations) == len(paths)

    def test_single_path_graph(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "c"))
        paths = edge_disjoint_paths(g, "a", "c")
        assert len(paths) == 1

    def test_einstein_direct_plus_two_hop(self):
        g = einstein_graph()
        paths = edge_disjoint_paths(g, "einstein", "godel")
        assert [p.length for p in paths] == [1, 2]
        assert paths[1].nodes == ("einstein", "princeton", "godel")

    def test_max_paths_cap(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "d"), ("a", "p", "c"), ("c", "p", "d"))
        assert len(edge_disjoint_paths(g, "a", "d", max_paths=1)) == 1

    @settings(max_examples=150)
    @given(data=st.data())
    def test_pairwise_disjoint_and_sorted(self, data):
        g = data.draw(support.graphs(max_nodes=7, max_edges=14))
        node_ids = sorted(g.nodes)
        source = data.draw(st.sampled_from(node_ids))
        target = data.draw(st.sampled_from(node_ids))
        if source == target:
            return
        undirected = data.draw(st.booleans())
        paths = edge_disjoint_paths(g, source, target, undirected=undirected)
        seen: set[str] = set()
        for path in paths:
            assert path_is_valid(g, path, undirected)
            assert not (set(path.edges) & seen)
            seen.update(path.edges)
        assert paths == sorted(paths, key=lambda p: (p.length, p.nodes))


class TestReinforceConfidence:
    def test_no_support_keeps_direct_weight(self):
        g = support.graph_of(("a", "knows", "b"))
        scored = reinforce_confidence(g)
        (edge,) = scored.edges.values()
        assert edge.confidence == DEFAULT_CONFIG.direct_edge_weight == 0.5

    def test_one_two_hop_support(self):
        scored = reinforce_confidence(einstein_graph())
        edge = scored.edges[edge_key("einstein", "influenced", "godel")]
        # formula with defaults: 1 - (1 - 0.5) * (1 - 0.7**2)
        assert edge.confidence == pytest.approx(0.745, abs=1e-9)
        # cross-check the support count against exhaustive path enumeration
        pairs = [
            (e.source, e.target)
            for e in einstein_graph().edges.values()
            if e.predicate != "influenced"
        ]
        alt = support.enumerate_simple_paths(pairs, "einstein", "godel", 4, True)
        assert len(alt) == 1 and len(alt[0]) == 3

    def test_two_supports_score_higher(self):
        g = support.graph_of(
            ("einstein", "worked_at", "princeton"),
            ("princeton", "collaborated_with", "godel"),
            ("einstein", "influenced", "godel"),
            ("einstein", "visited", "ias"),
            ("ias", "hosted", "godel"),
        )
        one = reinforce_confidence(einstein_graph()).edges[
            edge_key("einstein", "influenced", "godel")
        ]
        two = reinforce_confidence(g).edges[edge_key("einstein", "influenced", "godel")]
        assert two.confidence == pytest.approx(1 - 0.5 * (1 - 0.49) ** 2, abs=1e-9)
        assert two.confidence == pytest.approx(0.86995, abs=1e-9)
        assert two.confidence > one.confidence

    def test_inferred_edges_untouched(self):
        g = support.graph_of(("a", "p", "b"))
        inferred = Edge(
            source="a", target="b", predicate="guessed",
            confidence=0.123, inferred=True,
        )
        g = KnowledgeGraph(dict(g.nodes), {**g.edges, inferred.edge_id: inferred})
        scored = reinforce_confidence(g)
        assert scored.edges[inferred.edge_id].confidence == 0.123

    def test_floor_and_ceiling(self):
        config = TopologyConfig(confidence_floor=0.6, confidence_ceiling=0.7)
        scored = reinforce_confidence(einstein_graph(), config)
        for edge in scored.edges.values():
            assert 0.6 <= edge.confidence <= 0.7

    def test_self_loop_gets_direct_weight(self):
        g = support.graph_of(("a", "loops", "a"), ("a", "p", "b"))
        scored = reinforce_confidence(g)
        assert scored.edges[edge_key("a", "loops", "a")].confidence == 0.5

    def test_directed_support_finding(self):
        # with undirected_paths off, only direction-respecting paths support
        scored = reinforce_confidence(
            einstein_graph(), TopologyConfig(undirected_paths=False)
        )
        assert scored.edges[edge_key("einstein", "influenced", "godel")].confidence == (
            pytest.approx(0.745, abs=1e-9)
        )
        assert scored.edges[edge_key("einstein", "worked_at", "princeton")].confidence == 0.5

    @settings(max_examples=150)
    @given(data=st.data())
    def test_monotone_under_added_support(self, data):
        g = data.draw(support.graphs(max_nodes=6, max_edges=10))
        real_edges = [e for e in g.edges.values() if e.source != e.target]
        if not real_edges:
            return
        edge = data.draw(st.sampled_from(sorted(real_edges, key=lambda e: e.edge_id)))
        before = reinforce_confidence(g).edges[edge.edge_id].confidence
        # add a fresh two-hop support path through a brand-new node
        waypoint = "zz waypoint"
        nodes = dict(g.nodes)
        nodes[waypoint] = Node(waypoint)
        extra1 = Edge(source=edge.source, target=waypoint, predicate="support")
        extra2 = Edge(source=waypoint, target=edge.target, predicate="support")
        edges = dict(g.edges)
        edges[extra1.edge_id] = extra1
        edges[extra2.edge_id] = extra2
        grown = KnowledgeGraph(nodes, edges)
        after = reinforce_confidence(grown).edges[edge.edge_id].confidence
        assert after >= before - 1e-12

    @settings(max_examples=100)
    @given(g=support.graphs(max_nodes=6, max_edges=10))
    def test_confidence_bounds(self, g):
        config = TopologyConfig(confidence_floor=0.1, confidence_ceiling=0.9)
        for edge in reinforce_confidence(g, config).edges.values():
            if not edge.inferred:
                assert 0.1 <= edge.confidence <= 0.9


class TestDisambiguate:
    def test_company_sense_wins(self):
        g = support.graph_of(("apple", "is_a", "company"), ("apple", "makes", "smartphone"))
        senses = [
            SenseSignature("fruit", frozenset({"fruit", "tree"})),
            SenseSignature("company", frozenset({"company", "smartphone"})),
        ]
        ranking = disambiguate_entity(g, "apple", senses)
        assert ranking == [("company", 1.0), ("fruit", 0.0)]

    def test_isolated_node_scores_zero(self):
        g = support.graph_of(("a", "p", "b"))
        nodes = dict(g.nodes)
        nodes["lone"] = Node("lone")
        g = KnowledgeGraph(nodes, dict(g.edges))
        senses = [SenseSignature("s1", frozenset({"a"})), SenseSignature("s2", frozenset({"b"}))]
        ranking = disambiguate_entity(g, "lone", senses)
        assert [score for _, score in ranking] == [0.0, 0.0]

    def test_ties_keep_input_order(self):
        g = support.graph_of(("x", "p", "cue"))
        senses = [
            SenseSignature("first", frozenset({"cue"})),
            SenseSignature("second", frozenset({"cue"})),
        ]
        assert disambiguate_entity(g, "x", senses) == [("first", 1.0), ("second", 1.0)]

    def test_radius_two_reaches_further(self):
        g = support.graph_of(("x", "p", "mid"), ("mid", "p", "far"))
        senses = [SenseSignature("deep", frozenset({"far"}))]
        assert disambiguate_entity(g, "x", senses, radius=1)[0][1] == 0.0
        assert disambiguate_entity(g, "x", senses, radius=2)[0][1] == 1.0

    def test_preconditions(self):
        g = support.graph_of(("a", "p", "b"))
        with pytest.raises(ValueError):
            disambiguate_entity(g, "a", [])
        with pytest.raises(UnknownNodeError):
            disambiguate_entity(g, "zzz", [SenseSignature("s", frozenset({"x"}))])


class TestInferImplicitRelations:
    def lineage_rule(self, discount=0.9):
        return InferenceRule("lineage", ("mentor", "colleague"), "scientific_lineage", discount)

    def test_lineage_inference(self):
        g = support.graph_of(("curie", "mentor", "meitner"), ("meitner", "colleague", "fermi"))
        result = infer_implicit_relations(g, [self.lineage_rule()])
        inferred = [e for e in result.edges.values() if e.inferred]
        assert len(inferred) == 1
        edge = inferred[0]
        assert (edge.source, edge.predicate, edge.target) == ("curie", "scientific_lineage", "fermi")
        assert edge.confidence == pytest.approx(0.5 * 0.5 * 0.9, abs=1e-12)
        assert edge.provenance[0].extractor is Extractor.INFERRED
        assert witness_is_valid(result, edge, self.lineage_rule())

    def test_transitive_closure_single_hop(self):
        g = support.graph_of(("a", "part_of", "b"), ("b", "part_of", "c"))
        rule = InferenceRule("parts", ("part_of", "part_of"), "part_of", 1.0)
        result = infer_implicit_relations(g, [rule])
        assert edge_key("a", "part_of", "c") in result.edges
        # single pass: the new a->c edge does not chain again
        assert result.edge_count == 3

    def test_no_match_leaves_graph_unchanged(self):
        g = support.graph_of(("a", "p", "b"), ("b", "q", "c"))
        rule = InferenceRule("r", ("nope", "nada"), "x", 1.0)
        assert infer_implicit_relations(g, [rule]) == g

    def test_existing_extracted_edge_not_modified(self):
        g = support.graph_of(
            ("curie", "mentor", "meitner"),
            ("meitner", "colleague", "fermi"),
            ("curie", "scientific_lineage", "fermi"),
        )
        result = infer_implicit_relations(g, [self.lineage_rule()])
        edge = result.edges[edge_key("curie", "scientific_lineage", "fermi")]
        assert edge.inferred is False
        assert edge.confidence == 0.5
        assert result.edge_count == 3

    def test_existing_inferred_edge_keeps_max_confidence(self):
        g = support.graph_of(("curie", "mentor", "meitner"), ("meitner", "colleague", "fermi"))
        low = infer_implicit_relations(g, [self.lineage_rule(discount=0.1)])
        again = infer_implicit_relations(low, [self.lineage_rule(discount=0.9)])
        edge = again.edges[edge_key("curie", "scientific_lineage", "fermi")]
        assert edge.confidence == pytest.approx(0.25 * 0.9, abs=1e-12)
        third = infer_implicit_relations(again, [self.lineage_rule(discount=0.1)])
        assert third.edges[edge.edge_id].confidence == pytest.approx(0.25 * 0.9, abs=1e-12)

    def test_cycle_does_not_loop_forever(self):
        g = support.graph_of(("a", "part_of", "b"), ("b", "part_of", "a"))
        rule = InferenceRule("parts", ("part_of", "part_of"), "part_of", 1.0)
        result = infer_implicit_relations(g, [rule])
        # a->b->a repeats node a, so no simple path matches
        assert result.edge_count == 2

    def test_witness_encoding_round_trip(self):
        encoded = encode_witness("myrule", ("e1", "e2"))
        assert decode_witness(encoded) == ("myrule", ("e1", "e2"))
        assert decode_witness("doc-77") is None

    @settings(max_examples=150)
    @given(data=st.data())
    def test_soundness_on_random_graphs(self, data):
        # two-predicate graphs so rule patterns chain often
        node_ids = data.draw(st.lists(support.labels, min_size=2, max_size=6, unique=True))
        edges = {}
        for _ in range(data.draw(st.integers(1, 12))):
            edge = Edge(
                source=data.draw(st.sampled_from(node_ids)),
                target=data.draw(st.sampled_from(node_ids)),
                predicate=data.draw(st.sampled_from(["p", "q"])),
                confidence=data.draw(st.floats(0.0, 1.0, allow_nan=False)),
            )
            edges[edge.edge_id] = edge
        base = KnowledgeGraph({nid: Node(nid) for nid in node_ids}, edges)
        pattern = tuple(
            data.draw(st.sampled_from(["p", "q"]))
            for _ in range(data.draw(st.integers(2, 3)))
        )
        rule = InferenceRule(
            "rand", pattern, data.draw(st.sampled_from(["p", "q", "r"])),
            data.draw(st.floats(0.1, 1.0)),
        )
        result = infer_implicit_relations(base, [rule])
        for edge in result.edges.values():
            if edge.inferred:
                assert witness_is_valid(result, edge, rule)
                # confidence follows the stated product formula
                witness_edges = [
                    result.edges[eid]
                    for eid in decode_witness(edge.provenance[0].source_id)[1]
                ]
                expected = math.prod(w.confidence for w in witness_edges) * rule.discount ** (
                    len(rule.pattern) - 1
                )
                assert edge.confidence == pytest.approx(expected, abs=1e-12)
        # non-destructive: everything from the input survives unchanged
        for eid, edge in base.edges.items():
            assert result.edges[eid] == edge
        assert result.nodes == base.nodes


class TestDiscover:
    def apple_senses(self):
        return {
            "apple": [
                SenseSignature("fruit", frozenset({"fruit", "tree"})),
                SenseSignature("company", frozenset({"company", "smartphone"})),
            ]
        }

    def combined_graph(self):
        return support.graph_of(
            ("einstein", "worked_at", "princeton"),
            ("princeton", "collaborated_with", "godel"),
            ("einstein", "influenced", "godel"),
            ("curie", "mentor", "meitner"),
            ("meitner", "colleague", "fermi"),
        )

    def test_disabled_returns_input_verbatim(self):
        g = self.combined_graph()
        rule = InferenceRule("lineage", ("mentor", "colleague"), "scientific_lineage", 0.9)
        assert discover(g, [rule], self.apple_senses(), enabled=False) is g

    def test_empty_rules_and_senses_only_rescore(self):
        g = self.combined_graph()
        result = discover(g)
        assert set(result.edges) == set(g.edges)
        assert result.nodes == g.nodes
        assert result.edges[edge_key("einstein", "influenced", "godel")].confidence == pytest.approx(0.745)

    def test_full_pass(self):
        rule = InferenceRule("lineage", ("mentor", "colleague"), "scientific_lineage", 0.9)
        result = discover(self.combined_graph(), [rule])
        assert result.edges[edge_key("einstein", "influenced", "godel")].confidence == pytest.approx(
            0.745, abs=1e-9
        )
        lineage = result.edges[edge_key("curie", "scientific_lineage", "fermi")]
        assert lineage.inferred
        # inference runs after rescoring, so it sees rescored confidences
        assert lineage.confidence == pytest.approx(0.5 * 0.5 * 0.9, abs=1e-9)

    def test_sense_attachment(self):
        g = support.graph_of(("apple", "is_a", "company"), ("apple", "makes", "smartphone"))
        result = discover(g, senses_by_node=self.apple_senses())
        assert result.nodes["apple"].attributes.get("sense") == frozenset({"company"})

    def test_zero_score_senses_not_attached(self):
        g = support.graph_of(("apple", "is_a", "company"))
        senses = {"apple": [SenseSignature("fruit", frozenset({"fruit"}))]}
        result = discover(g, senses_by_node=senses)
        assert "sense" not in result.nodes["apple"].attributes

    def test_missing_sense_nodes_skipped(self):
        g = support.graph_of(("a", "p", "b"))
        result = discover(g, senses_by_node={"ghost": [SenseSignature("s", frozenset({"a"}))]})
        assert result.nodes == g.nodes

    @settings(max_examples=75)
    @given(g=support.graphs(max_nodes=6, max_edges=8))
    def test_never_destroys_content(self, g):
        rule = InferenceRule("r", ("links", "cites"), "related", 0.8)
        result = discover(g, [rule])
        assert set(g.nodes) <= set(result.nodes)
        assert set(g.edges) <= set(result.edges)
        for eid, edge in g.edges.items():
            out = result.edges[eid]
            assert (out.source, out.predicate, out.target) == (
                edge.source, edge.predicate, edge.target,
            )


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            TopologyConfig(max_path_length=1)
        with pytest.raises(ValueError):
            TopologyConfig(base_path_weight=1.0)
        with pytest.raises(ValueError):
            TopologyConfig(direct_edge_weight=0.0)
        with pytest.raises(ValueError):
            TopologyConfig(confidence_floor=0.8, confidence_ceiling=0.2)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            InferenceRule("x", ("only",), "y", 0.5)
        with pytest.raises(ValueError):
            InferenceRule("has:colon", ("a", "b"), "y", 0.5)
        with pytest.raises(ValueError):
            InferenceRule("x", ("a", "b"), "y", 0.0)
        with pytest.raises(ValueError):
            SenseSignature("s", frozenset())


def random_sparse_graph(rng: random.Random, nodes: int, edges: int) -> KnowledgeGraph:
    node_ids = [f"n{i:03d}" for i in range(nodes)]
    edge_map: dict[str, Edge] = {}
    while len(edge_map) < edges:
        edge = Edge(rng.choice(node_ids), rng.choice(node_ids), rng.choice("pqr"))
        edge_map[edge.edge_id] = edge
    return KnowledgeGraph({n: Node(n) for n in node_ids}, edge_map)


class TestSharedIndexMatchesReference:
    """The shared adjacency index with ``used``-set exclusion finds exactly
    the paths of a search over neighbor maps rebuilt per search."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_edge_disjoint_paths(self, data):
        g = data.draw(support.multigraphs())
        source, target = data.draw(
            st.lists(st.sampled_from(sorted(g.nodes)), min_size=2, max_size=2, unique=True)
        )
        undirected = data.draw(st.booleans())
        max_len = data.draw(st.integers(1, 5))
        max_paths = data.draw(st.none() | st.integers(1, 3))
        exclude = data.draw(
            st.lists(st.sampled_from(sorted(g.edges) + ["not-an-edge"]), max_size=3)
        )
        expected = support.reference_edge_disjoint_paths(
            g, source, target, max_len, max_paths, undirected, exclude
        )
        assert edge_disjoint_paths(
            g, source, target, max_len, max_paths, undirected, exclude
        ) == expected
        assert bidirectional_bfs(
            g, source, target, max_len, undirected
        ) == support.reference_shortest_path(g, source, target, max_len, undirected, ())

    @settings(max_examples=150)
    @given(
        g=support.multigraphs(),
        undirected=st.booleans(),
        max_len=st.integers(2, 5),
    )
    def test_reinforce_confidence(self, g, undirected, max_len):
        config = TopologyConfig(max_path_length=max_len, undirected_paths=undirected)
        with mock.patch.object(topology, "_shortest_path", support.reference_shortest_path):
            expected = reinforce_confidence(g, config)
        actual = reinforce_confidence(g, config)
        assert actual == expected
        assert serialize_graph(actual) == serialize_graph(expected)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("undirected", [True, False])
    def test_reinforce_confidence_larger_graphs(self, seed, undirected):
        g = random_sparse_graph(random.Random(seed), nodes=40, edges=90)
        config = TopologyConfig(undirected_paths=undirected)
        with mock.patch.object(topology, "_shortest_path", support.reference_shortest_path):
            expected = reinforce_confidence(g, config)
        assert reinforce_confidence(g, config) == expected


class TestIndexBuiltOncePerCall:
    def count_builds(self, monkeypatch) -> list:
        calls = []
        build = topology._adjacency_index

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(topology, "_adjacency_index", counting)
        return calls

    def test_reinforce_confidence(self, monkeypatch):
        g = random_sparse_graph(random.Random(11), nodes=80, edges=200)
        calls = self.count_builds(monkeypatch)
        reinforce_confidence(g)
        assert len(calls) == 1

    def test_attach_senses(self, monkeypatch):
        g = random_sparse_graph(random.Random(12), nodes=80, edges=200)
        senses = {
            node_id: [SenseSignature("s", frozenset({"n000", "n001"}))]
            for node_id in sorted(g.nodes)[:20]
        }
        calls = self.count_builds(monkeypatch)
        topology._attach_senses(g, senses)
        assert len(calls) == 1

"""Topology: path search vs brute-force oracles, scoring formula, rules."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import support
from lightkg import graph as graph_module
from lightkg import topology
from lightkg.aggregation import NormalizationPolicy
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
    RuleFileError,
    SenseSignature,
    TopologyConfig,
    disambiguate_entity,
    discover,
    encode_witness,
    infer_implicit_relations,
    load_rules,
    load_senses,
    reinforce_confidence,
)

GOLDEN = Path(__file__).parent / "data" / "golden"


def einstein_graph():
    return support.graph_of(
        ("einstein", "worked_at", "princeton"),
        ("princeton", "collaborated_with", "godel"),
        ("einstein", "influenced", "godel"),
    )


def path_is_valid(g: KnowledgeGraph, path: support.PathEvidence, undirected: bool) -> bool:
    """Independent re-check that a PathEvidence is a concrete simple path."""
    if not len(path.nodes) == len(path.edges) + 1 >= 2:
        return False
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


class TestBidirectionalBfs:
    def test_two_hop_path(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "c"))
        path = support.edge_disjoint_paths(g, "a", "c")[0]
        assert path.nodes == ("a", "b", "c")
        assert path.length == 2

    def test_disconnected_pair(self):
        g = support.graph_of(("a", "p", "b"), ("c", "p", "d"))
        assert support.edge_disjoint_paths(g, "a", "d") == []

    def test_direction_respected_when_directed(self):
        g = support.graph_of(("a", "p", "b"))
        assert support.edge_disjoint_paths(g, "b", "a", undirected=False) == []
        assert support.edge_disjoint_paths(g, "b", "a", undirected=True) != []

    def test_max_len_bound(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "c"), ("c", "p", "d"))
        assert support.edge_disjoint_paths(g, "a", "d", max_len=2) == []
        path = support.edge_disjoint_paths(g, "a", "d", max_len=3)[0]
        assert path.length == 3

    def test_lexicographic_tie_break(self):
        g = support.graph_of(("s", "p", "m"), ("m", "p", "t"), ("s", "p", "k"), ("k", "p", "t"))
        path = support.edge_disjoint_paths(g, "s", "t")[0]
        assert path.nodes == ("s", "k", "t")

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
                paths = support.edge_disjoint_paths(
                    g, source, target, max_len=20, undirected=undirected
                )
                if expected is None:
                    assert paths == []
                else:
                    path = paths[0]
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
        first = support.edge_disjoint_paths(g, source, target)
        assert first == support.edge_disjoint_paths(g, source, target)


class TestEdgeDisjointPaths:
    def test_diamond(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "d"), ("a", "p", "c"), ("c", "p", "d"))
        paths = support.edge_disjoint_paths(g, "a", "d")
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
        paths = support.edge_disjoint_paths(g, "a", "c")
        assert len(paths) == 1

    def test_einstein_direct_plus_two_hop(self):
        g = einstein_graph()
        paths = support.edge_disjoint_paths(g, "einstein", "godel")
        assert [p.length for p in paths] == [1, 2]
        assert paths[1].nodes == ("einstein", "princeton", "godel")

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
        paths = support.edge_disjoint_paths(g, source, target, undirected=undirected)
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

    @pytest.mark.parametrize(
        "undirected, name",
        [(True, "hub_reinforced.json"), (False, "hub_reinforced_directed.json")],
    )
    def test_hub_graph_matches_golden(self, undirected, name):
        # Hubs give edges dozens of supports of every length.
        scored = reinforce_confidence(
            support.build_hub_graph(), TopologyConfig(undirected_paths=undirected)
        )
        assert serialize_graph(scored, "json") == (GOLDEN / name).read_bytes()

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

    def test_two_hop_node_is_not_a_neighbour(self):
        g = support.graph_of(("x", "p", "mid"), ("far", "p", "mid"))
        senses = [
            SenseSignature("deep", frozenset({"far"})),
            SenseSignature("near", frozenset({"mid"})),
        ]
        assert disambiguate_entity(g, "x", senses) == [("near", 1.0), ("deep", 0.0)]
        assert disambiguate_entity(g, "mid", senses) == [("deep", 1.0), ("near", 0.0)]

    @settings(max_examples=150)
    @given(g=support.graphs(max_nodes=7, max_edges=12))
    def test_neighborhood_matches_bfs_oracle(self, g):
        # One single-cue sense per node: a sense scores 1 exactly when its
        # node lies one undirected hop from the scored node.
        pairs = support.edge_pairs(g)
        for node_id in g.nodes:
            senses = [SenseSignature(n, frozenset({n})) for n in sorted(g.nodes)]
            scores = dict(disambiguate_entity(g, node_id, senses))
            for n in g.nodes:
                dist = support.oracle_shortest_len(pairs, node_id, n, True)
                assert scores[n] == (1.0 if dist == 1 else 0.0)

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
        expected = support.reference_infer(g, [self.lineage_rule()])
        assert dict(result.edges) == dict(expected.edges)

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
        assert encode_witness("myrule", ("e1", "e2")) == "rule:myrule:e1|e2"

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
        # each witness a matching simple path, each confidence its product
        assert dict(result.edges) == dict(support.reference_infer(base, [rule]).edges)
        # non-destructive: everything from the input survives unchanged
        for eid, edge in base.edges.items():
            assert result.edges[eid] == edge
        assert result.nodes == base.nodes

    @settings(max_examples=150)
    @given(
        graph=st.sampled_from([("p", "q"), ("p", "q", "r")]).flatmap(
            lambda predicates: support.multigraphs(max_edges=24, predicates=predicates)
        ),
        confidences=st.lists(st.sampled_from([0.3, 0.5, 0.9, 1.0]), min_size=24, max_size=24),
        rules=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["p", "q", "r"]), min_size=2, max_size=3),
                st.sampled_from(["p", "q", "s"]),
                st.sampled_from([0.5, 0.9, 1.0]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @example(
        # Three ways on from b: a search that drops any of them loses an edge.
        graph=support.graph_of(("a", "p", "b"), ("b", "q", "c"), ("b", "q", "d"), ("b", "q", "e")),
        confidences=[0.5] * 24,
        rules=[(["p", "q"], "s", 1.0)],
    )
    @example(
        # Two rules reach a -s-> c with equal confidence; the second rule's
        # witness is the smaller one, so it must win over rule order.
        graph=support.graph_of(("a", "q", "b"), ("b", "p", "c"), ("a", "p", "d"), ("d", "q", "c")),
        confidences=[0.5] * 24,
        rules=[(["q", "p"], "s", 1.0), (["p", "q"], "s", 1.0)],
    )
    def test_completeness_against_brute_force(self, graph, confidences, rules):
        """Every matching simple path is found, and each inferred edge keeps
        the best witness: the result equals :func:`support.reference_infer`
        exactly, confidences bit for bit. Inferred predicates overlap the
        graph's, so the rules for existing edges are exercised too."""
        edges = {
            eid: replace(edge, confidence=c)
            for (eid, edge), c in zip(graph.edges.items(), confidences)
        }
        g = KnowledgeGraph(graph.nodes, edges)
        rules = [
            InferenceRule(f"r{i}", tuple(pattern), predicate, discount)
            for i, (pattern, predicate, discount) in enumerate(rules)
        ]
        result = infer_implicit_relations(g, rules)
        expected = support.reference_infer(g, rules)
        assert dict(result.edges) == dict(expected.edges)
        assert result.nodes == expected.nodes


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


class TestRuleAndSenseFiles:
    @pytest.mark.parametrize(
        "loader, payload, fragment",
        [
            pytest.param(
                load_rules,
                [{"name": "r", "pattern": "ab", "inferred_predicate": "x"}],
                "pattern must be a json list",
                id="rule-pattern-string",
            ),
            pytest.param(
                load_senses,
                {"x": [{"sense_label": "s", "cues": "abc"}]},
                "cues must be a json list",
                id="sense-cues-string",
            ),
            pytest.param(load_senses, {"x": 5}, "must be a json list", id="senses-number"),
            pytest.param(load_senses, {"x": "ab"}, "must be a json list", id="senses-string"),
        ],
    )
    def test_string_or_number_where_a_list_belongs(self, tmp_path, loader, payload, fragment):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(RuleFileError, match=fragment):
            loader(path)

    def test_labels_normalized_with_the_policy(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(
            [{"name": "r", "pattern": ["Mentored", "advised."], "inferred_predicate": " X  Y"}]
        ))
        senses = tmp_path / "senses.json"
        senses.write_text(json.dumps({
            "Radium": [{"sense_label": "Element", "cues": [" Heavy  Metals "]}],
            "radium ": [{"sense_label": "brand", "cues": ["Company"]}],
        }))
        (rule,) = load_rules(rules)
        assert (rule.pattern, rule.inferred_predicate) == (("mentored", "advised"), "x y")
        assert load_senses(senses) == {
            "radium": [
                SenseSignature("Element", frozenset({"heavy metals"})),
                SenseSignature("brand", frozenset({"company"})),
            ]
        }
        keep_spaces = NormalizationPolicy(collapse_whitespace=False)
        (rule,) = load_rules(rules, keep_spaces)
        assert rule.inferred_predicate == "x  y"
        assert load_senses(senses, keep_spaces)["radium"][0].cue_labels == {"heavy  metals"}

    @pytest.mark.parametrize(
        "loader, payload",
        [
            pytest.param(
                load_rules, [{"name": "r", "pattern": ["a", "..."], "inferred_predicate": "x"}],
                id="rule-pattern",
            ),
            pytest.param(
                load_rules, [{"name": "r", "pattern": ["a", "b"], "inferred_predicate": "?!"}],
                id="rule-inferred-predicate",
            ),
            pytest.param(
                load_senses, {" - ": [{"sense_label": "s", "cues": ["a"]}]}, id="sense-node"
            ),
            pytest.param(
                load_senses, {"x": [{"sense_label": "s", "cues": ["a", "..."]}]}, id="sense-cue"
            ),
        ],
    )
    def test_label_that_normalizes_to_nothing_rejected(self, tmp_path, loader, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(RuleFileError, match="empty after normalization"):
            loader(path)


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


# Every phase but explain, which after shrinking re-runs a failing hub-graph
# test on up to 500 fresh graphs (one to three minutes through the reference
# oracle) only to annotate the report; the shrunk example is reported all the same.
HUB_PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)


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
        exclude = data.draw(
            st.lists(st.sampled_from(sorted(g.edges) + ["not-an-edge"]), max_size=3)
        )
        expected = support.reference_edge_disjoint_paths(
            g, source, target, max_len, undirected, exclude
        )
        actual = support.edge_disjoint_paths(g, source, target, max_len, undirected, exclude)
        assert actual == expected
        shortest = support.reference_shortest_path(g, source, target, max_len, undirected, ())
        assert support.edge_disjoint_paths(g, source, target, max_len, undirected)[:1] == (
            [shortest] if shortest else []
        )

    @pytest.mark.parametrize("undirected", [True, False])
    @settings(max_examples=150, phases=HUB_PHASES)
    @given(data=st.data())
    def test_edge_disjoint_paths_on_hub_graphs(self, data, undirected):
        g = data.draw(support.hub_multigraphs())
        source, target = data.draw(
            st.lists(st.sampled_from(sorted(g.nodes)), min_size=2, max_size=2, unique=True)
        )
        max_len = data.draw(st.integers(1, 5))
        exclude = data.draw(st.lists(st.sampled_from(sorted(g.edges) or ["none"]), max_size=3))
        expected = support.reference_edge_disjoint_paths(
            g, source, target, max_len, undirected, exclude
        )
        actual = support.edge_disjoint_paths(g, source, target, max_len, undirected, exclude)
        assert actual == expected

    @settings(max_examples=150)
    @given(
        g=support.multigraphs(),
        undirected=st.booleans(),
        max_len=st.integers(2, 5),
    )
    def test_reinforce_confidence(self, g, undirected, max_len):
        config = TopologyConfig(max_path_length=max_len, undirected_paths=undirected)
        expected = support.reference_reinforce_confidence(g, config)
        actual = reinforce_confidence(g, config)
        assert actual == expected
        assert serialize_graph(actual) == serialize_graph(expected)

    @pytest.mark.parametrize("undirected", [True, False])
    @settings(max_examples=40, phases=HUB_PHASES)
    @given(g=support.hub_multigraphs(), max_len=st.integers(2, 5))
    def test_reinforce_confidence_on_hub_graphs(self, g, max_len, undirected):
        config = TopologyConfig(max_path_length=max_len, undirected_paths=undirected)
        expected = support.reference_reinforce_confidence(g, config)
        actual = reinforce_confidence(g, config)
        assert actual == expected
        assert serialize_graph(actual) == serialize_graph(expected)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("undirected", [True, False])
    def test_reinforce_confidence_larger_graphs(self, seed, undirected):
        g = random_sparse_graph(random.Random(seed), nodes=40, edges=90)
        config = TopologyConfig(undirected_paths=undirected)
        expected = support.reference_reinforce_confidence(g, config)
        assert reinforce_confidence(g, config) == expected

    def test_undirected_antiparallel_edges_keep_their_own_supports(self):
        # Undirected, a->b and b->a join the same two nodes, but the search's
        # tie-breaks depend on the end it starts from: from a it takes a-c-e-f-b and a-d-e-k-b, which leave no third path; from
        # b it takes b-f-e-c-a, b-h-i-d-a and b-k-e-g-a.
        g = support.graph_of(
            ("a", "p4", "b"), ("b", "p2", "a"), ("a", "p2", "d"), ("a", "p4", "g"),
            ("b", "p1", "k"), ("c", "p0", "a"), ("d", "p3", "e"), ("e", "p2", "c"),
            ("e", "p0", "g"), ("e", "p4", "k"), ("f", "p2", "b"), ("f", "p4", "e"),
            ("h", "p2", "b"), ("h", "p2", "i"), ("i", "p3", "d"),
        )
        scored = reinforce_confidence(g)
        assert scored == support.reference_reinforce_confidence(g, DEFAULT_CONFIG)
        miss_4 = 1.0 - 0.7**4
        forward = scored.edges[edge_key("a", "p4", "b")].confidence
        backward = scored.edges[edge_key("b", "p2", "a")].confidence
        assert forward == pytest.approx(1.0 - 0.5 * 0.3 * miss_4**2)
        assert backward == pytest.approx(1.0 - 0.5 * 0.3 * miss_4**3)


class TestOneSearchPerSupport:
    """Reinforcement reads each support path off its own bidirectional
    search, with no second breadth-first search to rebuild it."""

    def test_reinforce_confidence_runs_one_search_per_support(self, monkeypatch):
        # Each edge's search loop finds its supports one search each, then
        # runs one last search that finds none.
        g = random_sparse_graph(random.Random(15), nodes=40, edges=90)
        expected = sum(
            1 + len(support.edge_disjoint_paths(g, e.source, e.target, exclude_edges=(eid,)))
            for eid, e in g.edges.items()
            if e.source != e.target
        )
        calls = []
        original = topology._shortest_path

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(topology, "_shortest_path", counting)
        reinforce_confidence(g)
        assert expected > g.edge_count
        assert len(calls) == expected


class TestFactorsRoundLikeTheReference:
    """Supports multiply into the score one factor at a time, shortest
    first, as in the reference. In each graph below a power of one factor
    rounds differently from the repeated product."""

    @staticmethod
    def assert_scored_like_the_reference(g, config: TopologyConfig, eid: str) -> None:
        expected = support.reference_reinforce_confidence(g, config).edges[eid].confidence
        assert reinforce_confidence(g, config).edges[eid].confidence == expected

    def test_four_two_hop_supports(self):
        g = support.graph_of(
            ("u", "p", "v"),
            *(hop for i in range(4) for hop in (("u", "p", f"w{i}"), (f"w{i}", "p", "v"))),
        )
        config = TopologyConfig(base_path_weight=0.6, direct_edge_weight=0.3)
        self.assert_scored_like_the_reference(g, config, edge_key("u", "p", "v"))

    def test_six_parallel_edges_and_two_two_hop_supports(self):
        g = support.graph_of(
            *(("u", f"p{i}", "v") for i in range(7)),
            ("u", "p", "w0"), ("w0", "p", "v"), ("u", "p", "w1"), ("w1", "p", "v"),
        )
        config = TopologyConfig(base_path_weight=0.55, direct_edge_weight=0.5)
        self.assert_scored_like_the_reference(g, config, edge_key("u", "p0", "v"))


class TestIndexBuiltOncePerCall:
    """Reinforcement builds one adjacency index per call and leaves none
    cached on its graph; repeated searches of one graph build its index at
    most once per direction mode, and a graph derived from it builds its own
    instead of reusing one."""

    def count_builds(self, monkeypatch) -> list:
        calls = []
        build = graph_module._adjacency_index

        def counting(g, undirected):
            calls.append((g, undirected))
            return build(g, undirected)

        monkeypatch.setattr(graph_module, "_adjacency_index", counting)
        return calls

    def test_reinforce_confidence(self, monkeypatch):
        g = random_sparse_graph(random.Random(11), nodes=80, edges=200)
        calls = self.count_builds(monkeypatch)
        reinforce_confidence(g)
        reinforce_confidence(g)
        assert [undirected for _, undirected in calls] == [True, True]
        assert all(built is g for built, _ in calls)
        assert g._adjacency == {}

    def test_attach_senses(self, monkeypatch):
        g = random_sparse_graph(random.Random(12), nodes=80, edges=200)
        senses = {
            node_id: [SenseSignature("s", frozenset({"n000", "n001"}))]
            for node_id in sorted(g.nodes)[:20]
        }
        calls = self.count_builds(monkeypatch)
        topology._attach_senses(g, senses)
        assert len(calls) == 1 and calls[0][0] is g

    def test_repeated_searches_build_one_index_per_mode(self, monkeypatch):
        g = random_sparse_graph(random.Random(13), nodes=40, edges=90)
        pairs = [("n000", "n001"), ("n002", "n003"), ("n004", "n005")]
        senses = [SenseSignature("s", frozenset({"n006", "n007"}))]
        calls = self.count_builds(monkeypatch)
        for _ in range(2):
            for undirected in (True, False):
                for source, target in pairs:
                    support.edge_disjoint_paths(g, source, target, undirected=undirected)
            disambiguate_entity(g, "n000", senses)
        assert sorted(undirected for _, undirected in calls) == [False, True]
        assert all(built is g for built, _ in calls)

    def test_reinforce_then_attach_senses_builds_one_per_graph(self, monkeypatch):
        g = random_sparse_graph(random.Random(14), nodes=80, edges=200)
        senses = {
            node_id: [SenseSignature("s", frozenset({"n000", "n001"}))]
            for node_id in sorted(g.nodes)[:20]
        }
        calls = self.count_builds(monkeypatch)
        reinforced = reinforce_confidence(g)
        topology._attach_senses(reinforced, senses)
        assert len(calls) == 2
        assert calls[0][0] is g and calls[1][0] is reinforced

"""Evaluation harness vs a naive set-comparison oracle."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from lightkg import aggregation
from lightkg.evaluation import (
    EvalReport,
    GoldFormatError,
    GoldSet,
    MatchResult,
    entity_f1,
    evaluate_run,
    load_gold,
    relation_f1,
)
from lightkg.graph import Edge, KnowledgeGraph
from lightkg.serialize import serialize_graph


def gold_of(entities=(), triples=()) -> GoldSet:
    ents = set(entities)
    for s, _, o in triples:
        ents.add(s)
        ents.add(o)
    return GoldSet(frozenset(ents), frozenset(triples))


# Labels with the characters an encoder may escape or mangle: quotes,
# backslashes, C0 controls, line separators and non-BMP characters.
_report_labels = st.text(
    st.sampled_from(
        ['"', "\\", "\x00", "\x1f", "\n", "\u2028", "\x85", "\U0001f600", "a", "\u00e9"]
    ),
    max_size=5,
)
_scores = st.sampled_from([0.0, 1.0, 1 / 3]) | st.floats(0, 1)


@st.composite
def _match_results(draw, item):
    return MatchResult(
        draw(_scores), draw(_scores), draw(_scores),
        *(tuple(draw(st.lists(item, max_size=3))) for _ in range(3)),
    )


@settings(max_examples=300)
@given(
    entity=_match_results(_report_labels),
    relation=_match_results(st.tuples(_report_labels, _report_labels, _report_labels)),
)
@example(
    entity=MatchResult(0.0, 1.0, 1 / 3, (), (), ()),
    relation=MatchResult(1 / 3, 0.0, 1.0, (("a", "p", "b"),), (), ()),
)
def test_report_json_equals_the_indenting_encoder(entity, relation):
    report = EvalReport(entity, relation)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2, ensure_ascii=False)


class TestEntityF1:
    def test_identical_sets(self):
        g = support.graph_of(("a", "p", "b"))
        result = entity_f1(g, gold_of(entities={"a", "b"}))
        assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)

    def test_partial_overlap(self):
        g = support.graph_of(("a", "p", "b"), ("b", "p", "c"))
        result = entity_f1(g, gold_of(entities={"b", "c", "d"}))
        assert result.precision == pytest.approx(2 / 3)
        assert result.recall == pytest.approx(2 / 3)
        assert result.f1 == pytest.approx(2 / 3)
        assert result.matched == ("b", "c")
        assert result.missing == ("d",)
        assert result.spurious == ("a",)

    def test_empty_prediction(self):
        result = entity_f1(KnowledgeGraph(), gold_of(entities={"a"}))
        assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)

    def test_empty_gold(self):
        g = support.graph_of(("a", "p", "b"))
        result = entity_f1(g, gold_of())
        assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)


class TestRelationF1:
    def test_identical_triples_strict(self):
        g = support.graph_of(("marie curie", "discovered", "radium"))
        gold = gold_of(triples={("marie curie", "discovered", "radium")})
        for policy in ("strict", "predicate_relaxed"):
            result = relation_f1(g, gold, policy)
            assert result.f1 == 1.0

    def test_substring_predicate_only_matches_relaxed(self):
        g = support.graph_of(("marie curie", "discovered in 1898", "radium"))
        gold = gold_of(triples={("marie curie", "discovered", "radium")})
        assert relation_f1(g, gold, "strict").f1 == 0.0
        relaxed = relation_f1(g, gold, "predicate_relaxed")
        assert relaxed.f1 == 1.0

    def test_relaxed_requires_matching_endpoints(self):
        g = support.graph_of(("marie", "discovered", "radium"))
        gold = gold_of(triples={("marie curie", "discovered", "radium")})
        assert relation_f1(g, gold, "predicate_relaxed").f1 == 0.0

    def test_each_gold_matched_at_most_once(self):
        g = support.graph_of(("a", "met", "b"), ("a", "met again", "b"))
        gold = gold_of(triples={("a", "met", "b")})
        result = relation_f1(g, gold, "predicate_relaxed")
        assert len(result.matched) == 1
        assert result.precision == pytest.approx(0.5)
        assert result.recall == 1.0

    def test_inferred_edges_excluded_by_default(self):
        g = support.graph_of(("a", "p", "b"))
        inferred = Edge(source="a", target="b", predicate="guessed", inferred=True)
        g = KnowledgeGraph(dict(g.nodes), {**g.edges, inferred.edge_id: inferred})
        gold = gold_of(triples={("a", "guessed", "b")})
        assert relation_f1(g, gold, "strict").f1 == 0.0
        assert relation_f1(g, gold, "predicate_relaxed").f1 == 0.0

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            relation_f1(KnowledgeGraph(), gold_of(), "fuzzy")


class TestOracleEquivalence:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_strict_matches_naive_sets(self, data):
        g = data.draw(support.graphs(max_nodes=6, max_edges=12))
        gold_triples = {
            (data.draw(support.labels), data.draw(support.labels), data.draw(support.labels))
            for _ in range(data.draw(st.integers(0, 8)))
        }
        predicted_triples = {
            (e.source, e.predicate, e.target) for e in g.edges.values() if not e.inferred
        }
        gold = gold_of(triples=gold_triples)
        result = relation_f1(g, gold, "strict")
        expected = support.naive_f1(predicted_triples, set(gold_triples))
        assert (result.precision, result.recall, result.f1) == pytest.approx(expected)

        entity_result = entity_f1(g, gold)
        expected_entities = support.naive_f1(set(g.nodes), set(gold.entities))
        assert (
            entity_result.precision, entity_result.recall, entity_result.f1,
        ) == pytest.approx(expected_entities)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_relaxed_matches_all_pairs_greedy(self, data):
        # Few endpoints and overlapping predicates, so (subject, object)
        # pairs carry several predicates that compete for the same gold.
        ends = st.sampled_from(["a", "b", "c"])
        predicates = st.sampled_from(["p", "pq", "q", "qp", "pqp", "r"])
        triples = st.sets(st.tuples(ends, predicates, ends), max_size=14)
        predicted = data.draw(triples)
        gold_triples = data.draw(triples)
        g = support.graph_of(*predicted)
        result = relation_f1(g, gold_of(triples=gold_triples), "predicate_relaxed")
        matched, matched_gold = support.reference_relaxed_matches(predicted, gold_triples)
        assert result.matched == tuple(sorted(matched))
        assert result.missing == tuple(sorted(gold_triples - matched_gold))
        assert result.spurious == tuple(sorted(predicted - matched))

    @settings(max_examples=100)
    @given(g=support.graphs(max_nodes=6, max_edges=10))
    def test_self_consistency(self, g):
        # the explicit zero convention wins over self-consistency when a side
        # is empty: no matches means F1 = 0 even against an empty gold
        gold = GoldSet(
            frozenset(g.nodes),
            frozenset((e.source, e.predicate, e.target) for e in g.edges.values() if not e.inferred),
        )
        if g.nodes:
            assert entity_f1(g, gold).f1 == 1.0
        if any(not e.inferred for e in g.edges.values()):
            assert relation_f1(g, gold, "strict").f1 == 1.0
        else:
            assert relation_f1(g, gold, "strict").f1 == 0.0

    @settings(max_examples=100)
    @given(data=st.data())
    def test_metric_bounds(self, data):
        g = data.draw(support.graphs(max_nodes=5, max_edges=8))
        gold_triples = {
            (data.draw(support.labels), data.draw(support.labels), data.draw(support.labels))
            for _ in range(data.draw(st.integers(0, 5)))
        }
        gold = gold_of(triples=gold_triples)
        for result in (entity_f1(g, gold), relation_f1(g, gold, "strict")):
            assert 0.0 <= result.precision <= 1.0
            assert 0.0 <= result.recall <= 1.0
            assert result.f1 <= max(result.precision, result.recall) + 1e-12
            assert (result.f1 == 0.0) == (len(result.matched) == 0)


class TestGoldSet:
    def test_triple_endpoints_must_be_entities(self):
        with pytest.raises(ValueError):
            GoldSet(frozenset({"a"}), frozenset({("a", "p", "b")}))

    def test_load_gold(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"subject": "Marie  Curie", "predicate": "Discovered", "object": "Radium"}\n'
            '{"entity": "Polonium"}\n'
        )
        gold = load_gold(path)
        assert gold.entities == frozenset({"marie curie", "radium", "polonium"})
        assert gold.triples == frozenset({("marie curie", "discovered", "radium")})

    def test_load_gold_normalizes_each_distinct_raw_label_once(self, tmp_path, monkeypatch):
        calls = []
        normalize = aggregation.normalize_label

        def counting(raw, policy=aggregation.DEFAULT_POLICY):
            calls.append(raw)
            return normalize(raw, policy)

        monkeypatch.setattr(aggregation, "normalize_label", counting)
        records = [
            {"subject": f"Author {i % 4}", "predicate": "Wrote", "object": f"Book {i}"}
            for i in range(12)
        ] + [{"entity": "Author 0"}, {"entity": "Paris"}] * 3
        path = tmp_path / "gold.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        gold = load_gold(path)
        assert sorted(calls) == sorted({raw for r in records for raw in r.values()})
        assert len(gold.triples) == 12
        assert gold.entities >= {"author 0", "paris", "book 11"}

    def test_load_gold_bad_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"subject": "a"}\n')
        with pytest.raises(GoldFormatError):
            load_gold(path)

    def test_load_gold_bad_json(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text("not json\n")
        with pytest.raises(GoldFormatError):
            load_gold(path)


class TestEvaluateRun:
    def write_graph(self, tmp_path, g, name="graph.json"):
        path = tmp_path / name
        path.write_bytes(serialize_graph(g, "json"))
        return path

    def test_graph_equal_to_gold(self, tmp_path):
        g = support.graph_of(("marie curie", "discovered", "radium"))
        graph_path = self.write_graph(tmp_path, g)
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text(
            '{"subject": "marie curie", "predicate": "discovered", "object": "radium"}\n'
        )
        report = evaluate_run(graph_path, gold_path)
        assert report.entity.f1 == 1.0
        assert report.relation.f1 == 1.0
        payload = report.to_dict()
        assert payload["entity"] == {"p": 1.0, "r": 1.0, "f1": 1.0}
        assert {"type": "relation", "triple": ["marie curie", "discovered", "radium"]} in payload["matched"]

    def test_empty_graph_scores_zero(self, tmp_path):
        graph_path = self.write_graph(tmp_path, KnowledgeGraph())
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text('{"subject": "a", "predicate": "p", "object": "b"}\n')
        report = evaluate_run(graph_path, gold_path)
        assert report.entity.f1 == 0.0
        assert report.relation.f1 == 0.0

    def test_seven_two_three_fixture(self, tmp_path):
        correct = [(f"s{i}", "rel", f"o{i}") for i in range(7)]
        spurious = [("x1", "rel", "y1"), ("x2", "rel", "y2")]
        missing = [(f"m{i}", "rel", f"n{i}") for i in range(3)]
        g = support.graph_of(*(correct + spurious))
        graph_path = self.write_graph(tmp_path, g)
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text(
            "\n".join(
                json.dumps({"subject": s, "predicate": p, "object": o})
                for s, p, o in correct + missing
            )
            + "\n"
        )
        report = evaluate_run(graph_path, gold_path)
        assert report.relation.precision == 7 / 9
        assert report.relation.recall == 7 / 10
        expected_f1 = 2 * (7 / 9) * (7 / 10) / ((7 / 9) + (7 / 10))
        assert report.relation.f1 == pytest.approx(expected_f1, abs=1e-12)

    def test_render_table_mentions_metrics(self, tmp_path):
        g = support.graph_of(("a", "p", "b"))
        gold = GoldSet(frozenset({"a", "b"}), frozenset({("a", "p", "b")}))
        report = EvalReport(entity_f1(g, gold), relation_f1(g, gold))
        table = report.render_table()
        assert "entity" in table and "relation" in table and "1.0000" in table

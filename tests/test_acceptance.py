"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Random cases use seeded ``random.Random`` generators so counts and runtime
budgets are explicit; oracles come from tests/support.py and are independent
of the library code under test.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

import support
from lightkg.aggregation import EmptyLabelError, aggregate, aggregate_triples, normalize_label
from lightkg.client import CompletionParams, HttpChatClient
from lightkg.evaluation import GoldSet, entity_f1, relation_f1
from lightkg.extraction import ExtractionResult, TextChunk, extract_chunk, read_corpus
from lightkg.graph import (
    Edge,
    KnowledgeGraph,
    Node,
    content_equal,
    edge_key,
)
from lightkg.pipeline import PipelineConfig, extract_corpus, run_pipeline
from lightkg.serialize import deserialize_graph, serialize_graph
from lightkg.topology import (
    InferenceRule,
    SenseSignature,
    disambiguate_entity,
    discover,
    infer_implicit_relations,
    reinforce_confidence,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

TOL = 1e-9


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_graph_laws():
    """Laws of the aggregation fold: order independence over permutations
    and over splits into extraction results, empty input gives the empty
    graph, normalize idempotence, monotone context values; >=1000 cases in
    under 30 seconds."""
    rng = random.Random(1001)
    started = time.monotonic()
    cases = 0
    failures: list[str] = []

    for _ in range(300):  # any permutation gives a content-equal graph
        triples = support.random_triples(rng, rng.randint(0, 12))
        shuffled = rng.sample(triples, len(triples))
        if not content_equal(aggregate_triples(triples).graph, aggregate_triples(shuffled).graph):
            failures.append("permutation")
        cases += 1

    for _ in range(250):  # any split into extraction results, in any order
        triples = support.random_triples(rng, rng.randint(0, 12))
        cuts = sorted(rng.randint(0, len(triples)) for _ in range(rng.randint(0, 3)))
        results = [
            ExtractionResult(triples=triples[start:stop])
            for start, stop in zip([0, *cuts], [*cuts, len(triples)])
        ]
        rng.shuffle(results)
        if not content_equal(aggregate(results).graph, aggregate_triples(triples).graph):
            failures.append("split")
        cases += 1

    for _ in range(50):  # empty input, however it is split, is the empty graph
        empty = [ExtractionResult() for _ in range(rng.randint(0, 3))]
        if aggregate(empty).graph != KnowledgeGraph():
            failures.append("empty input")
        cases += 1

    alphabet = "aBc  D.,!-'\"xyz_0"
    for _ in range(200):  # normalize_label idempotence
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
        try:
            once = normalize_label(raw)
        except EmptyLabelError:
            cases += 1
            continue
        if normalize_label(once) != once:
            failures.append(f"idempotence on {raw!r}")
        cases += 1

    for _ in range(200):  # context value sets only grow as triples are added
        triples = support.random_triples(rng, rng.randint(0, 6))
        history = [aggregate_triples(triples).graph]
        for _ in range(rng.randint(1, 4)):
            triples = triples + support.random_triples(rng, rng.randint(1, 3))
            history.append(aggregate_triples(triples).graph)
        for before, after in zip(history, history[1:]):
            if not set(before.nodes) <= set(after.nodes):
                failures.append("node lost")
            for eid, edge in before.edges.items():
                for key, vals in edge.context.items():
                    if not vals <= after.edges[eid].context.get(key):
                        failures.append("context shrank")
        cases += 1

    elapsed = time.monotonic() - started
    report(
        "criterion 1: graph laws",
        not failures and cases >= 1000 and elapsed < 30,
        f"{cases} cases in {elapsed:.1f}s, {len(failures)} failures",
    )


def test_criterion_2_bfs_oracle():
    """Bidirectional search equals a unidirectional BFS oracle on >=500
    random graphs of <=12 nodes, every pair, in under 60 seconds."""
    rng = random.Random(2002)
    started = time.monotonic()
    graphs_checked = 0
    pairs_checked = 0
    failures = 0
    while graphs_checked < 500:
        g = support.random_graph(rng, max_nodes=12, max_edges=18)
        undirected = rng.random() < 0.5
        pairs = support.edge_pairs(g)
        node_ids = sorted(g.nodes)
        for source in node_ids:
            for target in node_ids:
                if source == target:
                    continue
                expected = support.oracle_shortest_len(pairs, source, target, undirected)
                paths = support.edge_disjoint_paths(
                    g, source, target, max_len=24, undirected=undirected
                )
                pairs_checked += 1
                if expected is None:
                    failures += paths != []
                    continue
                path = paths[0] if paths else None
                if path is None or path.length != expected:
                    failures += 1
                    continue
                if len(set(path.nodes)) != len(path.nodes):
                    failures += 1
                    continue
                for (u, v), eid in zip(zip(path.nodes, path.nodes[1:]), path.edges):
                    edge = g.edges.get(eid)
                    ok = edge is not None and (
                        (edge.source, edge.target) == (u, v)
                        or (undirected and (edge.source, edge.target) == (v, u))
                    )
                    if not ok:
                        failures += 1
                        break
        graphs_checked += 1
    elapsed = time.monotonic() - started
    report(
        "criterion 2: bfs oracle equivalence",
        failures == 0 and graphs_checked >= 500 and elapsed < 60,
        f"{graphs_checked} graphs, {pairs_checked} pairs in {elapsed:.1f}s, {failures} failures",
    )


def einstein_graph():
    return support.graph_of(
        ("einstein", "worked_at", "princeton"),
        ("princeton", "collaborated_with", "godel"),
        ("einstein", "influenced", "godel"),
    )


def test_criterion_3_confidence_formula():
    """Support fixtures hit 0.745 and 0.870 (1e-9); adding a disjoint
    support never lowers confidence across >=500 random graphs."""
    influenced = edge_key("einstein", "influenced", "godel")
    one = reinforce_confidence(einstein_graph()).edges[influenced].confidence
    two_graph = support.graph_of(
        ("einstein", "worked_at", "princeton"),
        ("princeton", "collaborated_with", "godel"),
        ("einstein", "influenced", "godel"),
        ("einstein", "visited", "ias"),
        ("ias", "hosted", "godel"),
    )
    two = reinforce_confidence(two_graph).edges[influenced].confidence
    fixtures_ok = abs(one - 0.745) <= TOL and abs(two - 0.86995) <= TOL and two > one

    rng = random.Random(3003)
    checked = 0
    violations = 0
    while checked < 500:
        g = support.random_graph(rng, max_nodes=6, max_edges=9)
        candidates = sorted(
            (e for e in g.edges.values() if e.source != e.target),
            key=lambda e: e.edge_id,
        )
        if not candidates:
            continue
        edge = rng.choice(candidates)
        before = reinforce_confidence(g).edges[edge.edge_id].confidence
        waypoint = "zz fresh"
        nodes = dict(g.nodes)
        nodes[waypoint] = Node(waypoint)
        extra1 = Edge(source=edge.source, target=waypoint, predicate="support")
        extra2 = Edge(source=waypoint, target=edge.target, predicate="support")
        grown = KnowledgeGraph(
            nodes, {**g.edges, extra1.edge_id: extra1, extra2.edge_id: extra2}
        )
        after = reinforce_confidence(grown).edges[edge.edge_id].confidence
        if after < before - TOL:
            violations += 1
        checked += 1
    report(
        "criterion 3: confidence formula and monotonicity",
        fixtures_ok and violations == 0 and checked >= 500,
        f"one={one:.9f} two={two:.9f}, {checked} monotonicity cases, {violations} violations",
    )


def test_criterion_4_rule_inference():
    """Lineage fixture yields exactly one inferred edge; every result, the
    fixture's and those of random-rule runs, equals the brute-force
    reference's exactly, witnesses and confidences included."""
    g = support.graph_of(("curie", "mentor", "meitner"), ("meitner", "colleague", "fermi"))
    rule = InferenceRule("lineage", ("mentor", "colleague"), "scientific_lineage", 0.9)
    result = infer_implicit_relations(g, [rule])
    inferred = [e for e in result.edges.values() if e.inferred]
    fixture_ok = (
        len(inferred) == 1
        and (inferred[0].source, inferred[0].predicate, inferred[0].target)
        == ("curie", "scientific_lineage", "fermi")
        and dict(result.edges) == dict(support.reference_infer(g, [rule]).edges)
    )

    rng = random.Random(4004)
    checked = 0
    wrong = 0
    for _ in range(300):
        # a narrow predicate pool makes pattern chains common
        pool = rng.sample(support.PREDICATES, 2)
        g = support.random_graph(rng, max_nodes=6, max_edges=14, predicates=pool)
        predicates = sorted({e.predicate for e in g.edges.values()}) or ["p"]
        pattern = tuple(rng.choice(predicates) for _ in range(rng.randint(2, 3)))
        random_rule = InferenceRule("rand", pattern, rng.choice(predicates), rng.uniform(0.1, 1.0))
        outcome = infer_implicit_relations(g, [random_rule])
        checked += sum(1 for edge in outcome.edges.values() if edge.inferred)
        wrong += dict(outcome.edges) != dict(support.reference_infer(g, [random_rule]).edges)
    report(
        "criterion 4: rule inference equals the brute-force reference",
        fixture_ok and wrong == 0,
        f"fixture ok={fixture_ok}, {checked} inferred edges in 300 runs, {wrong} runs differ",
    )


def test_criterion_5_disambiguation():
    """Neighborhood cues rank the company sense at 1.0 over fruit at 0.0,
    and discover attaches it."""
    g = support.graph_of(("apple", "is_a", "company"), ("apple", "makes", "smartphone"))
    senses = [
        SenseSignature("fruit", frozenset({"fruit", "tree"})),
        SenseSignature("company", frozenset({"company", "smartphone"})),
    ]
    ranking = disambiguate_entity({"company", "smartphone"}, senses)
    attached = discover(g, senses_by_node={"apple": senses}).nodes["apple"].attributes.get("sense")
    report(
        "criterion 5: entity disambiguation",
        ranking == [("company", 1.0), ("fruit", 0.0)] and attached == {"company"},
        f"ranking={ranking}, attached={sorted(attached)}",
    )


def test_criterion_6_evaluation_oracle():
    """Entity/relation F1 equals a naive set oracle on >=500 random
    instances; the 7-correct/2-spurious/3-missing fixture is exact."""
    rng = random.Random(6006)
    mismatches = 0
    for _ in range(500):
        predicted = {
            (rng.choice(support.WORDS), rng.choice(support.PREDICATES), rng.choice(support.WORDS))
            for _ in range(rng.randrange(0, 50))
        }
        gold_triples = {
            (rng.choice(support.WORDS), rng.choice(support.PREDICATES), rng.choice(support.WORDS))
            for _ in range(rng.randrange(0, 50))
        }
        g = support.graph_of(*predicted)
        entities = set()
        for s, _, o in gold_triples:
            entities.update((s, o))
        gold = GoldSet(frozenset(entities), frozenset(gold_triples))
        got = relation_f1(g, gold, "strict")
        want = support.naive_f1(
            {(e.source, e.predicate, e.target) for e in g.edges.values()}, gold_triples
        )
        if any(abs(a - b) > TOL for a, b in zip((got.precision, got.recall, got.f1), want)):
            mismatches += 1
        got_e = entity_f1(g, gold)
        want_e = support.naive_f1(set(g.nodes), entities)
        if any(abs(a - b) > TOL for a, b in zip((got_e.precision, got_e.recall, got_e.f1), want_e)):
            mismatches += 1

    correct = [(f"s{i}", "rel", f"o{i}") for i in range(7)]
    spurious = [("x1", "rel", "y1"), ("x2", "rel", "y2")]
    missing = [(f"m{i}", "rel", f"n{i}") for i in range(3)]
    g = support.graph_of(*(correct + spurious))
    entities = {n for t in correct + missing for n in (t[0], t[2])}
    gold = GoldSet(frozenset(entities), frozenset(correct + missing))
    fixture = relation_f1(g, gold, "strict")
    fixture_ok = fixture.precision == 7 / 9 and fixture.recall == 7 / 10
    report(
        "criterion 6: evaluation oracle",
        mismatches == 0 and fixture_ok,
        f"500 instances, {mismatches} mismatches; fixture P={fixture.precision:.4f} R={fixture.recall:.4f}",
    )


def test_criterion_7_end_to_end_determinism(tmp_path):
    """Pattern pipeline over the committed corpus is byte-identical to the
    committed golden graph on consecutive runs; the discovery sentence
    produces the expected nodes, edge, and context."""
    config = PipelineConfig.load(DATA / "demo_config_pattern.json")
    expected = (GOLDEN / "pattern_graph.json").read_bytes()
    outputs = []
    for run in ("a", "b"):
        run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / run)
        outputs.append((tmp_path / run / "graph.json").read_bytes())
    byte_identical = outputs[0] == expected and outputs[1] == expected

    corpus = tmp_path / "single.jsonl"
    corpus.write_text('{"id": "demo", "text": "Marie Curie discovered radium in 1898."}\n')
    single_config = PipelineConfig.from_dict({"extractor": "pattern"})
    run_pipeline(single_config, corpus, tmp_path / "single")
    g = deserialize_graph((tmp_path / "single" / "graph.json").read_bytes())
    edge = g.edges.get(edge_key("marie curie", "discovered", "radium"))
    sentence_ok = (
        sorted(g.nodes) == ["marie curie", "radium"]
        and edge is not None
        and edge.context.get("year") == frozenset({"1898"})
        and edge.confidence == 0.5
    )
    report(
        "criterion 7: end-to-end determinism",
        byte_identical and sentence_ok,
        f"golden match={byte_identical}, sentence graph ok={sentence_ok}",
    )


def test_criterion_8_ablation_contracts(tmp_path):
    """Flag-only config changes: no-context leaves every edge context empty;
    no-topology exports the aggregated graph verbatim."""
    base = json.loads((DATA / "demo_config_pattern.json").read_text())
    base.update(
        {
            "rules_path": str(DATA / "demo_rules.json"),
            "senses_path": str(DATA / "demo_senses.json"),
            "gold_path": None,
        }
    )

    no_context = PipelineConfig.from_dict({**base, "include_context": False})
    run_pipeline(no_context, DATA / "demo_corpus.jsonl", tmp_path / "nc")
    g_nc = deserialize_graph((tmp_path / "nc" / "graph.json").read_bytes())
    contexts_empty = all(not e.context for e in g_nc.edges.values())

    no_topology = PipelineConfig.from_dict({**base, "topology_enabled": False})
    run_pipeline(no_topology, DATA / "demo_corpus.jsonl", tmp_path / "nt")
    exported = (tmp_path / "nt" / "graph.json").read_bytes()
    full = PipelineConfig.from_dict(base)
    documents = read_corpus(DATA / "demo_corpus.jsonl")
    _, results = extract_corpus(full, documents)
    aggregated = aggregate_triples([t for r in results for t in r.triples]).graph
    verbatim = exported == serialize_graph(aggregated, "json")

    report(
        "criterion 8: ablation contracts",
        contexts_empty and verbatim,
        f"no-context empty={contexts_empty}, no-topology verbatim={verbatim}",
    )


def test_criterion_9_serialization_round_trips():
    """JSON and GraphML round-trips are lossless on >=500 random graphs."""
    rng = random.Random(9009)
    failures = 0
    for _ in range(500):
        g = support.random_graph(rng, max_nodes=7, max_edges=12)
        for fmt in ("json", "graphml"):
            if deserialize_graph(serialize_graph(g, fmt), fmt) != g:
                failures += 1
    report(
        "criterion 9: serialization round trips",
        failures == 0,
        f"500 graphs x 2 formats, {failures} failures",
    )


@pytest.mark.skipif(
    not os.environ.get("LIGHTKG_API_BASE"),
    reason="live smoke test needs LIGHTKG_API_BASE",
)
def test_criterion_10_live_endpoint_smoke():
    """Against a real endpoint: extraction of the discovery sentence parses
    at least one triple or completes the repair path without crashing."""
    client = HttpChatClient.from_env()
    params = CompletionParams(
        model_name=os.environ.get("LIGHTKG_MODEL", "default"), max_tokens=256
    )
    chunk = TextChunk("live", 0, "Marie Curie discovered radium in 1898.")
    result = extract_chunk(chunk, client, params, include_context=True)
    report(
        "criterion 10: live endpoint smoke",
        True,
        f"{len(result.triples)} triples, repaired={result.repaired}",
    )

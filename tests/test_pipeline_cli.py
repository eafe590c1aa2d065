"""End-to-end pipeline and command line behavior."""

from __future__ import annotations

import gc
import importlib.util
import itertools
import json
import os
import random
import stat
import sys
import tempfile
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from lightkg import evaluation, pipeline
from lightkg.aggregation import NormalizationPolicy, aggregate, normalize_label
from lightkg.cli import EXIT_ENDPOINT, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from lightkg.client import ENV_MODEL, CompletionParams, prompt_fingerprint
from lightkg.evaluation import RELATION_POLICIES
from lightkg.extraction import (
    CorpusDocument,
    TextChunk,
    build_extraction_prompt,
    chunk_document,
    read_corpus,
)
from lightkg.graph import ContextMap
from lightkg.pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    extract_corpus,
    extract_stage,
    run_pipeline,
)
from lightkg.serialize import FORMATS, deserialize_graph, serialize_graph, triples_to_jsonl
from lightkg.topology import discover

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def pattern_config(**overrides) -> PipelineConfig:
    payload = json.loads((DATA / "demo_config_pattern.json").read_text())
    payload.update(overrides)
    config = PipelineConfig.from_dict(payload)
    for attr in ("rules_path", "senses_path", "gold_path", "fixtures_path"):
        value = getattr(config, attr)
        if value and not Path(value).is_absolute():
            setattr(config, attr, str(DATA / value))
    return config


def write_corpus(tmp_path, lines) -> Path:
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    return path


def block_corpus(tmp_path, triples: int, last: str = "") -> Path:
    """A corpus from which the pattern extractor takes ``triples`` triples,
    one fact each, 50 sentences to a document, and then the text ``last``."""
    sentences = [f"Person {i} wrote Work {i} in {1800 + i % 200}." for i in range(triples)]
    documents = [" ".join(sentences[i:i + 50]) for i in range(0, triples, 50)]
    documents[-1] += f" {last}"
    return write_corpus(tmp_path, [{"id": f"d{i:03d}", "text": t} for i, t in enumerate(documents)])


def stage_chain(tmp_path, config_path) -> bytes:
    """The graph bytes of ``lightkg extract``, ``aggregate`` and ``discover``
    run in turn on the demo corpus with one config; ``discover`` reads the
    config's rules and senses files."""
    triples, aggregated, final = (tmp_path / n for n in ("t.jsonl", "agg.json", "final.json"))
    config = ["-c", str(config_path)]
    assert main(
        ["extract", str(DATA / "demo_corpus.jsonl"), *config, "-o", str(triples)]
    ) == EXIT_OK
    assert main(["aggregate", str(triples), *config, "-o", str(aggregated)]) == EXIT_OK
    assert main(["discover", str(aggregated), *config, "-o", str(final)]) == EXIT_OK
    return final.read_bytes()


def tree(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory``, by its path relative to it, and its bytes."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def broken_file(tmp_path) -> str:
    """The absolute path of a file of invalid JSON, as a rules or gold file."""
    path = tmp_path / "broken.json"
    path.write_text("{broken json\n")
    return str(path)


def run_failing(out: Path, stage: str, corpus=DATA / "demo_corpus.jsonl", **overrides) -> None:
    """``run_pipeline`` on ``corpus`` with ``pattern_config(**overrides)``,
    which must fail at ``stage``."""
    with pytest.raises(StageError) as err:
        run_pipeline(pattern_config(**overrides), corpus, out)
    assert err.value.stage == stage


def indented_json_bytes(payload) -> bytes:
    """One ``indent=2`` encode of ``payload`` plus a newline, as UTF-8."""
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def outcome(function, *args):
    """What ``function(*args)`` returns, or the class and message of what it
    raises."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


# JSON values with non-ASCII text (lone surrogates among it, which UTF-8
# cannot encode), empty lists and objects, and nulls.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300)
@given(
    head=st.dictionaries(
        st.text(max_size=6).filter(lambda key: key != "evaluation"), json_values,
        min_size=1, max_size=4,
    ),
    evaluation=st.none() | st.dictionaries(st.text(max_size=6), json_values, max_size=4),
)
@example(head={"counts": {}}, evaluation={"matched": [], "missing": [[]], "p": 1.0})
@example(head={"corpus": "Ōsaka"}, evaluation={"label": "a\nb\u2028\"c\"", "spurious": []})
@example(head={"corpus": "x"}, evaluation={"label": "\ud800"})
def test_summary_splice_equals_one_indented_encode(head, evaluation):
    summary = {**head, "evaluation": evaluation}
    spliced = outcome(pipeline._summary_bytes, summary, pipeline._json_text(evaluation))
    assert spliced == outcome(indented_json_bytes, summary)


class TestRunPipeline:
    def test_single_sentence_corpus(self, tmp_path):
        corpus = write_corpus(
            tmp_path, [{"id": "demo", "text": "Marie Curie discovered radium in 1898."}]
        )
        config = pattern_config(rules_path=None, senses_path=None, gold_path=None)
        summary = run_pipeline(config, corpus, tmp_path / "out")
        assert summary["counts"]["nodes"] == 2
        assert summary["counts"]["edges"] == 1
        g = deserialize_graph((tmp_path / "out" / "graph.json").read_bytes())
        assert sorted(g.nodes) == ["marie curie", "radium"]
        (edge,) = g.edges.values()
        assert edge.predicate == "discovered"
        assert edge.context.get("year") == frozenset({"1898"})
        assert edge.confidence == 0.5  # no supporting paths

    def test_blank_such_as_hypernym_does_not_fail_the_run(self, tmp_path):
        corpus = write_corpus(
            tmp_path,
            [{"id": "demo", "text": ", , such as such. Marie Curie discovered radium in 1898."}],
        )
        config = pattern_config(rules_path=None, senses_path=None, gold_path=None)
        summary = run_pipeline(config, corpus, tmp_path / "out")
        assert summary["counts"]["triples"] == 1
        assert summary["counts"]["edges"] == 1

    def test_no_context_ablation_same_topology_empty_contexts(self, tmp_path):
        corpus = write_corpus(
            tmp_path, [{"id": "demo", "text": "Marie Curie discovered radium in 1898."}]
        )
        base = pattern_config(rules_path=None, senses_path=None, gold_path=None)
        ablated = pattern_config(
            rules_path=None, senses_path=None, gold_path=None, include_context=False
        )
        run_pipeline(base, corpus, tmp_path / "full")
        run_pipeline(ablated, corpus, tmp_path / "bare")
        g_full = deserialize_graph((tmp_path / "full" / "graph.json").read_bytes())
        g_bare = deserialize_graph((tmp_path / "bare" / "graph.json").read_bytes())
        assert set(g_full.nodes) == set(g_bare.nodes)
        assert set(g_full.edges) == set(g_bare.edges)
        assert all(not e.context for e in g_bare.edges.values())

    def test_summary_lists_each_rejected_line(self, tmp_path):
        """A fixture reply with one line per reason the response parser
        rejects a line for, after one line it accepts."""
        text = "Ada Lovelace wrote notes in 1843."
        corpus = write_corpus(tmp_path, [{"id": "d", "text": text}])
        (piece,) = chunk_document("d", text)
        rejected = {
            "(ada | wrote | notes": "missing closing parenthesis",
            "(ada | wrote)": "expected 3 '|' separated fields, got 2",
            "( | wrote | notes)": "empty subject",
            "(ada | wrote | )": "empty object",
            "(ada | wrote | notes) {=1843}": "empty context key",
            "(ada | wrote | notes) {year=}": "context key 'year' has an empty value",
        }
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({
            prompt_fingerprint(build_extraction_prompt(piece)):
                "\n".join(["(ada | wrote | notes) {year=1843}", *rejected]),
        }))
        config = PipelineConfig(extractor="fixture", fixtures_path=str(fixtures))
        summary = run_pipeline(config, corpus, tmp_path / "out")
        assert summary["rejects"]["lines"] == [
            {"fragment": fragment, "reason": reason} for fragment, reason in rejected.items()
        ]
        assert summary["counts"]["rejected_lines"] == len(rejected)
        assert summary["counts"]["triples"] == 1

    def test_repeated_corpus_id_fails_reading_the_corpus(self, tmp_path):
        corpus = write_corpus(tmp_path, [
            {"id": "d1", "text": "Marie Curie discovered radium in 1898."},
            {"id": "d1", "text": "Ada Lovelace wrote notes in 1843."},
        ])
        out = tmp_path / "out"
        with pytest.raises(StageError) as err:
            run_pipeline(pattern_config(), corpus, out)
        assert err.value.stage == "read-corpus"
        assert str(err.value.__cause__) == f"{corpus}:2: duplicate id 'd1' (first on line 1)"
        assert list(out.iterdir()) == []

    def test_no_topology_ablation_returns_aggregate_verbatim(self, tmp_path):
        corpus = DATA / "demo_corpus.jsonl"
        config = pattern_config(topology_enabled=False)
        summary = run_pipeline(config, corpus, tmp_path / "out")
        g = deserialize_graph((tmp_path / "out" / "graph.json").read_bytes())
        assert summary["counts"]["inferred_edges"] == 0
        assert all(e.confidence == 0.5 for e in g.edges.values())
        assert all(not e.inferred for e in g.edges.values())
        assert all("sense" not in n.attributes for n in g.nodes.values())

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        config = pattern_config(rules_path=None, senses_path=None, gold_path=None)
        summary = run_pipeline(config, corpus, tmp_path / "out")
        assert summary["counts"] == {
            "documents": 0, "chunks": 0, "triples": 0, "rejected_lines": 0,
            "rejected_triples": 0, "repaired_chunks": 0, "nodes": 0, "edges": 0,
            "inferred_edges": 0, "exported_edges": 0,
        }
        assert (tmp_path / "out" / "graph.json").read_bytes() == b'{"nodes":[],"edges":[]}'

    def test_empty_corpus_with_model_extractor_needs_no_endpoint(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LIGHTKG_API_BASE", raising=False)
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        config = PipelineConfig.from_dict({"extractor": "model"})
        summary = run_pipeline(config, corpus, tmp_path / "out")
        assert summary["counts"]["nodes"] == 0

    def test_golden_pattern_run_is_byte_identical(self, tmp_path):
        config = PipelineConfig.load(DATA / "demo_config_pattern.json")
        expected = (GOLDEN / "pattern_graph.json").read_bytes()
        for run in ("one", "two"):
            run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / run)
            assert (tmp_path / run / "graph.json").read_bytes() == expected

    def test_golden_fixture_run_is_byte_identical(self, tmp_path):
        config = PipelineConfig.load(DATA / "demo_config_fixture.json")
        run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert (tmp_path / "out" / "graph.json").read_bytes() == (
            GOLDEN / "fixture_graph.json"
        ).read_bytes()

    def test_golden_pattern_report_is_byte_identical(self, tmp_path):
        config = PipelineConfig.load(DATA / "demo_config_pattern.json")
        run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert (tmp_path / "out" / "report.json").read_bytes() == (
            GOLDEN / "pattern_report.json"
        ).read_bytes()

    def test_golden_pattern_graphml_run_is_byte_identical(self, tmp_path):
        config = PipelineConfig.load(DATA / "demo_config_pattern.json")
        config.export_format = "graphml"
        run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert (tmp_path / "out" / "graph.graphml").read_bytes() == (
            GOLDEN / "pattern_graph.graphml"
        ).read_bytes()

    @pytest.mark.parametrize("gold", [True, False])
    def test_summary_bytes_equal_one_indented_encode(self, tmp_path, gold):
        config = pattern_config(**({} if gold else {"gold_path": None}))
        summary = run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert (summary["evaluation"] is None) is not gold
        assert (tmp_path / "out" / "summary.json").read_bytes() == indented_json_bytes(summary)

    def test_summary_echoes_config_and_evaluation(self, tmp_path):
        config = PipelineConfig.load(DATA / "demo_config_pattern.json")
        summary = run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert summary["config"]["extractor"] == "pattern"
        assert summary["evaluation"]["entity"]["f1"] == 1.0
        assert summary["evaluation"]["relation"]["f1"] == 1.0
        written = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert written["counts"] == summary["counts"]

    def test_confidence_threshold_filters_exports_only(self, tmp_path):
        config = pattern_config(
            rules_path=None, senses_path=None, gold_path=None, confidence_threshold=0.4
        )
        summary = run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        # inferred edge sits at 0.225, extracted ones at 0.5
        assert summary["counts"]["edges"] == 6
        assert summary["counts"]["exported_edges"] == 6
        config2 = pattern_config(gold_path=None, confidence_threshold=0.3)
        summary2 = run_pipeline(config2, DATA / "demo_corpus.jsonl", tmp_path / "out2")
        assert summary2["counts"]["edges"] == 7
        assert summary2["counts"]["exported_edges"] == 6
        g = deserialize_graph((tmp_path / "out2" / "graph.json").read_bytes())
        assert all(not e.inferred for e in g.edges.values())

    def test_graphml_export(self, tmp_path):
        config = pattern_config(
            rules_path=None, senses_path=None, gold_path=None, export_format="graphml"
        )
        run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        g = deserialize_graph((tmp_path / "out" / "graph.graphml").read_bytes(), "graphml")
        assert g.node_count == 7

    def test_missing_referenced_file_fails_before_work(self, tmp_path):
        config = pattern_config(rules_path=str(tmp_path / "nope.json"), gold_path=None)
        with pytest.raises(StageError) as err:
            run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert isinstance(err.value.__cause__, ConfigError)

    def test_directory_as_referenced_file_fails_before_work(self, tmp_path):
        config = pattern_config(rules_path=str(tmp_path), gold_path=None)
        with pytest.raises(StageError) as err:
            run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert err.value.stage == "configure"
        assert isinstance(err.value.__cause__, ConfigError)
        assert f"configured file is a directory: {tmp_path}" in str(err.value)
        assert not (tmp_path / "out" / "triples.jsonl").exists()

    def test_failed_stage_quarantines_partials(self, tmp_path):
        bad_rules = tmp_path / "rules.json"
        bad_rules.write_text("{broken json")
        config = pattern_config(rules_path=str(bad_rules), senses_path=None, gold_path=None)
        with pytest.raises(StageError) as err:
            run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert err.value.stage == "discover"
        quarantine = tmp_path / "out" / "quarantine"
        assert (quarantine / "triples.jsonl").exists()
        assert (quarantine / "graph_aggregated.json").exists()
        assert not (tmp_path / "out" / "graph.json").exists()

    def test_failed_evaluate_leaves_no_primary_output(self, tmp_path):
        bad_gold = tmp_path / "gold.jsonl"
        bad_gold.write_text("{broken json\n")
        out = tmp_path / "out"
        with pytest.raises(StageError) as err:
            run_pipeline(pattern_config(gold_path=str(bad_gold)), DATA / "demo_corpus.jsonl", out)
        assert err.value.stage == "evaluate"
        assert sorted(p.name for p in out.iterdir()) == ["quarantine"]
        quarantined = sorted(p.name for p in (out / "quarantine").iterdir())
        assert quarantined == ["graph.json", "graph_aggregated.json", "triples.jsonl"]

    def test_failed_rerun_moves_the_earlier_outputs_aside(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(pattern_config(), DATA / "demo_corpus.jsonl", out)
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        bad_gold = tmp_path / "gold.jsonl"
        bad_gold.write_text("{broken json\n")
        config = pattern_config(gold_path=str(bad_gold), topology_enabled=False)
        with pytest.raises(StageError) as err:
            run_pipeline(config, DATA / "demo_corpus.jsonl", out)
        assert err.value.stage == "evaluate"
        assert sorted(p.name for p in out.iterdir()) == ["quarantine"]
        previous = out / "quarantine" / "previous"
        assert {p.name: p.read_bytes() for p in previous.iterdir()} == earlier
        assert (out / "quarantine" / "graph.json").read_bytes() != earlier["graph.json"]

    def test_successful_run_leaves_only_the_outputs(self, tmp_path):
        out = tmp_path / "out"
        summary = run_pipeline(pattern_config(), DATA / "demo_corpus.jsonl", out)
        assert sorted(p.name for p in out.iterdir()) == [
            "graph.json", "report.json", "summary.json", "triples.jsonl",
        ]
        assert summary["outputs"]["graph"] == str(out / "graph.json")
        assert (out / "graph.json").read_bytes() == (GOLDEN / "pattern_graph.json").read_bytes()
        assert json.loads((out / "report.json").read_text()) == summary["evaluation"]

    def test_successful_rerun_removes_the_earlier_outputs_it_does_not_write(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(pattern_config(export_format="graphml"), DATA / "demo_corpus.jsonl", out)
        assert (out / "graph.graphml").exists() and (out / "report.json").exists()
        summary = run_pipeline(pattern_config(gold_path=None), DATA / "demo_corpus.jsonl", out)
        assert sorted(p.name for p in out.iterdir()) == [
            "graph.json", "summary.json", "triples.jsonl",
        ]
        assert summary["evaluation"] is None

    def test_rule_and_sense_labels_normalized_like_graph_labels(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "lineage", "pattern": ["Mentored", " ADVISED"],
             "inferred_predicate": "Scientific  Lineage", "discount": 0.9},
        ]))
        senses = tmp_path / "senses.json"
        senses.write_text(json.dumps(
            {" Radium ": [{"sense_label": "element", "cues": [" Heavy  Metals "]}]}
        ))
        config = pattern_config(rules_path=str(rules), senses_path=str(senses), gold_path=None)
        run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        g = deserialize_graph((tmp_path / "out" / "graph.json").read_bytes())
        inferred = [e for e in g.edges.values() if e.inferred]
        assert [(e.source, e.predicate, e.target) for e in inferred] == [
            ("marie curie", "scientific lineage", "otto frisch")
        ]
        assert g.nodes["radium"].attributes.get("sense") == frozenset({"element"})

    def test_quarantine_serialization_error_keeps_stage_error(self, tmp_path, monkeypatch, caplog):
        def broken(*args, **kwargs):
            raise RuntimeError("serializer broke")

        monkeypatch.setattr(pipeline, "serialize_graph", broken)
        bad_rules = tmp_path / "rules.json"
        bad_rules.write_text("{broken json")
        config = pattern_config(rules_path=str(bad_rules), senses_path=None, gold_path=None)
        with pytest.raises(StageError) as err:
            run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert err.value.stage == "discover"
        quarantine = tmp_path / "out" / "quarantine"
        assert (quarantine / "triples.jsonl").exists()
        assert not (quarantine / "graph_aggregated.json").exists()
        assert "serializer broke" in caplog.text

    def test_successful_run_serializes_only_the_export(self, tmp_path, monkeypatch):
        formats = []
        serialize = pipeline.serialize_graph

        def recording(g, fmt="json"):
            formats.append(fmt)
            return serialize(g, fmt)

        monkeypatch.setattr(pipeline, "serialize_graph", recording)
        run_pipeline(pattern_config(), DATA / "demo_corpus.jsonl", tmp_path / "out")
        assert formats == ["json"]
        assert not (tmp_path / "out" / "quarantine").exists()

    def test_extract_failure_quarantines_nothing_and_moves_earlier_outputs(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d1", "text": "Ada Lovelace wrote \\ud800 notes in 1843."}\n')
        out = tmp_path / "out"

        def failed_run():
            with pytest.raises(StageError) as err:
                run_pipeline(pattern_config(), corpus, out)
            assert err.value.stage == "extract"
            cause = err.value.__cause__
            assert type(cause) is UnicodeEncodeError
            assert str(cause) == (
                "'utf-8' codec can't encode character '\\ud800' in position 56: "
                "surrogates not allowed"
            )
            assert not list(out.rglob(".run-*"))

        failed_run()
        assert list(out.iterdir()) == []
        run_pipeline(pattern_config(), DATA / "demo_corpus.jsonl", out)
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        failed_run()
        assert sorted(p.name for p in out.iterdir()) == ["quarantine"]
        assert sorted(p.name for p in (out / "quarantine").iterdir()) == ["previous"]
        previous = out / "quarantine" / "previous"
        assert {p.name: p.read_bytes() for p in previous.iterdir()} == earlier

    def test_second_failure_replaces_the_first_failures_quarantine(self, tmp_path):
        out, broken = tmp_path / "out", broken_file(tmp_path)
        run_failing(out, "evaluate", gold_path=broken)
        run_failing(out, "discover", rules_path=broken, gold_path=None)
        assert sorted(p.name for p in out.iterdir()) == ["quarantine"]
        assert sorted(p.name for p in (out / "quarantine").iterdir()) == [
            "graph_aggregated.json", "triples.jsonl",
        ]

    def test_quarantine_previous_holds_the_last_successful_run_only(self, tmp_path):
        out, broken = tmp_path / "out", broken_file(tmp_path)
        run_pipeline(pattern_config(), DATA / "demo_corpus.jsonl", out)
        run_failing(out, "discover", rules_path=broken)
        run_pipeline(pattern_config(gold_path=None), DATA / "demo_corpus.jsonl", out)
        earlier = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        run_failing(out, "discover", rules_path=broken)
        previous = out / "quarantine" / "previous"
        assert sorted(p.name for p in previous.iterdir()) == [
            "graph.json", "summary.json", "triples.jsonl",
        ]
        assert tree(previous) == earlier

    def test_failure_after_a_failure_keeps_the_last_successful_outputs(self, tmp_path):
        out, broken = tmp_path / "out", broken_file(tmp_path)
        run_pipeline(pattern_config(), DATA / "demo_corpus.jsonl", out)
        earlier = tree(out)
        assert len(earlier) == 4
        run_failing(out, "discover", rules_path=broken)
        run_failing(out, "discover", rules_path=broken)
        assert sorted(p.name for p in out.iterdir()) == ["quarantine"]
        assert tree(out / "quarantine" / "previous") == earlier

    def test_failure_that_writes_nothing_leaves_the_quarantine_as_it_is(self, tmp_path):
        out, broken = tmp_path / "out", broken_file(tmp_path)
        run_pipeline(pattern_config(), DATA / "demo_corpus.jsonl", out)
        run_failing(out, "discover", rules_path=broken)
        quarantined = tree(out)
        run_failing(out, "configure", rules_path=str(tmp_path / "missing.json"))
        assert sorted(p.name for p in out.iterdir()) == ["quarantine"]
        assert tree(out) == quarantined

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "rerun"])
    @pytest.mark.parametrize("stage", [
        "configure", "read-corpus", "extract", "aggregate", "discover", "export",
        "evaluate", "summarize", None,
    ])
    def test_no_run_directory_is_left_behind(self, tmp_path, monkeypatch, stage, earlier):
        """Whichever stage fails, and when none does, ``out`` keeps no
        ``.run-*`` directory, and a quarantine has a plain ``mkdir``'s mode."""
        out, broken = tmp_path / "out", broken_file(tmp_path)
        corpus = DATA / "demo_corpus.jsonl"
        if earlier:
            run_pipeline(pattern_config(), corpus, out)
        overrides = {
            "configure": {"rules_path": str(tmp_path / "missing.json")},
            "discover": {"rules_path": broken},
            "evaluate": {"gold_path": broken},
        }.get(stage, {})
        patched = {
            "aggregate": "aggregate_stage", "export": "export_stage", "summarize": "_summary_bytes",
        }

        def fail(*args, **kwargs):
            raise RuntimeError(f"{stage} broke")

        if stage in patched:
            monkeypatch.setattr(pipeline, patched[stage], fail)
        if stage == "read-corpus":
            corpus = tmp_path / "bad.jsonl"
            corpus.write_text("this is not json\n")
        elif stage == "extract":
            corpus = write_corpus(
                tmp_path, [{"id": "d1", "text": "Ada Lovelace wrote \ud800 notes in 1843."}]
            )
        if stage is None:
            run_pipeline(pattern_config(), corpus, out)
        else:
            run_failing(out, stage, corpus, **overrides)
        assert not list(out.glob(".run-*"))
        # A failure before the triples write, with no earlier outputs, has
        # nothing to quarantine.
        quarantine = out / "quarantine"
        nothing_to_quarantine = stage in ("configure", "read-corpus", "extract") and not earlier
        assert quarantine.exists() == (stage is not None and not nothing_to_quarantine)
        if quarantine.exists():
            plain = tmp_path / "plain"
            plain.mkdir()
            assert stat.S_IMODE(quarantine.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_triples_file_is_written_one_block_at_a_time(self, tmp_path, monkeypatch):
        """A run whose triples fill more than three blocks writes the bytes of
        the whole-file encoder, and its write holds no more than one block's
        encoding above the results it writes."""
        lines, extracted, traced = [], [], {}
        encode, write, extract = pipeline.triples_to_jsonl, pipeline.write_blocks, extract_stage

        def encoding(triples):
            block = encode(triples)
            lines.append(block.count(b"\n"))
            return block

        def writing(path, blocks):
            if path.name != "triples.jsonl":
                return write(path, blocks)
            tracemalloc.start()
            try:
                write(path, blocks)
                traced["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def extracting(config, documents):
            results, counts = extract(config, documents)
            extracted.extend(t for r in results for t in r.triples)
            return results, counts

        monkeypatch.setattr(pipeline, "triples_to_jsonl", encoding)
        monkeypatch.setattr(pipeline, "write_blocks", writing)
        monkeypatch.setattr(pipeline, "extract_stage", extracting)
        corpus = block_corpus(tmp_path, 3 * pipeline.TRIPLES_BLOCK + 100)
        run_pipeline(pattern_config(gold_path=None), corpus, tmp_path / "out")
        assert len(extracted) == 3 * pipeline.TRIPLES_BLOCK + 100
        assert lines == [pipeline.TRIPLES_BLOCK] * 3 + [100]
        written = (tmp_path / "out" / "triples.jsonl").read_bytes()
        assert written == triples_to_jsonl(extracted)
        block_peaks = []
        for start in range(0, len(extracted), pipeline.TRIPLES_BLOCK):
            tracemalloc.start()
            triples_to_jsonl(extracted[start:start + pipeline.TRIPLES_BLOCK])
            block_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # Past the largest block's encoding: the file's buffer and the list
        # of the block's triples.
        assert traced["peak"] <= max(block_peaks) + 64 * 1024

    @pytest.mark.parametrize("command", ["run_pipeline", "lightkg extract"])
    def test_unencodable_triple_past_the_first_block_fails_extract(
        self, tmp_path, capsys, command
    ):
        """The block that holds the surrogate fails the stage. The position is
        counted from the start of the file, as the whole-file encoder counts it,
        and nothing is left behind."""
        corpus = block_corpus(
            tmp_path, pipeline.TRIPLES_BLOCK + 10, "Ada Lovelace wrote \ud800 notes in 1843."
        )
        results, _ = extract_stage(pattern_config(), read_corpus(corpus))
        with pytest.raises(UnicodeEncodeError) as whole_file:
            triples_to_jsonl(t for r in results for t in r.triples)
        assert (whole_file.value.start, whole_file.value.end) == (170514, 170515)
        # The failing block's text holds the character, not the file's text,
        # so the message names the position but not the character.
        message = (
            "'utf-8' codec can't encode characters in position 170514-170514: "
            "surrogates not allowed"
        )
        out = tmp_path / "out"
        if command == "run_pipeline":
            with pytest.raises(StageError) as err:
                run_pipeline(pattern_config(), corpus, out)
            assert err.value.stage == "extract"
            cause = err.value.__cause__
            assert type(cause) is UnicodeEncodeError
            assert (cause.start, cause.end) == (170514, 170515)
            assert str(cause) == message
            assert list(out.iterdir()) == []
        else:
            out.mkdir()
            triples = out / "t.jsonl"
            assert main(["extract", str(corpus), "-o", str(triples)]) == EXIT_INTERNAL
            assert capsys.readouterr().err == f"internal error: {message}\n"
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("target", ["symlink", "fifo"])
    def test_failed_extract_leaves_an_output_that_is_no_regular_file(
        self, tmp_path, capsys, target
    ):
        """Only a regular file at ``-o`` is removed when the write fails: a
        symlink and its file, or a FIFO, stay, and the encode error is the
        one reported."""
        corpus = block_corpus(
            tmp_path, pipeline.TRIPLES_BLOCK + 10, "Ada Lovelace wrote \ud800 notes in 1843."
        )
        output, received = tmp_path / "t.jsonl", []
        if target == "symlink":
            linked = tmp_path / "linked.jsonl"
            linked.write_bytes(b"")
            output.symlink_to(linked)
        else:
            os.mkfifo(output)
            reader = threading.Thread(target=lambda: received.append(output.read_bytes()))
            reader.daemon = True
            reader.start()
        code = main(["extract", str(corpus), "-o", str(output)])
        assert code == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith(
            "internal error: 'utf-8' codec can't encode characters in position 170514-"
        )
        results, _ = extract_stage(pattern_config(), read_corpus(corpus))
        first_block = next(pipeline.triples_jsonl(results))
        if target == "symlink":
            assert output.is_symlink()
            assert linked.read_bytes() == first_block
        else:
            reader.join(timeout=60)
            assert stat.S_ISFIFO(os.lstat(output).st_mode)
            assert received == [first_block]

    def test_stage_data_is_released_once_no_later_stage_reads_it(self, tmp_path, monkeypatch):
        """Documents and chunks die before the triples write, and every
        extracted triple but the rejected ones before discover runs."""
        refs: dict[str, list[weakref.ref]] = {}
        seen: dict[str, object] = {}

        def extracting(config, documents):
            chunks, results = extract_corpus(config, documents)
            refs["documents"] = [weakref.ref(d) for d in documents]
            refs["chunks"] = [weakref.ref(c) for c in chunks]
            refs["triples"] = [weakref.ref(t) for r in results for t in r.triples]
            return chunks, results

        def writing(triples):
            seen["alive at write"] = [
                ref() for ref in refs["documents"] + refs["chunks"] if ref() is not None
            ]
            return triples_to_jsonl(triples)

        def aggregating(*args, **kwargs):
            seen["outcome"] = aggregate(*args, **kwargs)
            return seen["outcome"]

        def discovering(graph, *args, **kwargs):
            rejected = {id(t) for t, _ in seen["outcome"].rejected}
            seen["alive at discover"] = [
                t for t in (ref() for ref in refs["triples"])
                if t is not None and id(t) not in rejected
            ]
            return discover(graph, *args, **kwargs)

        monkeypatch.setattr(pipeline, "extract_corpus", extracting)
        monkeypatch.setattr(pipeline, "triples_to_jsonl", writing)
        monkeypatch.setattr(pipeline, "aggregate", aggregating)
        monkeypatch.setattr(pipeline, "discover", discovering)
        corpus = write_corpus(tmp_path, [
            {"id": "d1", "text": "Marie Curie discovered radium in 1898."},
            {"id": "d2", "text": 'Radium is a "--".'},
            {"id": "d3", "text": "Pierre Curie married Marie Curie in 1895."},
        ])
        # Reference counting alone must free them: no collection may run.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run_pipeline(pattern_config(gold_path=None), corpus, tmp_path / "out")
        finally:
            if was_enabled:
                gc.enable()
        assert refs["documents"] and refs["chunks"] and seen["outcome"].rejected
        assert len(refs["triples"]) > len(seen["outcome"].rejected)
        assert seen["alive at write"] == []
        assert seen["alive at discover"] == []

    def test_evaluate_reads_its_graph_next_to_the_aggregated_graph_alone(
        self, tmp_path, monkeypatch
    ):
        """When the evaluate stage reads the graph file back, the discovered
        graph is dead and the aggregated graph, kept for the quarantine,
        carries no adjacency index."""
        seen: dict[str, object] = {}

        def discovering(graph, *args, **kwargs):
            discovered = discover(graph, *args, **kwargs)
            seen["aggregated"], seen["discovered"] = graph, weakref.ref(discovered)
            return discovered

        def reading(*args, **kwargs):
            seen["discovered at read"] = seen["discovered"]()
            seen["index at read"] = dict(seen["aggregated"]._adjacency)
            return deserialize_graph(*args, **kwargs)

        monkeypatch.setattr(pipeline, "discover", discovering)
        monkeypatch.setattr(evaluation, "deserialize_graph", reading)
        config = pattern_config()
        assert config.topology_enabled and config.rules_path and config.senses_path
        # Reference counting alone must free it: no collection may run.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            summary = run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "out")
        finally:
            if was_enabled:
                gc.enable()
        assert summary["counts"]["inferred_edges"] > 0
        assert seen["discovered at read"] is None
        assert seen["index at read"] == {}

    def test_model_extractor_against_loopback_server(self, tmp_path, monkeypatch):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                payload = json.dumps(
                    {
                        "choices": [
                            {
                                "message": {
                                    "content": "(Marie Curie | discovered | radium) {year=1898}"
                                }
                            }
                        ]
                    }
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        monkeypatch.setenv("LIGHTKG_API_BASE", f"http://127.0.0.1:{server.server_port}/v1")
        corpus = write_corpus(
            tmp_path,
            [
                {"id": "d1", "text": "Some sentence about discoveries."},
                {"id": "d2", "text": "Another sentence, same fact."},
            ],
        )
        try:
            config = PipelineConfig.from_dict({"extractor": "model", "worker_count": 2})
            summary = run_pipeline(config, corpus, tmp_path / "out")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert summary["counts"]["triples"] == 2
        g = deserialize_graph((tmp_path / "out" / "graph.json").read_bytes())
        assert sorted(g.nodes) == ["marie curie", "radium"]
        (edge,) = g.edges.values()
        assert len(edge.provenance) == 2  # same fact from both documents
        assert edge.context.get("year") == frozenset({"1898"})

    @pytest.mark.parametrize("env, model_name, expected", [
        ("env-model", "default", "env-model"),
        ("env-model", "mine", "mine"),
        ("", "default", "default"),
    ])
    def test_model_env_names_only_a_default_model(
        self, tmp_path, monkeypatch, env, model_name, expected
    ):
        monkeypatch.setenv(ENV_MODEL, env)
        seen = []
        monkeypatch.setattr(
            pipeline, "extract_chunk",
            lambda chunk, client, params, *args: seen.append(params.model_name),
        )
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text("{}")
        config = PipelineConfig(
            extractor="fixture", fixtures_path=str(fixtures),
            model=CompletionParams(model_name=model_name),
        )
        pipeline.build_extract_runner(config)(TextChunk("d", 0, "Text."))
        assert seen == [expected]

    def test_fixture_extractor_requires_fixtures(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"extractor": "fixture"})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"extractor": "pattern", "typo_key": 1})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("eval_policy", "relaxed"),
            ("max_chunk_chars", 0),
            ("retry_count", -3),
            ("base_confidence", 1.7),
            ("max_chunk_chars", 2.5),
            ("include_context", "no"),
            ("topology", {"max_path_length": 2.5}),
            ("normalization", 5),
            ("model", [1]),
        ],
    )
    def test_bad_field_rejected_at_load(self, key, value):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_dict({"extractor": "pattern", key: value})

    @pytest.mark.parametrize("key", ["normalization", "topology", "model"])
    def test_bad_nested_settings_rejected(self, key):
        with pytest.raises(ConfigError, match="typo"):
            PipelineConfig.from_dict({key: {"typo": 1}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({key: 5})

    @pytest.mark.parametrize(
        "payload",
        [
            {"include_context": None},
            {"topology_enabled": None},
            {"topology": {"undirected_paths": None}},
            {"normalization": {"collapse_whitespace": None}},
            {"model": {"timeout": None}},
            {"worker_count": None},
            {"normalization": None},
        ],
    )
    def test_null_config_value_reads_as_the_default(self, payload):
        assert PipelineConfig.from_dict(payload) == PipelineConfig()

    @pytest.mark.parametrize("payload", [{"typo": None}, {"model": {"typo": None}}])
    def test_null_unknown_config_key_rejected(self, payload):
        with pytest.raises(ConfigError, match="typo"):
            PipelineConfig.from_dict(payload)

    def test_config_round_trips_through_dict_and_json(self):
        config = PipelineConfig.from_dict(
            {
                "extractor": "fixture",
                "fixtures_path": "f.json",
                "include_context": False,
                "normalization": {"collapse_whitespace": False},
                "topology": {"max_path_length": 2, "undirected_paths": False},
                "model": {"model_name": "m", "timeout": 5.0},
                "worker_count": 3,
                "eval_policy": "predicate_relaxed",
            }
        )
        for original in (PipelineConfig(), config):
            payload = original.to_dict()
            assert PipelineConfig.from_dict(payload) == original
            assert PipelineConfig.from_dict(json.loads(json.dumps(payload))) == original
        assert list(PipelineConfig().to_dict()) == [
            "extractor", "include_context", "topology_enabled", "normalization",
            "topology", "model", "base_confidence", "worker_count",
            "max_chunk_chars", "retry_count", "rules_path", "senses_path",
            "gold_path", "fixtures_path", "eval_policy", "export_format",
            "confidence_threshold",
        ]
        assert config.to_dict()["topology"]["max_path_length"] == 2

    def test_field_bounds_accepted(self):
        config = PipelineConfig.from_dict(
            {
                "eval_policy": "predicate_relaxed",
                "max_chunk_chars": 1,
                "retry_count": 0,
                "base_confidence": 1.0,
            }
        )
        assert config.eval_policy == "predicate_relaxed"
        assert PipelineConfig(base_confidence=0.0).base_confidence == 0.0


def shuffled_corpus() -> list[CorpusDocument]:
    """The demo corpus plus documents long enough to span several chunks,
    in a shuffled order."""
    documents = read_corpus(DATA / "demo_corpus.jsonl") + [
        CorpusDocument(
            f"doc-{n}", " ".join(f"Author {n} wrote Book {k} in 19{k:02d}." for k in range(12))
        )
        for n in range(4)
    ]
    random.Random(7).shuffle(documents)
    return documents


def repeated_demo_corpus(copies: int = 3) -> list[CorpusDocument]:
    """The demo corpus ``copies`` times over, each copy under its own ids."""
    documents = read_corpus(DATA / "demo_corpus.jsonl")
    return [CorpusDocument(f"{d.doc_id}-{n}", d.text) for n in range(copies) for d in documents]


def labels_of(results) -> list[str]:
    return [s for r in results for t in r.triples for s in (t.subject, t.predicate, t.object)]


class TestExtractCorpus:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("in-process extractors must not use a thread pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", refuse)

    @pytest.mark.parametrize("config_name", ["pattern", "fixture"])
    def test_in_process_extractors_run_without_a_pool(self, config_name, no_pool):
        config = PipelineConfig.load(DATA / f"demo_config_{config_name}.json")
        chunks, results = extract_corpus(config, read_corpus(DATA / "demo_corpus.jsonl"))
        assert len(chunks) == len(results) == 2
        assert sum(len(r.triples) for r in results) == 6

    @pytest.mark.parametrize("config_name", ["pattern", "fixture"])
    def test_equal_labels_of_one_call_are_one_object(self, config_name):
        config = PipelineConfig.load(DATA / f"demo_config_{config_name}.json")
        labels = labels_of(extract_corpus(config, repeated_demo_corpus())[1])
        assert len(labels) > len(set(labels))
        assert len({id(s) for s in labels}) == len(set(labels))

    @pytest.mark.parametrize("config_name", ["pattern", "fixture"])
    def test_no_label_is_shared_across_calls(self, config_name):
        # Catches a label table that outlives its call, or interned labels.
        config = PipelineConfig.load(DATA / f"demo_config_{config_name}.json")
        documents = repeated_demo_corpus()
        first = extract_corpus(config, documents)[1]
        second = extract_corpus(config, documents)[1]
        # "is_a" is a constant of the pattern extractor's code, not a slice of the text.
        sliced = {id(s) for s in labels_of(first) if s != "is_a"}
        assert sliced and not sliced & {id(s) for s in labels_of(second)}

    def test_pool_threads_share_one_label_table(self, monkeypatch):
        class CannedClient:
            calls = itertools.count()

            @classmethod
            def from_env(cls, retry_count):
                return cls()

            def complete(self, messages, params):
                # Each pair of calls, likely in flight at once, brings new labels.
                n = next(self.calls) // 2
                return "\n".join(f"(s{n} {i % 7} | p{n} | o{n} {i % 5})" for i in range(50))

        monkeypatch.setattr(pipeline, "HttpChatClient", CannedClient)
        config = PipelineConfig.from_dict({"extractor": "model", "worker_count": 8})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            labels = labels_of(extract_corpus(config, repeated_demo_corpus(40))[1])
        finally:
            sys.setswitchinterval(interval)
        assert len(labels) == 80 * 50 * 3
        assert len({id(s) for s in labels}) == len(set(labels))

    def test_results_ordered_for_a_shuffled_corpus(self, no_pool):
        config = pattern_config(max_chunk_chars=120)
        documents = shuffled_corpus()
        chunks, results = extract_corpus(config, documents)
        keys = [(c.source_id, c.chunk_index) for c in chunks]
        assert keys == sorted(keys) and len(keys) > len(documents)
        for chunk, result in zip(chunks, results):
            assert result.triples
            for t in result.triples:
                assert (t.provenance.source_id, t.provenance.chunk_index) == (
                    chunk.source_id,
                    chunk.chunk_index,
                )
        again = extract_corpus(config, sorted(documents, key=lambda d: d.doc_id))
        assert again == (chunks, results)

    def test_model_extractor_uses_the_pool(self, monkeypatch):
        pools = []

        class RecordingPool(pipeline.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        class CannedClient:
            @classmethod
            def from_env(cls, retry_count):
                return cls()

            def complete(self, messages, params):
                return "(a | p | b)"

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(pipeline, "HttpChatClient", CannedClient)
        config = PipelineConfig.from_dict({"extractor": "model", "worker_count": 2})
        chunks, results = extract_corpus(config, shuffled_corpus())
        assert pools == [2]
        provenance = [t.provenance for r in results for t in r.triples]
        assert [(p.source_id, p.chunk_index) for p in provenance] == [
            (c.source_id, c.chunk_index) for c in chunks
        ]


class TestCli:
    def test_pipeline_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            [
                "pipeline",
                str(DATA / "demo_corpus.jsonl"),
                "-c", str(DATA / "demo_config_pattern.json"),
                "-o", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert (out_dir / "graph.json").read_bytes() == (GOLDEN / "pattern_graph.json").read_bytes()
        assert "7 nodes" in capsys.readouterr().out

    def test_stage_chain_equals_pipeline(self, tmp_path):
        final = stage_chain(tmp_path, DATA / "demo_config_pattern.json")
        assert final == (GOLDEN / "pattern_graph.json").read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"senses_path": None},
            {"rules_path": None, "senses_path": None},
            {"topology_enabled": False},
        ],
        ids=["no-senses", "no-rules-or-senses", "no-topology"],
    )
    def test_discover_subcommand_equals_pipeline(self, tmp_path, overrides):
        config = pattern_config(**overrides)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        run_pipeline(config, DATA / "demo_corpus.jsonl", tmp_path / "run")
        final = stage_chain(tmp_path, config_path)
        assert final == (tmp_path / "run" / "graph.json").read_bytes()

    def test_eval_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "eval", str(GOLDEN / "pattern_graph.json"),
                "--gold", str(DATA / "demo_gold.jsonl"),
                "-o", str(tmp_path / "report.json"),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "1.0000" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["entity"]["f1"] == 1.0
        assert report["relation"]["f1"] == 1.0

    def test_eval_report_equals_pipeline_report_bytes(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(
            [
                "eval", str(GOLDEN / "pattern_graph.json"),
                "--gold", str(DATA / "demo_gold.jsonl"),
                "-o", str(report),
            ]
        ) == EXIT_OK
        assert report.read_bytes() == (GOLDEN / "pattern_report.json").read_bytes()

    def test_eval_relaxed_policy_flag(self, capsys):
        code = main(
            [
                "eval", str(GOLDEN / "pattern_graph.json"),
                "--gold", str(DATA / "demo_gold.jsonl"),
                "--policy", "predicate_relaxed",
            ]
        )
        assert code == EXIT_OK

    def test_eval_policy_has_one_spelling(self, capsys):
        code = main(
            [
                "eval", str(GOLDEN / "pattern_graph.json"),
                "--gold", str(DATA / "demo_gold.jsonl"),
                "--policy", "relaxed",
            ]
        )
        assert code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(
            [
                "pipeline", str(DATA / "demo_corpus.jsonl"),
                "-c", str(missing),
                "-o", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_USAGE
        assert f"config file does not exist: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", ["config", "gold", "rules_path", "fixtures_path", "output"]
    )
    def test_directory_where_a_file_is_expected_is_usage_error(self, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        config = tmp_path / "config.json"
        if case == "fixtures_path":
            config.write_text(json.dumps({"extractor": "fixture", "fixtures_path": str(folder)}))
        else:
            config.write_text(json.dumps({"rules_path": str(folder)}))
        corpus = str(DATA / "demo_corpus.jsonl")
        out_dir = tmp_path / "out"
        argv, message = {
            "config": (
                ["pipeline", corpus, "-c", str(folder), "-o", str(out_dir)],
                f"config file is a directory: {folder}",
            ),
            "gold": (
                ["eval", str(GOLDEN / "pattern_graph.json"), "--gold", str(folder)],
                f"gold file is a directory: {folder}",
            ),
            "rules_path": (
                ["pipeline", corpus, "-c", str(config), "-o", str(out_dir)],
                f"configured file is a directory: {folder}",
            ),
            "fixtures_path": (
                ["extract", corpus, "-c", str(config), "-o", str(tmp_path / "t")],
                f"configured file is a directory: {folder}",
            ),
            "output": (["extract", corpus, "-o", str(folder)], f"Is a directory: '{folder}'"),
        }[case]
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (out_dir / "triples.jsonl").exists()

    @pytest.mark.parametrize(
        "case",
        ["pipeline", "extract", "extract_no_dir", "aggregate_no_dir", "discover_no_dir",
         "eval_no_dir"],
    )
    def test_file_where_a_directory_is_expected_is_usage_error(self, tmp_path, capsys, case):
        afile = tmp_path / "afile"
        afile.write_text("keep me")
        corpus = str(DATA / "demo_corpus.jsonl")
        graph = str(GOLDEN / "pattern_graph.json")
        missing = tmp_path / "nodir" / "out.json"
        argv, message = {
            "pipeline": (
                ["pipeline", corpus, "-c", str(DATA / "demo_config_pattern.json"),
                 "-o", str(afile)],
                f"File exists: '{afile}'",
            ),
            "extract": (
                ["extract", corpus, "-o", str(afile / "x")],
                f"Not a directory: '{afile / 'x'}'",
            ),
            "extract_no_dir": (["extract", corpus, "-o", str(missing)], None),
            "aggregate_no_dir": (
                ["aggregate", str(GOLDEN / "pattern_triples.jsonl"), "-o", str(missing)], None
            ),
            "discover_no_dir": (
                ["discover", graph, "--rules", str(DATA / "demo_rules.json"),
                 "-o", str(missing)],
                None,
            ),
            "eval_no_dir": (
                ["eval", graph, "--gold", str(DATA / "demo_gold.jsonl"), "-o", str(missing)],
                None,
            ),
        }[case]
        assert main(argv) == EXIT_USAGE
        assert (message or f"output directory does not exist: {missing}") in capsys.readouterr().err
        assert afile.read_text() == "keep me"
        assert not missing.parent.exists()

    def test_missing_fixtures_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"extractor": "fixture", "fixtures_path": str(missing)}))
        out = tmp_path / "t.jsonl"
        code = main(["extract", str(DATA / "demo_corpus.jsonl"), "-c", str(config), "-o", str(out)])
        assert code == EXIT_USAGE
        assert f"configured file does not exist: {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"extractor": "pattern", "eval_policy": "relaxed"}))
        out_dir = tmp_path / "out"
        code = main(
            ["pipeline", str(DATA / "demo_corpus.jsonl"), "-c", str(config), "-o", str(out_dir)]
        )
        assert code == EXIT_USAGE
        assert "eval_policy" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("timeout", [0, -1])
    def test_non_positive_model_timeout_is_usage_error(self, tmp_path, capsys, timeout):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"extractor": "model", "model": {"timeout": timeout}}))
        out_dir = tmp_path / "out"
        code = main(
            ["pipeline", str(DATA / "demo_corpus.jsonl"), "-c", str(config), "-o", str(out_dir)]
        )
        assert code == EXIT_USAGE
        assert f"timeout must be finite and > 0, got {timeout}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "model, message",
        [
            ('{"temperature": NaN}', "temperature must be finite and >= 0, got nan"),
            ('{"temperature": Infinity}', "temperature must be finite and >= 0, got inf"),
            ('{"timeout": NaN}', "timeout must be finite and > 0, got nan"),
            ('{"timeout": Infinity}', "timeout must be finite and > 0, got inf"),
        ],
    )
    def test_non_finite_model_parameter_is_usage_error(self, tmp_path, capsys, model, message):
        config = tmp_path / "config.json"
        config.write_text(f'{{"extractor": "model", "model": {model}}}')
        out_dir = tmp_path / "out"
        code = main(
            ["pipeline", str(DATA / "demo_corpus.jsonl"), "-c", str(config), "-o", str(out_dir)]
        )
        assert code == EXIT_USAGE
        assert f"error: config: model: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["pipeline"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_malformed_corpus_is_input_error(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("this is not json\n")
        code = main(["extract", str(corpus), "-o", str(tmp_path / "t.jsonl")])
        assert code == EXIT_INPUT

    def test_graphml_export_of_a_control_character_is_input_error(self, tmp_path, capsys):
        corpus = write_corpus(
            tmp_path, [{"id": "d", "text": "Ada\u0001 Lovelace founded Acme in 1843."}]
        )
        config = tmp_path / "config.json"
        config.write_text('{"export_format": "graphml"}')
        out = tmp_path / "out"
        assert main(["pipeline", str(corpus), "-c", str(config), "-o", str(out)]) == EXIT_INPUT
        assert """'<node id="ada\\x01 lovelace" />' holds '\\x01'""" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["quarantine"]
        quarantined = sorted(p.name for p in (out / "quarantine").iterdir())
        assert quarantined == ["graph_aggregated.json", "triples.jsonl"]

    def test_repeated_corpus_id_is_input_error(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, [
            {"id": "d1", "text": "Marie Curie discovered radium in 1898."},
            {"id": "d1", "text": "Ada Lovelace wrote notes in 1843."},
        ])
        assert main(["extract", str(corpus), "-o", str(tmp_path / "t.jsonl")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {corpus}:2: duplicate id 'd1' (first on line 1)\n"
        )
        assert not (tmp_path / "t.jsonl").exists()

    def test_failing_extractor_is_internal_error(self, tmp_path, monkeypatch, capsys):
        def fail(chunk, *args):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "pattern_extract", fail)
        corpus = str(DATA / "demo_corpus.jsonl")
        config = tmp_path / "config.json"
        config.write_text("{}")
        out = tmp_path / "out"
        assert main(["pipeline", corpus, "-c", str(config), "-o", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "error: stage 'extract' failed: boom\n"
        assert list(out.iterdir()) == []
        triples = tmp_path / "t.jsonl"
        assert main(["extract", corpus, "-o", str(triples)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: boom\n"
        assert not triples.exists()

    def test_malformed_graph_is_input_error(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text("{broken")
        code = main(
            ["discover", str(graph), "--rules", str(DATA / "demo_rules.json"), "-o", str(tmp_path / "o.json")]
        )
        assert code == EXIT_INPUT

    def test_discover_normalizes_rules_with_the_config_policy(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(
            [{"name": "r", "pattern": ["Mentored", "ADVISED"], "inferred_predicate": "Lineage  Of"}]
        ))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"normalization": {"collapse_whitespace": False}}))
        out = tmp_path / "out.json"
        assert main(["discover", str(GOLDEN / "pattern_graph.json"), "--rules", str(rules),
                     "-c", str(config), "-o", str(out)]) == EXIT_OK
        g = deserialize_graph(out.read_bytes())
        assert "lineage  of" in {e.predicate for e in g.edges.values() if e.inferred}

    def test_rule_label_empty_after_normalization_is_input_error(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps([{"name": "r", "pattern": ["a", "..."], "inferred_predicate": "x"}])
        )
        code = main(["discover", str(GOLDEN / "pattern_graph.json"), "--rules", str(rules),
                     "-o", str(tmp_path / "o.json")])
        assert code == EXIT_INPUT
        assert "rule #0: label '...' is empty after normalization" in capsys.readouterr().err

    def test_unreachable_endpoint_is_endpoint_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LIGHTKG_API_BASE", "http://127.0.0.1:9/v1")
        corpus = write_corpus(tmp_path, [{"id": "d", "text": "Hello there."}])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"extractor": "model", "retry_count": 0}))
        code = main(
            ["pipeline", str(corpus), "-c", str(config), "-o", str(tmp_path / "out")]
        )
        assert code == EXIT_ENDPOINT

    def test_extract_without_context_from_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"include_context": False}))
        triples = tmp_path / "t.jsonl"
        code = main(
            ["extract", str(DATA / "demo_corpus.jsonl"), "-c", str(config), "-o", str(triples)]
        )
        assert code == EXIT_OK
        lines = [json.loads(l) for l in triples.read_text().splitlines()]
        assert lines and all(record["context"] == {} for record in lines)

    def test_aggregate_and_graphml_output(self, tmp_path):
        triples = tmp_path / "t.jsonl"
        main(["extract", str(DATA / "demo_corpus.jsonl"), "-o", str(triples)])
        out = tmp_path / "g.graphml"
        assert main(["aggregate", str(triples), "-o", str(out)]) == EXIT_OK
        g = deserialize_graph(out.read_bytes(), "graphml")
        assert g.node_count == 7


MARIE_CURIE = {"id": "curie", "text": "Marie Curie discovered radium in 1898."}
# A gold label whose trailing "." only a normalization that strips
# punctuation at label edges removes.
MARIE_CURIE_GOLD = {"subject": "marie curie.", "predicate": "discovered", "object": "radium"}


class TestStageParity:
    """Each stage subcommand, given the run's config, writes the bytes
    ``run_pipeline`` writes, or the graph it hands to the next stage, under a
    non-default normalization and either eval policy."""

    @pytest.fixture(params=["strict", "predicate_relaxed"])
    def run(self, request, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text((DATA / "demo_corpus.jsonl").read_text() + json.dumps(MARIE_CURIE) + "\n")
        # "is" matches the graph's "is_a" under predicate_relaxed only.
        demo_gold = (DATA / "demo_gold.jsonl").read_text()
        assert '"is_a", "object": "metal"' in demo_gold
        gold = tmp_path / "gold.jsonl"
        gold.write_text(
            demo_gold.replace('"is_a", "object": "metal"', '"is", "object": "metal"')
            + json.dumps(MARIE_CURIE_GOLD) + "\n"
        )
        config = pattern_config(
            normalization={"strip_punctuation_edges": False},
            eval_policy=request.param,
            confidence_threshold=0.3,
            gold_path=str(gold),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        outcomes = []

        def recording(*args):
            outcomes.append(aggregate(*args))
            return outcomes[-1]

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "aggregate", recording)
            summary = run_pipeline(config, corpus, tmp_path / "run")
        (aggregated,) = outcomes
        return {
            "tmp": tmp_path,
            "corpus": corpus,
            "gold": gold,
            "cfg": ["-c", str(config_path)],
            "out": tmp_path / "run",
            "aggregated": serialize_graph(aggregated.graph),
            "summary": summary,
            "config": config,
        }

    def test_extract(self, run):
        triples = run["tmp"] / "t.jsonl"
        assert main(["extract", str(run["corpus"]), *run["cfg"], "-o", str(triples)]) == EXIT_OK
        assert triples.read_bytes() == (run["out"] / "triples.jsonl").read_bytes()

    def test_aggregate(self, run):
        graph = run["tmp"] / "aggregated.json"
        triples = run["out"] / "triples.jsonl"
        assert main(["aggregate", str(triples), *run["cfg"], "-o", str(graph)]) == EXIT_OK
        assert graph.read_bytes() == run["aggregated"]

    def test_discover(self, run):
        aggregated, final = run["tmp"] / "aggregated.json", run["tmp"] / "final.json"
        aggregated.write_bytes(run["aggregated"])
        assert main(["discover", str(aggregated), *run["cfg"], "-o", str(final)]) == EXIT_OK
        assert final.read_bytes() == (run["out"] / "graph.json").read_bytes()
        # The threshold dropped an edge, so the export stage's filter ran.
        counts = run["summary"]["counts"]
        assert counts["exported_edges"] < counts["edges"]

    def test_eval(self, run):
        report = run["tmp"] / "report.json"
        assert main(
            ["eval", str(run["out"] / "graph.json"), *run["cfg"], "-o", str(report)]
        ) == EXIT_OK
        assert report.read_bytes() == (run["out"] / "report.json").read_bytes()
        # Without the config, gold is read with the default normalization.
        default = run["tmp"] / "default.json"
        assert main(
            ["eval", str(run["out"] / "graph.json"), "--gold", str(run["gold"]), "-o", str(default)]
        ) == EXIT_OK
        assert default.read_bytes() != report.read_bytes()

    def test_eval_reads_gold_with_the_config_normalization(self, tmp_path):
        """One fact, and a gold label that the config's normalization keeps
        apart from the graph's: the run and ``lightkg eval -c`` both score
        relation F1 0.0, in the same bytes; ``lightkg eval`` without a
        config reads gold with the default normalization and scores 1.0."""
        corpus = write_corpus(tmp_path, [{"id": "demo", "text": MARIE_CURIE["text"]}])
        (tmp_path / "gold.jsonl").write_text(json.dumps(MARIE_CURIE_GOLD) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"normalization": {"strip_punctuation_edges": False}, "gold_path": "gold.jsonl"}
        ))
        out = tmp_path / "out"
        assert main(["pipeline", str(corpus), "-c", str(config), "-o", str(out)]) == EXIT_OK
        graph, gold = str(out / "graph.json"), str(tmp_path / "gold.jsonl")
        with_config, without = tmp_path / "with_config.json", tmp_path / "without.json"
        assert main(
            ["eval", graph, "--gold", gold, "-c", str(config), "-o", str(with_config)]
        ) == EXIT_OK
        assert main(["eval", graph, "--gold", gold, "-o", str(without)]) == EXIT_OK
        assert with_config.read_bytes() == (out / "report.json").read_bytes()
        assert json.loads(with_config.read_text())["relation"]["f1"] == 0.0
        assert json.loads(without.read_text())["relation"]["f1"] == 1.0

    def test_eval_policy_flag_overrides_the_config(self, run):
        config = run["config"]
        other = "strict" if config.eval_policy == "predicate_relaxed" else "predicate_relaxed"
        run_pipeline(replace(config, eval_policy=other), run["corpus"], run["tmp"] / "other")
        report = run["tmp"] / "report.json"
        assert main(
            ["eval", str(run["out"] / "graph.json"), *run["cfg"], "--policy", other,
             "-o", str(report)]
        ) == EXIT_OK
        assert report.read_bytes() == (run["tmp"] / "other" / "report.json").read_bytes()
        assert report.read_bytes() != (run["out"] / "report.json").read_bytes()


class TestInputFilesDefaultToTheConfig:
    """``discover --rules`` and ``--senses`` and ``eval --gold`` default to
    the config's ``rules_path``, ``senses_path`` and ``gold_path``; a flag
    overrides its field."""

    @pytest.fixture
    def aggregated(self, tmp_path) -> str:
        graph = tmp_path / "aggregated.json"
        triples = GOLDEN / "pattern_triples.jsonl"
        assert main(["aggregate", str(triples), "-o", str(graph)]) == EXIT_OK
        return str(graph)

    def config(self, tmp_path, **fields) -> list[str]:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(fields))
        return ["-c", str(path)]

    def discover(self, tmp_path, graph: str, *args: str) -> bytes:
        out = tmp_path / "discovered.json"
        assert main(["discover", graph, *args, "-o", str(out)]) == EXIT_OK
        return out.read_bytes()

    def evaluate(self, tmp_path, *args: str) -> bytes:
        out = tmp_path / "report.json"
        assert main(["eval", str(GOLDEN / "pattern_graph.json"), *args, "-o", str(out)]) == EXIT_OK
        return out.read_bytes()

    def test_rules_default_to_rules_path(self, tmp_path, aggregated):
        rules = str(DATA / "demo_rules.json")
        from_field = self.discover(tmp_path, aggregated, *self.config(tmp_path, rules_path=rules))
        assert from_field == self.discover(tmp_path, aggregated, "--rules", rules)
        assert from_field != self.discover(tmp_path, aggregated)

    def test_senses_default_to_senses_path(self, tmp_path, aggregated):
        senses = str(DATA / "demo_senses.json")
        from_field = self.discover(
            tmp_path, aggregated, *self.config(tmp_path, senses_path=senses)
        )
        assert from_field == self.discover(tmp_path, aggregated, "--senses", senses)
        assert from_field != self.discover(tmp_path, aggregated)

    def test_gold_defaults_to_gold_path(self, tmp_path):
        gold = str(DATA / "demo_gold.jsonl")
        from_field = self.evaluate(tmp_path, *self.config(tmp_path, gold_path=gold))
        assert from_field == self.evaluate(tmp_path, "--gold", gold)
        assert from_field == (GOLDEN / "pattern_report.json").read_bytes()

    def test_flags_override_their_fields(self, tmp_path, aggregated):
        (tmp_path / "no_rules.json").write_text("[]")
        (tmp_path / "gold.jsonl").write_text(json.dumps(MARIE_CURIE_GOLD) + "\n")
        config = self.config(tmp_path, rules_path="no_rules.json", gold_path="gold.jsonl")
        rules, gold = str(DATA / "demo_rules.json"), str(DATA / "demo_gold.jsonl")
        flagged = self.discover(tmp_path, aggregated, *config, "--rules", rules)
        assert flagged == self.discover(tmp_path, aggregated, "--rules", rules)
        assert flagged != self.discover(tmp_path, aggregated, *config)
        flagged = self.evaluate(tmp_path, *config, "--gold", gold)
        assert flagged == self.evaluate(tmp_path, "--gold", gold)
        assert flagged != self.evaluate(tmp_path, *config)

    def test_discover_without_rules_infers_nothing(self, tmp_path, aggregated):
        graph = json.loads(self.discover(tmp_path, aggregated, *self.config(tmp_path)))
        assert graph["edges"] and not any(e["inferred"] for e in graph["edges"])

    def test_eval_without_gold_exits_1_naming_the_gold_file(self, tmp_path, capsys):
        graph = str(GOLDEN / "pattern_graph.json")
        assert main(["eval", graph, *self.config(tmp_path)]) == EXIT_USAGE
        assert "no gold file" in capsys.readouterr().err


# Gold labels near the words of support.year_texts: one with an edge
# punctuation mark, one in capitals, one with a run of blanks, and predicates
# that only relaxed matching takes ("disc" inside "discovered", "is" inside
# "is_a").
_gold_words = st.sampled_from(["curie", "Radium", "the  lab", "meitner", "metals.", "gases"])
_gold_predicates = st.sampled_from(["discovered", "wrote", "founded", "won", "is_a", "disc", "is"])


def reference_report(graph, gold, gold_entities, policy, eval_policy) -> bytes:
    """``report.json`` of ``graph`` against the raw gold triples and entity
    labels, normalized under ``policy``: brute-force scores from
    ``support.naive_f1`` and ``support.reference_relaxed_matches``, one
    ``indent=2`` encode of the report's dict."""
    triples = {tuple(normalize_label(label, policy) for label in t) for t in gold}
    entities = {normalize_label(e, policy) for e in gold_entities}
    entities |= {t[0] for t in triples} | {t[2] for t in triples}
    nodes = set(graph.nodes)
    predicted = {(e.source, e.predicate, e.target) for e in graph.edges.values()}
    if eval_policy == "strict":
        matched = matched_gold = predicted & triples
    else:
        matched, matched_gold = support.reference_relaxed_matches(predicted, triples)
    # Two sets of the scored sizes that share as many items as were matched.
    unmatched = len(predicted) - len(matched)
    relation = support.naive_f1(
        set(range(len(predicted))), set(range(unmatched, unmatched + len(triples)))
    )

    def items(labels, relations):
        return [{"type": "entity", "label": label} for label in sorted(labels)] + [
            {"type": "relation", "triple": list(t)} for t in sorted(relations)
        ]

    report = {
        "entity": dict(zip(("p", "r", "f1"), support.naive_f1(nodes, entities))),
        "relation": dict(zip(("p", "r", "f1"), relation)),
        "matched": items(nodes & entities, matched),
        "missing": items(entities - nodes, triples - matched_gold),
        "spurious": items(nodes - entities, predicted - matched),
    }
    return indented_json_bytes(report)


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(support.year_texts(), min_size=1, max_size=3),
    gold=st.lists(st.tuples(_gold_words, _gold_predicates, _gold_words), max_size=5),
    gold_entities=st.lists(_gold_words, max_size=2),
    include_context=st.booleans(),
    collapse_whitespace=st.booleans(),
    strip_punctuation_edges=st.booleans(),
    export_format=st.sampled_from(FORMATS),
    eval_policy=st.sampled_from(RELATION_POLICIES),
)
def test_run_without_topology_equals_the_reference_chain(
    texts, gold, gold_entities, include_context, collapse_whitespace,
    strip_punctuation_edges, export_format, eval_policy,
):
    """``run_pipeline``'s triples, graph and report files, topology off, equal
    the bytes of a chain of the test oracles: ``reference_pattern_extract``
    per document (one chunk each), contexts emptied without
    ``include_context``, ``reference_aggregate``, the reference writers and
    :func:`reference_report`."""
    policy = NormalizationPolicy(
        collapse_whitespace=collapse_whitespace, strip_punctuation_edges=strip_punctuation_edges
    )
    documents = {f"d{i}": text for i, text in enumerate(texts)}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = write_corpus(tmp, [{"id": i, "text": text} for i, text in documents.items()])
        gold_path = tmp / "gold.jsonl"
        gold_path.write_text("".join(
            [json.dumps({"entity": e}) + "\n" for e in gold_entities]
            + [json.dumps(dict(zip(("subject", "predicate", "object"), t))) + "\n" for t in gold]
        ))
        config = PipelineConfig(
            include_context=include_context, topology_enabled=False, normalization=policy,
            export_format=export_format, eval_policy=eval_policy, gold_path=str(gold_path),
        )
        run_pipeline(config, corpus, tmp / "out")
        names = ("triples.jsonl", f"graph.{export_format}", "report.json")
        written = [(tmp / "out" / name).read_bytes() for name in names]

    triples = [
        t if include_context else replace(t, context=ContextMap())
        for doc_id in sorted(documents)
        for t in support.reference_pattern_extract(TextChunk(doc_id, 0, documents[doc_id])).triples
    ]
    graph, _ = support.reference_aggregate(triples, policy)
    writers = {"json": support.reference_graph_json, "graphml": support.reference_graphml}
    assert written == [
        support.reference_triples_to_jsonl(triples),
        writers[export_format](graph),
        reference_report(graph, gold, gold_entities, policy, eval_policy),
    ]


def test_ablations_without_an_output_directory_leave_no_files(tmp_path, monkeypatch, capsys):
    script = Path(__file__).parent.parent / "scripts" / "run_ablations.py"
    spec = importlib.util.spec_from_file_location("run_ablations", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(sys, "argv", [str(script)])
    assert module.main() == 0
    assert "no-topology" in capsys.readouterr().out
    assert list(temp.iterdir()) == []

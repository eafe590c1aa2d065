"""End-to-end pipeline and command line behavior."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lightkg.cli import EXIT_ENDPOINT, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from lightkg.pipeline import ConfigError, PipelineConfig, StageError, run_pipeline
from lightkg.serialize import deserialize_graph

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
            thread.join(timeout=5)
        assert summary["counts"]["triples"] == 2
        g = deserialize_graph((tmp_path / "out" / "graph.json").read_bytes())
        assert sorted(g.nodes) == ["marie curie", "radium"]
        (edge,) = g.edges.values()
        assert len(edge.provenance) == 2  # same fact from both documents
        assert edge.context.get("year") == frozenset({"1898"})

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
        ],
    )
    def test_bad_field_rejected_at_load(self, key, value):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_dict({"extractor": "pattern", key: value})

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
        config_path = str(DATA / "demo_config_pattern.json")
        triples = tmp_path / "triples.jsonl"
        aggregated = tmp_path / "agg.json"
        final = tmp_path / "final.json"
        assert main(
            ["extract", str(DATA / "demo_corpus.jsonl"), "-c", config_path, "-o", str(triples)]
        ) == EXIT_OK
        assert main(
            ["aggregate", str(triples), "-c", config_path, "-o", str(aggregated)]
        ) == EXIT_OK
        assert main(
            [
                "discover", str(aggregated),
                "--rules", str(DATA / "demo_rules.json"),
                "--senses", str(DATA / "demo_senses.json"),
                "-c", config_path,
                "-o", str(final),
            ]
        ) == EXIT_OK
        assert final.read_bytes() == (GOLDEN / "pattern_graph.json").read_bytes()

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

    def test_eval_relaxed_policy_flag(self, capsys):
        code = main(
            [
                "eval", str(GOLDEN / "pattern_graph.json"),
                "--gold", str(DATA / "demo_gold.jsonl"),
                "--policy", "relaxed",
            ]
        )
        assert code == EXIT_OK

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "pipeline", str(DATA / "demo_corpus.jsonl"),
                "-c", str(tmp_path / "missing.json"),
                "-o", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

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

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["pipeline"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_malformed_corpus_is_input_error(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("this is not json\n")
        code = main(["extract", str(corpus), "-o", str(tmp_path / "t.jsonl")])
        assert code == EXIT_INPUT

    def test_malformed_graph_is_input_error(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text("{broken")
        code = main(
            ["discover", str(graph), "--rules", str(DATA / "demo_rules.json"), "-o", str(tmp_path / "o.json")]
        )
        assert code == EXIT_INPUT

    def test_unreachable_endpoint_is_endpoint_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LIGHTKG_API_BASE", "http://127.0.0.1:9/v1")
        corpus = write_corpus(tmp_path, [{"id": "d", "text": "Hello there."}])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"extractor": "model", "retry_count": 0}))
        code = main(
            ["pipeline", str(corpus), "-c", str(config), "-o", str(tmp_path / "out")]
        )
        assert code == EXIT_ENDPOINT

    def test_extract_flags_override_config(self, tmp_path):
        triples = tmp_path / "t.jsonl"
        code = main(
            [
                "extract", str(DATA / "demo_corpus.jsonl"),
                "--extractor", "pattern", "--no-context",
                "-o", str(triples),
            ]
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

#!/usr/bin/env python3
"""Regenerate the committed demo fixtures and golden graph files.

Run from the repository root after an intentional behavior change, then
review the diff before committing:

    python scripts/gen_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from lightkg.client import prompt_fingerprint
from lightkg.extraction import build_extraction_prompt, chunk_document, read_corpus
from lightkg.pipeline import PipelineConfig, run_pipeline
from lightkg.serialize import serialize_graph
from lightkg.topology import TopologyConfig, reinforce_confidence

TESTS = Path(__file__).resolve().parent.parent / "tests"
DATA = TESTS / "data"
sys.path.insert(0, str(TESTS))
from support import build_hub_graph  # noqa: E402  (the test suite's hub graph)

# Model-style responses for each demo document (the fixture extractor replays
# these through the full prompt/parse path).
RESPONSES = {
    "doc-physics": (
        "(Marie Curie | discovered | radium) {year=1898}\n"
        "(Radium | is_a | metal)\n"
        "(Marie Curie | mentored | Lise Meitner) {year=1907}"
    ),
    "doc-lineage": (
        "(Lise Meitner | advised | Otto Frisch) {year=1934}\n"
        "(radium | is_a | Heavy metals)\n"
        "(polonium | is_a | Heavy metals)"
    ),
}


def build_fixtures() -> dict[str, str]:
    fixtures: dict[str, str] = {}
    for document in read_corpus(DATA / "demo_corpus.jsonl"):
        for chunk in chunk_document(document.doc_id, document.text):
            prompt = build_extraction_prompt(chunk, include_context=True)
            fixtures[prompt_fingerprint(prompt)] = RESPONSES[document.doc_id]
    return fixtures


def main() -> int:
    fixtures = build_fixtures()
    fixtures_path = DATA / "demo_fixtures.json"
    fixtures_path.write_text(
        json.dumps(fixtures, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {fixtures_path} ({len(fixtures)} fixtures)")

    golden = DATA / "golden"
    golden.mkdir(exist_ok=True)
    for name in ("pattern", "fixture"):
        config = PipelineConfig.load(DATA / f"demo_config_{name}.json")
        with tempfile.TemporaryDirectory() as out_dir:
            summary = run_pipeline(config, DATA / "demo_corpus.jsonl", out_dir)
            graph_bytes = Path(summary["outputs"]["graph"]).read_bytes()
            if name == "pattern":
                # Pin the triples JSONL writer's and the report's bytes, and
                # the GraphML writer's from the same run exported as GraphML.
                pinned = {
                    "triples.jsonl": Path(summary["outputs"]["triples"]).read_bytes(),
                    "report.json": (Path(out_dir) / "report.json").read_bytes(),
                }
                config.export_format = "graphml"
                graphml = run_pipeline(config, DATA / "demo_corpus.jsonl", Path(out_dir) / "ml")
                pinned["graph.graphml"] = Path(graphml["outputs"]["graph"]).read_bytes()
                for suffix, data in pinned.items():
                    target = golden / f"pattern_{suffix}"
                    target.write_bytes(data)
                    print(f"wrote {target} ({len(data)} bytes)")
        target = golden / f"{name}_graph.json"
        target.write_bytes(graph_bytes)
        counts = summary["counts"]
        print(
            f"wrote {target} ({counts['nodes']} nodes, {counts['edges']} edges, "
            f"{counts['inferred_edges']} inferred)"
        )
        if summary["evaluation"]:
            entity = summary["evaluation"]["entity"]["f1"]
            relation = summary["evaluation"]["relation"]["f1"]
            print(f"  eval: entity f1={entity:.3f} relation f1={relation:.3f}")

    # Pins reinforcement on hubs, where supports per edge run into the
    # dozens: default settings, and the same with directed paths.
    for suffix, undirected in (("", True), ("_directed", False)):
        hub = reinforce_confidence(
            build_hub_graph(), TopologyConfig(undirected_paths=undirected)
        )
        target = golden / f"hub_reinforced{suffix}.json"
        target.write_bytes(serialize_graph(hub, "json"))
        print(f"wrote {target} ({hub.node_count} nodes, {hub.edge_count} edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

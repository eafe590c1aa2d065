#!/usr/bin/env python3
"""Run the full pipeline on the bundled synthetic demo corpus.

    python scripts/run_demo.py [output_dir]

Uses the pattern extractor (no model endpoint needed), applies the demo
inference rules and sense signatures, and evaluates against the demo gold
file. Prints the run summary counts and the evaluation table.
"""

from __future__ import annotations

import sys
from pathlib import Path

from lightkg.pipeline import PipelineConfig, evaluate_stage, run_pipeline
from lightkg.serialize import deserialize_graph, format_for_path

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
    config = PipelineConfig.load(DATA / "demo_config_pattern.json")
    summary = run_pipeline(config, DATA / "demo_corpus.jsonl", out_dir)

    print("counts:")
    for key, value in summary["counts"].items():
        print(f"  {key}: {value}")
    print(f"graph written to {summary['outputs']['graph']}")

    report = evaluate_stage(config, summary["outputs"]["graph"], config.gold_path)
    print()
    print(report.render_table())

    graph_path = summary["outputs"]["graph"]
    graph = deserialize_graph(graph_path, format_for_path(graph_path))
    inferred = [graph.edges[eid] for eid in sorted(graph.edges) if graph.edges[eid].inferred]
    if inferred:
        print()
        print("inferred edges:")
        for e in inferred:
            print(f"  {e.source} -[{e.predicate}]-> {e.target}  conf={e.confidence}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

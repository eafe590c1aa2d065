#!/usr/bin/env python3
"""Compare pipeline configurations on the demo corpus.

    python scripts/run_ablations.py [output_dir]

Runs the full configuration, the no-context variant, and the no-topology
variant (flag-only config changes), each evaluated by the run itself against
the demo gold file, and prints one row per configuration.
"""

from __future__ import annotations

import json
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

from lightkg.pipeline import PipelineConfig, run_pipeline

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

VARIANTS = [
    ("full", {}),
    ("no-context", {"include_context": False}),
    ("no-topology", {"topology_enabled": False}),
]


def main() -> int:
    base = json.loads((DATA / "demo_config_pattern.json").read_text())
    for key in ("rules_path", "senses_path", "gold_path"):
        if base.get(key):
            base[key] = str(DATA / base[key])

    rows = []
    # Without an output directory the runs go to one temporary directory,
    # removed when they are done.
    given = sys.argv[1] if len(sys.argv) > 1 else None
    with nullcontext(given) if given else tempfile.TemporaryDirectory(prefix="ablations-") as out:
        for name, overrides in VARIANTS:
            config = PipelineConfig.from_dict({**base, **overrides})
            summary = run_pipeline(config, DATA / "demo_corpus.jsonl", Path(out) / name)
            counts, scores = summary["counts"], summary["evaluation"]
            rows.append(
                (
                    name,
                    counts["nodes"],
                    counts["edges"],
                    counts["inferred_edges"],
                    scores["entity"]["f1"],
                    scores["relation"]["f1"],
                )
            )

    print(f"{'configuration':14} {'nodes':>5} {'edges':>5} {'inferred':>8} {'ent-f1':>7} {'rel-f1':>7}")
    for name, nodes, edges, inferred, entity_f1, relation_f1 in rows:
        print(f"{name:14} {nodes:>5} {edges:>5} {inferred:>8} {entity_f1:>7.3f} {relation_f1:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from pathlib import Path

from lightkg.pipeline import PipelineConfig, run_pipeline

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

VARIANTS = [
    ("full", {}),
    ("no-context", {"include_context": False}),
    ("no-topology", {"topology_enabled": False}),
]


def main() -> int:
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    base = json.loads((DATA / "demo_config_pattern.json").read_text())
    for key in ("rules_path", "senses_path", "gold_path"):
        if base.get(key):
            base[key] = str(DATA / base[key])

    rows = []
    for name, overrides in VARIANTS:
        config = PipelineConfig.from_dict({**base, **overrides})
        if out_root is not None:
            out_dir = out_root / name
        else:
            out_dir = Path(tempfile.mkdtemp(prefix=f"ablation-{name}-"))
        summary = run_pipeline(config, DATA / "demo_corpus.jsonl", out_dir)
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

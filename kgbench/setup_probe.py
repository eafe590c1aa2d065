"""One fresh-process measurement of set-up.

Usage: ``python3 kgbench/setup_probe.py CONFIG``.

Prints one JSON object whose ``setup_s`` is the time to import lightkg and
load the config, rules, senses and gold.
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lightkg import PipelineConfig, load_gold  # noqa: E402
from lightkg.topology import load_rules, load_senses  # noqa: E402


def main(argv: list[str]) -> None:
    config = PipelineConfig.load(argv[0])
    load_rules(config.rules_path)
    load_senses(config.senses_path)
    load_gold(config.gold_path, config.normalization)
    print(json.dumps({"setup_s": time.perf_counter() - _started}))


if __name__ == "__main__":
    main(sys.argv[1:])

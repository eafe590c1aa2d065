"""lightkg benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 kgbench/run.py --workload dense_graph --seed 1 --seconds 20 --trace 0

It drives lightkg from outside through its public functions, the way a batch
user runs ``lightkg pipeline``: a closed loop of ``run_pipeline`` calls from
one process with 2 extraction workers, on inputs generated from ``--seed``
(``workloads.py``). Every output is checked against what the generator
planted; a call that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a traced run; ``BENCHMARK.json`` at the root of the repository
lists both. ``--smoke`` runs the same workloads at tiny sizes. Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the lightkg
sources under ``src/`` it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".kgbench_work"
PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    return parser.parse_args(argv)


def keep_traffic_local() -> None:
    """The only endpoint is the localhost stub: drop proxy settings so no
    request can leave the machine through one."""
    for name in PROXY_VARIABLES:
        os.environ.pop(name, None)
        os.environ.pop(name.upper(), None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "lightkg" / "__init__.py").is_file():
        print(f"error: lightkg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    keep_traffic_local()

    from bench import Bench

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workload = generate(args.workload, args.seed, work / "inputs", smoke=args.smoke)
        bench = Bench(workload, args.seconds, args.smoke, work)
        metrics = bench.traced() if args.trace else bench.end_to_end()
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            bench.tracer.write(trace_path)
            bench.notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in bench.notes:
        print(f"  {note}")
    for failure in bench.failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6f} {unit}")
    if args.trace:
        print("  self time per layer (median over traced runs):")
        for layer, values in sorted(bench.self_times.items()):
            print(f"    {layer:16} {sorted(values)[len(values) // 2]:10.4f} s")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run the benchmark once per seed and summarise each end-to-end metric.

Usage, from the root of a checkout::

    python3 kgbench/spread.py --seeds 1-10 [--workloads dense_graph,...] [--out FILE]

For every workload and end-to-end metric it prints the median and quartiles
of the per-seed values and their spread: the interquartile range as a share
of the median, the figure that ``BENCHMARK.json``'s bounds are held to
(``statistics.quantiles(values, n=4)``). ``--out`` also writes every run's
result as JSON, which is the record a performance claim cites.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            tick = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - tick, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            verdict = "within bound" if spread <= bound else "TOO WIDE"
            if spread < bound / 3:
                verdict = "ok"
            print(f"  {name:14} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:.4f} (bound {bound}) {verdict}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Tests of the benchmark itself, on the smoke-size workloads.

Run from the root of the repository: ``python3 -m pytest kgbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from bench import check_outputs  # noqa: E402
from lightkg import PipelineConfig, deserialize_graph, run_pipeline  # noqa: E402
from lightkg.graph import KnowledgeGraph  # noqa: E402
from traced import TRACED_CALLS, Tracer, patched  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("smoke", [True, False])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name, smoke):
    first = generate(name, 7, tmp_path / "a", smoke=smoke)
    second = generate(name, 7, tmp_path / "b", smoke=smoke)
    other = generate(name, 8, tmp_path / "c", smoke=smoke)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first.expected.statements == second.expected.statements
    corpus = "corpus.jsonl"
    assert (tmp_path / "a" / corpus).read_bytes() != (tmp_path / "c" / corpus).read_bytes()
    if other.expected.topology_enabled:
        assert other.expected.inferred(), "every rule has a planted chain, so inference must fire"


def test_benchmark_json_lists_generated_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "kgbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    done = _run("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "kgbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ("--workload", "dense_graph", "--seed", "1", "--seconds", "1", "--trace", "0")
    done = _run(*args, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_output_checks_catch_a_lost_edge(tmp_path):
    w = generate("dense_graph", 5, tmp_path / "inputs", smoke=True)
    config = PipelineConfig.load(w.config_path)
    summary = run_pipeline(config, w.corpus_path, tmp_path / "out")
    graph = deserialize_graph(Path(summary["outputs"]["graph"]).read_bytes(), "json")
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert check_outputs(w, config.eval_policy, graph, report, summary["counts"]) == []

    dropped = next(eid for eid, e in sorted(graph.edges.items()) if not e.inferred)
    edges = {eid: e for eid, e in graph.edges.items() if eid != dropped}
    broken = KnowledgeGraph(dict(graph.nodes), edges)
    assert check_outputs(w, config.eval_policy, broken, report, summary["counts"])


def test_traced_run_wraps_and_restores_the_stage_functions(tmp_path):
    originals = {(m.__name__, attr): getattr(m, attr) for m, attr, _, _ in TRACED_CALLS}
    w = generate("dense_graph", 5, tmp_path / "inputs", smoke=True)
    tracer = Tracer()
    with patched(tracer, "t") as captured:
        run_pipeline(PipelineConfig.load(w.config_path), w.corpus_path, tmp_path / "out")
    assert originals == {(m.__name__, attr): getattr(m, attr) for m, attr, _, _ in TRACED_CALLS}
    names = {s.name for s in tracer.of_run("t")}
    assert {name for _, _, name, _ in TRACED_CALLS} <= names
    assert "extraction.extract_chunk" in names
    assert captured.graph is not None and len(captured.chunks) == w.expected.chunks

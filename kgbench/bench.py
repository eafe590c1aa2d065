"""Measurement and output checks for one benchmark run; ``run.py`` is the
entry point and puts ``src`` on the import path before this module loads.

End-to-end mode times a closed loop of ``run_pipeline`` calls, each right
after a fixed calibration workload that measures how fast the host runs at
that moment (:func:`calibration_s`); the reported times are calibrated by it. Traced mode
alternates an untraced call with a traced one (``traced.py``) and then
measures what the spans of the pipeline's own calls cannot: the sequential
extraction pass behind ``pipeline.pool_speedup``, memory peaks under
``tracemalloc``, graph snapshots, serialization round trips and the
evaluation policy the workload does not use.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from lightkg import (
    KnowledgeGraph,
    PipelineConfig,
    content_equal,
    deserialize_graph,
    load_gold,
    pipeline,
    relation_f1,
    run_pipeline,
    serialize_graph,
    topology,
)
from lightkg.aggregation import aggregate
from lightkg.topology import load_rules, load_senses
from stub import StubProcess
from traced import Captured, ClientTimer, Tracer, patched
from workloads import Workload

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 15
MIN_TIMED_CALLS = 3
MIN_TRACED_RUNS = 2
CLIENT_PROBE_CHUNKS = 400
SNAPSHOT_REPEATS = 21
PROBE_REPEATS = 3
# Calibrated times are seconds on a host where calibration_s() takes this long.
CALIBRATION_NOMINAL_S = 0.1
CALIBRATION_ROUNDS = 10000

Metrics = dict[str, tuple[float, str]]


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_median(fn: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - tick)
    return statistics.median(samples)


def calibration_s() -> float:
    """Wall time of a fixed, stdlib-only workload of dict and tuple churn,
    with the collector off so that nothing of the program's heap enters it.

    A shared host's speed drifts by a third over minutes while one
    ``run_pipeline`` call takes about a second. Measured right before each
    call, this workload slows and speeds with the host, so a call's wall time
    over it stays steady where the wall time alone does not."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ring: list = [None] * 64
        tick = time.perf_counter()
        for i in range(CALIBRATION_ROUNDS):
            row = {j: (j, str(j)) for j in range(60)}
            ring[i % 64] = dict(row)
        return time.perf_counter() - tick
    finally:
        if was_enabled:
            gc.enable()


def calibrated(elapsed: list[float], calibration: list[float]) -> float:
    """Median of the paired ratios, in seconds at the nominal host speed."""
    ratios = (t / c for t, c in zip(elapsed, calibration))
    return statistics.median(ratios) * CALIBRATION_NOMINAL_S


def peak_mb(fn: Callable[[], object]) -> float:
    """Peak traced allocation of one call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def oracle_relation_f1(predicted: set, gold: set, policy: str) -> float:
    """Brute-force relation F1. The generator gives every entity pair at most
    one relation, so relaxed matching is one-to-one by (subject, object)."""
    if policy == "strict":
        matched = len(predicted & gold)
    else:
        by_pair = {(s, o): p for s, p, o in gold}
        matched = sum(
            1
            for s, p, o in predicted
            if (s, o) in by_pair and (p in by_pair[(s, o)] or by_pair[(s, o)] in p)
        )
    if not matched:
        return 0.0
    precision, recall = matched / len(predicted), matched / len(gold)
    return 2 * precision * recall / (precision + recall)


def check_outputs(
    w: Workload, policy: str, graph: KnowledgeGraph, report: dict, counts: dict
) -> list[str]:
    """Compare one run's graph, report and counts with the planted inputs."""
    expected = w.expected
    problems = []
    edges = {(e.source, e.predicate, e.target): e for e in graph.edges.values() if not e.inferred}
    if set(edges) != expected.edges():
        wrong = len(set(edges) ^ expected.edges())
        problems.append(f"{wrong} extracted edges differ from the planted ones")
    else:
        contexts = expected.contexts()
        support = Counter((s, p, o) for s, p, o, _, _ in expected.statements)
        if any(set(e.context.get("year")) != contexts[k] for k, e in edges.items()):
            problems.append("an edge's merged year context is wrong")
        if any(len(e.provenance) != support[k] for k, e in edges.items()):
            problems.append("an edge's provenance count is wrong")
    inferred = {(e.source, e.predicate, e.target) for e in graph.edges.values() if e.inferred}
    if inferred != expected.inferred():
        wrong = len(inferred ^ expected.inferred())
        problems.append(f"{wrong} inferred edges differ from the oracle")
    senses = {n.id: set(n.attributes.get("sense")) for n in graph.nodes.values()}
    senses = {node: labels for node, labels in senses.items() if labels}
    if senses != {k: {v} for k, v in expected.senses.items()}:
        problems.append("attached senses differ from the planted winners")
    if counts["triples"] != len(expected.statements):
        problems.append(f"{counts['triples']} triples, expected {len(expected.statements)}")
    if counts["chunks"] != expected.chunks:
        problems.append(f"{counts['chunks']} chunks, expected {expected.chunks}")
    want = oracle_relation_f1(expected.edges(), expected.gold, policy)
    if not math.isclose(report["relation"]["f1"], want, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"relation F1 {report['relation']['f1']} differs from the oracle's {want}")
    return problems


@dataclass
class TracedRun:
    run_id: str
    root: int
    captured: Captured
    timer: ClientTimer | None


class Bench:
    """One workload's run: its calls, their checks and the metrics."""

    def __init__(self, w: Workload, seconds: float, smoke: bool, work: Path) -> None:
        self.w = w
        self.seconds = seconds
        self.smoke = smoke
        self.work = work
        self.config = PipelineConfig.load(w.config_path)
        self.model = self.config.extractor == "model"
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: tuple[bytes, bytes] | None = None
        self.stub: StubProcess | None = None
        self.notes: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def start_stub(self) -> None:
        self.stub = StubProcess()
        os.environ["LIGHTKG_API_BASE"] = self.stub.base_url

    def stop_stub(self) -> None:
        if self.stub is not None:
            self.stub.stop()

    def stub_requests(self) -> int:
        return self.stub.chat_requests()

    # --- run_pipeline calls ---------------------------------------------------

    def pipeline_call(self, label: str, measure_memory: bool = False) -> float | None:
        """One timed ``run_pipeline`` call and its checks; its wall time, or
        None when it raised or its outputs could not be read. The first call
        is checked against the planted inputs, every later one byte for byte
        against the first. With ``measure_memory`` the call runs under
        ``tracemalloc`` and sets ``peak_mem_mb``; its time is then not
        representative."""
        out = self.work / "out"
        before = self.stub_requests() if self.model else 0
        try:
            if measure_memory:
                tracemalloc.start()
            tick = time.perf_counter()
            summary = run_pipeline(self.config, self.w.corpus_path, out)
            elapsed = time.perf_counter() - tick
            if measure_memory:
                self.peak_mem_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            problems = []
            if self.model:
                seen, want = self.stub_requests() - before, self.w.expected.requests_per_run
                if seen != want:
                    problems.append(f"stub saw {seen} requests, expected {want}")
            problems += self.check_call(summary, out)
        except Exception as exc:  # a failed call is counted, not fatal
            self.record(label, [f"raised {type(exc).__name__}: {exc}"])
            return None
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        self.record(label, problems)
        return elapsed

    def check_call(self, summary: dict, out: Path) -> list[str]:
        graph_bytes = Path(summary["outputs"]["graph"]).read_bytes()
        outputs = (graph_bytes, (out / "report.json").read_bytes())
        if self.reference is not None:
            if outputs != self.reference:
                return ["graph or report bytes differ from the first call's"]
            return []
        graph = deserialize_graph(outputs[0], self.config.export_format)
        report = json.loads(outputs[1])
        problems = check_outputs(
            self.w, self.config.eval_policy, graph, report, summary["counts"]
        )
        self.reference = outputs
        self.ref_graph, self.ref_report = graph, report
        self.ref_triples = summary["counts"]["triples"]
        return problems

    def loop(
        self, seconds: float, minimum: int, after_each: Callable[[], None] | None = None
    ) -> tuple[list[float], list[float]]:
        """Closed loop of timed calls for ``seconds``, at least ``minimum``;
        the wall times of the calls that succeeded, and the calibration time
        measured right before each."""
        times: list[float] = []
        calibrations: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(times) < minimum or time.perf_counter() < deadline:
            calibration = calibration_s()
            elapsed = self.pipeline_call(f"call {self.attempted + 1}")
            if elapsed is None:
                if len(self.failures) > 3:
                    break
            else:
                times.append(elapsed)
                calibrations.append(calibration)
            if after_each is not None:
                after_each()
        if not times:
            raise RuntimeError("every timed call failed: " + "; ".join(self.failures[-3:]))
        return times, calibrations

    # --- set-up ---------------------------------------------------------------

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Set-up time of fresh processes, plus stub start-up on the model
        workload, and the calibration time measured right before each."""
        times, calibrations = [], []
        for _ in range(2 if self.smoke else SETUP_REPEATS):
            calibrations.append(calibration_s())
            stub = StubProcess() if self.model else None
            try:
                argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.w.config_path)]
                done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
                if done.returncode != 0:
                    raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-800:]}")
                probe = json.loads(done.stdout.strip().splitlines()[-1])
                times.append(probe["setup_s"] + (stub.startup_s if stub else 0.0))
            finally:
                if stub is not None:
                    stub.stop()
        return times, calibrations

    # --- end-to-end mode ------------------------------------------------------

    def end_to_end(self) -> Metrics:
        setup_times, setup_calibrations = self.measure_setup()
        if self.model:
            self.start_stub()
        try:
            # The untimed first call is checked against the planted inputs
            # and gives the memory peak.
            self.pipeline_call("reference call", measure_memory=True)
            if self.reference is None:
                raise RuntimeError("the reference call failed: " + self.failures[-1])
            times, calibrations = self.loop(self.seconds, 1 if self.smoke else MIN_TIMED_CALLS)
        finally:
            self.stop_stub()
        pipeline_s = calibrated(times, calibrations)
        q1, wall_s, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        self.notes.append(
            f"{len(times)} timed calls: wall time median {wall_s:.4f} s, quartiles "
            f"{q1:.4f}-{q3:.4f} s; calibration median {statistics.median(calibrations):.4f} s "
            f"(nominal {CALIBRATION_NOMINAL_S} s)"
        )
        self.notes.append(
            f"set-up: wall time median {statistics.median(setup_times):.4f} s "
            f"over {len(setup_times)} fresh processes"
        )
        return {
            "pipeline_s": (pipeline_s, "s"),
            "triples_per_s": (self.ref_triples / pipeline_s, "1/s"),
            "setup_s": (calibrated(setup_times, setup_calibrations), "s"),
            "peak_mem_mb": (self.peak_mem_mb, "MB"),
            "relation_f1": (self.ref_report["relation"]["f1"], "ratio"),
            "success_rate": (1 - len(self.failures) / self.attempted, "ratio"),
        }

    # --- traced mode ----------------------------------------------------------

    def traced(self) -> Metrics:
        self.tracer = Tracer()
        self.traced_runs: list[TracedRun] = []
        self.start_stub()
        try:
            self.pipeline_call("reference call")
            if self.reference is None:
                raise RuntimeError("the reference call failed: " + self.failures[-1])
            # Half the time goes to traced runs; the probes after them take
            # about the other half.
            untraced, calibrations = self.loop(
                self.seconds / 2, 1 if self.smoke else MIN_TRACED_RUNS, after_each=self.traced_run
            )
            if not self.traced_runs:
                raise RuntimeError("every traced run failed: " + "; ".join(self.failures[-3:]))
            return self.layer_metrics(untraced, calibrations)
        finally:
            self.stop_stub()

    def traced_run(self) -> None:
        """``run_pipeline`` with the stage functions wrapped in spans; its
        outputs must equal the untraced calls'."""
        run_id = f"traced-{self.attempted + 1}"
        out = self.work / "traced_out"
        timer = ClientTimer(self.tracer, run_id) if self.model else None
        before = self.stub_requests() if self.model else 0
        try:
            with patched(self.tracer, run_id, timer) as captured:
                with self.tracer.span("pipeline.run", run_id) as root:
                    summary = run_pipeline(self.config, self.w.corpus_path, out)
            problems = self.check_call(summary, out)
            if not content_equal(captured.graph, self.ref_graph):
                problems.append("traced graph is not content-equal to run_pipeline's")
            if timer is not None:
                seen = self.stub_requests() - before
                if seen != timer.requests:
                    problems.append(
                        f"stub saw {seen} requests, client.requests is {timer.requests}"
                    )
        except Exception as exc:  # a failed call is counted, not fatal
            self.record(run_id, [f"raised {type(exc).__name__}: {exc}"])
            return
        self.record(run_id, problems)
        self.traced_runs.append(TracedRun(run_id, root, captured, timer))

    def client_probe(self, chunks: list) -> ClientTimer:
        """The model extractor over ``chunks`` against the stub, for workloads
        whose own pipeline makes no request."""
        timer = ClientTimer(Tracer(), "client-probe")
        before = self.stub_requests()
        with patched(timer.tracer, timer.run_id, timer):
            runner = pipeline.build_extract_runner(replace(self.config, extractor="model"))
            with ThreadPoolExecutor(max_workers=self.config.worker_count) as pool:
                list(pool.map(runner, chunks))
        seen = self.stub_requests() - before
        self.record("client probe", [] if seen == timer.requests else [
            f"stub saw {seen} requests, client sent {timer.requests}"])
        return timer

    def layer_metrics(self, untraced: list[float], calibrations: list[float]) -> Metrics:
        config = self.config
        runs = self.traced_runs
        last = runs[-1].captured
        spans = {run.run_id: self.tracer.of_run(run.run_id) for run in runs}

        def span_s(name: str, run_ids=None) -> float:
            run_ids = run_ids or [r.run_id for r in runs]
            per_run = [sum(s.duration for s in spans[r] if s.name == name) for r in run_ids]
            return statistics.median(per_run)

        totals = [next(s.duration for s in spans[r.run_id] if s.span_id == r.root) for r in runs]
        stage_sums = [sum(s.duration for s in spans[r.run_id] if s.parent == r.root) for r in runs]
        total_s = statistics.median(totals)
        extract_s = span_s("extraction.extract")

        if self.model:
            timer, client_chunks = runs[-1].timer, len(last.chunks)
            latencies = [ms for run in runs for ms in run.timer.latencies_ms]
        else:
            probe_chunks = last.chunks[:CLIENT_PROBE_CHUNKS]
            timer, client_chunks = self.client_probe(probe_chunks), len(probe_chunks)
            latencies = timer.latencies_ms

        runner = pipeline.build_extract_runner(config)
        tick = time.perf_counter()
        for chunk in last.chunks:
            runner(chunk)
        sequential_s = time.perf_counter() - tick

        accepted = sum(len(r.triples) for r in last.results)
        rejected_lines = sum(len(r.rejected_lines) for r in last.results)
        aggregated = last.outcome.graph

        rules = load_rules(config.rules_path)
        senses = load_senses(config.senses_path)
        topology_ids = [r.run_id for r in runs]
        topo_graph = last.graph
        if not config.topology_enabled:
            # Topology is off here; run its pass on the aggregated graph.
            with patched(self.tracer, "topology-probe"):
                topo_graph = topology.discover(aggregated, rules, senses, config.topology)
            spans["topology-probe"] = self.tracer.of_run("topology-probe")
            topology_ids = ["topology-probe"]
        aggregation_peak = peak_mb(
            lambda: aggregate(last.results, config.normalization, config.base_confidence)
        )
        topology_peak = peak_mb(
            lambda: topology.discover(aggregated, rules, senses, config.topology)
        )

        final = last.graph
        snapshot_s = timed_median(
            lambda: KnowledgeGraph(dict(final.nodes), dict(final.edges)), SNAPSHOT_REPEATS
        )
        roundtrip_s = {
            fmt: timed_median(
                lambda: deserialize_graph(serialize_graph(final, fmt), fmt), PROBE_REPEATS
            )
            for fmt in ("json", "graphml")
        }
        gold = load_gold(config.gold_path, config.normalization)
        # The traced run scores with the workload's policy; time the other one here.
        eval_s = {}
        for step, policy in (("strict", "strict"), ("relaxed", "predicate_relaxed")):
            if policy == config.eval_policy:
                eval_s[step] = span_s(f"evaluation.{step}")
            else:
                eval_s[step] = timed_median(
                    lambda: relation_f1(final, gold, policy), PROBE_REPEATS
                )

        self.self_times = {}
        for run in runs:
            for layer, value in self.tracer.self_times(run.run_id).items():
                self.self_times.setdefault(layer, []).append(value)
        untraced_s = statistics.median(untraced)
        self.notes.append(
            f"{len(runs)} traced runs, {len(untraced)} untraced calls "
            f"(median {untraced_s:.4f} s); span metrics are medians over traced runs"
        )
        requests_n = timer.requests
        return {
            "extraction.read_corpus_s": (span_s("extraction.read_corpus"), "s"),
            "extraction.chunk_s": (span_s("extraction.chunk"), "s"),
            "extraction.extract_s": (extract_s, "s"),
            "extraction.chunks": (len(last.chunks), "count"),
            "extraction.triples": (accepted, "count"),
            "extraction.accepted_line_ratio": (
                accepted / max(1, accepted + rejected_lines), "ratio"
            ),
            "extraction.repair_ratio": (
                sum(1 for r in last.results if r.repaired) / max(1, len(last.chunks)), "ratio"
            ),
            "client.request_ms_p50": (percentile(latencies, 50), "ms"),
            "client.request_ms_p99": (percentile(latencies, 99), "ms"),
            "client.requests": (requests_n, "count"),
            "client.requests_per_chunk": (requests_n / max(1, client_chunks), "ratio"),
            "client.retries": (requests_n - len(timer.latencies_ms), "count"),
            "client.failures": (timer.failures, "count"),
            "pipeline.pool_speedup": (sequential_s / extract_s, "ratio"),
            "pipeline.overhead_s": (total_s - statistics.median(stage_sums), "s"),
            "pipeline.wall_s": (untraced_s, "s"),
            "pipeline.calibration_s": (statistics.median(calibrations), "s"),
            "aggregation.aggregate_s": (span_s("aggregation.aggregate"), "s"),
            "aggregation.merge_ratio": (1 - aggregated.edge_count / max(1, accepted), "ratio"),
            "aggregation.rejected": (len(last.outcome.rejected), "count"),
            "aggregation.peak_mb": (aggregation_peak, "MB"),
            "graph.snapshot_s": (snapshot_s, "s"),
            "topology.reinforce_s": (span_s("topology.reinforce", topology_ids), "s"),
            "topology.senses_s": (span_s("topology.senses", topology_ids), "s"),
            "topology.infer_s": (span_s("topology.infer", topology_ids), "s"),
            "topology.inferred_edges": (
                sum(1 for e in topo_graph.edges.values() if e.inferred), "count"
            ),
            "topology.senses_attached": (
                sum(1 for n in topo_graph.nodes.values() if n.attributes.get("sense")), "count"
            ),
            "topology.peak_mb": (topology_peak, "MB"),
            "serialize.export_s": (span_s("serialize.serialize_graph"), "s"),
            "serialize.parse_s": (span_s("serialize.parse"), "s"),
            "serialize.graph_bytes": (len(self.reference[0]), "bytes"),
            "serialize.json_roundtrip_s": (roundtrip_s["json"], "s"),
            "serialize.graphml_roundtrip_s": (roundtrip_s["graphml"], "s"),
            "evaluation.load_gold_s": (span_s("evaluation.load_gold"), "s"),
            "evaluation.strict_s": (eval_s["strict"], "s"),
            "evaluation.relaxed_s": (eval_s["relaxed"], "s"),
            "trace.total_s": (total_s, "s"),
            "trace.overhead_s": (total_s - untraced_s, "s"),
        }

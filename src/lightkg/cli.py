"""Command line front end.

Subcommands mirror the pipeline stages so each one is independently
runnable; ``pipeline`` chains them. Exit codes: 1 usage, 2 input parse,
3 model endpoint, 4 internal.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .aggregation import aggregate_triples
from .client import ModelClientError
from .evaluation import RELATION_POLICIES, GoldFormatError, evaluate_run
from .extraction import CorpusFormatError, read_corpus
from .graph import GraphIntegrityError
from .pipeline import (
    EXTRACTORS,
    ConfigError,
    PipelineConfig,
    StageError,
    configured_file,
    discover_stage,
    extract_corpus,
    filter_for_export,
    run_pipeline,
)
from .serialize import (
    GraphParseError,
    deserialize_graph,
    format_for_path,
    serialize_graph,
    triples_from_jsonl,
    triples_to_jsonl,
)
from .topology import RuleFileError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ENDPOINT = 3
EXIT_INTERNAL = 4

_PARSE_ERRORS = (
    GraphParseError, GraphIntegrityError, CorpusFormatError, RuleFileError, GoldFormatError
)


class _UsageError(Exception):
    pass


# A directory where a file is expected, for input or output, and a file where
# a directory is expected, are usage errors; each message names the path.
# So is an output path whose directory does not exist (``_write_output``).
_USAGE_ERRORS = (
    _UsageError, ConfigError, IsADirectoryError, NotADirectoryError, FileExistsError
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _write_output(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except FileNotFoundError as exc:
        raise _UsageError(f"output directory does not exist: {path}") from exc


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.load(configured_file(args.config, "config file"))
    return PipelineConfig()


def build_parser() -> _Parser:
    parser = _Parser(prog="lightkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract triples from a corpus")
    p_extract.add_argument("corpus")
    p_extract.add_argument("-o", "--output", required=True)
    p_extract.add_argument("-c", "--config", help="pipeline config json")
    p_extract.add_argument("--extractor", choices=EXTRACTORS)
    p_extract.add_argument("--no-context", action="store_true")
    p_extract.set_defaults(handler=_cmd_extract)

    p_agg = sub.add_parser("aggregate", help="fold triples jsonl into a graph")
    p_agg.add_argument("triples")
    p_agg.add_argument("-o", "--output", required=True)
    p_agg.add_argument("-c", "--config", help="pipeline config json")
    p_agg.set_defaults(handler=_cmd_aggregate)

    p_disc = sub.add_parser("discover", help="topology scoring and inference")
    p_disc.add_argument("graph")
    p_disc.add_argument("--rules", required=True)
    p_disc.add_argument("--senses")
    p_disc.add_argument("-o", "--output", required=True)
    p_disc.add_argument("-c", "--config", help="pipeline config json")
    p_disc.set_defaults(handler=_cmd_discover)

    p_eval = sub.add_parser("eval", help="score a graph against gold triples")
    p_eval.add_argument("graph")
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--policy", choices=RELATION_POLICIES, default="strict")
    p_eval.add_argument("--include-inferred", action="store_true")
    p_eval.add_argument("-o", "--output", help="also write the report json here")
    p_eval.set_defaults(handler=_cmd_eval)

    p_pipe = sub.add_parser("pipeline", help="full run: corpus to scored graph")
    p_pipe.add_argument("corpus")
    p_pipe.add_argument("-c", "--config", required=True)
    p_pipe.add_argument("-o", "--output", required=True, help="output directory")
    p_pipe.set_defaults(handler=_cmd_pipeline)

    return parser


def _cmd_extract(args) -> int:
    config = _load_config(args)
    overrides = {}
    if args.extractor:
        overrides["extractor"] = args.extractor
    if args.no_context:
        overrides["include_context"] = False
    config = replace(config, **overrides)
    documents = read_corpus(configured_file(args.corpus, "corpus"))
    _, results = extract_corpus(config, documents)
    triples = [t for r in results for t in r.triples]
    _write_output(args.output, triples_to_jsonl(triples))
    rejected = sum(len(r.rejected_lines) for r in results)
    print(f"extracted {len(triples)} triples ({rejected} rejected lines) -> {args.output}")
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    config = _load_config(args)
    triples = triples_from_jsonl(configured_file(args.triples, "triples file"))
    outcome = aggregate_triples(triples, config.normalization, config.base_confidence)
    fmt = format_for_path(args.output)
    _write_output(args.output, serialize_graph(outcome.graph, fmt))
    print(
        f"aggregated {outcome.graph.node_count} nodes, {outcome.graph.edge_count} edges "
        f"({len(outcome.rejected)} rejected triples) -> {args.output}"
    )
    return EXIT_OK


def _cmd_discover(args) -> int:
    config = _load_config(args)
    graph_path = configured_file(args.graph, "graph file")
    graph = deserialize_graph(graph_path, format_for_path(graph_path))
    rules = configured_file(args.rules, "rules file")
    senses = configured_file(args.senses, "senses file") if args.senses else None
    result = discover_stage(config, graph, rules, senses)
    fmt = format_for_path(args.output)
    _write_output(
        args.output,
        serialize_graph(filter_for_export(result, config.confidence_threshold), fmt),
    )
    inferred = sum(1 for e in result.edges.values() if e.inferred)
    print(f"discovered {inferred} inferred edges -> {args.output}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    graph_path = configured_file(args.graph, "graph file")
    gold_path = configured_file(args.gold, "gold file")
    report = evaluate_run(
        graph_path, gold_path, policy=args.policy, include_inferred=args.include_inferred
    )
    print(report.render_table())
    if args.output:
        _write_output(args.output, (report.to_json() + "\n").encode("utf-8"))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    corpus = configured_file(args.corpus, "corpus")
    summary = run_pipeline(config, corpus, args.output)
    counts = summary["counts"]
    print(
        f"pipeline done: {counts['nodes']} nodes, {counts['edges']} edges "
        f"({counts['inferred_edges']} inferred) -> {summary['outputs']['graph']}"
    )
    return EXIT_OK


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, _USAGE_ERRORS):
        return EXIT_USAGE
    if isinstance(exc, _PARSE_ERRORS):
        return EXIT_INPUT
    if isinstance(exc, ModelClientError):
        return EXIT_ENDPOINT
    if isinstance(exc, StageError) and exc.__cause__ is not None:
        return _exit_code_for(exc.__cause__)
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (*_USAGE_ERRORS, StageError, *_PARSE_ERRORS, ModelClientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

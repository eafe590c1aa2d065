"""Command line front end.

Each subcommand reads its input, calls the :mod:`lightkg.pipeline` stage
function that ``run_pipeline`` calls, with the config of ``-c`` or the
default one, and writes its output. The rules, senses and gold files default
to the config's ``rules_path``, ``senses_path`` and ``gold_path``. Exit
codes: 1 usage, 2 input parse, 3 model endpoint, 4 internal.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable

from .client import ModelClientError
from .evaluation import RELATION_POLICIES, GoldFormatError
from .extraction import CorpusFormatError, ExtractionResult, read_corpus
from .graph import GraphIntegrityError
from .pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    aggregate_stage,
    configured_file,
    discover_stage,
    evaluate_stage,
    export_stage,
    extract_stage,
    run_pipeline,
    triples_jsonl,
    write_blocks,
)
from .serialize import (
    GraphParseError,
    deserialize_graph,
    format_for_path,
    serialize_graph,
    triples_from_jsonl,
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


def _write_output(path: str, blocks: Iterable[bytes]) -> None:
    try:
        write_blocks(path, blocks)
    except FileNotFoundError as exc:
        raise _UsageError(f"output directory does not exist: {path}") from exc


def _load_config(path: str | None) -> PipelineConfig:
    if path:
        return PipelineConfig.load(configured_file(path, "config file"))
    return PipelineConfig()


def _input_file(flag: str | None, field: str | None, what: str) -> Path | None:
    """The file ``flag`` names, or else the config's ``field``; None if
    neither names one."""
    path = flag or field
    return configured_file(path, what) if path else None


def build_parser() -> _Parser:
    parser = _Parser(prog="lightkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, config_required: bool = False) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.add_argument("-c", "--config", required=config_required, help="pipeline config json")
        p.set_defaults(handler=handler)
        return p

    p_extract = command("extract", _cmd_extract, "extract triples from a corpus")
    p_extract.add_argument("corpus")
    p_extract.add_argument("-o", "--output", required=True)

    p_agg = command("aggregate", _cmd_aggregate, "fold triples jsonl into a graph")
    p_agg.add_argument("triples")
    p_agg.add_argument("-o", "--output", required=True)

    p_disc = command("discover", _cmd_discover, "topology scoring and inference")
    p_disc.add_argument("graph")
    p_disc.add_argument("--rules", help="default: rules_path")
    p_disc.add_argument("--senses", help="default: senses_path")
    p_disc.add_argument("-o", "--output", required=True)

    p_eval = command("eval", _cmd_eval, "score a graph against gold triples")
    p_eval.add_argument("graph")
    p_eval.add_argument("--gold", help="default: gold_path")
    p_eval.add_argument("--policy", choices=RELATION_POLICIES, help="default: eval_policy")
    p_eval.add_argument("-o", "--output", help="also write the report json here")

    p_pipe = command("pipeline", _cmd_pipeline, "full run: corpus to scored graph", True)
    p_pipe.add_argument("corpus")
    p_pipe.add_argument("-o", "--output", required=True, help="output directory")

    return parser


def _cmd_extract(args, config: PipelineConfig) -> None:
    documents = read_corpus(configured_file(args.corpus, "corpus"))
    results, counts = extract_stage(config, documents)
    _write_output(args.output, triples_jsonl(results))
    triples, rejected = counts["triples"], counts["rejected_lines"]
    print(f"extracted {triples} triples ({rejected} rejected lines) -> {args.output}")


def _cmd_aggregate(args, config: PipelineConfig) -> None:
    triples = triples_from_jsonl(configured_file(args.triples, "triples file"))
    outcome = aggregate_stage(config, [ExtractionResult(triples)])
    _write_output(args.output, [serialize_graph(outcome.graph, format_for_path(args.output))])
    print(
        f"aggregated {outcome.graph.node_count} nodes, {outcome.graph.edge_count} edges "
        f"({len(outcome.rejected)} rejected triples) -> {args.output}"
    )


def _cmd_discover(args, config: PipelineConfig) -> None:
    graph_path = configured_file(args.graph, "graph file")
    graph = deserialize_graph(graph_path, format_for_path(graph_path))
    rules = _input_file(args.rules, config.rules_path, "rules file")
    senses = _input_file(args.senses, config.senses_path, "senses file")
    result = discover_stage(config, graph, rules, senses)
    data, _ = export_stage(config, result, format_for_path(args.output))
    _write_output(args.output, [data])
    inferred = sum(1 for e in result.edges.values() if e.inferred)
    print(f"discovered {inferred} inferred edges -> {args.output}")


def _cmd_eval(args, config: PipelineConfig) -> None:
    graph_path = configured_file(args.graph, "graph file")
    gold_path = _input_file(args.gold, config.gold_path, "gold file")
    if gold_path is None:
        raise _UsageError("no gold file: pass --gold or set gold_path in the config")
    report = evaluate_stage(config, graph_path, gold_path, args.policy)
    print(report.render_table())
    if args.output:
        _write_output(args.output, [(report.to_json() + "\n").encode("utf-8")])


def _cmd_pipeline(args, config: PipelineConfig) -> None:
    corpus = configured_file(args.corpus, "corpus")
    summary = run_pipeline(config, corpus, args.output)
    counts = summary["counts"]
    print(
        f"pipeline done: {counts['nodes']} nodes, {counts['edges']} edges "
        f"({counts['inferred_edges']} inferred) -> {summary['outputs']['graph']}"
    )


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
        args.handler(args, _load_config(args.config))
        return EXIT_OK
    except (*_USAGE_ERRORS, StageError, *_PARSE_ERRORS, ModelClientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

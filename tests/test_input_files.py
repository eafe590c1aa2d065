"""Input files: every JSON and JSONL reader decodes UTF-8 and parses JSON the
same way, and reports a bad file as its own input error with a position."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lightkg.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from lightkg.evaluation import GoldFormatError, load_gold
from lightkg.extraction import CorpusFormatError, read_corpus
from lightkg.pipeline import ConfigError, PipelineConfig, load_fixtures, run_pipeline
from lightkg.serialize import (
    GraphParseError,
    deserialize_graph,
    read_jsonl,
    triples_from_jsonl,
    triples_to_jsonl,
)
from lightkg.topology import RuleFileError, load_rules, load_senses

DATA = Path(__file__).parent / "data"
GOLDEN_GRAPH = DATA / "golden" / "pattern_graph.json"

# Characters str.splitlines() breaks at that a JSON string may hold raw.
SEPARATORS = "\u0085\u2028\u2029"

# reader name -> (reader, its error class, whether the input is JSONL)
READERS = {
    "corpus": (read_corpus, CorpusFormatError, True),
    "gold": (load_gold, GoldFormatError, True),
    "config": (PipelineConfig.load, ConfigError, False),
    "fixtures": (load_fixtures, ConfigError, False),
    "rules": (load_rules, RuleFileError, False),
    "senses": (load_senses, RuleFileError, False),
    "triples": (triples_from_jsonl, GraphParseError, True),
    "graph": (deserialize_graph, GraphParseError, False),
}
IN_MEMORY = ("triples", "graph")

# A first line every JSONL reader accepts: a corpus document, a gold triple
# and an extracted triple at once.
GOOD_LINE = json.dumps(
    {
        "id": "a",
        "text": "ok",
        "subject": "a",
        "predicate": "p",
        "object": "b",
        "provenance": {"source_id": "a", "chunk_index": 0},
    }
).encode() + b"\n"


# A record holding a 5,000-digit integer: past the 4,300 digits json.loads
# converts by default, for which it raises a plain ValueError rather than a
# JSONDecodeError.
HUGE_INTEGER_LINE = b'{"id": ' + b"9" * 5000 + b"}\n"


def run_reader(name: str, tmp_path: Path, content: bytes) -> None:
    """Feed ``content`` to reader ``name``, in memory or through a file."""
    reader, _, _ = READERS[name]
    if name in IN_MEMORY:
        reader(content)
    else:
        path = tmp_path / f"{name}.input"
        path.write_bytes(content)
        reader(path)


def line_prefix(name: str, tmp_path: Path) -> str:
    """How reader ``name``'s messages start before a line number."""
    return "line " if name in IN_MEMORY else f"{tmp_path / f'{name}.input'}:"


@pytest.mark.parametrize("name", READERS)
def test_undecodable_bytes_raise_the_readers_error(name, tmp_path):
    _, error, jsonl = READERS[name]
    content = (GOOD_LINE if jsonl else b"{\n") + b'"\xff"\n'
    with pytest.raises(error) as err:
        run_reader(name, tmp_path, content)
    offset = content.index(b"\xff")
    assert str(err.value).startswith(
        f"{line_prefix(name, tmp_path)}2: invalid utf-8 at byte {offset}: "
    )


@pytest.mark.parametrize("name", READERS)
def test_invalid_json_raises_the_readers_error(name, tmp_path):
    _, error, jsonl = READERS[name]
    content = (GOOD_LINE if jsonl else b"{\n") + b'"x": }\n'
    with pytest.raises(error) as err:
        run_reader(name, tmp_path, content)
    message = str(err.value)
    if jsonl:
        assert message.startswith(f"{line_prefix(name, tmp_path)}2: invalid json: ")
    elif name in IN_MEMORY:
        assert message.startswith("invalid json at offset 7: ")
    else:
        assert message.startswith(f"{tmp_path / f'{name}.input'}: invalid json: ")
        assert message.endswith("at line 2 column 6")

    content = (GOOD_LINE if jsonl else b"") + HUGE_INTEGER_LINE
    with pytest.raises(error) as err:
        run_reader(name, tmp_path, content)
    if jsonl:
        where = f"{line_prefix(name, tmp_path)}2: "
    else:
        where = "" if name in IN_MEMORY else f"{tmp_path / f'{name}.input'}: "
    assert str(err.value).startswith(f"{where}invalid json: Exceeds the limit")


def test_jsonl_lines_end_where_text_mode_reading_ends_them(tmp_path):
    records = [{"id": f"d{n}", "text": f"one{sep}two"} for n, sep in enumerate(SEPARATORS)]
    lines = [json.dumps(r, ensure_ascii=False).encode() for r in records]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(lines[0] + b"\r\n" + lines[1] + b"\r" + lines[2] + b"\n\nnot json\n")
    with pytest.raises(CorpusFormatError, match=r":5: invalid json"):
        read_corpus(path)
    path.write_bytes(lines[0] + b"\r\n" + lines[1] + b"\r" + lines[2] + b"\n")
    docs = read_corpus(path)
    assert [(d.doc_id, d.text) for d in docs] == [(r["id"], r["text"]) for r in records]


# A raw "\r" or "\n" cannot stand inside a JSON string; these can.
_jsonl_records = st.builds(
    lambda text: json.dumps({"text": text}, ensure_ascii=False),
    st.text(st.sampled_from(["a", " ", "\u2028", "\u0085", "\u2029", "\t"]), max_size=4),
)


@settings(max_examples=300)
@given(
    pieces=st.lists(
        st.tuples(
            st.one_of(_jsonl_records, st.sampled_from(["", " ", "\t"])),
            st.sampled_from(["\n", "\r\n", "\r"]) | st.just("\n"),
        ),
        max_size=6,
    ),
    last=st.one_of(_jsonl_records, st.just("")),
)
def test_jsonl_lines_and_numbers_equal_the_line_break_split(pieces, last):
    text = "".join(record + end for record, end in pieces) + last
    expected = [
        (f"line {lineno}", json.loads(line))
        for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), 1)
        if line.strip()
    ]
    assert list(read_jsonl(text.encode(), GraphParseError)) == expected


def test_triples_with_line_separators_round_trip():
    ts = [
        support.triple(f"a{sep}b", f"p{sep}q", f"{sep}c", {"note": [f"x{sep}y"]})
        for sep in SEPARATORS
    ]
    data = triples_to_jsonl(ts)
    assert all(sep.encode() in data for sep in SEPARATORS)  # written raw
    assert data.count(b"\n") == len(ts)
    assert triples_from_jsonl(data) == ts


def test_stage_chain_equals_pipeline_on_line_separators(tmp_path):
    text = (
        "Ada\u2028Lovelace mentored Charles\u0085Babbage in 1843. "
        "The Analytical\u2029Engine is a machine."
    )
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(json.dumps({"id": "d", "text": text}, ensure_ascii=False).encode() + b"\n")
    config_path = str(DATA / "demo_config_pattern.json")
    summary = run_pipeline(PipelineConfig.load(config_path), corpus, tmp_path / "run")
    triples, aggregated, final = (tmp_path / n for n in ("t.jsonl", "agg.json", "final.json"))
    assert main(["extract", str(corpus), "-c", config_path, "-o", str(triples)]) == EXIT_OK
    assert all(sep.encode() in triples.read_bytes() for sep in SEPARATORS)
    assert main(["aggregate", str(triples), "-c", config_path, "-o", str(aggregated)]) == EXIT_OK
    assert main(
        [
            "discover", str(aggregated),
            "--rules", str(DATA / "demo_rules.json"),
            "--senses", str(DATA / "demo_senses.json"),
            "-c", config_path,
            "-o", str(final),
        ]
    ) == EXIT_OK
    assert triples.read_bytes() == Path(summary["outputs"]["triples"]).read_bytes()
    assert final.read_bytes() == Path(summary["outputs"]["graph"]).read_bytes()
    assert summary["counts"]["edges"] == 2


def _fixture_config(tmp_path: Path, bad: Path) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"extractor": "fixture", "fixtures_path": str(bad)}))
    return config


# input -> (argv given the undecodable file and a scratch directory, exit code)
CLI_CASES = {
    "corpus": (lambda bad, tmp: ["extract", bad, "-o", f"{tmp}/t.jsonl"], EXIT_INPUT),
    "gold": (lambda bad, tmp: ["eval", str(GOLDEN_GRAPH), "--gold", bad], EXIT_INPUT),
    "rules": (
        lambda bad, tmp: ["discover", str(GOLDEN_GRAPH), "--rules", bad, "-o", f"{tmp}/g.json"],
        EXIT_INPUT,
    ),
    "senses": (
        lambda bad, tmp: [
            "discover", str(GOLDEN_GRAPH), "--rules", str(DATA / "demo_rules.json"),
            "--senses", bad, "-o", f"{tmp}/g.json",
        ],
        EXIT_INPUT,
    ),
    "triples": (lambda bad, tmp: ["aggregate", bad, "-o", f"{tmp}/g.json"], EXIT_INPUT),
    "graph": (
        lambda bad, tmp: [
            "discover", bad, "--rules", str(DATA / "demo_rules.json"), "-o", f"{tmp}/g.json",
        ],
        EXIT_INPUT,
    ),
    "config": (
        lambda bad, tmp: ["pipeline", str(DATA / "demo_corpus.jsonl"), "-c", bad, "-o", tmp],
        EXIT_USAGE,
    ),
    "fixtures": (
        lambda bad, tmp: [
            "extract", str(DATA / "demo_corpus.jsonl"),
            "-c", str(_fixture_config(Path(tmp), Path(bad))), "-o", f"{tmp}/t.jsonl",
        ],
        EXIT_USAGE,
    ),
}


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_exit_code_for_an_undecodable_file(name, tmp_path, capsys):
    argv, expected = CLI_CASES[name]
    bad = tmp_path / f"{name}.input"
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for content, problem in (
        (b'{"id": "\xff"}\n', "invalid utf-8"),
        (HUGE_INTEGER_LINE, "digits"),
    ):
        bad.write_bytes(content)
        assert main(argv(str(bad), str(out_dir))) == expected
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and problem in err, err

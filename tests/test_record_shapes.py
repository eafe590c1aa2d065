"""Record shapes: every record of every input file is checked against the one
shape ``serialize.SHAPES`` declares for it, so a record of the wrong shape is
an input error (exit 2) that names the record, never an internal error or a
silently wrong value."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lightkg.cli import EXIT_ENDPOINT, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from lightkg.evaluation import GoldFormatError, load_gold
from lightkg.extraction import CorpusFormatError, read_corpus
from lightkg.graph import ContextMap, GraphIntegrityError
from lightkg.pipeline import ConfigError, PipelineConfig, load_fixtures
from lightkg.serialize import (
    SHAPES,
    GraphParseError,
    decode_record,
    deserialize_graph,
    serialize_graph,
    triples_from_jsonl,
)
from lightkg.topology import RuleFileError, load_rules, load_senses

DATA = Path(__file__).parent / "data"
GOLDEN_GRAPH = DATA / "golden" / "pattern_graph.json"
CORPUS = DATA / "demo_corpus.jsonl"
RULES = DATA / "demo_rules.json"
FIXTURES = json.loads((DATA / "demo_fixtures.json").read_text())

PROVENANCE = {"source_id": "d1", "chunk_index": 0, "extractor": "pattern"}
TRIPLE = {
    "subject": "ada",
    "predicate": "mentored",
    "object": "charles",
    "context": {"year": ["1843"]},
    "provenance": PROVENANCE,
}
EDGE = {
    "source": "ada",
    "target": "charles",
    "predicate": "mentored",
    "context": {"year": ["1843"]},
    "confidence": 0.5,
    "inferred": False,
    "provenance": [PROVENANCE],
}
GRAPH = {
    "nodes": [{"id": "ada", "attributes": {"kind": ["person"]}}, {"id": "charles"}],
    "edges": [EDGE],
}
RULE = {"name": "r", "pattern": ["mentored", "advised"], "inferred_predicate": "lineage"}
SENSE = {"sense_label": "element", "cues": ["metal"]}
CONFIG = {
    "extractor": "pattern",
    "include_context": True,
    "normalization": {"collapse_whitespace": True},
    "topology": {"max_path_length": 4, "base_path_weight": 0.7},
    "base_confidence": 0.5,
    "max_chunk_chars": 400,
    "rules_path": str(RULES),
    "senses_path": str(DATA / "demo_senses.json"),
    "gold_path": str(DATA / "demo_gold.jsonl"),
    "eval_policy": "strict",
    "confidence_threshold": 0.0,
}


def replaced(record: dict, **fields) -> dict:
    return {**record, **fields}


def jsonl(*records) -> bytes:
    return b"".join(json.dumps(r).encode() + b"\n" for r in records)


# file kind -> (file name, argv given the file and a temporary directory)
COMMANDS = {
    "corpus": ("corpus.jsonl", lambda f, tmp: ["extract", f, "-o", f"{tmp}/t.jsonl"]),
    "gold": ("gold.jsonl", lambda f, tmp: ["eval", str(GOLDEN_GRAPH), "--gold", f]),
    "rules": (
        "rules.json",
        lambda f, tmp: ["discover", str(GOLDEN_GRAPH), "--rules", f, "-o", f"{tmp}/g.json"],
    ),
    "senses": (
        "senses.json",
        lambda f, tmp: [
            "discover", str(GOLDEN_GRAPH), "--rules", str(RULES), "--senses", f,
            "-o", f"{tmp}/g.json",
        ],
    ),
    "triples": ("triples.jsonl", lambda f, tmp: ["aggregate", f, "-o", f"{tmp}/g.json"]),
    "graph": (
        "graph.json",
        lambda f, tmp: ["discover", f, "--rules", str(RULES), "-o", f"{tmp}/g.json"],
    ),
    "graphml": (
        "graph.graphml",
        lambda f, tmp: ["discover", f, "--rules", str(RULES), "-o", f"{tmp}/g.json"],
    ),
    "graph read by eval": (
        "graph.json", lambda f, tmp: ["eval", f, "--gold", str(DATA / "demo_gold.jsonl")],
    ),
    "config": (
        "config.json", lambda f, tmp: ["pipeline", str(CORPUS), "-c", f, "-o", f"{tmp}/out"],
    ),
    "fixtures": (
        "fixtures.json",
        lambda f, tmp: [
            "extract", str(CORPUS), "-c", fixture_config(f, tmp), "-o", f"{tmp}/t.jsonl",
        ],
    ),
}


def fixture_config(fixtures: str, tmp: str) -> str:
    """Path of a config that runs the fixture extractor on ``fixtures``."""
    path = Path(tmp) / "fixture_config.json"
    path.write_text(json.dumps({"extractor": "fixture", "fixtures_path": fixtures}))
    return str(path)


def run_cli(kind: str, content: bytes, tmp: Path) -> tuple[int, str]:
    """Write ``content`` as a ``kind`` file and run the subcommand that reads
    it; returns the exit code and stderr."""
    name, argv = COMMANDS[kind]
    path = tmp / name
    path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv(str(path), str(tmp)))
    return code, err.getvalue()


# case -> (file kind, content, fragment of the message naming the record)
MALFORMED = {
    "triples-line-list": ("triples", b"[1]\n", "triples.jsonl:1: expected a json object"),
    "triples-line-string": ("triples", b'"x"\n', "triples.jsonl:1: expected a json object"),
    "triples-context-number": (
        "triples",
        jsonl(replaced(TRIPLE, context=5)),
        "triples.jsonl:1: context must be a json object",
    ),
    "triples-context-value-list-of-number": (
        "triples",
        jsonl(TRIPLE, replaced(TRIPLE, context={"year": [5]})),
        "triples.jsonl:2: context must be a json object of string lists",
    ),
    "triples-context-value-string": (
        "triples",
        jsonl(replaced(TRIPLE, context={"year": "1898"})),
        "triples.jsonl:1: context must be a json object of string lists",
    ),
    "triples-chunk-index-boolean": (
        "triples",
        jsonl(replaced(TRIPLE, provenance=replaced(PROVENANCE, chunk_index=True))),
        "triples.jsonl:1: provenance: chunk_index must be a json integer, got true",
    ),
    "graph-context-value-string": (
        "graph",
        json.dumps(replaced(GRAPH, edges=[replaced(EDGE, context={"year": "1898"})])).encode(),
        "edge #0: context must be a json object of string lists",
    ),
    "graph-nodes-number": (
        "graph", json.dumps(replaced(GRAPH, nodes=5)).encode(), "graph: nodes must be a json list",
    ),
    "graph-node-attribute-number": (
        "graph",
        json.dumps(
            replaced(GRAPH, nodes=[{"id": "ada"}, {"id": "charles", "attributes": {"k": 5}}])
        ).encode(),
        "node #1: attributes must be a json object of string lists",
    ),
    "graph-edge-inferred-string": (
        "graph",
        json.dumps(replaced(GRAPH, edges=[replaced(EDGE, inferred="false")])).encode(),
        'edge #0: inferred must be a json boolean, got "false"',
    ),
    "graph-edge-to-missing-node": (
        "graph",
        json.dumps(replaced(GRAPH, nodes=[{"id": "ada"}])).encode(),
        "references missing node 'charles'",
    ),
    "eval-graph-node-id-number": (
        "graph read by eval",
        json.dumps(replaced(GRAPH, nodes=[{"id": 5}])).encode(),
        "node #0: id must be a json string, got 5",
    ),
    "graph-provenance-chunk-index-boolean": (
        "graph",
        json.dumps(
            replaced(
                GRAPH, edges=[replaced(EDGE, provenance=[replaced(PROVENANCE, chunk_index=True)])]
            )
        ).encode(),
        "edge #0: provenance #0: chunk_index must be a json integer",
    ),
    "graph-provenance-after-cached-records": (
        "graph",
        json.dumps(
            replaced(
                GRAPH,
                edges=[replaced(EDGE, provenance=[PROVENANCE, PROVENANCE, {"source_id": 5}])],
            )
        ).encode(),
        "edge #0: provenance #2: source_id must be a json string, got 5",
    ),
    "rule-inferred-predicate-number": (
        "rules",
        json.dumps([replaced(RULE, inferred_predicate=5)]).encode(),
        "rule #0: inferred_predicate must be a json string, got 5",
    ),
    "sense-label-number": (
        "senses",
        json.dumps({"radium": [replaced(SENSE, sense_label=5)]}).encode(),
        "senses for 'radium', entry #0: sense_label must be a json string",
    ),
    "sense-cues-number-list": (
        "senses",
        json.dumps({"radium": [SENSE, replaced(SENSE, cues=[1])]}).encode(),
        "senses for 'radium', entry #1: cues must be a json list of strings, got [1]",
    ),
    "gold-object-null": (
        "gold",
        jsonl({"subject": "marie curie", "predicate": "discovered", "object": None}),
        "gold.jsonl:1: missing field 'object'",
    ),
    "gold-entity-list": (
        "gold", jsonl({"entity": ["x"]}), 'gold.jsonl:1: entity must be a json string, got ["x"]',
    ),
    "corpus-text-number": (
        "corpus",
        jsonl({"id": "d1", "text": "Ada mentored Charles."}, {"id": "d2", "text": 5}),
        "corpus.jsonl:2: text must be a json string, got 5",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_record_exits_2_naming_the_record(case, tmp_path):
    kind, content, fragment = MALFORMED[case]
    code, err = run_cli(kind, content, tmp_path)
    assert code == EXIT_INPUT, err
    assert err.startswith(f"error: {tmp_path / COMMANDS[kind][0]}") and fragment in err, err


def test_valid_records_of_every_kind_exit_0(tmp_path):
    valid = {
        "corpus": jsonl({"id": "d1", "text": "Ada mentored Charles in 1843."}),
        "gold": jsonl({"subject": "marie curie", "predicate": "discovered", "object": "radium"}),
        "rules": json.dumps([RULE]).encode(),
        "senses": json.dumps({"radium": [SENSE]}).encode(),
        "triples": jsonl(TRIPLE),
        "graph": json.dumps(GRAPH).encode(),
        "graphml": serialize_graph(deserialize_graph(json.dumps(GRAPH).encode()), "graphml"),
    }
    for kind, content in valid.items():
        assert run_cli(kind, content, tmp_path) == (EXIT_OK, ""), kind


def test_config_path_field_of_another_kind_exits_1(tmp_path):
    with pytest.raises(ConfigError, match="^config: rules_path must be a json string, got 5$"):
        PipelineConfig.from_dict({"rules_path": 5})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rules_path": 5}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(
            ["pipeline", str(DATA / "demo_corpus.jsonl"), "-c", str(config), "-o", str(tmp_path)]
        )
    assert code == EXIT_USAGE
    assert "rules_path" in err.getvalue()


# A JSON value of each kind, and the kinds a config field takes by the type of
# its default: a number field takes an integer too, a field whose default is
# None a string, and nested settings, whose default is a dataclass, an object.
JSON_VALUES = {
    "boolean": True, "integer": 7, "number": 2.5, "string": "x", "list": [1], "object": {},
}
TAKES = {
    bool: {"boolean"}, int: {"integer"}, float: {"integer", "number"}, str: {"string"},
    type(None): {"string"}, dict: {"object"},
}


def config_fields() -> list:
    """``(nesting, field)`` for every field of the config and of each of its
    nested settings, read from the dataclasses, so a new field is covered as
    soon as it is declared."""
    cases = []
    for f in dataclasses.fields(PipelineConfig):
        cases.append(pytest.param((), f, id=f.name))
        if dataclasses.is_dataclass(f.default_factory):
            cases += [
                pytest.param((f.name,), inner, id=f"{f.name}.{inner.name}")
                for inner in dataclasses.fields(f.default_factory)
            ]
    return cases


CONFIG_LEVELS = [()] + [
    (f.name,) for f in dataclasses.fields(PipelineConfig)
    if dataclasses.is_dataclass(f.default_factory)
]


def nested(level: tuple, record: dict) -> dict:
    """``record`` as the config payload that holds it at ``level``."""
    return {level[0]: record} if level else record


def default_type(f: dataclasses.Field) -> type:
    return dict if dataclasses.is_dataclass(f.default_factory) else type(f.default)


@pytest.mark.parametrize("level, f", config_fields())
def test_config_field_of_another_kind_exits_1_naming_it(level, f, tmp_path):
    prefix = "config: " + "".join(f"{name}: " for name in level) + f"{f.name} must be a json "
    wrong = [v for kind, v in JSON_VALUES.items() if kind not in TAKES[default_type(f)]]
    for value in wrong:
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_dict(nested(level, {f.name: value}))
        assert str(err.value).startswith(prefix), err.value
    code, err = run_cli("config", json.dumps(nested(level, {f.name: wrong[0]})).encode(), tmp_path)
    assert code == EXIT_USAGE
    assert f"error: {prefix}" in err


@pytest.mark.parametrize("level, f", config_fields())
def test_config_null_reads_as_the_default(level, f):
    assert PipelineConfig.from_dict(nested(level, {f.name: None})) == PipelineConfig()


@pytest.mark.parametrize("level", CONFIG_LEVELS, ids=lambda level: ".".join(level) or "top")
def test_config_unknown_key_rejected_at_its_level(level):
    where = "".join(f"{name}: " for name in level)
    with pytest.raises(ConfigError, match=f"^config: {where}unknown keys: \\['typo'\\]$"):
        PipelineConfig.from_dict(nested(level, {"typo": 1}))


@pytest.mark.parametrize(
    "level, f", [case for case in config_fields() if default_type(case.values[1]) is float]
)
def test_config_integer_number_reads_as_float(level, f):
    shape = level[0] if level else "config"
    decoded = decode_record({f.name: 1}, shape, dict, ValueError, "config")
    assert decoded == {f.name: 1.0} and type(decoded[f.name]) is float
    if f.default.is_integer():  # an integer the field's bounds take, its default
        config = PipelineConfig.from_dict(nested(level, {f.name: int(f.default)}))
        value = getattr(getattr(config, level[0]) if level else config, f.name)
        assert value == f.default and type(value) is float


class TestDecoding:
    def test_null_optional_field_reads_as_absent(self):
        nulls = dict.fromkeys(("id", "context", "confidence", "inferred", "provenance"))
        edge = replaced(EDGE, **nulls)
        nodes = [{"id": "ada", "attributes": None}, {"id": "charles"}]
        g = deserialize_graph(json.dumps({"nodes": nodes, "edges": [edge]}).encode())
        (loaded,) = g.edges.values()
        assert g.nodes["ada"].attributes == ContextMap()
        assert (loaded.context, loaded.confidence, loaded.inferred, loaded.provenance) == (
            ContextMap(), 0.5, False, (),
        )

    def test_integer_number_reads_as_float(self):
        g = deserialize_graph(
            json.dumps(replaced(GRAPH, edges=[replaced(EDGE, confidence=1)])).encode()
        )
        (edge,) = g.edges.values()
        assert type(edge.confidence) is float
        assert b'"confidence":1.0' in serialize_graph(g)

    def test_unlisted_fields_are_ignored(self):
        (t,) = triples_from_jsonl(jsonl(replaced(TRIPLE, note=[1, {"x": None}])))
        assert (t.subject, t.object) == ("ada", "charles")

    def test_constructor_value_error_names_the_record(self):
        bogus = replaced(PROVENANCE, extractor="bogus")
        with pytest.raises(GraphParseError, match=r"^line 1: provenance: 'bogus' is not a valid"):
            triples_from_jsonl(jsonl(replaced(TRIPLE, provenance=bogus)))

    def test_number_past_float_range_is_a_parse_error(self):
        payload = json.dumps(replaced(GRAPH, edges=[replaced(EDGE, confidence=10**400)])).encode()
        with pytest.raises(GraphParseError, match="^edge #0: "):
            deserialize_graph(payload)


# --- decode_record against the reference decoder --------------------------------

_texts = st.text(max_size=3) | st.just("!")
# Values of each JSON kind, near misses among them: integers past float
# range, lists and objects holding a non-string.
_KIND_VALUES = {
    "string": _texts,
    "integer": st.integers() | st.just(10**400),
    "number": st.integers() | st.floats() | st.just(10**400) | st.just(-(10**400)),
    "boolean": st.booleans(),
    "list": st.lists(st.integers() | _texts, max_size=2),
    "object": st.dictionaries(_texts, st.integers() | _texts, max_size=2),
    "list of strings": st.lists(_texts, max_size=2) | st.lists(_texts | st.none(), max_size=2),
    "object of string lists": st.dictionaries(
        _texts,
        st.lists(_texts, max_size=2) | st.lists(_texts | st.integers(), max_size=2) | _texts,
        max_size=2,
    ),
}
# Any value of any kind, or null, for a field of another kind.
_any_value = st.none() | st.one_of(*_KIND_VALUES.values())


@st.composite
def _records(draw, shape: str):
    """A record for ``SHAPES[shape]``: each field absent, null, of its own
    kind or of any kind, plus an unlisted field at times; or no object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_any_value | st.lists(_any_value, max_size=2))
    record = {}
    for name, kind, *_ in SHAPES[shape]:
        choice = draw(st.integers(0, 5))
        if choice < 4:
            record[name] = draw(_KIND_VALUES[kind] if choice else _any_value)
        elif choice == 4:
            record[name] = None
    if draw(st.booleans()):
        record["unlisted"] = draw(_any_value)
    return record


def _fields(**fields):
    """The fields a decoder passes, in order and with their types; a string
    field "!" raises ValueError, as a constructor's own check would."""
    if "!" in fields.values():
        raise ValueError("a field is '!'")
    return [(name, type(value), value) for name, value in fields.items()]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=300)
@given(data=st.data())
def test_decode_record_equals_the_reference_decoder(shape, data):
    record = data.draw(_records(shape), label="record")

    def outcome(decode):
        try:
            return decode(record, shape, _fields, GraphParseError, "here")
        except GraphParseError as exc:
            return type(exc), str(exc), type(exc.__cause__)

    assert outcome(decode_record) == outcome(support.reference_decode_record)


# --- fuzz: every reader returns or raises its own error ---------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)

# JSON file kind -> a valid document
FUZZED = {
    "corpus": [
        {"id": "d1", "text": "Ada mentored Charles in 1843."},
        {"id": "d2", "text": "Radium is a metal."},
    ],
    "gold": [
        {"subject": "marie curie", "predicate": "discovered", "object": "radium"},
        {"entity": "metal"},
    ],
    "rules": [RULE, replaced(RULE, name="s", discount=0.5)],
    "senses": {"radium": [SENSE, replaced(SENSE, sense_label="brand")]},
    "triples": [TRIPLE, replaced(TRIPLE, subject="charles")],
    "graph": GRAPH,
    "config": CONFIG,
    "fixtures": FIXTURES,
}
GRAPHML = serialize_graph(deserialize_graph(json.dumps(GRAPH).encode()), "graphml")

GRAPH_ERRORS = (GraphParseError, GraphIntegrityError)

# file kind -> (reader of the file, the reader's errors, the exit code for them)
READERS = {
    "corpus": (read_corpus, CorpusFormatError, EXIT_INPUT),
    "gold": (load_gold, GoldFormatError, EXIT_INPUT),
    "rules": (load_rules, RuleFileError, EXIT_INPUT),
    "senses": (load_senses, RuleFileError, EXIT_INPUT),
    "triples": (triples_from_jsonl, GraphParseError, EXIT_INPUT),
    "graph": (deserialize_graph, GRAPH_ERRORS, EXIT_INPUT),
    "graphml": (lambda path: deserialize_graph(path, "graphml"), GRAPH_ERRORS, EXIT_INPUT),
    "config": (PipelineConfig.load, ConfigError, EXIT_USAGE),
    "fixtures": (load_fixtures, ConfigError, EXIT_USAGE),
}


# file kind -> {exit code: fragment of its message} for a run that stops after
# the file was read: a config can name a file that does not exist, and a
# fixtures file can lack the fixture for a prompt of the run (the corpus's, or
# a repair prompt's), which the fixture extractor reports as the model
# endpoint would.
LATER_REJECTIONS = {
    "config": {EXIT_USAGE: "configured file does not exist"},
    "fixtures": {EXIT_ENDPOINT: "no fixture registered for prompt"},
}


def check_read_or_rejected(kind: str, content: bytes, tmp: Path) -> None:
    """The reader of a ``kind`` file holding ``content`` returns or raises
    only its own errors, and the subcommand that reads the file exits with
    the code for those errors, or else 0 or a ``LATER_REJECTIONS`` code;
    never 4."""
    reader, errors, rejected = READERS[kind]
    target = tmp / COMMANDS[kind][0]
    target.write_bytes(content)
    try:
        reader(target)
    except errors:
        allowed = {rejected: ""}
    else:
        allowed = {EXIT_OK: "", **LATER_REJECTIONS.get(kind, {})}
    code, err = run_cli(kind, content, tmp)
    assert code in allowed and allowed[code] in err, err


def locations(value, path=()):
    """Every place in a JSON document: the document itself, each list item and
    each object field, nested ones included."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from locations(child, path + (key,))


def mutated(document, path, replacement, delete: bool):
    """A copy of ``document`` with the value at ``path`` replaced, or with the
    field at ``path`` dropped when ``delete`` is set and it is a field."""
    if not path:
        return replacement
    document = json.loads(json.dumps(document))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return document


def encoded(kind: str, document) -> bytes:
    if kind in ("corpus", "gold", "triples") and isinstance(document, list):
        return jsonl(*document)  # one record per line; a replaced whole file stays one line
    return json.dumps(document).encode()


@pytest.mark.parametrize("kind", FUZZED)
@settings(max_examples=60, derandomize=True)
@given(data=st.data())
def test_fuzzed_records_are_read_or_rejected_by_the_reader(kind, data, tmp_path_factory):
    document = FUZZED[kind]
    path = data.draw(st.sampled_from(list(locations(document))), label="path")
    value = data.draw(json_values, label="value")
    delete = data.draw(st.booleans(), label="delete")
    content = encoded(kind, mutated(document, path, value, delete))
    check_read_or_rejected(kind, content, tmp_path_factory.mktemp(kind))


@pytest.mark.parametrize("kind", READERS)
@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_arbitrary_bytes_and_truncations_are_read_or_rejected(kind, data, tmp_path_factory):
    valid = GRAPHML if kind == "graphml" else encoded(kind, FUZZED[kind])
    content = data.draw(
        st.binary(max_size=48) | st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        label="content",
    )
    check_read_or_rejected(kind, content, tmp_path_factory.mktemp(kind))


def _graphml_locations(root: ET.Element) -> list[tuple[int, str]]:
    """(element index, attribute name or data key) of every node and edge
    field in a GraphML document."""
    graph = root.find("{http://graphml.graphdrawing.org/xmlns}graph")
    found = []
    for index, element in enumerate(graph):
        found += [(index, name) for name in element.attrib]
        found += [(index, data.get("key")) for data in element]
    return found


@settings(max_examples=60, derandomize=True)
@given(data=st.data())
def test_fuzzed_graphml_is_read_or_rejected(data, tmp_path_factory):
    root = ET.fromstring(GRAPHML)
    index, field = data.draw(st.sampled_from(_graphml_locations(root)), label="field")
    element = root.find("{http://graphml.graphdrawing.org/xmlns}graph")[index]
    text = data.draw(st.text(max_size=12) | json_values.map(json.dumps), label="text")
    delete = data.draw(st.booleans(), label="delete")
    data_el = next((d for d in element if d.get("key") == field), None)
    if data_el is not None:
        if delete:
            element.remove(data_el)
        else:
            data_el.text = text
    elif delete:
        del element.attrib[field]
    else:
        element.set(field, text)
    content = ET.tostring(root, encoding="utf-8")
    check_read_or_rejected("graphml", content, tmp_path_factory.mktemp("graphml"))


# --- JSON nested past the recursion limit -----------------------------------------

DEEP = b"[" * 100_000 + b"]" * 100_000


def _deeply_nested(kind: str) -> bytes:
    """A ``kind`` file holding JSON nested 100,000 deep: in a record of a
    JSONL file, in a data element of a GraphML file, or as the whole file."""
    if kind in ("corpus", "gold", "triples"):
        return encoded(kind, FUZZED[kind]) + DEEP + b"\n"
    if kind == "graphml":
        return GRAPHML.replace(b'{"year":["1843"]}', DEEP)
    return DEEP


@pytest.mark.parametrize("kind", READERS)
def test_deeply_nested_json_is_the_readers_error_never_an_internal_one(kind, tmp_path):
    reader, errors, rejected = READERS[kind]
    content = _deeply_nested(kind)
    target = tmp_path / COMMANDS[kind][0]
    target.write_bytes(content)
    with pytest.raises(errors, match="invalid json: maximum recursion depth exceeded"):
        reader(target)
    code, err = run_cli(kind, content, tmp_path)
    assert code == rejected, err
    assert err.startswith(f"error: {target}"), err


def test_old_flat_graphml_context_is_invalid_json_naming_the_edge(tmp_path):
    flat = GRAPHML.replace(b'{"year":["1843"]}', b"year=1898")
    assert flat != GRAPHML
    (edge_id,) = deserialize_graph(json.dumps(GRAPH).encode()).edges
    with pytest.raises(
        GraphParseError, match=rf"^graphml edge '{edge_id}': context: invalid json at offset 0"
    ):
        deserialize_graph(flat, "graphml")
    code, err = run_cli("graphml", flat, tmp_path)
    assert code == EXIT_INPUT, err
    assert f"graphml edge '{edge_id}': context: invalid json" in err, err

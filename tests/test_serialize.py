"""Serialization: deterministic bytes, lossless round trips, parse errors."""

from __future__ import annotations

import json
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from lightkg import serialize
from lightkg.graph import (
    ContextMap,
    ContextTriple,
    Edge,
    Extractor,
    GraphIntegrityError,
    KnowledgeGraph,
    Node,
    Provenance,
    content_equal,
)
from lightkg.serialize import (
    GraphParseError,
    deserialize_graph,
    format_for_path,
    serialize_graph,
    triples_from_jsonl,
    triples_to_jsonl,
)


def test_empty_graph_json_bytes():
    assert serialize_graph(KnowledgeGraph(), "json") == b'{"nodes":[],"edges":[]}'


def test_single_node_round_trip():
    g = support.graph_of(("only", "loops_to", "only"))
    for fmt in ("json", "graphml"):
        assert deserialize_graph(serialize_graph(g, fmt), fmt) == g


def test_discovery_fixture_json_content():
    g = support.graph_of(("marie curie", "discovered", "radium", {"year": ["1898"]}))
    payload = serialize_graph(g, "json").decode("utf-8")
    assert '"marie curie"' in payload
    assert '"discovered"' in payload
    assert '"1898"' in payload


def test_serialization_is_deterministic():
    g = support.graph_of(("a", "p", "b"), ("b", "q", "c", {"year": ["1"]}))
    for fmt in ("json", "graphml"):
        assert serialize_graph(g, fmt) == serialize_graph(g, fmt)


@settings(max_examples=150)
@given(g=support.graphs())
def test_json_round_trip(g):
    assert deserialize_graph(serialize_graph(g, "json"), "json") == g


@settings(max_examples=150)
@given(g=support.graphs())
def test_graphml_round_trip(g):
    assert deserialize_graph(serialize_graph(g, "graphml"), "graphml") == g


@settings(max_examples=100)
@given(g=support.graphs())
def test_reserialization_is_stable(g):
    for fmt in ("json", "graphml"):
        first = serialize_graph(g, fmt)
        assert serialize_graph(deserialize_graph(first, fmt), fmt) == first


class _Float(float):
    """A float whose repr is not float text, as NumPy 2's ``float64`` is."""

    def __repr__(self):
        return f"_Float({float.__repr__(self)})"


@settings(max_examples=100)
@given(
    confidence=st.one_of(
        st.floats(0, 1), st.integers(0, 1), st.booleans(), st.floats(0, 1).map(_Float)
    ),
    inferred=st.one_of(st.booleans(), st.integers(0, 1)),
)
@example(confidence=0.5, inferred=1)
@example(confidence=True, inferred=False)
@example(confidence=_Float(0.5), inferred=False)
def test_every_constructible_edge_reads_back_in_both_formats(confidence, inferred):
    """An edge either is refused when built or reads back from both writers."""
    try:
        edge = Edge("a", "b", "p", confidence=confidence, inferred=inferred)
    except ValueError:
        return
    g = KnowledgeGraph({"a": Node("a"), "b": Node("b")}, {edge.edge_id: edge})
    for fmt in serialize.FORMATS:
        assert content_equal(deserialize_graph(serialize_graph(g, fmt), fmt), g)


def test_malformed_json_reports_offset():
    with pytest.raises(GraphParseError) as err:
        deserialize_graph(b'{"nodes": [}', "json")
    assert "offset" in str(err.value)


def test_edge_referencing_missing_node_is_integrity_error():
    payload = {
        "nodes": [{"id": "a", "attributes": {}}],
        "edges": [{"source": "a", "target": "ghost", "predicate": "p"}],
    }
    with pytest.raises(GraphIntegrityError):
        deserialize_graph(json.dumps(payload).encode(), "json")


def test_duplicate_node_id_rejected():
    payload = {"nodes": [{"id": "a"}, {"id": "a"}], "edges": []}
    with pytest.raises(GraphParseError):
        deserialize_graph(json.dumps(payload).encode(), "json")


def test_duplicate_edge_rejected():
    edge = {"source": "a", "target": "b", "predicate": "p"}
    payload = {"nodes": [{"id": "a"}, {"id": "b"}], "edges": [edge, dict(edge)]}
    with pytest.raises(GraphParseError, match="duplicate edge id"):
        deserialize_graph(json.dumps(payload).encode(), "json")


def test_stored_edge_id_must_match_content_hash():
    payload = {
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"id": "wrong", "source": "a", "target": "b", "predicate": "p"}],
    }
    with pytest.raises(GraphParseError):
        deserialize_graph(json.dumps(payload).encode(), "json")


def test_edge_id_optional_in_handwritten_files():
    payload = {
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"source": "a", "target": "b", "predicate": "p"}],
    }
    g = deserialize_graph(json.dumps(payload).encode(), "json")
    assert g.edge_count == 1
    (edge,) = g.edges.values()
    assert edge.confidence == 0.5 and edge.inferred is False


def test_graphml_round_trips_controls_markup_and_separators_in_context_and_senses():
    awkward = ["\x01", "a\rb", '<&>"', "a=b", "c;d", "e|f", "g\\h", "\\|;="]
    g = support.graph_of(("radium", "is_a", "metal", {"year": awkward, "\x01<&>|;=": ["1898"]}))
    g = KnowledgeGraph(
        {**g.nodes, "radium": Node("radium", ContextMap({"sense": awkward}))}, g.edges
    )
    written = serialize_graph(g, "graphml")
    assert deserialize_graph(written, "graphml") == g
    assert serialize_graph(deserialize_graph(written, "graphml"), "graphml") == written


def test_malformed_graphml_reports_position():
    with pytest.raises(GraphParseError):
        deserialize_graph(b"<graphml><graph>", "graphml")


def test_graphml_with_foreign_key_ids():
    # keys are resolved by attr.name, so files from other tools load too
    foreign = b"""<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="k9" for="node" attr.name="attributes" attr.type="string"/>
  <key id="k7" for="edge" attr.name="predicate" attr.type="string"/>
  <graph id="G" edgedefault="directed">
    <node id="a"><data key="k9">{"kind": ["planet"]}</data></node>
    <node id="b"/>
    <edge source="a" target="b"><data key="k7">orbits</data></edge>
  </graph>
</graphml>"""
    g = deserialize_graph(foreign, "graphml")
    assert g.nodes["a"].attributes.to_dict() == {"kind": ["planet"]}
    (edge,) = g.edges.values()
    assert edge.predicate == "orbits"
    assert edge.confidence == 0.5 and edge.inferred is False


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        serialize_graph(KnowledgeGraph(), "yaml")
    with pytest.raises(ValueError):
        deserialize_graph(b"{}", "yaml")


@given(ts=st.lists(support.context_triples, max_size=4))
def test_triples_jsonl_round_trip_random(ts):
    assert triples_from_jsonl(triples_to_jsonl(ts)) == ts


def test_triples_jsonl_round_trip_list():
    ts = [
        support.triple("marie curie", "discovered", "radium", {"year": ["1898"]}),
        support.triple("alan turing", "is_a", "mathematician"),
    ]
    assert triples_from_jsonl(triples_to_jsonl(ts)) == ts
    assert triples_to_jsonl([]) == b""
    assert triples_from_jsonl(b"") == []


def test_triples_jsonl_bad_line():
    with pytest.raises(GraphParseError):
        triples_from_jsonl(b'{"subject": "a"}\n')


# --- the JSONL writer and the provenance memo against the per-record algorithms

# Text that JSON or XML must escape or may write raw: quotes, backslashes,
# markup, tabs and line ends, control characters, U+0085, U+2028/U+2029,
# astral characters, U+FFFE and U+FFFF (which XML cannot hold) and lone
# surrogates (which UTF-8 cannot encode, so writing them as JSON raises).
_awkward_text = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(
            ['"', "'", "\\", "&", "<", ">", "\t", "\n", "\r", "\x00", "\x1f", "\x7f",
             "\x85", "\u2028", "\u2029", "\U0001f600", "\ud800", "\udfff", "\ufffe",
             "\uffff"]
        ),
    ),
    max_size=6,
)
_awkward_labels = _awkward_text.filter(str.strip)

_awkward_triples = st.builds(
    ContextTriple,
    subject=_awkward_labels,
    predicate=_awkward_labels,
    object=_awkward_labels,
    context=st.dictionaries(
        _awkward_labels, st.lists(_awkward_text, max_size=3), max_size=3
    ).map(ContextMap),
    provenance=st.builds(
        Provenance,
        source_id=_awkward_text,
        chunk_index=st.integers(0, 2**70),
        extractor=st.sampled_from(Extractor),
    ),
)


def _outcome(function, argument):
    """What ``function(argument)`` returns, or the class and message of what
    it raises."""
    try:
        return function(argument)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(ts=st.lists(_awkward_triples, max_size=4))
@example(ts=[ContextTriple("a\ud800", "p", "o")])
def test_triples_jsonl_bytes_match_the_per_line_encoder(ts):
    written = _outcome(triples_to_jsonl, ts)
    assert written == _outcome(support.reference_triples_to_jsonl, ts)
    if isinstance(written, bytes):
        assert triples_from_jsonl(written) == ts


# Edge endpoints and predicates are hashed as UTF-8 into the edge id, so they
# hold no lone surrogate; node ids without edges, contexts and source ids may.
_encodable_text = _awkward_text.filter(
    lambda text: not any("\ud800" <= ch <= "\udfff" for ch in text)
)
_encodable_labels = _encodable_text.filter(str.strip)
_awkward_contexts = st.dictionaries(
    _awkward_labels, st.lists(_awkward_text, max_size=3), max_size=2
).map(ContextMap)
# Records of one pool often share all fields but one.
_awkward_provenances = st.builds(
    Provenance,
    source_id=st.sampled_from(["doc", "doc\u2028"]) | _awkward_text,
    chunk_index=st.integers(0, 1) | st.integers(0, 2**70),
    extractor=st.sampled_from(Extractor),
)


@st.composite
def _awkward_graphs(draw):
    """Graphs whose edges draw their provenance from a pool of one to three
    records, so many edges share one; confidences are floats, ints or bools."""
    linked = draw(st.lists(_encodable_labels, min_size=1, max_size=4, unique=True))
    loose = draw(st.lists(_awkward_labels, max_size=2))
    nodes = {i: Node(i, draw(_awkward_contexts)) for i in loose + linked}
    pool = draw(st.lists(_awkward_provenances, min_size=1, max_size=3))
    edges = {}
    for _ in range(draw(st.integers(0, 6))):
        edge = Edge(
            draw(st.sampled_from(linked)),
            draw(st.sampled_from(linked)),
            draw(_encodable_labels),
            draw(_awkward_contexts),
            draw(st.one_of(st.floats(0, 1), st.integers(0, 1))),
            tuple(draw(st.lists(st.sampled_from(pool), max_size=8))),
            draw(st.booleans()),
        )
        edges[edge.edge_id] = edge
    return KnowledgeGraph(nodes, edges)


@settings(max_examples=300)
@given(g=_awkward_graphs())
@example(g=KnowledgeGraph())
@example(g=KnowledgeGraph({"a\ud800": Node("a\ud800")}))
@example(g=support.graph_of(("a", "p", "b", {"k": ["v\udfff"]})))
def test_graph_json_bytes_match_the_dict_encoder(g):
    written = _outcome(lambda graph: serialize_graph(graph, "json"), g)
    assert written == _outcome(support.reference_graph_json, g)
    if isinstance(written, bytes):
        assert deserialize_graph(written) == g


@settings(max_examples=300)
@given(g=st.one_of(support.graphs(), _awkward_graphs()))
@example(g=KnowledgeGraph())
@example(g=KnowledgeGraph({"a": Node("a"), "b\ud800": Node("b\ud800")}))
@example(g=KnowledgeGraph({"a": Node("a", ContextMap({"sense": ["metal\ud800"]}))}))
@example(g=KnowledgeGraph(
    {"a&<>\"'": Node("a&<>\"'"), "b\t\n\r": Node("b\t\n\r")},
    {e.edge_id: e for e in [
        Edge("a&<>\"'", "b\t\n\r", "", confidence=1),
        Edge("b\t\n\r", "a&<>\"'", "p\x85\u2028\U0001f600<&>",
             ContextMap({"k\r": ["&<>\"'\t\n"]}), 0.25, (support.PROV,), True),
    ]},
))
def test_graphml_bytes_match_the_element_tree_writer(g):
    expected = support.reference_graphml(g)
    try:
        ET.fromstring(expected)
    except ET.ParseError:  # text XML cannot hold: refused, not written
        with pytest.raises(GraphIntegrityError):
            serialize_graph(g, "graphml")
    else:
        assert serialize_graph(g, "graphml") == expected


@st.composite
def _graphs_of_any_labels(draw):
    """Graphs whose node ids, edge endpoints and predicates are any text."""
    linked = draw(st.lists(_encodable_labels, min_size=1, max_size=4, unique=True))
    loose = draw(st.lists(_awkward_labels, max_size=2))
    edges = [
        Edge(draw(st.sampled_from(linked)), draw(st.sampled_from(linked)), draw(_encodable_text))
        for _ in range(draw(st.integers(0, 4)))
    ]
    return KnowledgeGraph({i: Node(i) for i in loose + linked}, {e.edge_id: e for e in edges})


@settings(max_examples=300)
@given(g=_graphs_of_any_labels())
@example(g=KnowledgeGraph({"a": Node("a"), "b": Node("b")}, {
    e.edge_id: e for e in [Edge("a", "b", "x\ry"), Edge("a", "b", "x\r\ny")]
}))
def test_graphml_refuses_or_round_trips_any_labels(g):
    try:
        written = serialize_graph(g, "graphml")
    except GraphIntegrityError:
        return
    assert deserialize_graph(written, "graphml") == g


def test_graph_json_encodes_each_distinct_provenance_once_per_call():
    shared = [Provenance(f"doc-{i}", i, Extractor.PATTERN) for i in range(3)]
    g = support.graph_of(*((f"n{i}", "p", f"n{i + 1}") for i in range(20)))
    g = KnowledgeGraph(g.nodes, {
        eid: Edge(e.source, e.target, e.predicate, provenance=shared * 2)
        for eid, e in g.edges.items()
    })
    with mock.patch.object(
        serialize, "_provenance_json", wraps=serialize._provenance_json
    ) as encoded:
        first = serialize_graph(g, "json")
        assert encoded.call_count == len(shared)
        assert serialize_graph(g, "json") == first
        assert encoded.call_count == 2 * len(shared)


def test_triples_jsonl_encodes_each_distinct_provenance_once_per_call():
    shared = [Provenance(f"doc-{i}", i, Extractor.PATTERN) for i in range(3)]
    ts = [ContextTriple(f"s{i}", "p", f"o{i}", provenance=shared[i % 3]) for i in range(20)]
    with mock.patch.object(
        serialize, "_provenance_json", wraps=serialize._provenance_json
    ) as encoded:
        first = triples_to_jsonl(ts)
        assert encoded.call_count == len(shared)
        assert triples_to_jsonl(ts) == first
        assert encoded.call_count == 2 * len(shared)
    assert first == support.reference_triples_to_jsonl(ts)


def test_triples_jsonl_encodes_each_distinct_context_once_per_call():
    # Equal contexts built as separate objects, as a reader builds them.
    years = ["1898", "1903", "1911"]
    ts = [
        ContextTriple(
            f"s{i}", "p", f"o{i}", ContextMap({"year": [years[i % 3]]}) if i % 4 else ContextMap(),
            Provenance(f"doc-{i}", 0, Extractor.PATTERN),
        )
        for i in range(20)
    ]
    distinct = {t.context for t in ts}
    assert len(distinct) == len(years) + 1
    with mock.patch.object(serialize, "_context_json", wraps=serialize._context_json) as encoded:
        first = triples_to_jsonl(ts)
        assert encoded.call_count == len(distinct)
        assert triples_to_jsonl(ts) == first
        assert encoded.call_count == 2 * len(distinct)
    assert first == support.reference_triples_to_jsonl(ts)


def _peak_bytes(function, *args) -> tuple[object, int]:
    """``function(*args)`` and the peak of the memory traced during it."""
    tracemalloc.start()
    try:
        return function(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _triples_one_chunk_each(n: int) -> list[ContextTriple]:
    # Each triple from a chunk of its own: a provenance memo grows to one
    # record per triple.
    return [
        ContextTriple(
            f"person {i}", "wrote", f"work {i % 97}", ContextMap({"year": [str(1800 + i % 200)]}),
            Provenance(f"doc-{i // 10}", i % 10, Extractor.PATTERN),
        )
        for i in range(n)
    ]


def test_triples_jsonl_peak_is_at_most_two_and_a_half_times_its_output():
    written, peak = _peak_bytes(triples_to_jsonl, _triples_one_chunk_each(5000))
    assert len(written) >= 500_000
    assert peak <= 2.5 * len(written)


def _triples_many_chunks_each(edges: int, chunks: int, per_edge: int = 14) -> list[ContextTriple]:
    # Fact k % edges stated ``per_edge`` times, each in another year: triple
    # k comes from chunk k % chunks, so no fact has two triples of one chunk
    # while edges * per_edge stays below the least common multiple of
    # ``edges`` and ``chunks``.
    return [
        ContextTriple(
            f"person {k % edges}", "wrote", f"work {k % edges}",
            ContextMap({"year": [str(1800 + k // edges)]}),
            Provenance(f"doc-{k % chunks // 10}", k % chunks % 10, Extractor.PATTERN),
        )
        for k in range(edges * per_edge)
    ]


# Graphs a writer's peak is bounded on, with the least output each must give:
# one provenance record per edge, and 14 records per edge that no other edge
# shares.
_WRITER_PEAK_GRAPHS = (
    (lambda: support.reference_aggregate(_triples_one_chunk_each(5000))[0], 500_000),
    (lambda: support.reference_aggregate(_triples_many_chunks_each(405, 405 * 14))[0], 450_000),
)


def test_graph_json_peak_is_at_most_two_and_a_half_times_its_output():
    for graph, least in _WRITER_PEAK_GRAPHS:
        g = graph()
        written, peak = _peak_bytes(serialize_graph, g, "json")
        assert len(written) >= least
        assert peak <= 2.5 * len(written)
        assert written == support.reference_graph_json(g)


def test_graphml_peak_is_at_most_two_and_a_half_times_its_output():
    for graph, least in _WRITER_PEAK_GRAPHS:
        g = graph()
        written, peak = _peak_bytes(serialize_graph, g, "graphml")
        assert len(written) >= least
        assert peak <= 2.5 * len(written)
        assert written == support.reference_graphml(g)


def test_graph_json_read_peak_follows_the_graph_not_the_document():
    """A graph of ``dup_ingest``'s shape: 405 edges of 14 provenance records,
    600 distinct. Decoding each record as it is scanned keeps the read under
    4.5 times the file; the whole-document reader peaks above 7 times it."""
    g, _ = support.reference_aggregate(_triples_many_chunks_each(405, 600))
    assert len({p for e in g.edges.values() for p in e.provenance}) == 600
    data = serialize_graph(g, "json")
    assert len(data) >= 400_000
    deserialize_graph(data)  # warm up the decoders before tracing
    read, peak = _peak_bytes(deserialize_graph, data)
    assert read == g
    assert peak <= 4.5 * len(data)


def test_graph_file_read_holds_no_copy_of_the_file_past_its_decode(tmp_path):
    g = support.graph_of(*((f"n{i}", "p", f"n{(i * 7) % 3000}", {"year": [str(i)]})
                           for i in range(3000)))
    path = tmp_path / "graph.json"
    path.write_bytes(serialize_graph(g, "json"))
    data = path.read_bytes()
    assert len(data) >= 500_000
    deserialize_graph(data)  # warm up the decoders before tracing
    in_memory, in_memory_peak = _peak_bytes(deserialize_graph, data)
    from_file, from_file_peak = _peak_bytes(deserialize_graph, path)
    assert from_file == in_memory == g
    assert from_file_peak - in_memory_peak <= 0.05 * len(data)


# Provenance records, valid ones repeated across edges and lines, next to
# malformed ones that share all but one field with a valid one.
_PROVENANCE_RECORDS = [
    {"source_id": "doc-a", "chunk_index": 0, "extractor": "pattern"},
    {"source_id": "doc-a", "chunk_index": 1},
    {"source_id": "doc-a", "chunk_index": 1, "extractor": None},
    {"source_id": "doc-a", "chunk_index": 1, "extractor": "model", "tags": [1, 2]},
    {"source_id": "doc-b", "chunk_index": 2**70, "extractor": "model"},
    {"source_id": "doc-a", "chunk_index": True},
    {"source_id": "doc-a", "chunk_index": 1.0},
    {"source_id": "doc-a", "chunk_index": True, "extractor": "model"},
    {"source_id": "doc-a", "chunk_index": 1.0, "extractor": "model"},
    {"source_id": "doc-a", "chunk_index": -1},
    {"source_id": "doc-a", "chunk_index": 0, "extractor": "bogus"},
    {"source_id": "doc-a", "chunk_index": 0, "extractor": ["pattern"]},
    {"source_id": ["doc-a"], "chunk_index": 0},
    {"source_id": None, "chunk_index": 0},
    {"source_id": "doc-a", "chunk_index": None},
    "doc-a",
]


def _graph_json(edges: list[list]) -> bytes:
    return json.dumps({
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [
            {"source": "a", "target": "b", "predicate": f"p{i}", "provenance": records}
            for i, records in enumerate(edges)
        ],
    }).encode()


def _graphml(edges: list[list]) -> bytes:
    rows = "".join(
        f'<edge source="a" target="b"><data key="d1">p{i}</data>'
        f"<data key=\"d5\">{escape(json.dumps(records))}</data></edge>"
        for i, records in enumerate(edges)
    )
    return (
        '<graphml><key id="d1" for="edge" attr.name="predicate"/>'
        '<key id="d5" for="edge" attr.name="provenance"/>'
        f'<graph><node id="a"/><node id="b"/>{rows}</graph></graphml>'
    ).encode()


def _triples_jsonl(edges: list[list]) -> bytes:
    return "".join(
        json.dumps({"subject": "a", "predicate": "p", "object": "b", "provenance": record}) + "\n"
        for records in edges
        for record in records
    ).encode()


_READERS = {
    "graph json": (lambda data: deserialize_graph(data, "json"), _graph_json),
    "graphml": (lambda data: deserialize_graph(data, "graphml"), _graphml),
    "triples jsonl": (triples_from_jsonl, _triples_jsonl),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@settings(max_examples=150)
@given(edges=st.lists(st.lists(st.sampled_from(_PROVENANCE_RECORDS), max_size=4), max_size=6))
def test_readers_match_the_uncached_provenance_decode(reader, edges):
    read, render = _READERS[reader]
    data = render(edges)
    with mock.patch.object(serialize, "_provenance", support.uncached_provenance):
        expected = _outcome(read, data)
    assert _outcome(read, data) == expected


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_one_provenance_built_per_distinct_record_per_read(reader):
    read, render = _READERS[reader]
    distinct = [
        {"source_id": f"doc-{i}", "chunk_index": j, "extractor": "pattern"}
        for i in range(3) for j in range(2)
    ] + [{"source_id": f"doc-{i}", "chunk_index": 0} for i in range(2)]  # no extractor
    data = render([[dict(record) for record in distinct] * 4 for _ in range(5)])
    with mock.patch.object(serialize, "Provenance", wraps=Provenance) as built:
        read(data)
        assert built.call_count == len(distinct)
        read(data)
        assert built.call_count == 2 * len(distinct)


# --- the graph JSON reader against the whole-document reader ------------------

_GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("name", ["pattern_graph.json", "pattern_graph.graphml"])
def test_a_graph_read_holds_each_label_once(name):
    g = deserialize_graph(_GOLDEN / name, format_for_path(name))
    for e in g.edges.values():
        assert e.source is g.nodes[e.source].id and e.target is g.nodes[e.target].id
    predicates = [e.predicate for e in g.edges.values()]
    assert len(predicates) > len(set(predicates))
    assert len({id(p) for p in predicates}) == len(set(predicates))


def test_a_triples_read_holds_each_label_once():
    triples = triples_from_jsonl(_GOLDEN / "pattern_triples.jsonl")
    labels = [s for t in triples for s in (t.subject, t.predicate, t.object)]
    assert len(labels) > len(set(labels))
    assert len({id(s) for s in labels}) == len(set(labels))

_SPACES = st.sampled_from(["", " ", "\n", "\t ", "\r\n  "])
_VALID_NODES = st.builds(
    dict, id=st.sampled_from(["a", "b", "c"]),
    attributes=st.sampled_from([{"sense": ["metal"]}, {}, None]),
)
_NODE_RECORDS = st.one_of(
    _VALID_NODES, _VALID_NODES,
    st.sampled_from([{"id": 5}, {}, "a", None, [], {"id": "a", "attributes": {"sense": [1]}}]),
)


def _edges(**bad) -> st.SearchStrategy:
    """Edge records over nodes a and b, and a node that may be missing;
    ``bad`` adds values of the wrong kind to the optional fields it names."""
    optional = {
        "id": [None],
        "context": [{"year": ["1898"]}, None],
        "confidence": [0.25, 1, None],
        "inferred": [True, False, None],
    }
    for field, values in bad.items():
        optional[field] = optional[field] + values
    return st.fixed_dictionaries(
        {
            "source": st.sampled_from(["a", "b"]),
            "target": st.sampled_from(["a", "b", "b", "ghost"]),
            "predicate": st.sampled_from(["p", "q", "r"]),
        },
        optional={
            **{field: st.sampled_from(values) for field, values in optional.items()},
            "provenance": st.lists(st.sampled_from(_PROVENANCE_RECORDS[:5]), max_size=3),
        },
    )


_EDGE_RECORDS = st.one_of(
    _edges(), _edges(),
    _edges(
        id=["wrong"], context=[{"year": [1898]}], confidence=[True, "high", 2**1100],
        inferred=[1],
    ),
    st.builds(dict, source=st.just("a"), provenance=st.lists(st.sampled_from(_PROVENANCE_RECORDS))),
    st.sampled_from(["edge", 7, None]),
)
# The value of a "nodes" or "edges" field: absent, null, an array or no array.
_ABSENT = object()
_SECTION_VALUES = {
    "nodes": st.one_of(
        st.just([{"id": "a"}, {"id": "b"}]),
        st.lists(_NODE_RECORDS, max_size=3).map(lambda nodes: [{"id": "a"}, {"id": "b"}] + nodes),
        st.lists(_NODE_RECORDS, max_size=4),
        st.sampled_from([_ABSENT, None, [], 5, {}, "x"]),
    ),
    "edges": st.one_of(
        st.lists(_edges(), min_size=1, max_size=4),
        st.lists(_EDGE_RECORDS, max_size=5),
        st.sampled_from([_ABSENT, None, [], 5, {}, "x"]),
    ),
}


def _json_text(draw, value) -> str:
    """``value`` as JSON text with drawn whitespace between its tokens; a
    tuple is an object given as its (key, value) pairs, so a key may repeat."""
    if isinstance(value, dict):
        value = tuple(value.items())
    if isinstance(value, tuple):
        pairs = [
            f"{draw(_SPACES)}{json.dumps(k)}{draw(_SPACES)}:{draw(_SPACES)}{_json_text(draw, v)}"
            f"{draw(_SPACES)}"
            for k, v in value
        ]
        return "{" + (",".join(pairs) or draw(_SPACES)) + "}"
    if isinstance(value, list):
        items = [f"{draw(_SPACES)}{_json_text(draw, v)}{draw(_SPACES)}" for v in value]
        return "[" + (",".join(items) or draw(_SPACES)) + "]"
    return json.dumps(value)


@st.composite
def _graph_json_documents(draw) -> bytes:
    """Graph JSON text as another tool may write it: its fields in any order,
    repeated, or next to unlisted ones; whitespace between any tokens; bad
    records; and, at times, cut short or followed by a syntax error."""
    keys = draw(st.lists(st.sampled_from(["nodes", "edges", "meta"]), max_size=4))
    pairs = [
        (key, value)
        for key in draw(st.sampled_from([["nodes", "edges"], ["edges", "nodes"], keys]))
        for value in [draw(_SECTION_VALUES.get(key, st.sampled_from([1, None, [{"id": 1}]])))]
        if value is not _ABSENT
    ]
    top = draw(st.sampled_from([tuple(pairs)] * 9 + [[dict(pairs)], None, "graph"]))
    text = draw(_SPACES) + _json_text(draw, top) + draw(_SPACES)
    cut = draw(st.sampled_from(["whole"] * 4 + ["truncated", "extra data", "broken token"]))
    if cut == "truncated":
        text = text[: draw(st.integers(0, len(text)))]
    elif cut == "extra data":
        text += draw(st.sampled_from([" x", "{}", ",", "]"]))
    elif cut == "broken token":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["@", ",", "}", '"', "nul"])) + text[at:]
    return text.encode()


@settings(max_examples=500)
@given(data=_graph_json_documents())
@example(data=b'{"edges": [{"source": "a", "target": "b", "predicate": "p"}],'
              b' "nodes": [{"id": "b"}, {"id": "a"}]}')
@example(data=b' \n{ "nodes" :\r\n[ {"id":"a"} ,\t{"id":"b"} ] , "edges":[ ] }\n ')
@example(data=b'{"meta": {"nodes": 5}, "nodes": [{"id": "a"}], "version": [1, 2]}')
@example(data=b'{"nodes": null, "edges": []}')
@example(data=b'{"nodes": [], "edges": null}')
@example(data=b'{}')
@example(data=b'{"nodes": [{"id": 5}], "nodes": [{"id": "a"}]}')
@example(data=b'{"nodes": [{"id": "a"}], "nodes": 5}')
@example(data=b'{"nodes": [{"id": "a"}, {"id": "a"}], "edges": [7], "nodes": null}')
@example(data=b'{"nodes": [{"id": 5}], "edges": [{"source": "a"}] ,}')
@example(data=b'{"edges": [{"source": "a"}], "nodes": [{"id": 5}]')
@example(data=b'{"edges": [{"source": "a"}], "nodes": [{"id": 5}]}')
@example(data=b'{"nodes": [{"id": "a"}],'
              b' "edges": [{"source": "a", "target": "ghost", "predicate": "p"}]}')
@example(data=b'{"nodes": [{"id": "a"}, {"id": "b"}], "edges": [')
@example(data=b'{"nodes": [{"id": "a"}]} x')
@example(data=b'{"nodes": [{"id": "a"},], "edges": []}')
@example(data=b'[{"nodes": []}]')
@example(data=b'')
@example(data=b'\xef\xbb\xbf{}')
@example(data=b'{"nodes": [{"id": "a"}], "edges": 5, "edges": "x"}')
@example(data=(_GOLDEN / "pattern_graph.json").read_bytes())
@example(data=(_GOLDEN / "hub_reinforced.json").read_bytes())
def test_graph_json_reader_matches_the_whole_document_reader(data):
    """Each document reads to the graph that ``json.loads`` and one decode
    per record of the dict it gives read it to, or raises the same class of
    error with the same message."""
    assert _outcome(deserialize_graph, data) == _outcome(support.reference_read_graph_json, data)

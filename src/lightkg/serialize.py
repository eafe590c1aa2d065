"""Deterministic serialization of knowledge graphs (JSON and GraphML) and
of extracted triples (JSONL).

Output is byte-identical across runs for equal graphs: nodes and edges are
emitted in sorted-key order and all collections are sorted before writing.
Both formats round-trip losslessly; GraphML refuses text XML cannot hold. A
GraphML data element holding a node's attributes, an edge's context or its
provenance list holds the same compact JSON the graph JSON document writes
for it, and is read back through the same record shapes, so a context and a
provenance are spelled one way.

The graph JSON document and each triples JSONL line are joined from their
fixed keys and separators and from json's own string encoder, the one a
compact ``JSONEncoder`` calls, so their bytes equal one ``JSONEncoder`` call
over the equivalent dicts with no encoder or dict built per record. The
GraphML document is joined from strings too, escaped by hand, with the
bytes ``xml.etree`` would write for the same indented element tree (but a
carriage return in text as ``&#13;``); ``xml.etree`` only reads GraphML.

Every triple of one chunk carries the same provenance record, and an aggregated
edge repeats the records of its triples, so each graph JSON, GraphML or
triples JSONL write encodes a distinct :class:`Provenance` once, and each read (one
graph, GraphML document or triples file) decodes a provenance record once and
reuses the :class:`Provenance` for every equal record. Through the same
memo a read keeps one object per distinct node id, subject, predicate and
object string, so an edge's source and target are its nodes' ids. Extracted triples
share few distinct contexts (a ``year`` among a few hundred), so each
triples JSONL write also encodes a distinct :class:`ContextMap` once. The
triples write memos are keyed by value, not by object, and each memo lasts
only its call. A graph write counts the record objects on its edges first
and keeps the text only of one that occurs again, so edges that each have
their own records cost no second copy of them.

Memory follows the graph, not the document: a graph write holds at most two
whole copies of its output (:func:`_graph_json`), and a graph JSON read
decodes each node and edge record as json's scanner reaches it, so it holds
the text, the graph built so far and one record, never the whole document
as dicts. The pipeline writes a triples file a block of triples at a time,
with :func:`triples_to_jsonl` per block.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from collections import Counter
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .graph import (
    ContextMap,
    ContextTriple,
    Edge,
    GraphIntegrityError,
    KnowledgeGraph,
    Node,
    Provenance,
)

FORMATS = ("json", "graphml")


class GraphParseError(ValueError):
    """Input bytes could not be parsed into a graph; carries position and
    reason in the message."""


# One encoder for every compact JSON value written here that the string
# joins below do not spell: json.dumps would build a new one per call.
_encode_compact = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

# The function that encoder writes each str with (ensure_ascii=False).
_encode_string = json.encoder.encode_basestring

# Line ends of JSONL input: the ones text-mode file reading splits at. Not
# str.splitlines(), which also splits at U+0085, U+2028, U+2029 and others
# that a JSON string may hold unescaped.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


# --- input files ----------------------------------------------------------------
# Every JSON and JSONL input (corpus, gold, config, fixtures, rules, senses,
# triples, graph JSON) is decoded and parsed here; a failure raises the
# caller's own error class with the position in the message.


def _decode(data: bytes, error: type[Exception], where: str) -> str:
    """``data`` as UTF-8 text. Undecodable bytes raise ``error``; the message
    starts with ``where`` and the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_BREAK.findall(data[: exc.start].decode("utf-8"))) + 1
        raise error(
            f"{where}{line}: invalid utf-8 at byte {exc.start}: {exc.reason}"
        ) from exc


def _loads(text: str, error: type[Exception], where: str, detail: str) -> Any:
    """``json.loads(text)``. Invalid JSON raises ``error`` with the message
    ``where + "invalid json" + detail``, ``detail`` formatted with the
    ``JSONDecodeError``'s ``msg``, ``pos``, ``lineno`` and ``colno``. An
    integer past ``sys.get_int_max_str_digits()`` and nesting past the
    recursion limit raise ``error`` too, as ``where + "invalid json: " +``
    json's own message."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}invalid json{detail.format_map(vars(exc))}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}invalid json: {exc}") from exc


def read_json(path, error: type[Exception]) -> Any:
    """Parse the UTF-8 JSON document in the file ``path``. Undecodable bytes
    and invalid JSON raise ``error`` with a message naming file and line."""
    text = _decode(Path(path).read_bytes(), error, f"{path}:")
    return _loads(text, error, f"{path}: ", ": {msg} at line {lineno} column {colno}")


def read_jsonl(source, error: type[Exception]) -> Iterator[tuple[str, Any]]:
    """Yield ``(where, record)`` for each non-blank line of UTF-8 JSONL:
    ``source`` itself if it is ``bytes``, else the file at path ``source``.
    ``where`` is ``path:N`` for a file and ``line N`` for bytes. Undecodable
    bytes and invalid JSON raise ``error`` with a message that starts with
    the ``where`` of the line."""
    if isinstance(source, bytes):
        data, where = source, "line "
    else:
        data, where = Path(source).read_bytes(), f"{source}:"
    text = _decode(data, error, where)
    # Without "\r" the only line end is "\n": the same lines, split faster.
    lines = _LINE_BREAK.split(text) if "\r" in text else text.split("\n")
    del text  # hold the lines only, not the whole text as well
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        yield f"{where}{lineno}", _loads(line, error, f"{where}{lineno}: ", ": {msg}")


# --- record shapes --------------------------------------------------------------
# What a valid record of each input file looks like, declared once: JSON field
# name -> JSON kind, "?" marking an optional field. Unlisted fields are ignored.


def _strings(value: list) -> bool:
    return all(type(item) is str for item in value)


_NUMBER = (int, float)  # json.loads gives an int or a float; a number is read as a float

# JSON kind -> (the types a decoded value of that kind has, test of its items)
_KINDS = {
    "string": ((str,), None),
    "integer": ((int,), None),
    "number": (_NUMBER, None),
    "boolean": ((bool,), None),
    "list": ((list,), None),
    "object": ((dict,), None),
    "list of strings": ((list,), _strings),
    "object of string lists": (
        (dict,), lambda value: all(type(v) is list and _strings(v) for v in value.values())
    ),
}


def _shape(**fields: str) -> tuple[tuple[str, str, tuple, Any, bool], ...]:
    return tuple(
        (name, kind.rstrip("?"), *_KINDS[kind.rstrip("?")], not kind.endswith("?"))
        for name, kind in fields.items()
    )


SHAPES = {
    "provenance": _shape(source_id="string", chunk_index="integer", extractor="string?"),
    "triple": _shape(
        subject="string", predicate="string", object="string",
        context="object of string lists?", provenance="object",
    ),
    "graph": _shape(nodes="list?", edges="list?"),
    "node": _shape(id="string", attributes="object of string lists?"),
    "edge": _shape(
        id="string?", source="string", target="string", predicate="string",
        context="object of string lists?", confidence="number?", inferred="boolean?",
        provenance="list?",
    ),
    "corpus": _shape(id="string", text="string"),
    "gold entity": _shape(entity="string"),
    "gold triple": _shape(subject="string", predicate="string", object="string"),
    "rule": _shape(
        name="string", pattern="list of strings", inferred_predicate="string", discount="number?"
    ),
    "sense": _shape(sense_label="string", cues="list of strings"),
}


def register_settings(name: str, cls) -> None:
    """Declare ``SHAPES[name]``, the shape of a record of the settings
    dataclass ``cls``, derived from its fields: each is optional and of the
    first kind in ``_KINDS`` that takes its default's type, a None default
    meaning a string. A field whose ``default_factory`` is a dataclass holds
    an object, whose shape is registered in turn under the field's name."""
    kinds = {}
    for f in dataclasses.fields(cls):
        default = "" if f.default is None else f.default
        if dataclasses.is_dataclass(f.default_factory):
            register_settings(f.name, f.default_factory)
            default = {}
        kinds[f.name] = next(k for k, (types, _) in _KINDS.items() if type(default) in types) + "?"
    SHAPES[name] = _shape(**kinds)


def decode_settings(record: Any, name: str, cls, error: type[Exception], where: str):
    """The settings dataclass ``cls`` of the ``SHAPES[name]`` record ``record``,
    by :func:`decode_record`; a key that names no field raises, and nested
    settings are decoded in turn, each under its field's name."""

    def build(**values: Any) -> Any:
        unknown = record.keys() - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown keys: {sorted(unknown)}")
        for f in dataclasses.fields(cls):
            if f.name in values and dataclasses.is_dataclass(f.default_factory):
                values[f.name] = decode_settings(
                    values[f.name], f.name, f.default_factory, ValueError, f.name
                )
        return cls(**values)

    return decode_record(record, name, build, error, where)


def decode_record(record: Any, shape: str, build, error: type[Exception], where: str):
    """``build(**fields)`` for the fields of ``record`` that ``SHAPES[shape]``
    lists and that are present and not null; a number arrives as a float.
    ``record`` not being an object, a required field missing or null, a field
    of another kind and a ``ValueError`` from ``build`` raise ``error`` with a
    message that starts with ``where``."""
    try:
        if type(record) is not dict:
            raise ValueError(f"expected a json object, got {_encode_compact(record):.60}")
        fields = {}
        for name, kind, types, items, required in SHAPES[shape]:
            value = record.get(name)
            if value is None:
                if required:
                    raise ValueError(f"missing field {name!r}")
            elif type(value) not in types or (items is not None and not items(value)):
                raise ValueError(
                    f"{name} must be a json {kind}, got {_encode_compact(value):.60}"
                )
            else:
                fields[name] = float(value) if types is _NUMBER else value
        return build(**fields)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise error(f"{where}: {exc}") from exc


def _provenance(record: Any, memo: dict, index: int | None = None) -> Provenance:
    """``decode_record(record, "provenance", Provenance, ValueError, where)``,
    stored in ``memo`` under the record's three fields when each has exactly
    a type the shape accepts, and taken from there for every equal record.
    Any other record is decoded uncached; a failed decode is never stored.
    ``where`` is "provenance", or "provenance #index" for a list item; it is
    built only for a record the memo does not hold."""
    try:
        key = (record["source_id"], record["chunk_index"], record.get("extractor"))
        # Not bool or float: True == 1 == 1.0 as dict keys. A stored key has
        # exactly a type the shape accepts, and no other JSON value equals a
        # str or None; an unhashable field raises TypeError.
        found = memo.get(key) if type(key[1]) is int else None
    except (KeyError, TypeError):  # a required field missing, no object, or unhashable
        key = found = None
    if found is None:
        where = "provenance" if index is None else f"provenance #{index}"
        found = decode_record(record, "provenance", Provenance, ValueError, where)
        if key is not None:
            memo[key] = found
    return found


def _edge(memo, source, target, predicate, context=None, confidence=0.5, inferred=False,
          provenance=(), id="") -> Edge:
    provenance = tuple(_provenance(p, memo, i) for i, p in enumerate(provenance))
    share = memo.setdefault
    return Edge(
        share(source, source), share(target, target), share(predicate, predicate),
        ContextMap(context), confidence, provenance, inferred, id,
    )


def _provenance_to_dict(p: Provenance) -> dict[str, Any]:
    return {
        "source_id": p.source_id,
        "chunk_index": p.chunk_index,
        "extractor": p.extractor.value,
    }


def _context_json(cm: ContextMap) -> str:
    """``_encode_compact(cm.to_dict())``."""
    return "{" + ",".join(
        f"{_encode_string(key)}:[{','.join(map(_encode_string, sorted(values)))}]"
        for key, values in cm.items()
    ) + "}"


def _provenance_json(p: Provenance) -> str:
    """``_encode_compact(_provenance_to_dict(p))``; ``Provenance`` guarantees
    that ``source_id`` is a str and ``chunk_index`` an int."""
    s = _encode_string
    return (
        f'{{"source_id":{s(p.source_id)},"chunk_index":{int.__repr__(p.chunk_index)},'
        f'"extractor":{s(p.extractor.value)}}}'
    )


def _once(encode: Callable[[Any], str]) -> Callable[[Any], str]:
    """``encode``, called once per distinct value for as long as the returned
    function lives. The memo is keyed by value, so equal values that are
    separate objects share one entry."""
    memo: dict[Any, str] = {}

    def encoded(value: Any) -> str:
        text = memo.get(value)
        if text is None:
            text = memo[value] = encode(value)
        return text

    return encoded


def _provenance_encoder(g: KnowledgeGraph) -> Callable[[Provenance], str]:
    """``_provenance_json`` for a write of ``g``'s edges: each record object
    is encoded once, and its text is held only if the object is on ``g``'s
    edges more than once, so a graph whose edges each have records of their
    own holds no second copy of them. Records are counted and remembered by
    object, not by value: an object's id hashes faster than a record, and
    equal records are one object in a graph that aggregation builds (one
    record per chunk) or a read returns. Equal records that are separate
    objects are each encoded, to the same text."""
    counts = Counter(map(id, chain.from_iterable(e.provenance for e in g.edges.values())))
    memo: dict[int, str] = {}

    def encoded(p: Provenance) -> str:
        key = id(p)
        text = memo.get(key)
        if text is None:
            text = _provenance_json(p)
            if counts[key] > 1:
                memo[key] = text
        return text

    return encoded


def _json_array(records: Iterable[str]) -> list[str]:
    """Parts whose concatenation is ``"[" + ",".join(records) + "]"``. The
    records are joined 128 at a time, so no more than one block of them
    is alive as separate strings."""
    records, parts = iter(records), []
    while block := list(islice(records, 128)):
        parts += (",", ",".join(block))
    parts[:1] = ["["]  # the first separator, or nothing if no records
    parts.append("]")
    return parts


def _edge_json(provenance_json: Callable[[Provenance], str], e: Edge) -> str:
    s, inferred = _encode_string, "true" if e.inferred else "false"
    return (
        f'{{"id":{s(e.edge_id)},"source":{s(e.source)},"target":{s(e.target)},'
        f'"predicate":{s(e.predicate)},"context":{_context_json(e.context)},'
        f'"confidence":{float.__repr__(e.confidence)},"inferred":{inferred},'
        f'"provenance":[{",".join(map(provenance_json, e.provenance))}]}}'
    )


def _graph_json(g: KnowledgeGraph) -> str:
    """The compact JSON of ``{"nodes": [...], "edges": [...]}``, nodes sorted
    by id and edges by edge id, each provenance record encoded once.

    At most two whole copies of the output are alive at once: its parts and
    their one join, then the joined text and its bytes. The provenance memo
    dies with the edge records' map, before the join."""
    s = _encode_string
    return "".join([
        '{"nodes":',
        *_json_array(
            f'{{"id":{s(node.id)},"attributes":{_context_json(node.attributes)}}}'
            for node in map(g.nodes.__getitem__, sorted(g.nodes))
        ),
        ',"edges":',
        *_json_array(map(
            partial(_edge_json, _provenance_encoder(g)),
            map(g.edges.__getitem__, sorted(g.edges)),
        )),
        "}",
    ])


def _parse_json(text: str, where: str = "") -> Any:
    """``json.loads(text)``; invalid JSON raises :class:`GraphParseError`
    with a message that starts with ``where``."""
    return _loads(text, GraphParseError, where, " at offset {pos}: {msg}")


def _node(memo, id, attributes=None) -> Node:
    return Node(memo.setdefault(id, id), ContextMap(attributes))


class _Records(dict):
    """A graph's nodes or edges by id, each decoded as its record is added,
    as one list of ``kind`` records ("node" or "edge") is decoded: the first
    record that fails, named ``kind #N``, or repeats an id, is kept as
    ``error`` for :func:`_graph` to raise, and no later record is decoded.
    ``memo`` is the read's memo of provenance records and label strings,
    one for the nodes and the edges of a read."""

    def __init__(self, kind: str, memo: dict) -> None:
        super().__init__()
        self.kind, self.error = kind, None
        self._build = partial(_node if kind == "node" else _edge, memo)

    def add(self, record: Any) -> None:
        if self.error is not None:
            return
        try:
            item = decode_record(
                record, self.kind, self._build, GraphParseError, f"{self.kind} #{len(self)}"
            )
            key = item.id if self.kind == "node" else item.edge_id
            if key in self:
                raise GraphParseError(f"duplicate {self.kind} id {key!r}")
            self[key] = item
        except GraphParseError as exc:
            self.error = exc


def _graph(nodes: _Records, edges: _Records) -> KnowledgeGraph:
    """The graph of ``nodes`` and ``edges``; a kept error raises, a node's
    before an edge's."""
    for records in (nodes, edges):
        if records.error is not None:
            raise records.error
    return KnowledgeGraph(nodes, edges)


# json's own scanner, the one json.loads reads with: the JSON value that
# starts at an index of a text, and the index past it.
_scan_value = json.JSONDecoder().scan_once
_SPACE = frozenset(" \t\n\r")
_skip_space = re.compile(r"[ \t\n\r]*").match
_SECTIONS = {"nodes": "node", "edges": "edge"}


def _read_json_array(text: str, i: int, add: Callable[[Any], None]) -> int:
    """``add`` each value of the JSON array whose ``[`` is at ``text[i]``, in
    order; the index past its ``]``. Text that is no array raises."""
    scan, skip = _scan_value, _skip_space
    i += 1
    if text[i:i + 1] in _SPACE:
        i = skip(text, i).end()
    if text.startswith("]", i):
        return i + 1
    while True:
        value, i = scan(text, i)
        add(value)
        c = text[i:i + 1]
        if c in _SPACE:
            i = skip(text, i).end()
            c = text[i:i + 1]
        if c != ",":
            break
        i += 1
        if text[i:i + 1] in _SPACE:
            i = skip(text, i).end()
    if c != "]":
        raise ValueError("no json array")
    return i + 1


def _graph_fields(text: str) -> tuple[Any, dict[str, _Records]]:
    """The JSON document ``text`` read as a graph: its value, an object
    holding only its ``nodes`` and ``edges`` fields, and those that are
    arrays, each as the :class:`_Records` of its items. An array field is
    held as ``[]`` in the object, and its items are decoded as the scanner
    reaches them; a repeated field keeps its last value, as ``json.loads``
    does. Text that is no JSON raises ``ValueError``, ``StopIteration`` or
    ``RecursionError``."""
    scan, skip = _scan_value, _skip_space
    i = skip(text).end()
    sections: dict[str, _Records] = {}
    memo: dict = {}
    if not text.startswith("{", i):
        top, i = scan(text, i)
    else:
        top = {}
        i = skip(text, i + 1).end()
        if text.startswith("}", i):
            i += 1
        else:
            while True:
                if not text.startswith('"', i):
                    raise ValueError("no json object")
                key, i = scan(text, i)
                i = skip(text, i).end()
                if not text.startswith(":", i):
                    raise ValueError("no json object")
                i = skip(text, i + 1).end()
                kind = _SECTIONS.get(key)
                if kind is not None and text.startswith("[", i):
                    top[key], sections[key] = [], _Records(kind, memo)
                    i = _read_json_array(text, i, sections[key].add)
                else:
                    value, i = scan(text, i)
                    if kind is not None:
                        top[key] = value
                        sections.pop(key, None)
                i = skip(text, i).end()
                if text.startswith("}", i):
                    i += 1
                    break
                if not text.startswith(",", i):
                    raise ValueError("no json object")
                i = skip(text, i + 1).end()
    if skip(text, i).end() != len(text):
        raise ValueError("extra data")
    return top, sections


def _graph_from_json(text: str) -> KnowledgeGraph:
    """The graph of the graph JSON document ``text``, each node and edge
    record decoded as json's scanner reaches it, so only one record is alive
    as a dict at a time. Errors are those of ``json.loads`` and then one
    decode per record: text that is no JSON raises its syntax error, worded
    by ``json.loads`` of the whole text, whatever bad record came before it;
    then a field of the wrong kind, the first bad node, the first bad edge
    and an edge to a missing node, in that order."""
    try:
        top, sections = _graph_fields(text)
    except (ValueError, StopIteration, RecursionError):
        _parse_json(text)  # raises, worded as json.loads words it
        raise
    decode_record(top, "graph", dict, GraphParseError, "graph")
    return _graph(
        sections.get("nodes", _Records("node", {})), sections.get("edges", _Records("edge", {}))
    )


# --- GraphML -----------------------------------------------------------------


# The start of every GraphML document written here, up to its graph element.
_GRAPHML_HEAD = """<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="attributes" attr.type="string" />
  <key id="d1" for="edge" attr.name="predicate" attr.type="string" />
  <key id="d2" for="edge" attr.name="context" attr.type="string" />
  <key id="d3" for="edge" attr.name="confidence" attr.type="double" />
  <key id="d4" for="edge" attr.name="inferred" attr.type="boolean" />
  <key id="d5" for="edge" attr.name="provenance" attr.type="string" />
"""


# Outside XML 1.0's Char: no reader takes it, even as a character reference.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_text(text: str) -> str:
    """``text`` escaped as XML character data, a CR as ``&#13;`` to read back as CR."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace(
        "\r", "&#13;")


def _xml_attribute(text: str) -> str:
    """``text`` escaped as a double-quoted XML attribute value; tabs and line
    ends as character references, so a reader gets them back as written."""
    return _xml_text(text).replace('"', "&quot;").replace("\n", "&#10;").replace("\t", "&#09;")


def _graphml_data(key: str, text: str) -> str:
    """One data element line, closed as ``<data key="…" />`` if ``text`` is
    empty (a predicate may be)."""
    text = _xml_text(text)
    return f'      <data key="{key}">{text}</data>\n' if text else f'      <data key="{key}" />\n'


def _graph_to_graphml(g: KnowledgeGraph) -> bytes:
    """The GraphML of ``g``, nodes sorted by id and edges by edge id, in the
    bytes ``xml.etree``'s ``indent`` and ``tostring`` write for its tree. Data
    elements hold the JSON :func:`_graph_json` writes for attributes,
    contexts and provenance lists, each provenance record encoded once. An
    edge id, a hex content hash, is written unescaped.

    One string per node and edge element: at most two whole copies of the
    output are alive at once, the strings and their join, then the joined
    text and its bytes. Raises :class:`~lightkg.graph.GraphIntegrityError`
    naming the first element whose text holds a character outside XML 1.0's
    ``Char``: a C0 control but tab, LF and CR, U+FFFE, U+FFFF, a surrogate."""
    a, c, data = _xml_attribute, _context_json, _graphml_data
    provenance_json = _provenance_encoder(g)
    parts = [_GRAPHML_HEAD, '  <graph id="G" edgedefault="directed">\n']
    append = parts.append
    for node in map(g.nodes.__getitem__, sorted(g.nodes)):
        append(
            f'    <node id="{a(node.id)}">\n{data("d0", c(node.attributes))}    </node>\n'
            if node.attributes else f'    <node id="{a(node.id)}" />\n'
        )
    for e in map(g.edges.__getitem__, sorted(g.edges)):
        append(
            f'    <edge id="{e.edge_id}" source="{a(e.source)}" target="{a(e.target)}">\n'
            f'{data("d1", e.predicate)}{data("d2", c(e.context)) if e.context else ""}'
            f'{data("d3", float.__repr__(e.confidence))}'
            f'{data("d4", "true" if e.inferred else "false")}'
            f'{data("d5", "[" + ",".join(map(provenance_json, e.provenance)) + "]")}    </edge>\n'
        )
    del provenance_json  # the memo dies before the join
    if len(parts) == 2:  # no nodes, so no edges either
        parts[1] = '  <graph id="G" edgedefault="directed" />\n'
    else:
        append("  </graph>\n")
    append("</graphml>")
    text = "".join(parts)
    if bad := _NOT_XML_CHAR.search(text):
        element = next(part for part in parts if _NOT_XML_CHAR.search(part)).split("\n")[0]
        raise GraphIntegrityError(f"graphml: {element.strip()!r} holds {bad.group()!r}")
    del parts, append
    return text.encode("utf-8")


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _graph_from_graphml(data: bytes) -> KnowledgeGraph:
    import xml.etree.ElementTree as ET  # loaded by a GraphML read only

    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise GraphParseError(f"invalid graphml at {exc.position}: {exc.msg}") from exc
    if _local_name(root.tag) != "graphml":
        raise GraphParseError(f"expected <graphml> root, got <{_local_name(root.tag)}>")
    key_names = {}
    graph_el = None
    for child in root:
        tag = _local_name(child.tag)
        if tag == "key":
            key_names[child.get("id", "")] = child.get("attr.name", "")
        elif tag == "graph" and graph_el is None:
            graph_el = child
    if graph_el is None:
        raise GraphParseError("graphml document has no <graph> element")

    def data_fields(element: ET.Element) -> dict[str, str]:
        fields = {}
        for data_el in element:
            if _local_name(data_el.tag) != "data":
                continue
            name = key_names.get(data_el.get("key", ""), data_el.get("key", ""))
            fields[name] = data_el.text or ""
        return fields

    def json_field(fields: dict[str, str], name: str, where: str) -> Any:
        """Field ``name`` decoded as JSON, or None if it is absent."""
        text = fields.get(name)
        return None if text is None else _parse_json(text, f"{where}: {name}: ")

    memo: dict = {}
    nodes, edges = _Records("node", memo), _Records("edge", memo)
    for element in graph_el:
        tag = _local_name(element.tag)
        if tag not in ("node", "edge"):
            continue
        fields = data_fields(element)
        where = f"graphml {tag} {element.get('id')!r}"
        if tag == "node":
            nodes.add({"id": element.get("id"), "attributes": json_field(fields, "attributes", where)})
            continue
        try:
            confidence = float(fields["confidence"]) if "confidence" in fields else None
        except ValueError as exc:
            raise GraphParseError(f"{where}: {exc}") from exc
        edges.add(
            {
                "id": element.get("id"),
                "source": element.get("source"),
                "target": element.get("target"),
                "predicate": fields.get("predicate"),
                "context": json_field(fields, "context", where),
                "confidence": confidence,
                "inferred": fields.get("inferred", "false") == "true",
                "provenance": json_field(fields, "provenance", where),
            }
        )
    return _graph(nodes, edges)


# --- public entry points ------------------------------------------------------


def serialize_graph(g: KnowledgeGraph, fmt: str = "json") -> bytes:
    """Serialize ``g``; deterministic byte output for equal graphs."""
    if fmt == "json":
        return _graph_json(g).encode("utf-8")
    if fmt == "graphml":
        return _graph_to_graphml(g)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def deserialize_graph(data: bytes | str | os.PathLike, fmt: str = "json") -> KnowledgeGraph:
    """Parse bytes produced by :func:`serialize_graph` (or conforming to the
    documented schema) back into a graph: ``data`` itself if it is bytes,
    else the file at the path ``data``.

    Raises :class:`GraphParseError` on malformed input and
    :class:`~lightkg.graph.GraphIntegrityError` when an edge references a
    missing node; for a file, the message starts with its path.
    """
    if not isinstance(data, bytes):
        try:
            if fmt == "json":
                # Read here, not through the call below, whose argument would
                # keep the file's bytes alive for the whole read. The bytes
                # are a temporary, released once decoded.
                return _graph_from_json(_decode(Path(data).read_bytes(), GraphParseError, "line "))
            return deserialize_graph(Path(data).read_bytes(), fmt)
        except (GraphParseError, GraphIntegrityError) as exc:
            raise type(exc)(f"{data}: {exc}") from exc
    if fmt == "json":
        return _graph_from_json(_decode(data, GraphParseError, "line "))
    if fmt == "graphml":
        return _graph_from_graphml(data)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def format_for_path(path: str) -> str:
    return "graphml" if str(path).endswith(".graphml") else "json"


# --- triples JSONL ------------------------------------------------------------


def triple_to_dict(t: ContextTriple) -> dict[str, Any]:
    return {
        "subject": t.subject,
        "predicate": t.predicate,
        "object": t.object,
        "context": t.context.to_dict(),
        "provenance": _provenance_to_dict(t.provenance),
    }


def _triple(memo, subject, predicate, object, provenance, context=None) -> ContextTriple:
    share = memo.setdefault
    return ContextTriple(
        share(subject, subject), share(predicate, predicate), share(object, object),
        ContextMap(context), _provenance(provenance, memo),
    )


def _triple_json(
    provenance_json: Callable[[Provenance], str],
    context_json: Callable[[ContextMap], str],
    t: ContextTriple,
) -> str:
    """``_encode_compact(triple_to_dict(t))``, its provenance encoded by
    ``provenance_json`` and its context by ``context_json``."""
    s = _encode_string
    return (
        f'{{"subject":{s(t.subject)},"predicate":{s(t.predicate)},"object":{s(t.object)},'
        f'"context":{context_json(t.context)},"provenance":{provenance_json(t.provenance)}}}'
    )


def triples_to_jsonl(triples: Iterable[ContextTriple]) -> bytes:
    """One ``_triple_json`` line per triple, each ending in a newline.

    At most two whole copies of the output are alive at once: the lines and
    their join, then the joined text and its bytes. The text is encoded in
    one call, so an unencodable character is reported at its position in
    the whole document."""
    # The memos die with the partial, before the join.
    encode = partial(_triple_json, _once(_provenance_json), _once(_context_json))
    lines = list(map(encode, triples))
    del encode
    if lines:
        lines.append("")  # the join then ends in a newline, with no second copy
    text = "\n".join(lines)
    del lines
    return text.encode("utf-8")


def triples_from_jsonl(data: bytes | str | os.PathLike) -> list[ContextTriple]:
    """Parse ``triples_to_jsonl`` output: ``data`` itself if it is bytes,
    else the file at the path ``data``. A line that is undecodable, invalid
    JSON or no triple raises :class:`GraphParseError` with a message that
    starts ``line N:``, or ``path:N:`` for a file."""
    records = read_jsonl(data, GraphParseError)
    build = partial(_triple, {})
    return [decode_record(r, "triple", build, GraphParseError, where) for where, r in records]

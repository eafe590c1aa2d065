"""Serialization: deterministic bytes, lossless round trips, parse errors."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lightkg.graph import ContextMap, GraphIntegrityError, KnowledgeGraph
from lightkg.serialize import (
    GraphParseError,
    deserialize_graph,
    flatten_context,
    serialize_graph,
    triples_from_jsonl,
    triples_to_jsonl,
    unflatten_context,
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
    <node id="a"><data key="k9">kind=planet</data></node>
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


@given(cm=support.context_maps)
def test_context_flattening_round_trip(cm):
    assert unflatten_context(flatten_context(cm)) == cm


def test_flattening_escapes_separators():
    nasty = ContextMap({"k": ["a=b", "c;d", "e|f", "g\\h"]})
    assert unflatten_context(flatten_context(nasty)) == nasty


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

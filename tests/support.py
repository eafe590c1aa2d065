"""Shared oracles and random-instance builders for the test suite.

The oracles are deliberately independent of the library: plain deque BFS
over adjacency dicts, exhaustive simple-path enumeration, brute-force
subset search, naive set comparison. Library results are checked against
these, never against themselves.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import replace
from functools import partial
from typing import NamedTuple

from hypothesis import strategies as st

from lightkg import extraction, serialize
from lightkg.aggregation import (
    DEFAULT_POLICY,
    EmptyLabelError,
    aggregate_triples,
    normalize_label,
)
from lightkg.graph import (
    ContextMap,
    ContextTriple,
    Edge,
    Extractor,
    KnowledgeGraph,
    Node,
    Provenance,
    _adjacency_index,
)
from lightkg.serialize import SHAPES, GraphParseError, decode_record
from lightkg.topology import DEFAULT_CONFIG, TopologyConfig, _greedy_supports

PROV = Provenance("fixture", 0, Extractor.PATTERN)


def triple(s: str, p: str, o: str, ctx: dict | None = None, prov: Provenance = PROV) -> ContextTriple:
    return ContextTriple(s, p, o, context=ContextMap(ctx or {}), provenance=prov)


def graph_of(*spo) -> KnowledgeGraph:
    """Fold (s, p, o[, context dict]) tuples into a graph with
    :func:`reference_aggregate`; labels should already be canonical."""
    graph, _ = reference_aggregate([triple(*item) for item in spo])
    return graph


# --- the library's path search, as the path tests see it -------------------------


class PathEvidence(NamedTuple):
    """A simple path given as node ids plus the edge ids connecting them."""

    nodes: tuple[str, ...]
    edges: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


def edge_disjoint_paths(
    g: KnowledgeGraph,
    source: str,
    target: str,
    max_len: int = DEFAULT_CONFIG.max_path_length,
    undirected: bool = True,
    exclude_edges=(),
) -> list[PathEvidence]:
    """The paths reinforcement's greedy, ``lightkg.topology._greedy_supports``,
    finds between ``source`` and ``target`` over an adjacency index of
    ``g``'s stated edges, avoiding ``exclude_edges``: the library code under
    test, which the oracles below are checked against."""
    used = set(exclude_edges)
    touched = {
        node for eid in used if eid in g.edges
        for node in (g.edges[eid].source, g.edges[eid].target)
    }
    return [
        PathEvidence(tuple(nodes), tuple(edge_ids))
        for nodes, edge_ids in _greedy_supports(
            _adjacency_index(g, undirected), source, target, max_len, used, touched
        )
    ]


# --- independent graph oracles -------------------------------------------------


def inferred_edge_ids(g: KnowledgeGraph) -> list[str]:
    return [eid for eid, edge in g.edges.items() if edge.inferred]


def edge_pairs(g: KnowledgeGraph) -> list[tuple[str, str]]:
    """(source, target) of each stated edge: the ones a path search walks."""
    return [(e.source, e.target) for e in g.edges.values() if not e.inferred]


def oracle_shortest_len(
    pairs: list[tuple[str, str]],
    source: str,
    target: str,
    undirected: bool,
) -> int | None:
    """Unidirectional BFS shortest distance; None when disconnected."""
    adjacency: dict[str, set[str]] = {}
    for u, v in pairs:
        adjacency.setdefault(u, set()).add(v)
        if undirected:
            adjacency.setdefault(v, set()).add(u)
    queue = deque([(source, 0)])
    seen = {source}
    while queue:
        node, dist = queue.popleft()
        if node == target:
            return dist
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append((neighbor, dist + 1))
    return None


def enumerate_simple_paths(
    pairs: list[tuple[str, str]],
    source: str,
    target: str,
    max_len: int,
    undirected: bool,
) -> list[tuple[str, ...]]:
    """Every simple node path from source to target with <= max_len hops."""
    adjacency: dict[str, set[str]] = {}
    for u, v in pairs:
        adjacency.setdefault(u, set()).add(v)
        if undirected:
            adjacency.setdefault(v, set()).add(u)
    found: list[tuple[str, ...]] = []

    def walk(path: list[str]) -> None:
        if path[-1] == target:
            found.append(tuple(path))
            return
        if len(path) > max_len:
            return
        for neighbor in sorted(adjacency.get(path[-1], ())):
            if neighbor not in path:
                walk(path + [neighbor])

    walk([source])
    return found


def path_edge_sets(
    g: KnowledgeGraph, node_path: tuple[str, ...], undirected: bool
) -> set[frozenset[str]]:
    """All ways to realize a node path as a set of edge ids (parallel edges
    give several realizations)."""
    options: list[list[str]] = []
    for u, v in zip(node_path, node_path[1:]):
        ids = [
            e.edge_id
            for e in g.edges.values()
            if (e.source, e.target) == (u, v)
            or (undirected and (e.source, e.target) == (v, u))
        ]
        options.append(ids)
    realizations = set()
    for combo in itertools.product(*options):
        if len(set(combo)) == len(combo):
            realizations.add(frozenset(combo))
    return realizations


def max_edge_disjoint_count(edge_sets: list[frozenset[str]]) -> int:
    """Brute-force size of the largest pairwise edge-disjoint subset."""
    best = 0
    for size in range(len(edge_sets), 0, -1):
        for combo in itertools.combinations(edge_sets, size):
            union = set()
            total = 0
            for es in combo:
                union |= es
                total += len(es)
            if len(union) == total:
                return size
    return best


def reference_neighbor_maps(
    g: KnowledgeGraph, exclude: frozenset[str]
) -> tuple[dict[str, set[str]], dict[str, set[str]], dict[tuple[str, str], list[str]]]:
    """Successors, predecessors and per-pair sorted edge ids of ``g`` without
    the excluded edges, rebuilt from scratch on every call."""
    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    pair_edges: dict[tuple[str, str], list[str]] = {}
    for eid in sorted(g.edges):
        if eid in exclude:
            continue
        edge = g.edges[eid]
        succ.setdefault(edge.source, set()).add(edge.target)
        pred.setdefault(edge.target, set()).add(edge.source)
        pair_edges.setdefault((edge.source, edge.target), []).append(eid)
    return succ, pred, pair_edges


def reference_shortest_path(
    g: KnowledgeGraph,
    source: str,
    target: str,
    max_len: int,
    undirected: bool,
    exclude,
) -> PathEvidence | None:
    """Shortest path with the library's tie-breaks (lexicographically smallest
    node sequence, then smallest edge id per hop), searched over neighbor maps
    rebuilt without the excluded edges for every search, with a plain
    unidirectional BFS for distances; it can stand in for
    ``lightkg.topology._shortest_path``."""
    succ, pred, pair_edges = reference_neighbor_maps(g, frozenset(exclude))
    if undirected:

        def forward(n: str) -> set[str]:
            return succ.get(n, set()) | pred.get(n, set())

        backward = forward
    else:

        def forward(n: str) -> set[str]:
            return succ.get(n, set())

        def backward(n: str) -> set[str]:
            return pred.get(n, set())

    dist_t = {target: 0}
    queue = deque([target])
    while queue:
        node = queue.popleft()
        for neighbor in backward(node):
            if neighbor not in dist_t:
                dist_t[neighbor] = dist_t[node] + 1
                queue.append(neighbor)
    length = dist_t.get(source)
    if length is None or length > max_len:
        return None
    nodes = [source]
    for step_index in range(length):
        needed = length - step_index - 1
        nodes.append(min(v for v in forward(nodes[-1]) if dist_t.get(v) == needed))
    edge_ids = []
    for u, v in zip(nodes, nodes[1:]):
        ids = list(pair_edges.get((u, v), []))
        if undirected:
            ids += pair_edges.get((v, u), [])
        edge_ids.append(min(ids))
    return PathEvidence(tuple(nodes), tuple(edge_ids))


def reference_edge_disjoint_paths(
    g: KnowledgeGraph,
    source: str,
    target: str,
    max_len: int,
    undirected: bool = True,
    exclude_edges=(),
) -> list[PathEvidence]:
    """Greedy edge-disjoint paths over :func:`reference_shortest_path`; it
    can stand in for :func:`edge_disjoint_paths` when ``max_len`` is
    given."""
    used = set(exclude_edges)
    found: list[PathEvidence] = []
    while (
        path := reference_shortest_path(g, source, target, max_len, undirected, used)
    ) is not None:
        found.append(path)
        used.update(path.edges)
    found.sort(key=lambda p: (p.length, p.nodes))
    return found


def reference_reinforce_confidence(g: KnowledgeGraph, config: TopologyConfig) -> KnowledgeGraph:
    """Reinforcement as its docstring states it: each non-inferred edge gets
    a noisy-OR over the supports :func:`reference_edge_disjoint_paths` finds
    with that edge and every inferred edge excluded, one factor per path in
    path order, clamped to [floor, ceiling]."""
    inferred = inferred_edge_ids(g)
    edges = {}
    for eid, edge in g.edges.items():
        if edge.inferred:
            edges[eid] = edge
            continue
        supports = [] if edge.source == edge.target else reference_edge_disjoint_paths(
            g, edge.source, edge.target, config.max_path_length,
            undirected=config.undirected_paths, exclude_edges=(eid, *inferred),
        )
        miss = 1.0
        for path in supports:
            miss *= 1.0 - config.base_path_weight**path.length
        confidence = 1.0 - (1.0 - config.direct_edge_weight) * miss
        edges[eid] = replace(
            edge,
            confidence=min(config.confidence_ceiling, max(config.confidence_floor, confidence)),
        )
    return KnowledgeGraph(g.nodes, edges)


def reference_infer(g: KnowledgeGraph, rules) -> KnowledgeGraph:
    """Rule inference as its docstring states it, by brute force: every
    sequence of stated (non-inferred) edges whose predicates spell a rule's
    pattern and that is a directed simple path yields an edge from its first
    node to its last, with the product of its confidences times ``discount``
    per hop beyond the first. Per inferred id the highest confidence wins,
    then the smallest witness (the path's edge ids in order), then the
    earlier rule.
    An existing non-inferred edge of that id stays as it is; an existing
    inferred one keeps the larger confidence and gains the witness if it
    does not hold it yet."""
    best: dict[str, tuple] = {}
    for rule in rules:
        steps = [
            [e for e in g.edges.values() if e.predicate == p and not e.inferred]
            for p in rule.pattern
        ]
        for path in itertools.product(*steps):
            nodes = [path[0].source] + [e.target for e in path]
            if len(set(nodes)) < len(nodes) or any(
                a.target != b.source for a, b in zip(path, path[1:])
            ):
                continue
            confidence = 1.0
            for e in path:
                confidence *= e.confidence
            confidence *= rule.discount ** (len(rule.pattern) - 1)
            witness = tuple(e.edge_id for e in path)
            eid = Edge(nodes[0], nodes[-1], rule.inferred_predicate).edge_id
            kept = best.get(eid)
            if kept is None or (-confidence, witness) < (-kept[0], kept[1]):
                best[eid] = (confidence, witness, rule, nodes[0], nodes[-1])
    edges = dict(g.edges)
    for eid, (confidence, witness, rule, source, target) in best.items():
        provenance = Provenance(f"rule:{rule.name}:{'|'.join(witness)}", 0, Extractor.INFERRED)
        existing = g.edges.get(eid)
        if existing is None:
            edges[eid] = Edge(
                source, target, rule.inferred_predicate,
                confidence=confidence, provenance=(provenance,), inferred=True,
            )
        elif existing.inferred:
            witnesses = list(existing.provenance)
            if provenance not in witnesses:
                witnesses.append(provenance)
            edges[eid] = replace(
                existing,
                confidence=max(existing.confidence, confidence),
                provenance=tuple(witnesses),
            )
    return KnowledgeGraph(g.nodes, edges)


def reference_attach_senses(g: KnowledgeGraph, senses_by_node) -> KnowledgeGraph:
    """Sense attachment by cue coverage, from its definition: for each node
    of ``g`` with senses, a sense scores the share of its cues that share a
    stated (non-inferred) edge with the node, in either direction, the node
    itself never counting. The first highest-scoring sense, in input order,
    joins the node's ``sense`` values if it scores above zero."""
    nodes = dict(g.nodes)
    for label, senses in senses_by_node.items():
        if label not in g.nodes or not senses:
            continue
        top, top_score = None, -1.0
        for sense in senses:
            hits = sum(
                cue != label
                and any(
                    not e.inferred and {e.source, e.target} == {label, cue}
                    for e in g.edges.values()
                )
                for cue in sense.cue_labels
            )
            score = hits / len(sense.cue_labels)
            if score > top_score:
                top, top_score = sense.sense_label, score
        if top_score > 0:
            node = nodes[label]
            nodes[label] = Node(label, node.attributes.with_value("sense", top))
    return KnowledgeGraph(nodes, g.edges)


def add_triple(facts: dict, item: ContextTriple, policy=DEFAULT_POLICY) -> dict:
    """One step of :func:`reference_aggregate`: a copy of ``facts``, which
    maps canonical (subject, predicate, object) to (context as key -> frozen
    value set, provenance tuple), with ``item`` added, its labels normalized
    under ``policy``. Raises :class:`EmptyLabelError` if subject, predicate
    or object normalizes to nothing; context values that do are left out."""
    spo = tuple(
        normalize_label(label, policy) for label in (item.subject, item.predicate, item.object)
    )
    context, provenance = facts.get(spo, ({}, ()))
    context = dict(context)
    for key, values in item.context.items():
        kept = set()
        for value in values:
            try:
                kept.add(normalize_label(value, policy))
            except EmptyLabelError:
                pass
        context[key] = context.get(key, frozenset()) | kept
    return {**facts, spo: (context, provenance + (item.provenance,))}


def reference_aggregate(
    triples: list[ContextTriple], policy=DEFAULT_POLICY
) -> tuple[KnowledgeGraph, list[tuple[ContextTriple, str]]]:
    """Left fold of :func:`add_triple` under ``policy`` in (source_id,
    chunk_index, input) order, collecting the triples it rejects, then one
    graph built from the facts with the default base confidence. Shares no
    code with the library's fold: each step copies the whole fact table."""
    facts: dict = {}
    rejected = []
    ordered = sorted(triples, key=lambda t: (t.provenance.source_id, t.provenance.chunk_index))
    for item in ordered:
        try:
            facts = add_triple(facts, item, policy)
        except EmptyLabelError as exc:
            rejected.append((item, str(exc)))
    nodes = {}
    edges = {}
    for (s, p, o), (context, provenance) in facts.items():
        nodes.setdefault(s, Node(s))
        nodes.setdefault(o, Node(o))
        edge = Edge(s, o, p, ContextMap(context), 0.5, provenance)
        edges[edge.edge_id] = edge
    return KnowledgeGraph(nodes, edges), rejected


def union_graphs(*graphs: KnowledgeGraph) -> KnowledgeGraph:
    """Aggregated graphs merged: nodes by id, edges by id with context value
    sets unioned and provenance concatenated."""
    nodes: dict[str, Node] = {}
    edges: dict[str, Edge] = {}
    for g in graphs:
        nodes.update(g.nodes)
        for eid, edge in g.edges.items():
            before = edges.get(eid)
            if before is not None:
                keys = set(before.context.keys()) | set(edge.context.keys())
                context = {key: before.context.get(key) | edge.context.get(key) for key in keys}
                edge = Edge(
                    edge.source, edge.target, edge.predicate, ContextMap(context),
                    edge.confidence, before.provenance + edge.provenance,
                )
            edges[eid] = edge
    return KnowledgeGraph(nodes, edges)


# --- serialization oracles -----------------------------------------------------


def reference_triples_to_jsonl(triples) -> bytes:
    """The per-line JSONL writer: one compact ``JSONEncoder`` call over a
    dict per triple."""
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    lines = [
        encode({
            "subject": t.subject,
            "predicate": t.predicate,
            "object": t.object,
            "context": t.context.to_dict(),
            "provenance": {
                "source_id": t.provenance.source_id,
                "chunk_index": t.provenance.chunk_index,
                "extractor": t.provenance.extractor.value,
            },
        })
        for t in triples
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def reference_graph_json(g: KnowledgeGraph) -> bytes:
    """The dict-building graph JSON writer: one compact ``JSONEncoder`` call
    over the whole graph as a dict, nodes sorted by id, edges by edge id."""
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

    def provenance(p: Provenance) -> dict:
        return {"source_id": p.source_id, "chunk_index": p.chunk_index,
                "extractor": p.extractor.value}

    def edge(e: Edge) -> dict:
        return {
            "id": e.edge_id,
            "source": e.source,
            "target": e.target,
            "predicate": e.predicate,
            "context": e.context.to_dict(),
            "confidence": e.confidence,
            "inferred": e.inferred,
            "provenance": [provenance(p) for p in e.provenance],
        }

    return encode({
        "nodes": [
            {"id": g.nodes[nid].id, "attributes": g.nodes[nid].attributes.to_dict()}
            for nid in sorted(g.nodes)
        ],
        "edges": [edge(g.edges[eid]) for eid in sorted(g.edges)],
    }).encode("utf-8")


def reference_graphml(g: KnowledgeGraph) -> bytes:
    """The ElementTree GraphML writer: a whole tree, indented by
    ``ET.indent`` and written by ``ET.tostring``; each data element holds
    the compact ``JSONEncoder`` text of its attributes, context or
    provenance list. ElementTree writes a carriage return in text raw, which
    a reader turns into a line feed, so each is replaced by ``&#13;``, as
    ElementTree itself writes one in an attribute."""
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    keys = {
        "d0": ("node", "attributes", "string"),
        "d1": ("edge", "predicate", "string"),
        "d2": ("edge", "context", "string"),
        "d3": ("edge", "confidence", "double"),
        "d4": ("edge", "inferred", "boolean"),
        "d5": ("edge", "provenance", "string"),
    }
    root = ET.Element("graphml", {"xmlns": "http://graphml.graphdrawing.org/xmlns"})
    for key_id, (domain, name, gtype) in keys.items():
        ET.SubElement(
            root,
            "key",
            {"id": key_id, "for": domain, "attr.name": name, "attr.type": gtype},
        )
    graph_el = ET.SubElement(root, "graph", {"id": "G", "edgedefault": "directed"})
    for node_id in sorted(g.nodes):
        node = g.nodes[node_id]
        node_el = ET.SubElement(graph_el, "node", {"id": node.id})
        if node.attributes:
            ET.SubElement(node_el, "data", {"key": "d0"}).text = encode(node.attributes.to_dict())
    for eid in sorted(g.edges):
        edge = g.edges[eid]
        edge_el = ET.SubElement(
            graph_el,
            "edge",
            {"id": edge.edge_id, "source": edge.source, "target": edge.target},
        )
        ET.SubElement(edge_el, "data", {"key": "d1"}).text = edge.predicate
        if edge.context:
            ET.SubElement(edge_el, "data", {"key": "d2"}).text = encode(edge.context.to_dict())
        ET.SubElement(edge_el, "data", {"key": "d3"}).text = repr(edge.confidence)
        ET.SubElement(edge_el, "data", {"key": "d4"}).text = (
            "true" if edge.inferred else "false"
        )
        ET.SubElement(edge_el, "data", {"key": "d5"}).text = encode([
            {"source_id": p.source_id, "chunk_index": p.chunk_index,
             "extractor": p.extractor.value}
            for p in edge.provenance
        ])
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True).replace(b"\r", b"&#13;")


def reference_read_graph_json(data: bytes) -> KnowledgeGraph:
    """The whole-document graph JSON reader: ``json.loads`` of the text, then
    one ``decode_record`` per node and edge record of the dict it gives,
    every node before any edge."""
    payload = serialize._parse_json(serialize._decode(data, GraphParseError, "line "))
    records = decode_record(payload, "graph", dict, GraphParseError, "graph")
    nodes: dict[str, Node] = {}
    for index, record in enumerate(records.get("nodes", ())):
        node = decode_record(
            record, "node", lambda id, attributes=None: Node(id, ContextMap(attributes)),
            GraphParseError, f"node #{index}",
        )
        if node.id in nodes:
            raise GraphParseError(f"duplicate node id {node.id!r}")
        nodes[node.id] = node
    edges: dict[str, Edge] = {}
    build_edge = partial(serialize._edge, {})
    for index, record in enumerate(records.get("edges", ())):
        edge = decode_record(record, "edge", build_edge, GraphParseError, f"edge #{index}")
        if edge.edge_id in edges:
            raise GraphParseError(f"duplicate edge id {edge.edge_id!r}")
        edges[edge.edge_id] = edge
    return KnowledgeGraph(nodes, edges)


def _reference_strings(value: list) -> bool:
    return all(type(item) is str for item in value)


# The item tests of the kinds that have one, written out apart from SHAPES's.
_REFERENCE_ITEM_TESTS = {
    "list of strings": _reference_strings,
    "object of string lists": lambda value: all(
        type(v) is list and _reference_strings(v) for v in value.values()
    ),
}
_reference_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def reference_decode_record(record, shape: str, build, error: type[Exception], where: str):
    """``serialize.decode_record(record, shape, build, error, where)``,
    written apart from it, with its own item tests and encoder:
    ``build(**fields)`` for the listed fields that are present and not null,
    a number as a float; any failure raises ``error`` starting with ``where``."""
    try:
        if type(record) is not dict:
            raise ValueError(f"expected a json object, got {_reference_encode(record):.60}")
        fields = {}
        for name, kind, types, _, required in SHAPES[shape]:
            value = record.get(name)
            items = _REFERENCE_ITEM_TESTS.get(kind)
            if value is None:
                if required:
                    raise ValueError(f"missing field {name!r}")
            elif type(value) not in types or (items is not None and not items(value)):
                got = _reference_encode(value)
                raise ValueError(f"{name} must be a json {kind}, got {got:.60}")
            else:
                fields[name] = float(value) if kind == "number" else value
        return build(**fields)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise error(f"{where}: {exc}") from exc


def uncached_provenance(record, memo: dict, index: int | None = None) -> Provenance:
    """Stands in for ``serialize._provenance``: checks every provenance
    record anew with :func:`reference_decode_record` and ignores ``memo``."""
    where = "provenance" if index is None else f"provenance #{index}"
    return reference_decode_record(record, "provenance", Provenance, ValueError, where)


# The pattern extractor's "such as" and verb/year rules with no anchor:
# the regex engine tries every position of a sentence as a match start.
REFERENCE_SUCH_AS = re.compile(r"([^,.;:]+),\s+such\s+as\s+([^,.;:]+)", re.IGNORECASE)
REFERENCE_VERB_YEAR = re.compile(
    r"(.+?)\s+((?:[A-Za-z]+ed)|wrote|won|built|made|met|led|ran|held|taught|sold|bought"
    r"|began|became|left)\s+(.+?)\s+in\s+(\d{4})\b"
)


def reference_pattern_extract(chunk: extraction.TextChunk) -> extraction.ExtractionResult:
    """The pattern extractor with its ``such as`` scan run on every sentence,
    with no gate in front of it, and a new ``year`` context built for every
    sentence; its ``such as`` and verb/year rules are the unanchored
    ``REFERENCE_*`` patterns above. A match whose trimmed subject or object
    is empty gives no triple."""
    provenance = Provenance(chunk.source_id, chunk.chunk_index, Extractor.PATTERN)
    triples: list[ContextTriple] = []
    for sentence in extraction.split_sentences(chunk.text):
        body = sentence.strip().rstrip(".!?").strip()
        if not body:
            continue
        for match in REFERENCE_SUCH_AS.finditer(body):
            hypernym = match.group(1).strip()
            if not hypernym:
                continue
            for hyponym in extraction._split_conjunction(match.group(2)):
                triples.append(ContextTriple(hyponym, "is_a", hypernym, provenance=provenance))
        verb_match = REFERENCE_VERB_YEAR.search(body)
        if verb_match:
            subject, verb, obj, year = (part.strip() for part in verb_match.groups())
            if subject and obj:
                triples.append(
                    ContextTriple(
                        subject, verb, obj, context=ContextMap({"year": [year]}),
                        provenance=provenance,
                    )
                )
            continue
        is_a_match = extraction._IS_A.match(body)
        if is_a_match:
            subject, obj = is_a_match.group(1).strip(), is_a_match.group(2).strip()
            if subject and obj:
                triples.append(ContextTriple(subject, "is_a", obj, provenance=provenance))
    return extraction.ExtractionResult(triples=triples)


def naive_f1(predicted: set, gold: set) -> tuple[float, float, float]:
    """Set-comparison precision/recall/F1 with zero conventions."""
    matched = len(predicted & gold)
    precision = matched / len(predicted) if predicted else 0.0
    recall = matched / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def reference_relaxed_matches(predicted: set, gold: set) -> tuple[set, set]:
    """All-pairs greedy relaxed matching: each predicted triple, in sorted
    order, takes the first unmatched gold triple, in sorted order, with the
    same endpoints and a predicate equal to, inside or around its own.
    Returns the matched predicted and the matched gold triples."""
    matched_predicted: set = set()
    matched_gold: set = set()
    gold_sorted = sorted(gold)
    for p in sorted(predicted):
        for g in gold_sorted:
            if g in matched_gold:
                continue
            if p[0] == g[0] and p[2] == g[2] and (p[1] in g[1] or g[1] in p[1]):
                matched_predicted.add(p)
                matched_gold.add(g)
                break
    return matched_predicted, matched_gold


# --- seeded random builders (used by the acceptance suite) ----------------------

WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lam", "mu", "nu", "xi", "omicron", "pi",
]
PREDICATES = ["links", "cites", "part_of", "near", "mentor", "colleague", "is_a"]


def random_label(rng: random.Random) -> str:
    return rng.choice(WORDS) + rng.choice(["", " one", " two", ""])


def random_context(rng: random.Random) -> ContextMap:
    entries = {}
    for _ in range(rng.randrange(3)):
        key = rng.choice(["year", "place", "role"])
        entries.setdefault(key, []).append(rng.choice(["1898", "paris", "x=y;z", "a|b"]))
    return ContextMap(entries)


def random_graph(
    rng: random.Random,
    max_nodes: int = 8,
    max_edges: int = 12,
    predicates: list[str] = PREDICATES,
) -> KnowledgeGraph:
    """Directly constructed random graph with varied attributes, contexts,
    confidences and provenance lists."""
    node_ids = sorted({random_label(rng) for _ in range(rng.randint(1, max_nodes))})
    nodes = {}
    for node_id in node_ids:
        attrs = random_context(rng) if rng.random() < 0.3 else ContextMap()
        nodes[node_id] = Node(node_id, attrs)
    edges: dict[str, Edge] = {}
    edge_target = rng.randrange(max_edges + 1)
    for _ in range(edge_target):
        source = rng.choice(node_ids)
        target = rng.choice(node_ids)
        predicate = rng.choice(predicates)
        provenance = tuple(
            Provenance(rng.choice(["a", "b"]), rng.randrange(3), Extractor.PATTERN)
            for _ in range(rng.randrange(3))
        )
        edge = Edge(
            source=source,
            target=target,
            predicate=predicate,
            context=random_context(rng),
            confidence=round(rng.random(), 3),
            provenance=provenance,
            inferred=False,
        )
        edges[edge.edge_id] = edge
    return KnowledgeGraph(nodes, edges)


def random_surface(rng: random.Random, word: str) -> str:
    """``word`` as extraction might spell it; one time in ten, only
    punctuation, which normalizes to nothing."""
    if rng.random() < 0.1:
        return rng.choice(["...", "?!", " - "])
    return rng.choice([word, word, word.title(), f" {word.upper()}.", f"'{word}'"])


def random_triples(rng: random.Random, count: int) -> list[ContextTriple]:
    return [
        ContextTriple(
            random_surface(rng, rng.choice(WORDS)),
            random_surface(rng, rng.choice(PREDICATES)),
            random_surface(rng, rng.choice(WORDS)),
            random_context(rng),
            Provenance(rng.choice(["d1", "d2", "d3"]), rng.randrange(3), Extractor.PATTERN),
        )
        for _ in range(count)
    ]


# --- hypothesis strategies -------------------------------------------------------

_word = st.text(alphabet="abcdefgh", min_size=1, max_size=6)

# Canonical labels: lowercase words joined by single spaces (normalization
# fixed points by construction).
labels = st.builds(" ".join, st.lists(_word, min_size=1, max_size=2))

# Any text both graph formats carry: no lone surrogates, which UTF-8 cannot
# encode, and no U+FFFE or U+FFFF, which XML cannot hold. Controls, markup
# characters and separators are included.
_any_text = st.characters(exclude_categories=["Cs"], exclude_characters="\ufffe\uffff")

values = st.text(_any_text, min_size=1, max_size=8).map(str.strip).filter(bool)

# Context keys as a writer may pass them: ContextMap trims and lowercases them.
context_keys = st.text(_any_text, min_size=1, max_size=8).filter(str.strip)

context_maps = st.dictionaries(
    context_keys, st.sets(values, min_size=1, max_size=3), max_size=3
).map(ContextMap)

provenances = st.builds(
    Provenance,
    source_id=_word,
    chunk_index=st.integers(0, 3),
    extractor=st.sampled_from([Extractor.MODEL, Extractor.PATTERN]),
)

context_triples = st.builds(
    ContextTriple,
    subject=labels,
    predicate=labels,
    object=labels,
    context=context_maps,
    provenance=provenances,
)


@st.composite
def graphs(draw, max_nodes: int = 6, max_edges: int = 10):
    node_ids = draw(st.lists(labels, min_size=1, max_size=max_nodes, unique=True))
    nodes = {}
    for node_id in node_ids:
        nodes[node_id] = Node(node_id, draw(context_maps))
    edges: dict[str, Edge] = {}
    for _ in range(draw(st.integers(0, max_edges))):
        edge = Edge(
            source=draw(st.sampled_from(node_ids)),
            target=draw(st.sampled_from(node_ids)),
            predicate=draw(labels),
            context=draw(context_maps),
            confidence=draw(st.floats(0.0, 1.0, allow_nan=False)),
            provenance=tuple(draw(st.lists(provenances, max_size=2))),
            inferred=draw(st.booleans()),
        )
        edges[edge.edge_id] = edge
    return KnowledgeGraph(nodes, edges)


# Small node and predicate alphabets, so parallel, antiparallel and self-loop
# edges are common.
_multigraph_nodes = ["a", "b", "c", "d", "e", "f", "g"]


@st.composite
def multigraphs(draw, max_nodes: int = 7, max_edges: int = 16, predicates=("p", "q", "r")):
    node_ids = _multigraph_nodes[: draw(st.integers(2, max_nodes))]
    edges: dict[str, Edge] = {}
    for _ in range(draw(st.integers(0, max_edges))):
        edge = Edge(
            source=draw(st.sampled_from(node_ids)),
            target=draw(st.sampled_from(node_ids)),
            predicate=draw(st.sampled_from(predicates)),
            inferred=draw(st.booleans()) and draw(st.booleans()),
        )
        edges[edge.edge_id] = edge
    return KnowledgeGraph({n: Node(n) for n in node_ids}, edges)


@st.composite
def hub_multigraphs(draw, min_nodes: int = 20, max_nodes: int = 40):
    """Hub-heavy multigraphs: one to three star hubs, each linked to most
    nodes by single, antiparallel or parallel edges, plus a few edges
    anywhere (self-loops and inferred edges among them)."""
    node_ids = [f"n{i:02d}" for i in range(draw(st.integers(min_nodes, max_nodes)))]
    predicates = st.sampled_from(["p", "q", "r"])
    edges: dict[str, Edge] = {}

    def add(source: str, target: str, predicate: str, inferred: bool = False) -> None:
        edge = Edge(source=source, target=target, predicate=predicate, inferred=inferred)
        edges[edge.edge_id] = edge

    hubs = draw(st.lists(st.sampled_from(node_ids), min_size=1, max_size=3, unique=True))
    # Each hub's links are one list with the same draws per node, whatever
    # the link, so a shrink step that changes one link shifts no other draw.
    # Link 0-1 no link, 2 out of the hub, 3 into it, 4 both ways, 5 two
    # parallel edges out of it; then the predicates out of and into the hub.
    link = st.tuples(st.integers(0, 5), predicates, predicates)
    for hub in hubs:
        links = draw(st.lists(link, min_size=len(node_ids), max_size=len(node_ids)))
        for node, (kind, out_predicate, in_predicate) in zip(node_ids, links):
            if node == hub or kind < 2:
                continue
            if kind in (2, 4, 5):
                add(hub, node, out_predicate)
            if kind in (3, 4):
                add(node, hub, in_predicate)
            if kind == 5:
                add(hub, node, "s")
    extras = st.tuples(
        st.sampled_from(node_ids), st.sampled_from(node_ids), predicates,
        st.booleans(), st.booleans(),
    )
    for source, target, predicate, inferred, kept in draw(st.lists(extras, max_size=20)):
        add(source, target, predicate, inferred and kept)
    return KnowledgeGraph({n: Node(n) for n in node_ids}, edges)


def build_hub_graph(triple_count: int = 300, seed: int = 7) -> KnowledgeGraph:
    """A seeded hub-heavy graph: ``triple_count`` triples over
    ``triple_count / 2.5`` entities and 5 predicates, each endpoint drawn
    with weight 1/(i+1) (a Zipf law), so a few entities are hubs and
    parallel and antiparallel edges are common. The hub golden files are
    this graph reinforced."""
    rng = random.Random(seed)
    entities = [f"e{i:03d}" for i in range(int(triple_count / 2.5))]
    weights = [1.0 / (i + 1) for i in range(len(entities))]
    predicates = [f"p{i}" for i in range(5)]
    provenance = Provenance("hub", 0, Extractor.PATTERN)
    triples = [
        ContextTriple(
            rng.choices(entities, weights)[0],
            rng.choice(predicates),
            rng.choices(entities, weights)[0],
            provenance=provenance,
        )
        for _ in range(triple_count)
    ]
    return aggregate_triples(triples).graph


# Surface labels that often merge after normalization, or normalize to nothing.
raw_labels = st.one_of(
    labels,
    st.sampled_from(["a", " A ", "a.", "B", "b", "...", "?!", "- -"]),
)

# Sentences for the pattern extractor: "X, such as Y" phrases with case
# variants of "such" and "as" (the long s among them), near misses, item
# lists joined by commas, "and" and "or", and words that feed the other rules.
_pattern_words = st.sampled_from(
    ["metals", "Radium", "Curie", "discovered", "wrote", "in", "1898", "is", "a", "the"]
)
_pattern_phrases = st.builds(
    "{}{}{} {} {}".format,
    st.lists(_pattern_words, min_size=0, max_size=3).map(" ".join),
    st.sampled_from([", ", ",  ", ",", " ", "; "]),
    st.sampled_from(["such", "SUCH", "Such", "\u017fuch", "sUcH", "suc", "much"]),
    st.sampled_from(["as", "AS", "As", "at"]),
    st.lists(_pattern_words, min_size=1, max_size=4).map(
        lambda items: " and ".join(items).replace(" and ", " or ", 1)
    ),
)
pattern_texts = st.lists(
    st.one_of(_pattern_phrases, _pattern_words, st.sampled_from([".", ",", "and", "or", "!"])),
    min_size=1,
    max_size=8,
).map(" ".join)

# Chunks of verb/year, "such as" and "is a" sentences. Years are four
# decimal digits of any script (\d matches them all), drawn from a pool of
# three so that equal years recur within one chunk.
_year_words = st.sampled_from(["Curie", "radium", "the lab", "Meitner", "metals", "Gases"])


@st.composite
def year_texts(draw):
    years = draw(st.lists(
        st.text(st.characters(categories=["Nd"]), min_size=4, max_size=4),
        min_size=1, max_size=3,
    ))
    sentences = draw(st.lists(
        st.one_of(
            st.builds(
                "{} {} {} in {}".format, _year_words,
                st.sampled_from(["discovered", "wrote", "Founded", "won"]),
                _year_words, st.sampled_from(years),
            ),
            st.builds("{}, such as {} and {}".format, _year_words, _year_words, _year_words),
            st.builds("{} is a {}".format, _year_words, _year_words),
        ),
        min_size=1, max_size=8,
    ))
    return ". ".join(sentences) + "."


# Text for comparing the library's anchored "such as" and verb/year patterns
# with the REFERENCE_* ones: clauses shaped like either rule, with near misses
# in every slot (spellings of "such", verb-like words, digit runs of any
# script around the four a year needs) and gaps that "\s" or "." do or do not
# cross, joined by separators and line breaks.
_rule_words = st.sampled_from(["x", "the lab", "metals", "such", "as", "in", "ed", "1898"])
_rule_gaps = st.sampled_from([" ", " ", " ", "  ", "\t", "\n", "\r", "\x85", "\u2028", ""])


def _rule_clause(*slots):
    """Each slot followed by a gap, joined into one string."""
    return st.tuples(*(st.tuples(slot, _rule_gaps) for slot in slots)).map(
        lambda pairs: "".join(slot + gap for slot, gap in pairs)
    )


_verb_year_clause = _rule_clause(
    _rule_words,
    st.sampled_from(["walked", "Founded", "wrote", "won", "left", "lefted", "became", "wed"]),
    _rule_words,
    st.sampled_from(["in", "IN", "on"]),
    st.one_of(
        st.sampled_from(["1898", "\u0661\u0668\u0669\u0668", "1898x", "189"]),
        st.text(st.characters(categories=["Nd"]), min_size=3, max_size=5),
    ),
)
_such_as_clause = _rule_clause(
    _rule_words.map(lambda word: word + ","),
    st.sampled_from(["such", "SUCH", "\u017fuch", "much"]),
    st.sampled_from(["as", "As", "at"]),
    _rule_words,
)
rule_texts = st.lists(
    st.tuples(
        st.one_of(_verb_year_clause, _such_as_clause, _rule_words),
        st.sampled_from([" ", "\n", "\r", "\x85", ", ", ",", ";", ":", ".", ""]),
    ),
    max_size=6,
).map(lambda pairs: "".join(clause + after for clause, after in pairs))


raw_triples = st.builds(
    ContextTriple,
    subject=raw_labels,
    predicate=st.sampled_from(["p", "P.", "q", "!!"]),
    object=raw_labels,
    context=context_maps,
    provenance=provenances,
)


# Any text, and clauses shaped like each pattern rule whose slots hold any
# short text, blanks and nothing included.
_any_slot = st.one_of(st.text(max_size=3), st.sampled_from(["Ada", "radium", " ", "\t", ""]))
any_pattern_texts = st.lists(
    st.one_of(
        st.text(max_size=8),
        _rule_clause(_any_slot, st.sampled_from(["founded", "wrote"]), _any_slot, st.just("in"),
                     st.just("1900")),
        _rule_clause(_any_slot.map(lambda slot: slot + ","), st.just("such"), st.just("as"),
                     _any_slot),
        _rule_clause(_any_slot, st.just("is"), st.just("a"), _any_slot),
    ),
    min_size=1,
    max_size=4,
).map("".join)

"""Shared property-graph model: nodes and edges carrying contextual
attributes, confidence scores, and provenance.

Graphs are immutable snapshots by construction: :class:`KnowledgeGraph` is a
frozen dataclass holding only its nodes and edges, which its constructor
copies into read-only mappings, so every operation elsewhere in the package
builds a new graph instead of mutating one, and graphs can be shared freely
across threads. A graph caches nothing: confidence reinforcement builds the
adjacency index its path searches walk (:func:`_adjacency_index`) once per
call, over the stated edges alone, and drops it on return.

:class:`Provenance`, :class:`Node` and :class:`Edge` are slotted: a graph
holds many of them, and none carries a ``__dict__``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple


class Extractor(str, Enum):
    """How a triple or edge entered the graph."""

    MODEL = "model"
    PATTERN = "pattern"
    INFERRED = "inferred"


class GraphIntegrityError(ValueError):
    """Graph content violates a structural invariant (dangling edge,
    mismatched id, duplicate)."""


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where a piece of graph content came from."""

    source_id: str
    chunk_index: int
    extractor: Extractor = Extractor.MODEL

    def __post_init__(self) -> None:
        if not isinstance(self.source_id, str):
            raise ValueError(f"source_id must be a str, got {self.source_id!r}")
        if not isinstance(self.chunk_index, int) or isinstance(self.chunk_index, bool):
            raise ValueError(f"chunk_index must be an int, got {self.chunk_index!r}")
        if self.chunk_index < 0:
            raise ValueError(f"chunk_index must be >= 0, got {self.chunk_index}")
        if not isinstance(self.extractor, Extractor):
            object.__setattr__(self, "extractor", Extractor(self.extractor))

    def sort_key(self) -> tuple[str, int, str]:
        return (self.source_id, self.chunk_index, self.extractor.value)


class ContextMap:
    """Immutable multimap from lowercase attribute keys to sets of values.

    Keys are trimmed and lowercased on construction; empty values are
    dropped and empty keys rejected. Unions never discard a value, so
    attribute and context sets only ever grow.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Iterable[str]] | None = None) -> None:
        cleaned: dict[str, frozenset[str]] = {}
        if entries:
            for raw_key, raw_values in entries.items():
                key = raw_key.strip().lower()
                if not key:
                    raise ValueError("context keys must be non-empty")
                values = frozenset(v.strip() for v in raw_values if v.strip())
                if values:
                    cleaned[key] = cleaned.get(key, frozenset()) | values
        self._entries = cleaned

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextMap):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        return f"ContextMap({self.to_dict()!r})"

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def get(self, key: str) -> frozenset[str]:
        return self._entries.get(key, frozenset())

    def items(self) -> Iterator[tuple[str, frozenset[str]]]:
        for key in sorted(self._entries):
            yield key, self._entries[key]

    def with_value(self, key: str, value: str) -> ContextMap:
        """New map with one extra value under ``key``."""
        return self.union(ContextMap({key: [value]}))

    def union(self, other: ContextMap) -> ContextMap:
        """Coexistence merge: value sets are unioned, nothing is dropped."""
        if not other:
            return self
        if not self:
            return other
        merged = dict(self._entries)
        for key, values in other._entries.items():
            merged[key] = merged.get(key, frozenset()) | values
        out = ContextMap.__new__(ContextMap)
        out._entries = merged
        return out

    def to_dict(self) -> dict[str, list[str]]:
        """Plain dict with sorted keys and sorted value lists."""
        return {key: sorted(values) for key, values in self.items()}


@dataclass(frozen=True)
class ContextTriple:
    """A (subject, predicate, object) assertion with contextual attributes.

    Surface strings are kept as extracted; canonicalization happens during
    aggregation.
    """

    subject: str
    predicate: str
    object: str
    context: ContextMap = field(default_factory=ContextMap)
    provenance: Provenance = field(default=Provenance("unknown", 0, Extractor.MODEL))

    def __post_init__(self) -> None:
        if not (self.subject.strip() and self.predicate.strip() and self.object.strip()):
            for name in ("subject", "predicate", "object"):
                if not getattr(self, name).strip():
                    raise ValueError(f"triple {name} must be non-empty")


@dataclass(frozen=True, slots=True)
class Node:
    """A graph node under its canonical label, with coexisting attributes."""

    id: str
    attributes: ContextMap = field(default_factory=ContextMap)

    def __post_init__(self) -> None:
        if not self.id.strip():
            raise ValueError("node id must be non-empty")


def edge_key(source: str, predicate: str, target: str) -> str:
    """Deterministic content hash identifying a (source, predicate, target)
    edge; identical triples always map to the same id."""
    digest = hashlib.sha256("\x1f".join((source, predicate, target)).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed edge with context, confidence, and provenance.

    ``edge_id`` is derived from (source, predicate, target); passing an id
    that does not match the content hash raises. ``confidence`` is stored
    as a float and ``inferred`` must be a bool, as both formats read back.
    """

    source: str
    target: str
    predicate: str
    context: ContextMap = field(default_factory=ContextMap)
    confidence: float = 0.5
    provenance: tuple[Provenance, ...] = ()
    inferred: bool = False
    edge_id: str = ""

    def __post_init__(self) -> None:
        expected = edge_key(self.source, self.predicate, self.target)
        if not self.edge_id:
            object.__setattr__(self, "edge_id", expected)
        elif self.edge_id != expected:
            raise GraphIntegrityError(
                f"edge id {self.edge_id!r} does not match content hash {expected!r}"
            )
        if not 0.0 <= self.confidence <= 1.0 or type(self.confidence) is bool:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence!r}")
        object.__setattr__(self, "confidence", float(self.confidence))
        if type(self.inferred) is not bool:
            raise ValueError(f"inferred must be a bool, got {self.inferred!r}")
        if not isinstance(self.provenance, tuple):
            object.__setattr__(self, "provenance", tuple(self.provenance))

    def with_confidence(self, confidence: float) -> Edge:
        """This edge with ``confidence`` instead of its own. The id is not
        hashed again: it was checked when this edge was built, against the
        same source, predicate and target."""
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        # Slot by slot, without __init__, whose __post_init__ would hash the
        # id again. Edges are slotted, so there is no __dict__ to copy.
        edge = object.__new__(Edge)
        for name in _EDGE_FIELDS:
            value = float(confidence) if name == "confidence" else getattr(self, name)
            object.__setattr__(edge, name, value)
        return edge


_EDGE_FIELDS = tuple(f.name for f in fields(Edge))


class AdjacencyIndex(NamedTuple):
    """Neighbor maps of one graph for one search direction mode.

    ``forward[u][v]`` lists, sorted, the ids of the edges a search may walk
    from u to v; ``backward`` is the same for walks toward the target. In
    undirected mode both are one map that ignores edge direction.
    """

    forward: dict[str, dict[str, list[str]]]
    backward: dict[str, dict[str, list[str]]]


def _adjacency_index(g: KnowledgeGraph, undirected: bool) -> AdjacencyIndex:
    """``g``'s index for one direction mode, over its stated edges: the
    inferred edges are left out."""
    succ: dict[str, dict[str, list[str]]] = {}
    pred: dict[str, dict[str, list[str]]] = succ if undirected else {}
    for eid in sorted(g.edges):
        edge = g.edges[eid]
        if edge.inferred:
            continue
        succ.setdefault(edge.source, {}).setdefault(edge.target, []).append(eid)
        if edge.source != edge.target or not undirected:
            pred.setdefault(edge.target, {}).setdefault(edge.source, []).append(eid)
    return AdjacencyIndex(succ, pred)


@dataclass(frozen=True)
class KnowledgeGraph:
    """Directed property graph keyed by canonical node ids and content-hash
    edge ids. Edges with the same (source, predicate, target) are collapsed
    into one edge with unioned context and concatenated provenance.

    The constructor copies ``nodes`` and ``edges`` into read-only mappings,
    so later changes to the dicts passed in do not reach the graph.
    """

    nodes: Mapping[str, Node] = field(default_factory=dict)
    edges: Mapping[str, Edge] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", MappingProxyType(dict(self.nodes)))
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        for node_id, node in self.nodes.items():
            if node_id != node.id:
                raise GraphIntegrityError(
                    f"node keyed {node_id!r} carries id {node.id!r}"
                )
        for eid, edge in self.edges.items():
            if eid != edge.edge_id:
                raise GraphIntegrityError(
                    f"edge keyed {eid!r} carries id {edge.edge_id!r}"
                )
            for endpoint in (edge.source, edge.target):
                if endpoint not in self.nodes:
                    raise GraphIntegrityError(
                        f"edge {eid!r} references missing node {endpoint!r}"
                    )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def content_equal(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    """Structural equality ignoring the order of provenance lists."""
    if a.nodes != b.nodes or set(a.edges) != set(b.edges):
        return False
    for eid, ea in a.edges.items():
        eb = b.edges[eid]
        if (
            ea.source != eb.source
            or ea.target != eb.target
            or ea.predicate != eb.predicate
            or ea.context != eb.context
            or ea.confidence != eb.confidence
            or ea.inferred != eb.inferred
        ):
            return False
        if sorted(ea.provenance, key=Provenance.sort_key) != sorted(
            eb.provenance, key=Provenance.sort_key
        ):
            return False
    return True

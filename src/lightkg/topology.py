"""Structure-driven scoring and inference over an aggregated graph.

Three capabilities, all pure graph-in/graph-out:

- confidence reinforcement: an edge supported by independent (edge-disjoint)
  alternative paths between its endpoints scores higher, combined noisy-OR
  style with geometric decay in path length;
- entity disambiguation: neighborhood labels vote among candidate senses;
- implicit relation inference: a path whose predicate sequence matches a
  rule pattern licenses a new discounted edge, with the witness path stored
  in the edge's provenance for auditing.

Path search is a bidirectional breadth-first search (frontiers expanded from
both endpoints, meeting in the middle), followed by a deterministic
lexicographic reconstruction so equal graphs always yield equal paths.

All searches over one graph walk the graph's own
:class:`~lightkg.graph.AdjacencyIndex` (node -> neighbor -> sorted ids of the
edges between them), which :meth:`~lightkg.graph.KnowledgeGraph.adjacency`
builds once per graph and direction mode. Edges are excluded from a search
(the scored edge itself, and the edges of supports already found) by a check
against the ``used`` id set during neighbor expansion and hop-edge choice,
never by rebuilding the index; nodes no used edge touches keep their
neighbor maps as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .graph import (
    ContextMap,
    Edge,
    Extractor,
    KnowledgeGraph,
    Provenance,
    edge_key,
)
from .serialize import decode_record, read_json


class RuleFileError(ValueError):
    """A rules or senses file could not be parsed."""


@dataclass(frozen=True)
class TopologyConfig:
    """Free parameters of structural scoring."""

    max_path_length: int = 4
    base_path_weight: float = 0.7
    direct_edge_weight: float = 0.5
    undirected_paths: bool = True
    confidence_floor: float = 0.0
    confidence_ceiling: float = 1.0

    def __post_init__(self) -> None:
        if self.max_path_length < 2:
            raise ValueError("max_path_length must be >= 2")
        if not 0.0 < self.base_path_weight < 1.0:
            raise ValueError("base_path_weight must be in (0, 1)")
        if not 0.0 < self.direct_edge_weight < 1.0:
            raise ValueError("direct_edge_weight must be in (0, 1)")
        if not 0.0 <= self.confidence_floor <= self.confidence_ceiling <= 1.0:
            raise ValueError("need 0 <= confidence_floor <= confidence_ceiling <= 1")


DEFAULT_CONFIG = TopologyConfig()


@dataclass(frozen=True)
class PathEvidence:
    """A simple path given as node ids plus the edge ids connecting them."""

    nodes: tuple[str, ...]
    edges: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, tuple):
            object.__setattr__(self, "nodes", tuple(self.nodes))
        if not isinstance(self.edges, tuple):
            object.__setattr__(self, "edges", tuple(self.edges))
        if len(self.edges) < 1:
            raise ValueError("a path needs at least one edge")
        if len(self.nodes) != len(self.edges) + 1:
            raise ValueError("node sequence must be one longer than edge sequence")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path repeats a node")

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class InferenceRule:
    """Predicate-sequence pattern licensing an inferred edge.

    ``discount`` is applied once per composed hop beyond the first, so a
    two-predicate pattern multiplies the path confidence by ``discount``.
    """

    name: str
    pattern: tuple[str, ...]
    inferred_predicate: str
    discount: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.pattern, tuple):
            object.__setattr__(self, "pattern", tuple(self.pattern))
        if not self.name or ":" in self.name:
            raise ValueError("rule name must be non-empty and contain no ':'")
        if len(self.pattern) < 2:
            raise ValueError("pattern must have at least 2 predicates")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        if not self.inferred_predicate.strip():
            raise ValueError("inferred_predicate must be non-empty")


@dataclass(frozen=True)
class SenseSignature:
    """Candidate sense of an ambiguous node, described by cue labels that
    signal it in the neighborhood."""

    sense_label: str
    cue_labels: frozenset[str]

    def __post_init__(self) -> None:
        if not isinstance(self.cue_labels, frozenset):
            object.__setattr__(self, "cue_labels", frozenset(self.cue_labels))
        if not self.cue_labels:
            raise ValueError("cue_labels must be non-empty")


# --- path search ----------------------------------------------------------------


def _bidirectional_distance(
    source: str,
    target: str,
    forward: Callable[[str], Iterable[str]],
    backward: Callable[[str], Iterable[str]],
    max_len: int,
) -> int | None:
    """Shortest source-to-target distance not exceeding ``max_len``, found by
    expanding breadth-first frontiers from both ends until they meet."""
    dist_s = {source: 0}
    dist_t = {target: 0}
    frontier_s = [source]
    frontier_t = [target]
    depth_s = depth_t = 0
    while frontier_s and frontier_t:
        if depth_s + depth_t >= max_len:
            return None
        if len(frontier_s) <= len(frontier_t):
            depth_s += 1
            next_frontier = []
            for u in frontier_s:
                for v in forward(u):
                    if v not in dist_s:
                        dist_s[v] = depth_s
                        if v in dist_t:
                            return depth_s + dist_t[v]
                        next_frontier.append(v)
            frontier_s = next_frontier
        else:
            depth_t += 1
            next_frontier = []
            for u in frontier_t:
                for v in backward(u):
                    if v not in dist_t:
                        dist_t[v] = depth_t
                        if v in dist_s:
                            return dist_s[v] + depth_t
                        next_frontier.append(v)
            frontier_t = next_frontier
    return None


def _bounded_distances(
    start: str, step: Callable[[str], Iterable[str]], limit: int
) -> dict[str, int]:
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and depth < limit:
        depth += 1
        next_frontier = []
        for u in frontier:
            for v in step(u):
                if v not in dist:
                    dist[v] = depth
                    next_frontier.append(v)
        frontier = next_frontier
    return dist


def _shortest_path(
    g: KnowledgeGraph,
    source: str,
    target: str,
    max_len: int,
    undirected: bool,
    exclude: set[str] | frozenset[str],
) -> PathEvidence | None:
    index = g.adjacency(undirected)
    # Only nodes that an excluded edge touches need their neighbors filtered;
    # every other node walks its precomputed neighbor map as it is.
    touched = set()
    for eid in exclude:
        edge = g.edges.get(eid)
        if edge is not None:
            touched.add(edge.source)
            touched.add(edge.target)
    empty: dict[str, list[str]] = {}

    def stepper(adjacency: dict[str, dict[str, list[str]]]):
        def step(n: str):
            links = adjacency.get(n, empty)
            if n not in touched:
                return links
            return [v for v, ids in links.items() if not exclude.issuperset(ids)]

        return step

    forward, backward = stepper(index.forward), stepper(index.backward)

    length = _bidirectional_distance(source, target, forward, backward, max_len)
    if length is None:
        return None
    # Reconstruction only asks for remaining distances 0..length-1.
    dist_t = _bounded_distances(target, backward, length - 1)
    # Greedy reconstruction: at position i pick the smallest neighbor that can
    # still finish in length - i - 1 hops. This yields the lexicographically
    # smallest node sequence among all shortest paths, and since the remaining
    # distance strictly decreases the walk never revisits a node.
    nodes = [source]
    current = source
    for step_index in range(length):
        needed = length - step_index - 1
        candidates = [v for v in forward(current) if dist_t.get(v) == needed]
        if not candidates:
            raise RuntimeError(
                f"path reconstruction failed between {source!r} and {target!r}"
            )
        current = min(candidates)
        nodes.append(current)
    edge_ids = tuple(
        next(eid for eid in index.forward[u][v] if eid not in exclude)
        for u, v in zip(nodes, nodes[1:])
    )
    return PathEvidence(tuple(nodes), edge_ids)


def edge_disjoint_paths(
    g: KnowledgeGraph,
    source: str,
    target: str,
    max_len: int = DEFAULT_CONFIG.max_path_length,
    max_paths: int | None = None,
    undirected: bool = True,
    exclude_edges: Iterable[str] = (),
) -> list[PathEvidence]:
    """Greedy edge-disjoint paths: repeatedly take a shortest path and remove
    its edges. Returned paths share no edge id; sorted by length, then by
    node sequence. Not guaranteed maximum (this is evidence counting, not
    max-flow).

    Ties between equal-length paths break toward the lexicographically
    smallest node sequence, then the smallest edge id per hop, so results
    are reproducible; ``max_paths=1`` gives the shortest path alone.
    """
    g.require_node(source)
    g.require_node(target)
    if source == target:
        raise ValueError("source and target must differ")
    used = set(exclude_edges)
    found: list[PathEvidence] = []
    while max_paths is None or len(found) < max_paths:
        path = _shortest_path(g, source, target, max_len, undirected, used)
        if path is None:
            break
        found.append(path)
        used.update(path.edges)
    found.sort(key=lambda p: (p.length, p.nodes))
    return found


# --- structural features ----------------------------------------------------------


def reinforce_confidence(
    g: KnowledgeGraph, config: TopologyConfig = DEFAULT_CONFIG
) -> KnowledgeGraph:
    """Rescore every non-inferred edge from its supporting paths.

    For edge e between u and v, supports are the edge-disjoint paths between
    u and v once e itself is removed; a support of length L weighs
    ``base_path_weight ** L`` and the weights combine noisy-OR style:

        confidence = 1 - (1 - direct_edge_weight) * prod(1 - weight(p))

    clamped to [floor, ceiling]. No supports leaves the edge at
    ``direct_edge_weight``. Adding an edge-disjoint support never lowers a
    score. Inferred edges are left untouched.
    """
    rescored: dict[str, Edge] = {}
    for eid in sorted(g.edges):
        edge = g.edges[eid]
        if edge.inferred:
            rescored[eid] = edge
            continue
        if edge.source == edge.target:
            supports: list[PathEvidence] = []
        else:
            supports = edge_disjoint_paths(
                g,
                edge.source,
                edge.target,
                max_len=config.max_path_length,
                undirected=config.undirected_paths,
                exclude_edges=(eid,),
            )
        miss = 1.0
        for path in supports:
            miss *= 1.0 - config.base_path_weight**path.length
        confidence = 1.0 - (1.0 - config.direct_edge_weight) * miss
        confidence = min(
            config.confidence_ceiling, max(config.confidence_floor, confidence)
        )
        rescored[eid] = replace(edge, confidence=confidence)
    return KnowledgeGraph(g.nodes, rescored)


def disambiguate_entity(
    g: KnowledgeGraph,
    node_id: str,
    senses: Sequence[SenseSignature],
    radius: int = 1,
) -> list[tuple[str, float]]:
    """Rank candidate senses by cue coverage in the node's neighborhood.

    score(sense) = |cues seen within radius| / |cues|; descending, with ties
    broken by input order.
    """
    g.require_node(node_id)
    if not senses:
        raise ValueError("senses must be non-empty")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    neighbors = g.adjacency(undirected=True).forward
    empty: dict[str, list[str]] = {}
    dist = _bounded_distances(node_id, lambda n: neighbors.get(n, empty), radius)
    near = dist.keys() - {node_id}
    ranked = sorted(
        (
            (sense.sense_label, len(sense.cue_labels & near) / len(sense.cue_labels), position)
            for position, sense in enumerate(senses)
        ),
        key=lambda item: (-item[1], item[2]),
    )
    return [(label, score) for label, score, _ in ranked]


# --- rule inference ----------------------------------------------------------------

_WITNESS_PREFIX = "rule:"


def encode_witness(rule_name: str, witness_edges: Sequence[str]) -> str:
    """Pack a rule application into an opaque provenance source id."""
    return f"{_WITNESS_PREFIX}{rule_name}:{'|'.join(witness_edges)}"


def decode_witness(source_id: str) -> tuple[str, tuple[str, ...]] | None:
    """Inverse of :func:`encode_witness`; None when the id is not a witness."""
    if not source_id.startswith(_WITNESS_PREFIX):
        return None
    rest = source_id[len(_WITNESS_PREFIX) :]
    name, sep, ids = rest.partition(":")
    if not sep or not name:
        return None
    return name, tuple(eid for eid in ids.split("|") if eid)


def witness_is_valid(g: KnowledgeGraph, edge: Edge, rule: InferenceRule) -> bool:
    """Re-check that some witness stored on an inferred edge is a concrete
    path whose predicate sequence matches the rule and whose endpoints match
    the edge."""
    if not edge.inferred or edge.predicate != rule.inferred_predicate:
        return False
    for record in edge.provenance:
        decoded = decode_witness(record.source_id)
        if decoded is None or decoded[0] != rule.name:
            continue
        _, edge_ids = decoded
        if len(edge_ids) != len(rule.pattern):
            continue
        witness = [g.edges.get(eid) for eid in edge_ids]
        if any(w is None for w in witness):
            continue
        if any(w.predicate != p for w, p in zip(witness, rule.pattern)):
            continue
        chained = all(
            witness[i].target == witness[i + 1].source for i in range(len(witness) - 1)
        )
        visited = [witness[0].source] + [w.target for w in witness]
        if (
            chained
            and len(set(visited)) == len(visited)
            and witness[0].source == edge.source
            and witness[-1].target == edge.target
        ):
            return True
    return False


def infer_implicit_relations(
    g: KnowledgeGraph, rules: Sequence[InferenceRule]
) -> KnowledgeGraph:
    """Add an inferred edge for every simple path whose predicate sequence
    matches a rule pattern (following edge direction).

    The new edge runs from path start to path end with confidence
    ``prod(edge confidences) * discount ** (len(pattern) - 1)`` and carries
    the witness path in its provenance. Single pass: edges added here are
    not matched again. Existing non-inferred edges are never modified; a
    pre-existing identical inferred edge keeps the max confidence.
    """
    outgoing: dict[tuple[str, str], list[Edge]] = {}
    starts: dict[str, list[Edge]] = {}
    for eid in sorted(g.edges):
        edge = g.edges[eid]
        outgoing.setdefault((edge.source, edge.predicate), []).append(edge)
        starts.setdefault(edge.predicate, []).append(edge)

    # edge_id -> (confidence, witness ids, rule)
    candidates: dict[str, tuple[float, tuple[str, ...], InferenceRule]] = {}

    def record(path: list[Edge], rule: InferenceRule) -> None:
        eid = edge_key(path[0].source, rule.inferred_predicate, path[-1].target)
        confidence = math.prod(e.confidence for e in path) * rule.discount ** (
            len(rule.pattern) - 1
        )
        witness = tuple(e.edge_id for e in path)
        best = candidates.get(eid)
        if (
            best is None
            or confidence > best[0]
            or (confidence == best[0] and witness < best[1])
        ):
            candidates[eid] = (confidence, witness, rule)

    def walk(path: list[Edge], visited: set[str], rule: InferenceRule) -> None:
        if len(path) == len(rule.pattern):
            record(path, rule)
            return
        tail = path[-1].target
        for nxt in outgoing.get((tail, rule.pattern[len(path)]), []):
            if nxt.target in visited:
                continue
            walk(path + [nxt], visited | {nxt.target}, rule)

    for rule in rules:
        for start_edge in starts.get(rule.pattern[0], []):
            if start_edge.source == start_edge.target:
                continue
            walk([start_edge], {start_edge.source, start_edge.target}, rule)

    edges = dict(g.edges)
    for eid in sorted(candidates):
        confidence, witness, rule = candidates[eid]
        existing = g.edges.get(eid)
        provenance = Provenance(encode_witness(rule.name, witness), 0, Extractor.INFERRED)
        if existing is None:
            edges[eid] = Edge(
                source=g.edges[witness[0]].source,
                target=g.edges[witness[-1]].target,
                predicate=rule.inferred_predicate,
                context=ContextMap(),
                confidence=confidence,
                provenance=(provenance,),
                inferred=True,
            )
        elif existing.inferred:
            edges[eid] = replace(
                existing,
                confidence=max(existing.confidence, confidence),
                provenance=existing.provenance + (provenance,),
            )
        # an existing non-inferred edge wins: leave it alone
    return KnowledgeGraph(g.nodes, edges)


# --- composition ----------------------------------------------------------------


def discover(
    g: KnowledgeGraph,
    rules: Sequence[InferenceRule] = (),
    senses_by_node: Mapping[str, Sequence[SenseSignature]] | None = None,
    config: TopologyConfig = DEFAULT_CONFIG,
    enabled: bool = True,
) -> KnowledgeGraph:
    """Full structural pass: reinforce confidences, attach top senses, infer
    implicit relations, in that order. With ``enabled`` false the input
    graph is returned verbatim (the ablation switch). Never removes or
    relabels existing content."""
    if not enabled:
        return g
    result = reinforce_confidence(g, config)
    if senses_by_node:
        result = _attach_senses(result, senses_by_node)
    if rules:
        result = infer_implicit_relations(result, rules)
    return result


def _attach_senses(
    g: KnowledgeGraph, senses_by_node: Mapping[str, Sequence[SenseSignature]]
) -> KnowledgeGraph:
    nodes = dict(g.nodes)
    for label in sorted(senses_by_node):
        senses = senses_by_node[label]
        if label not in nodes or not senses:
            continue
        top_label, top_score = disambiguate_entity(g, label, senses)[0]
        if top_score > 0:
            node = nodes[label]
            nodes[label] = replace(
                node, attributes=node.attributes.with_value("sense", top_label)
            )
    return KnowledgeGraph(nodes, g.edges)


# --- input files ----------------------------------------------------------------


def load_rules(path) -> list[InferenceRule]:
    """Read a JSON list of {name, pattern, inferred_predicate, discount}."""
    payload = read_json(path, RuleFileError)
    if not isinstance(payload, list):
        raise RuleFileError(f"{path}: expected a json list of rules")
    return [
        decode_record(record, "rule", InferenceRule, RuleFileError, f"{path}: rule #{index}")
        for index, record in enumerate(payload)
    ]


def load_senses(path) -> dict[str, list[SenseSignature]]:
    """Read a JSON map node_label -> list of {sense_label, cues}."""
    payload = read_json(path, RuleFileError)
    if not isinstance(payload, dict):
        raise RuleFileError(f"{path}: expected a json object keyed by node label")
    senses_by_node: dict[str, list[SenseSignature]] = {}
    for label, entries in payload.items():
        if not isinstance(entries, list):
            raise RuleFileError(f"{path}: senses for {label!r} must be a json list")
        senses_by_node[label] = [
            decode_record(
                record, "sense", lambda sense_label, cues: SenseSignature(sense_label, cues),
                RuleFileError, f"{path}: senses for {label!r}, entry #{index}",
            )
            for index, record in enumerate(entries)
        ]
    return senses_by_node

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

All searches over one graph share one :class:`AdjacencyIndex`, built once per
``reinforce_confidence`` or sense-attachment call: node -> neighbor -> sorted
ids of the edges between them. Edges are excluded from a search (the scored
edge itself, and the edges of supports already found) by a check against the
``used`` id set during neighbor expansion and hop-edge choice, never by
rebuilding the index; nodes no used edge touches keep their neighbor maps
as they are. The index lives only for the call that built it, since
:class:`~lightkg.graph.KnowledgeGraph` is a mutable dataclass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .graph import (
    ContextMap,
    Edge,
    Extractor,
    KnowledgeGraph,
    Provenance,
    edge_key,
)


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


class AdjacencyIndex(NamedTuple):
    """Neighbor maps of one graph for one search direction mode.

    ``forward[u][v]`` lists, sorted, the ids of the edges a search may walk
    from u to v; ``backward`` is the same for walks toward the target. In
    undirected mode both are one map that ignores edge direction.
    """

    forward: dict[str, dict[str, list[str]]]
    backward: dict[str, dict[str, list[str]]]


def _adjacency_index(g: KnowledgeGraph, undirected: bool) -> AdjacencyIndex:
    succ: dict[str, dict[str, list[str]]] = {}
    pred: dict[str, dict[str, list[str]]] = succ if undirected else {}
    for eid in sorted(g.edges):
        edge = g.edges[eid]
        succ.setdefault(edge.source, {}).setdefault(edge.target, []).append(eid)
        if edge.source != edge.target or not undirected:
            pred.setdefault(edge.target, {}).setdefault(edge.source, []).append(eid)
    return AdjacencyIndex(succ, pred)


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
    index: AdjacencyIndex | None = None,
) -> PathEvidence | None:
    if index is None:
        index = _adjacency_index(g, undirected)
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


def bidirectional_bfs(
    g: KnowledgeGraph,
    source: str,
    target: str,
    max_len: int = DEFAULT_CONFIG.max_path_length,
    undirected: bool = True,
) -> PathEvidence | None:
    """Shortest simple path of length <= ``max_len``, or None.

    Ties between equal-length paths break toward the lexicographically
    smallest node sequence, then the smallest edge id per hop, so results
    are reproducible.
    """
    g.require_node(source)
    g.require_node(target)
    if source == target:
        raise ValueError("source and target must differ")
    return _shortest_path(g, source, target, max_len, undirected, frozenset())


def edge_disjoint_paths(
    g: KnowledgeGraph,
    source: str,
    target: str,
    max_len: int = DEFAULT_CONFIG.max_path_length,
    max_paths: int | None = None,
    undirected: bool = True,
    exclude_edges: Iterable[str] = (),
    index: AdjacencyIndex | None = None,
) -> list[PathEvidence]:
    """Greedy edge-disjoint paths: repeatedly take a shortest path and remove
    its edges. Returned paths share no edge id; sorted by length, then by
    node sequence. Not guaranteed maximum (this is evidence counting, not
    max-flow).

    ``index`` is ``g``'s :class:`AdjacencyIndex` for the same ``undirected``
    mode; callers searching many pairs pass one to avoid rebuilding it."""
    g.require_node(source)
    g.require_node(target)
    if source == target:
        raise ValueError("source and target must differ")
    if index is None:
        index = _adjacency_index(g, undirected)
    used = set(exclude_edges)
    found: list[PathEvidence] = []
    while max_paths is None or len(found) < max_paths:
        path = _shortest_path(g, source, target, max_len, undirected, used, index)
        if path is None:
            break
        found.append(path)
        used.update(path.edges)
    found.sort(key=lambda p: (p.length, p.nodes))
    return found


# --- structural features ----------------------------------------------------------


def degree_centrality(g: KnowledgeGraph, node_id: str) -> float:
    """Incident edge count over ``|nodes| - 1``, clamped to [0, 1] (parallel
    predicates between the same pair can otherwise push it past 1)."""
    g.require_node(node_id)
    if g.node_count <= 1:
        return 0.0
    return min(1.0, g.degree(node_id) / (g.node_count - 1))


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
    index = _adjacency_index(g, config.undirected_paths)
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
                index=index,
            )
        miss = 1.0
        for path in supports:
            miss *= 1.0 - config.base_path_weight**path.length
        confidence = 1.0 - (1.0 - config.direct_edge_weight) * miss
        confidence = min(
            config.confidence_ceiling, max(config.confidence_floor, confidence)
        )
        rescored[eid] = replace(edge, confidence=confidence)
    return KnowledgeGraph(dict(g.nodes), rescored)


def disambiguate_entity(
    g: KnowledgeGraph,
    node_id: str,
    senses: Sequence[SenseSignature],
    radius: int = 1,
    index: AdjacencyIndex | None = None,
) -> list[tuple[str, float]]:
    """Rank candidate senses by cue coverage in the node's neighborhood.

    score(sense) = |cues seen within radius| / |cues|; descending, with ties
    broken by input order. ``index``, when given, is ``g``'s undirected
    :class:`AdjacencyIndex`.
    """
    g.require_node(node_id)
    if not senses:
        raise ValueError("senses must be non-empty")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if index is None:
        index = _adjacency_index(g, undirected=True)
    empty: dict[str, list[str]] = {}
    seen = {node_id}
    frontier = [node_id]
    for _ in range(radius):
        next_frontier = []
        for u in frontier:
            for v in index.forward.get(u, empty):
                if v not in seen:
                    seen.add(v)
                    next_frontier.append(v)
        frontier = next_frontier
    seen.discard(node_id)
    ranked = sorted(
        (
            (sense.sense_label, len(sense.cue_labels & seen) / len(sense.cue_labels), position)
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
    g: KnowledgeGraph,
    rules: Sequence[InferenceRule],
    config: TopologyConfig = DEFAULT_CONFIG,
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

    # edge_id -> (confidence, witness ids, rule name, source, target, predicate)
    candidates: dict[str, tuple[float, tuple[str, ...], str, str, str, str]] = {}

    def record(path: list[Edge], rule: InferenceRule) -> None:
        source = path[0].source
        target = path[-1].target
        eid = edge_key(source, rule.inferred_predicate, target)
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
            candidates[eid] = (
                confidence,
                witness,
                rule.name,
                source,
                target,
                rule.inferred_predicate,
            )

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
        confidence, witness, rule_name, source, target, predicate = candidates[eid]
        existing = g.edges.get(eid)
        provenance = Provenance(
            encode_witness(rule_name, witness), 0, Extractor.INFERRED
        )
        if existing is None:
            edges[eid] = Edge(
                source=source,
                target=target,
                predicate=predicate,
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
    return KnowledgeGraph(dict(g.nodes), edges)


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
        result = infer_implicit_relations(result, rules, config)
    return result


def _attach_senses(
    g: KnowledgeGraph, senses_by_node: Mapping[str, Sequence[SenseSignature]]
) -> KnowledgeGraph:
    nodes = dict(g.nodes)
    index = _adjacency_index(g, undirected=True)
    for label in sorted(senses_by_node):
        senses = senses_by_node[label]
        if label not in nodes or not senses:
            continue
        top_label, top_score = disambiguate_entity(g, label, senses, index=index)[0]
        if top_score > 0:
            node = nodes[label]
            nodes[label] = replace(
                node, attributes=node.attributes.with_value("sense", top_label)
            )
    return KnowledgeGraph(nodes, dict(g.edges))


# --- input files ----------------------------------------------------------------


def load_rules(path) -> list[InferenceRule]:
    """Read a JSON list of {name, pattern, inferred_predicate, discount}."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise RuleFileError(f"{path}: invalid json: {exc.msg}") from exc
    if not isinstance(payload, list):
        raise RuleFileError(f"{path}: expected a json list of rules")
    rules = []
    for index, record in enumerate(payload):
        try:
            rules.append(
                InferenceRule(
                    name=record["name"],
                    pattern=tuple(record["pattern"]),
                    inferred_predicate=record["inferred_predicate"],
                    discount=float(record.get("discount", 1.0)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RuleFileError(f"{path}: rule #{index}: {exc}") from exc
    return rules


def load_senses(path) -> dict[str, list[SenseSignature]]:
    """Read a JSON map node_label -> list of {sense_label, cues}."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise RuleFileError(f"{path}: invalid json: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise RuleFileError(f"{path}: expected a json object keyed by node label")
    senses_by_node: dict[str, list[SenseSignature]] = {}
    for label, entries in payload.items():
        signatures = []
        for index, record in enumerate(entries):
            try:
                signatures.append(
                    SenseSignature(
                        sense_label=record["sense_label"],
                        cue_labels=frozenset(record["cues"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise RuleFileError(
                    f"{path}: senses for {label!r}, entry #{index}: {exc}"
                ) from exc
        senses_by_node[label] = signatures
    return senses_by_node

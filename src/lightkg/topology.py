"""Structure-driven scoring and inference over an aggregated graph.

Three capabilities, all pure graph-in/graph-out, and all reading only the
stated edges: an edge an earlier run inferred is output only, never a
support, a sense neighbour or a rule step, so running them again on their
own output changes nothing:

- confidence reinforcement: an edge supported by independent (edge-disjoint)
  alternative paths between its endpoints scores higher, combined noisy-OR
  style with geometric decay in path length;
- entity disambiguation: neighborhood labels vote among candidate senses;
- implicit relation inference: a path whose predicate sequence matches a
  rule pattern licenses a new discounted edge, with the witness path stored
  in the edge's provenance for auditing.

Path search is a bidirectional breadth-first search (frontiers expanded from
both endpoints, meeting in the middle) run to the end of the level on which
they meet; on the last level that could still meet within the length bound,
only the meeting nodes are recorded. The search returns its layers: the
nodes a shortest path can hold at each position, found by walking back from
the meeting nodes over the source side, and the target side's distances
past them. The path is walked off those layers, taking the lexicographically
smallest node sequence, so equal graphs always yield equal paths. Once a
path's edges are used, every further path of that length lies in the same
layers, so one search serves all of an edge's supports of one length; the
walk steps back from a node left with no unused way forward, and drops it
from its layer for good.

All searches over one graph walk one
:class:`~lightkg.graph.AdjacencyIndex` (node -> neighbor -> sorted ids of the
edges between them). Reinforcement builds it once per call, without the
inferred edges, and drops it on return, so the graph it scores, which the
pipeline keeps to the end, carries no index. Edges are excluded from a
search (the scored edge itself, and the edges of supports already found) by
a check against the ``used`` id set during neighbor expansion and hop-edge
choice, never by rebuilding the index; nodes no used edge touches keep their
neighbor maps as they are. The set of touched nodes grows with each support
found, once per scored edge.

Reinforcement runs the greedy (:func:`_greedy_supports`) on the node and
edge id lists the walk returns and reads only each support's length, with
no per-edge set-up beyond the scored edge's own id and endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import AbstractSet, Iterator, Mapping, Sequence

from . import graph
from .aggregation import DEFAULT_POLICY, EmptyLabelError, NormalizationPolicy, normalize_label
from .graph import (
    AdjacencyIndex,
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

_NO_LINKS: dict[str, list[str]] = {}


def _shortest_layers(
    index: AdjacencyIndex,
    source: str,
    target: str,
    max_len: int,
    used: set[str],
    touched: set[str],
) -> tuple[int, dict[int, set[str]], dict[str, int]] | None:
    """The layers of the shortest source-to-target paths of at most
    ``max_len`` hops avoiding the ``used`` edge ids, as ``(length, levels,
    dist_t)`` for :func:`_walk`; ``touched`` must hold every endpoint of a
    used edge (other nodes walk their neighbor maps unfiltered)."""
    forward, backward = index
    # Bidirectional BFS, always growing the smaller frontier, run to the end
    # of the level on which the frontiers meet. No node was in both maps
    # before that level, so every meeting node lies at depth_s on the source
    # side and depth_t on the target side, and both maps are complete to
    # those depths. On the last level that can still meet, only the meeting
    # nodes are recorded: nothing reads the rest.
    dist_s = {source: 0}
    dist_t = {target: 0}
    frontier_s = [source]
    frontier_t = [target]
    depth_s = depth_t = 0
    meet: list[str] = []
    while not meet:
        if not (frontier_s and frontier_t) or depth_s + depth_t >= max_len:
            return None
        last = depth_s + depth_t + 1 == max_len
        if len(frontier_s) <= len(frontier_t):
            depth_s += 1
            depth, frontier, links_of, dist, other = depth_s, frontier_s, forward, dist_s, dist_t
        else:
            depth_t += 1
            depth, frontier, links_of, dist, other = depth_t, frontier_t, backward, dist_t, dist_s
        grown = []
        for u in frontier:
            links = links_of.get(u, _NO_LINKS)
            filtered = u in touched
            for v in links:
                if v not in dist and not (filtered and used.issuperset(links[v])):
                    if v in other:
                        dist[v] = depth
                        meet.append(v)
                    elif not last:
                        dist[v] = depth
                        grown.append(v)
        if dist is dist_s:
            frontier_s = grown
        else:
            frontier_t = grown

    # The nodes a shortest path can hold at positions 1..depth_s: the meeting
    # nodes, then, walking back, the source-side nodes one level up with an
    # unused edge into the set below. Past depth_s, a node at position i
    # qualifies when dist_t says it is length - i hops from the target. A
    # node qualifies at one position at most: at two, it would lie on a
    # shorter path.
    levels = {depth_s: set(meet)}
    for position in range(depth_s - 1, 0, -1):
        levels[position] = {
            u
            for w in levels[position + 1]
            for u, ids in backward[w].items()
            if dist_s.get(u) == position and not (w in touched and used.issuperset(ids))
        }
    return depth_s + depth_t, levels, dist_t


def _walk(
    index: AdjacencyIndex,
    source: str,
    layers: tuple[int, dict[int, set[str]], dict[str, int]],
    used: set[str],
) -> tuple[list[str], list[str]] | None:
    """The lexicographically smallest path through ``layers`` avoiding the
    ``used`` edge ids, as its node ids and edge ids, or None.

    At each position take the smallest qualifying neighbor, over its smallest
    unused edge id. Since the remaining distance strictly decreases the walk
    never revisits a node. On layers fresh from :func:`_shortest_layers`
    every qualifying node has a way forward; once more edges are used, a
    node may have none, and the walk drops it from its layer and steps back.
    A node's ways to the target depend only on the node and its position,
    and ``used`` only grows, so a dropped node stays dropped for later walks
    of the same layers."""
    forward = index.forward
    length, levels, dist_t = layers
    nodes = [source]
    edge_ids: list[str] = []
    while (position := len(nodes)) <= length:
        level = levels.get(position)
        best = hop = None
        for v, ids in forward.get(nodes[-1], _NO_LINKS).items():
            if (best is None or v < best) and (
                v in level if level is not None else dist_t.get(v) == length - position
            ):
                for eid in ids:
                    if eid not in used:
                        best, hop = v, eid
                        break
        if best is not None:
            nodes.append(best)
            edge_ids.append(hop)
        elif position == 1:
            return None
        else:
            dead = nodes.pop()
            edge_ids.pop()
            if position - 1 in levels:
                levels[position - 1].discard(dead)
            else:
                del dist_t[dead]
    return nodes, edge_ids


def _greedy_supports(
    index: AdjacencyIndex,
    source: str,
    target: str,
    max_len: int,
    used: set[str],
    touched: set[str],
) -> Iterator[tuple[list[str], list[str]]]:
    """Greedy edge-disjoint paths, each as its node ids and edge ids:
    repeatedly take a shortest path avoiding ``used`` and add its edges to
    ``used`` and its nodes to ``touched``. Paths come shortest first, ties
    broken toward the lexicographically smallest node sequence, then the
    smallest edge id per hop, so results are reproducible. Not guaranteed
    maximum (this is evidence counting, not max-flow).

    Every path of one length is walked off one search's layers (see the
    module docstring); a new search runs only when they hold no more paths,
    and none after layers ``max_len`` long."""
    while (layers := _shortest_layers(index, source, target, max_len, used, touched)) is not None:
        path = _walk(index, source, layers, used)
        if path is None:
            raise RuntimeError(
                f"path reconstruction failed between {source!r} and {target!r}"
            )
        while path is not None:
            nodes, edge_ids = path
            used.update(edge_ids)
            touched.update(nodes)
            yield path
            path = _walk(index, source, layers, used)
        if layers[0] == max_len:
            return


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
    score. Inferred edges are left untouched, and no support walks one: an
    edge inferred by an earlier run does not lift the edges it came from.
    """
    # Built for this call, not kept on g: the pipeline keeps g alive after
    # discover. Looked up on the module, so a patched builder is seen.
    index = graph._adjacency_index(g, config.undirected_paths)
    rescored: dict[str, Edge] = {}
    for eid in sorted(g.edges):
        edge = g.edges[eid]
        if edge.inferred:
            rescored[eid] = edge
            continue
        miss = 1.0
        if edge.source != edge.target:
            # The greedy finds supports shortest first, so the factors
            # multiply one at a time in length order.
            for _, edge_ids in _greedy_supports(
                index,
                edge.source,
                edge.target,
                config.max_path_length,
                {eid},
                {edge.source, edge.target},
            ):
                miss *= 1.0 - config.base_path_weight ** len(edge_ids)
        confidence = 1.0 - (1.0 - config.direct_edge_weight) * miss
        confidence = min(
            config.confidence_ceiling, max(config.confidence_floor, confidence)
        )
        rescored[eid] = edge.with_confidence(confidence)
    return KnowledgeGraph(g.nodes, rescored)


def disambiguate_entity(
    near: AbstractSet[str], senses: Sequence[SenseSignature]
) -> list[tuple[str, float]]:
    """Rank candidate senses of a node by cue coverage among ``near``, its
    neighbours' ids: score(sense) = |cues in near| / |cues|; descending, with
    ties broken by input order."""
    if not senses:
        raise ValueError("senses must be non-empty")
    ranked = sorted(
        (
            (sense.sense_label, len(sense.cue_labels & near) / len(sense.cue_labels), position)
            for position, sense in enumerate(senses)
        ),
        key=lambda item: (-item[1], item[2]),
    )
    return [(label, score) for label, score, _ in ranked]


# --- rule inference ----------------------------------------------------------------

def encode_witness(rule_name: str, witness_edges: Sequence[str]) -> str:
    """Pack a rule application into an opaque provenance source id."""
    return f"rule:{rule_name}:{'|'.join(witness_edges)}"


def infer_implicit_relations(
    g: KnowledgeGraph, rules: Sequence[InferenceRule]
) -> KnowledgeGraph:
    """Add an inferred edge for every simple path whose predicate sequence
    matches a rule pattern (following edge direction).

    The new edge runs from path start to path end with confidence
    ``prod(edge confidences) * discount ** (len(pattern) - 1)`` and carries
    the witness path in its provenance. Paths run over stated edges only:
    an inferred edge, whether added here or by an earlier run, is never a
    step, so rules do not chain and inferring again over the output adds
    nothing. Existing non-inferred edges are never modified; a pre-existing
    identical inferred edge keeps the max confidence and gains the witness
    unless it already holds it.
    """
    outgoing: dict[tuple[str, str], list[Edge]] = {}
    starts: dict[str, list[Edge]] = {}
    for eid in sorted(g.edges):
        edge = g.edges[eid]
        if edge.inferred:
            continue
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
                provenance=existing.provenance
                if provenance in existing.provenance
                else existing.provenance + (provenance,),
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
    """Give each node with senses its top-ranked one, if that scores above
    zero. A node's neighbours are the other ends of its stated edges of
    either direction, self-loops aside, collected in one pass over the
    edges."""
    near: dict[str, set[str]] = {
        label: set() for label, senses in senses_by_node.items() if senses and label in g.nodes
    }
    for edge in g.edges.values():
        if edge.inferred or edge.source == edge.target:
            continue
        if edge.source in near:
            near[edge.source].add(edge.target)
        if edge.target in near:
            near[edge.target].add(edge.source)
    nodes = dict(g.nodes)
    for label, neighbours in near.items():
        top_label, top_score = disambiguate_entity(neighbours, senses_by_node[label])[0]
        if top_score > 0:
            node = nodes[label]
            nodes[label] = replace(
                node, attributes=node.attributes.with_value("sense", top_label)
            )
    return KnowledgeGraph(nodes, g.edges)


# --- input files ----------------------------------------------------------------


def load_rules(path, policy: NormalizationPolicy = DEFAULT_POLICY) -> list[InferenceRule]:
    """Read a JSON list of {name, pattern, inferred_predicate, discount};
    predicates are normalized with ``policy``, as graph labels are."""
    payload = read_json(path, RuleFileError)
    if not isinstance(payload, list):
        raise RuleFileError(f"{path}: expected a json list of rules")

    def build(pattern, inferred_predicate, **rest) -> InferenceRule:
        return InferenceRule(
            pattern=tuple(normalize_label(p, policy) for p in pattern),
            inferred_predicate=normalize_label(inferred_predicate, policy),
            **rest,
        )

    return [
        decode_record(record, "rule", build, RuleFileError, f"{path}: rule #{index}")
        for index, record in enumerate(payload)
    ]


def load_senses(
    path, policy: NormalizationPolicy = DEFAULT_POLICY
) -> dict[str, list[SenseSignature]]:
    """Read a JSON map node_label -> list of {sense_label, cues}; node labels
    and cues are normalized with ``policy``, as graph labels are. Entries of
    labels that normalize alike are joined in file order."""
    payload = read_json(path, RuleFileError)
    if not isinstance(payload, dict):
        raise RuleFileError(f"{path}: expected a json object keyed by node label")

    def build(sense_label, cues) -> SenseSignature:
        return SenseSignature(sense_label, frozenset(normalize_label(c, policy) for c in cues))

    senses_by_node: dict[str, list[SenseSignature]] = {}
    for label, entries in payload.items():
        if not isinstance(entries, list):
            raise RuleFileError(f"{path}: senses for {label!r} must be a json list")
        try:
            node = normalize_label(label, policy)
        except EmptyLabelError as exc:
            raise RuleFileError(f"{path}: senses for {label!r}: {exc}") from exc
        senses_by_node.setdefault(node, []).extend(
            decode_record(
                record, "sense", build,
                RuleFileError, f"{path}: senses for {label!r}, entry #{index}",
            )
            for index, record in enumerate(entries)
        )
    return senses_by_node

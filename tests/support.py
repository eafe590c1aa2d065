"""Shared oracles and random-instance builders for the test suite.

The oracles are deliberately independent of the library: plain deque BFS
over adjacency dicts, exhaustive simple-path enumeration, brute-force
subset search, naive set comparison. Library results are checked against
these, never against themselves.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from hypothesis import strategies as st

from lightkg.aggregation import EmptyLabelError, add_triple
from lightkg.graph import (
    ContextMap,
    ContextTriple,
    Edge,
    Extractor,
    KnowledgeGraph,
    Node,
    Provenance,
    empty_graph,
)
from lightkg.topology import PathEvidence

PROV = Provenance("fixture", 0, Extractor.PATTERN)


def triple(s: str, p: str, o: str, ctx: dict | None = None, prov: Provenance = PROV) -> ContextTriple:
    return ContextTriple(s, p, o, context=ContextMap(ctx or {}), provenance=prov)


def graph_of(*spo) -> KnowledgeGraph:
    """Fold (s, p, o[, context dict]) tuples into a graph; labels should
    already be canonical."""
    g = empty_graph()
    for item in spo:
        s, p, o = item[:3]
        ctx = item[3] if len(item) > 3 else None
        g = add_triple(g, triple(s, p, o, ctx))
    return g


# --- independent graph oracles -------------------------------------------------


def edge_pairs(g: KnowledgeGraph) -> list[tuple[str, str]]:
    return [(e.source, e.target) for e in g.edges.values()]


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
    index=None,
) -> PathEvidence | None:
    """Shortest path with the library's tie-breaks (lexicographically smallest
    node sequence, then smallest edge id per hop), searched over neighbor maps
    rebuilt without the excluded edges for every search, with a plain
    unidirectional BFS for distances. ``index`` is ignored, so this can stand
    in for ``lightkg.topology._shortest_path``."""
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
    max_paths: int | None,
    undirected: bool,
    exclude_edges=(),
) -> list[PathEvidence]:
    """Greedy edge-disjoint paths over :func:`reference_shortest_path`."""
    used = set(exclude_edges)
    found: list[PathEvidence] = []
    while max_paths is None or len(found) < max_paths:
        path = reference_shortest_path(g, source, target, max_len, undirected, used)
        if path is None:
            break
        found.append(path)
        used.update(path.edges)
    found.sort(key=lambda p: (p.length, p.nodes))
    return found


def reference_aggregate(
    triples: list[ContextTriple],
) -> tuple[KnowledgeGraph, list[tuple[ContextTriple, str]]]:
    """Left fold of ``add_triple`` in (source_id, chunk_index, input) order,
    collecting the triples it rejects."""
    g = empty_graph()
    rejected = []
    ordered = sorted(triples, key=lambda t: (t.provenance.source_id, t.provenance.chunk_index))
    for item in ordered:
        try:
            g = add_triple(g, item)
        except EmptyLabelError as exc:
            rejected.append((item, str(exc)))
    return g, rejected


def naive_f1(predicted: set, gold: set) -> tuple[float, float, float]:
    """Set-comparison precision/recall/F1 with zero conventions."""
    matched = len(predicted & gold)
    precision = matched / len(predicted) if predicted else 0.0
    recall = matched / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


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


def random_triples(rng: random.Random, count: int) -> list[ContextTriple]:
    return [
        triple(
            rng.choice(WORDS),
            rng.choice(PREDICATES),
            rng.choice(WORDS),
            prov=Provenance(rng.choice(["d1", "d2", "d3"]), rng.randrange(3), Extractor.PATTERN),
        )
        for _ in range(count)
    ]


# --- hypothesis strategies -------------------------------------------------------

_word = st.text(alphabet="abcdefgh", min_size=1, max_size=6)

# Canonical labels: lowercase words joined by single spaces (normalization
# fixed points by construction).
labels = st.builds(" ".join, st.lists(_word, min_size=1, max_size=2))

# Values stress the GraphML flattening escapes but stay XML-representable.
values = (
    st.text(alphabet="abcxyz09 =;|\\", min_size=1, max_size=8)
    .map(str.strip)
    .filter(bool)
)

context_maps = st.dictionaries(
    labels, st.sets(values, min_size=1, max_size=3), max_size=3
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
def multigraphs(draw, max_nodes: int = 7, max_edges: int = 16):
    node_ids = _multigraph_nodes[: draw(st.integers(2, max_nodes))]
    edges: dict[str, Edge] = {}
    for _ in range(draw(st.integers(0, max_edges))):
        edge = Edge(
            source=draw(st.sampled_from(node_ids)),
            target=draw(st.sampled_from(node_ids)),
            predicate=draw(st.sampled_from(["p", "q", "r"])),
            inferred=draw(st.booleans()) and draw(st.booleans()),
        )
        edges[edge.edge_id] = edge
    return KnowledgeGraph({n: Node(n) for n in node_ids}, edges)


# Surface labels that often merge after normalization, or normalize to nothing.
raw_labels = st.one_of(
    labels,
    st.sampled_from(["a", " A ", "a.", "B", "b", "...", "?!", "- -"]),
)

raw_triples = st.builds(
    ContextTriple,
    subject=raw_labels,
    predicate=st.sampled_from(["p", "P.", "q", "!!"]),
    object=raw_labels,
    context=context_maps,
    provenance=provenances,
)

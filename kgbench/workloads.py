"""Seeded input generator for the benchmark's three workloads.

Every input comes from ``random.Random`` seeded with the workload name and
the seed, so the same seed always writes the same bytes. A workload is a
corpus of planted facts written in a handful of fixed sentence forms, plus
the planted gold, inference rules, sense signatures and a pipeline config.
Because the forms are fixed, the generator also knows exactly what the
program must extract (:class:`Expected`), which the benchmark checks every
output against.

Sentence forms, chosen per fact in fixed proportions so that the relation
F1 depends on the sizes only, never on the seed:

- normal, ``A B mentored C D in 1987.``: extracted as stated;
- variant (10% of facts), ``A B comentored C D in 1987.``: extracted with a
  predicate that matches the gold one only under the relaxed policy;
- hidden (5% of facts), ``In 1987 A B mentored C D.``: no extractor reads it,
  so the fact is missing from the graph;
- distractor (one per 10 entities), ``A B is a chemist.``: an ``is_a`` edge
  that is not in the gold, so it counts as spurious.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from stub import needs_repair, plan_reply

PREDICATES = (
    "mentored", "advised", "cited", "funded",
    "hosted", "reviewed", "trained", "supported",
)
CATEGORIES = ("researcher", "physicist", "chemist", "engineer", "historian")
# (name, pattern, inferred predicate, discount); each rule has a planted chain
RULES = (
    ("scientific_lineage", ("mentored", "advised"), "scientific_lineage", 0.9),
    ("sponsored_visit", ("funded", "hosted"), "sponsored_visit", 0.8),
)
SENSES = ("academic", "industrial")
# Syllables end in a vowel, so no name token can read as an ``-ed`` verb.
_SYLLABLES = (
    "ka", "lo", "mi", "ru", "te", "sa", "no", "vi", "pa", "zu",
    "be", "ro", "li", "ma", "tu", "ne", "so", "gi", "fa", "ho",
)


@dataclass(frozen=True)
class Shape:
    entities: int
    facts: int
    repeats: int
    sentences_per_doc: int


@dataclass(frozen=True)
class Spec:
    full: Shape
    smoke: Shape
    config: dict


# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS: dict[str, Spec] = {
    "dense_graph": Spec(
        full=Shape(entities=200, facts=500, repeats=1, sentences_per_doc=8),
        smoke=Shape(entities=40, facts=80, repeats=1, sentences_per_doc=8),
        config={
            "extractor": "pattern",
            "topology_enabled": True,
            "eval_policy": "predicate_relaxed",
            "export_format": "json",
        },
    ),
    "dup_ingest": Spec(
        full=Shape(entities=250, facts=400, repeats=15, sentences_per_doc=10),
        smoke=Shape(entities=40, facts=40, repeats=3, sentences_per_doc=10),
        config={
            "extractor": "pattern",
            "topology_enabled": False,
            "eval_policy": "strict",
            "export_format": "json",
        },
    ),
    "model_http": Spec(
        full=Shape(entities=150, facts=200, repeats=6, sentences_per_doc=2),
        smoke=Shape(entities=30, facts=40, repeats=2, sentences_per_doc=2),
        config={
            "extractor": "model",
            "topology_enabled": True,
            "eval_policy": "strict",
            "export_format": "graphml",
        },
    ),
}

# (subject, predicate, object, year or None, source id), labels canonical
Statement = tuple[str, str, str, "str | None", str]


@dataclass
class Expected:
    """What a correct run extracts and derives from the generated inputs."""

    statements: list[Statement]
    gold: set[tuple[str, str, str]]
    senses: dict[str, str]
    chunks: int
    requests_per_run: int
    topology_enabled: bool

    def edges(self) -> set[tuple[str, str, str]]:
        return {(s, p, o) for s, p, o, _, _ in self.statements}

    def contexts(self) -> dict[tuple[str, str, str], set[str]]:
        years: dict[tuple[str, str, str], set[str]] = {}
        for s, p, o, year, _ in self.statements:
            bucket = years.setdefault((s, p, o), set())
            if year:
                bucket.add(year)
        return years

    def inferred(self) -> set[tuple[str, str, str]]:
        """Brute-force rule application over the extracted edges."""
        if not self.topology_enabled:
            return set()
        edges = self.edges()
        found = set()
        for _, (first, second), predicate, _ in RULES:
            for a, p1, b in edges:
                if p1 != first:
                    continue
                for b2, p2, c in edges:
                    if b2 == b and p2 == second and len({a, b, c}) == 3:
                        found.add((a, predicate, c))
        return found


@dataclass
class Workload:
    config_path: Path
    corpus_path: Path
    expected: Expected


def _names(rng: random.Random, count: int) -> list[str]:
    def token() -> str:
        return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()

    names: set[str] = set()
    while len(names) < count:
        names.add(f"{token()} {token()}")
    return sorted(names)


def _facts(
    shape_rng: random.Random, rng: random.Random, names: list[str], count: int
) -> list[tuple[str, str, str]]:
    """Facts over distinct unordered entity pairs, so each pair holds one
    relation; the first ones plant one chain per rule. Which positions are
    linked comes from ``shape_rng``, the predicates from ``rng``."""
    used: set[frozenset[int]] = set()
    facts: list[tuple[str, str, str]] = []

    def take(subject: int, predicate: str, obj: int) -> None:
        used.add(frozenset((subject, obj)))
        facts.append((names[subject], predicate, names[obj]))

    positions = range(len(names))
    for _, (first, second), _, _ in RULES:
        while True:
            a, b, c = shape_rng.sample(positions, 3)
            if not {frozenset((a, b)), frozenset((b, c))} & used:
                break
        take(a, first, b)
        take(b, second, c)
    while len(facts) < count:
        subject, obj = shape_rng.sample(positions, 2)
        if frozenset((subject, obj)) not in used:
            take(subject, rng.choice(PREDICATES), obj)
    return facts


def generate(name: str, seed: int, out_dir: Path, smoke: bool = False) -> Workload:
    """Write the workload's inputs into ``out_dir`` and return them with the
    expected results."""
    spec = WORKLOADS[name]
    shape = spec.smoke if smoke else spec.full
    rng = random.Random(f"{name}:{seed}")
    # The graph's shape is the same for every seed: path-search work varies
    # by about 6% between random graphs of 500 edges, which would swamp the
    # timing bounds. The seed picks names, predicates, years and the order
    # and grouping of sentences.
    shape_rng = random.Random(f"{name}:{shape}")
    names = _names(rng, shape.entities)
    rng.shuffle(names)
    facts = _facts(shape_rng, rng, names, shape.facts)

    plain = len(RULES) * 2
    order = list(range(plain, len(facts)))
    shape_rng.shuffle(order)
    variants = set(order[: len(facts) // 10])
    hidden = set(order[len(facts) // 10 : len(facts) // 10 + len(facts) // 20])

    sentences: list[str] = []
    for index, (subject, predicate, obj) in enumerate(facts):
        for year in rng.sample(range(1900, 2024), shape.repeats):
            if index in hidden:
                sentences.append(f"In {year} {subject} {predicate} {obj}.")
            elif index in variants:
                sentences.append(f"{subject} co{predicate} {obj} in {year}.")
            else:
                sentences.append(f"{subject} {predicate} {obj} in {year}.")
    for position in shape_rng.sample(range(shape.entities), shape.entities // 10):
        sentences.append(f"{names[position]} is a {rng.choice(CATEGORIES)}.")
    rng.shuffle(sentences)
    per_doc = shape.sentences_per_doc
    documents = [
        (f"doc-{i // per_doc:05d}", " ".join(sentences[i : i + per_doc]))
        for i in range(0, len(sentences), per_doc)
    ]

    model = spec.config["extractor"] == "model"
    statements = _expected_statements(documents, model)
    requests = sum(1 + needs_repair(text) for _, text in documents) if model else 0
    gold = {(s.lower(), p, o.lower()) for s, p, o in facts}
    senses = _senses(rng, statements, max(2, shape.entities // 20))

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "corpus.jsonl": "".join(
            json.dumps({"id": doc_id, "text": text}) + "\n" for doc_id, text in documents
        ),
        "gold.jsonl": "".join(
            json.dumps({"subject": s, "predicate": p, "object": o}) + "\n"
            for s, p, o in sorted(gold)
        ),
        "rules.json": json.dumps(
            [
                {"name": n, "pattern": list(p), "inferred_predicate": i, "discount": d}
                for n, p, i, d in RULES
            ],
            indent=2,
        ),
        "senses.json": json.dumps(senses["file"], indent=2, sort_keys=True),
        "config.json": json.dumps(
            {
                **spec.config,
                "worker_count": 2,
                "rules_path": "rules.json",
                "senses_path": "senses.json",
                "gold_path": "gold.jsonl",
            },
            indent=2,
            sort_keys=True,
        ),
    }
    for file_name, text in files.items():
        (out_dir / file_name).write_text(text, encoding="utf-8")
    expected = Expected(
        statements=statements,
        gold=gold,
        senses=senses["winners"] if spec.config["topology_enabled"] else {},
        chunks=len(documents),
        requests_per_run=requests,
        topology_enabled=spec.config["topology_enabled"],
    )
    return Workload(out_dir / "config.json", out_dir / "corpus.jsonl", expected)


def _expected_statements(documents: list[tuple[str, str]], model: bool) -> list[Statement]:
    statements: list[Statement] = []
    for doc_id, text in documents:
        if model:
            _, facts = plan_reply(text)
            kept = [(s, p, o, y) for s, p, o, y, malformed in facts if not malformed]
        else:
            kept = [_pattern_reading(sentence) for sentence in text.split(". ")]
        for fact in kept:
            if fact is not None:
                s, p, o, y = fact
                statements.append((s.lower(), p, o.lower(), y, doc_id))
    return statements


def _pattern_reading(sentence: str) -> tuple[str, str, str, str | None] | None:
    """What the pattern extractor reads in one generated sentence."""
    words = sentence.rstrip(".").split(" ")
    if words[0] == "In":
        return None
    if words[2:4] == ["is", "a"]:
        return " ".join(words[:2]), "is_a", words[4], None
    return " ".join(words[:2]), words[2], " ".join(words[3:5]), words[6]


def _senses(rng: random.Random, statements: list[Statement], count: int) -> dict:
    """Pick ``count`` entities with two or more neighbours; each gets a sense
    cued by two of its neighbours (the expected winner) and a decoy sense
    cued by non-neighbours, listed in random order."""
    neighbours: dict[str, set[str]] = {}
    for s, _, o, _, _ in statements:
        neighbours.setdefault(s, set()).add(o)
        neighbours.setdefault(o, set()).add(s)
    labels = sorted(neighbours)
    eligible = [n for n in labels if len(neighbours[n]) >= 2 and n not in CATEGORIES]
    file: dict[str, list[dict]] = {}
    winners: dict[str, str] = {}
    for node in rng.sample(eligible, min(count, len(eligible))):
        strangers = [n for n in labels if n != node and n not in neighbours[node]]
        winner, decoy = rng.sample(SENSES, 2)
        entries = [
            {"sense_label": winner,
             "cues": sorted(rng.sample(sorted(neighbours[node]), 2) + rng.sample(strangers, 1))},
            {"sense_label": decoy, "cues": sorted(rng.sample(strangers, 2))},
        ]
        rng.shuffle(entries)
        file[node] = entries
        winners[node] = winner
    return {"file": file, "winners": winners}

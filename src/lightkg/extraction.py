"""Turns text chunks into context-annotated triples.

Two extractors share one output type: a model-backed extractor that prompts
a chat endpoint and parses its line-oriented output (with one repair pass
for malformed responses), and a fixed-rule pattern extractor that works
offline and anchors deterministic end-to-end runs.

Output grammar, one triple per line::

    (subject | predicate | object) {key=value; key=value}

The context braces are optional; '|', '{' and '}' are forbidden inside
fields. Lines that fail to parse are recorded and skipped, never fatal.

Both extractors take a label table, a ``dict`` that maps each subject,
predicate and object string to the one object every triple stores for it
(``labels.setdefault(s, s)``). A regex group or a parsed field is a fresh
string, and a corpus states few distinct labels many times, so a table
shared by the calls of one extract stage keeps each label once. Without
one, a call keeps a table of its own. No table outlives its caller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .client import ChatClient, ChatMessage, CompletionParams
from .graph import ContextMap, ContextTriple, Extractor, Provenance
from .serialize import decode_record, read_jsonl

DEFAULT_MAX_CHUNK_CHARS = 2000

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_LIST_MARKER = re.compile(r"^(?:[-*•]+|\d+[.)])\s+")


class CorpusFormatError(ValueError):
    """A corpus JSONL line could not be parsed."""


@dataclass(frozen=True)
class TextChunk:
    """One chunk of a document's text.

    ``sentences`` is the list of sentences :func:`chunk_document` joined
    into ``text``, handed over so the pattern extractor need not split the
    text again; it is None for a chunk built by hand and for one that holds
    a slice of a hard-split sentence. It takes no part in equality or
    ``repr``.
    """

    source_id: str
    chunk_index: int
    text: str
    sentences: list[str] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.chunk_index < 0:
            raise ValueError("chunk_index must be >= 0")
        if not self.text.strip():
            raise ValueError("chunk text must be non-empty")


@dataclass
class ExtractionResult:
    triples: list[ContextTriple] = field(default_factory=list)
    repaired: bool = False
    rejected_lines: list[tuple[str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class CorpusDocument:
    doc_id: str
    text: str


def read_corpus(path) -> list[CorpusDocument]:
    """Load a JSONL corpus of ``{"id": ..., "text": ...}`` objects. A repeated
    id raises :class:`CorpusFormatError` naming both lines."""
    documents: dict[str, tuple[str, CorpusDocument]] = {}  # id -> (its line, document)
    for where, record in read_jsonl(path, CorpusFormatError):
        doc = decode_record(
            record, "corpus", lambda id, text: CorpusDocument(id, text), CorpusFormatError, where
        )
        first, _ = documents.setdefault(doc.doc_id, (where, doc))
        if first != where:
            line = first.rpartition(":")[2]
            raise CorpusFormatError(f"{where}: duplicate id {doc.doc_id!r} (first on line {line})")
    return [doc for _, doc in documents.values()]


def split_sentences(text: str) -> list[str]:
    pieces = _SENTENCE_SPLIT.split(text.strip())
    return [p.strip() for p in pieces if p.strip()]


def chunk_document(
    source_id: str, text: str, max_chunk_chars: int = DEFAULT_MAX_CHUNK_CHARS
) -> list[TextChunk]:
    """Split a document into chunks at sentence boundaries where possible.

    Sentences longer than the budget are hard-split. Chunk texts concatenate
    back to the input modulo boundary whitespace; indexes count up from 0.
    A chunk of whole sentences carries the list of them as ``sentences``:
    splitting its text again would give the same list. A chunk that holds a
    hard-split slice carries None, because its text can split differently:
    a slice that ends in no sentence terminator merges into what follows.
    """
    if max_chunk_chars < 1:
        raise ValueError("max_chunk_chars must be >= 1")
    body = text.strip()
    if not body:
        return []
    chunks: list[TextChunk] = []
    current: list[str] = []
    current_len = 0
    whole = True  # no piece of current is a slice of a hard-split sentence

    def close() -> None:
        chunks.append(
            TextChunk(source_id, len(chunks), " ".join(current), current if whole else None)
        )

    for sentence in split_sentences(body):
        sliced = len(sentence) > max_chunk_chars
        pieces = (sentence,) if not sliced else [
            piece
            for start in range(0, len(sentence), max_chunk_chars)
            if (piece := sentence[start : start + max_chunk_chars].strip())
        ]
        for piece in pieces:
            candidate = current_len + len(piece) + (1 if current else 0)
            if current and candidate > max_chunk_chars:
                close()
                current, current_len, whole = [piece], len(piece), not sliced
            else:
                current.append(piece)
                current_len = candidate
                whole = whole and not sliced
    if current:
        close()
    return chunks


# --- prompting ----------------------------------------------------------------

_FORMAT_WITH_CONTEXT = """\
You are an information extraction engine. Read the user's text and emit the
facts it states, one per line, in exactly this format:

(subject | predicate | object) {key=value; key=value}

Rules:
- One fact per line. No numbering, no commentary, no extra text.
- The characters '|', '{' and '}' must never appear inside a field.
- Keep subject, predicate and object as short surface forms from the text.
- Put contextual attributes of the fact (time, place, qualifiers) inside the
  braces, e.g. a date becomes {year=1898}. Omit the braces when the text
  gives no context for the fact.

Example:
Text: Marie Curie discovered radium in 1898.
Output: (marie curie | discovered | radium) {year=1898}"""

_FORMAT_NO_CONTEXT = """\
You are an information extraction engine. Read the user's text and emit the
facts it states, one per line, in exactly this format:

(subject | predicate | object)

Rules:
- One fact per line. No numbering, no commentary, no extra text.
- The character '|' must never appear inside a field.
- Keep subject, predicate and object as short surface forms from the text.

Example:
Text: Marie Curie discovered radium in 1898.
Output: (marie curie | discovered | radium)"""


def build_extraction_prompt(
    chunk: TextChunk, include_context: bool = True
) -> list[ChatMessage]:
    """Deterministic prompt demanding the line grammar above; the context
    clause is dropped from the requested schema when ``include_context`` is
    false."""
    system = _FORMAT_WITH_CONTEXT if include_context else _FORMAT_NO_CONTEXT
    return [
        ChatMessage("system", system),
        ChatMessage("user", f"Text:\n{chunk.text}"),
    ]


def build_repair_prompt(
    chunk: TextChunk, malformed_output: str, include_context: bool = True
) -> list[ChatMessage]:
    system = _FORMAT_WITH_CONTEXT if include_context else _FORMAT_NO_CONTEXT
    user = (
        "Your previous output could not be parsed:\n"
        f"{malformed_output}\n\n"
        "Re-emit the facts from the original text, using exactly the required "
        "line format and nothing else.\n"
        f"Text:\n{chunk.text}"
    )
    return [ChatMessage("system", system), ChatMessage("user", user)]


# --- response parsing ----------------------------------------------------------


class _LineRejected(ValueError):
    pass


def _parse_context_body(body: str) -> ContextMap:
    entries: dict[str, list[str]] = {}
    for pair in body.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        key, sep, value = pair.partition("=")
        if not sep:
            raise _LineRejected(f"context entry {pair!r} is missing '='")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise _LineRejected("empty context key")
        if not value:
            raise _LineRejected(f"context key {key!r} has an empty value")
        entries.setdefault(key, []).append(value)
    return ContextMap(entries)


_NO_CONTEXT = ContextMap()


def _parse_line(
    line: str, provenance: Provenance, include_context: bool, labels: dict[str, str]
) -> ContextTriple:
    if not line.startswith("("):
        raise _LineRejected("line does not start with '('")
    brace = line.find("{")
    close = line.rfind(")", 0, brace if brace != -1 else len(line))
    if close == -1:
        raise _LineRejected("missing closing parenthesis")
    fields = line[1:close].split("|")
    if len(fields) != 3:
        raise _LineRejected(f"expected 3 '|' separated fields, got {len(fields)}")
    subject, predicate, obj = (f.strip() for f in fields)
    if not subject:
        raise _LineRejected("empty subject")
    if not predicate:
        raise _LineRejected("empty predicate")
    if not obj:
        raise _LineRejected("empty object")
    rest = line[close + 1 :].strip()
    context = _NO_CONTEXT
    if rest:
        if not (rest.startswith("{") and rest.endswith("}")):
            raise _LineRejected(f"unexpected trailing text {rest!r}")
        context = _parse_context_body(rest[1:-1])  # parsed even when dropped, to reject it
        if not include_context:
            context = _NO_CONTEXT
    share = labels.setdefault
    return ContextTriple(
        share(subject, subject), share(predicate, predicate), share(obj, obj), context, provenance
    )


def parse_extraction_response(
    raw: str,
    provenance: Provenance,
    include_context: bool = True,
    labels: dict[str, str] | None = None,
) -> ExtractionResult:
    """Parse a model response into triples; total over arbitrary input.

    Every non-blank line is either accepted as one triple or recorded in
    ``rejected_lines`` with a reason. Surface strings are trimmed but not
    canonicalized (that is aggregation's job); context keys are lowercased.
    With ``include_context`` false a line's context braces are still parsed,
    and a malformed body still rejects the line, but every triple carries the
    one shared empty context. Labels are stored through ``labels``.
    """
    labels = {} if labels is None else labels
    result = ExtractionResult()
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        stripped = _LIST_MARKER.sub("", stripped)
        try:
            result.triples.append(_parse_line(stripped, provenance, include_context, labels))
        except _LineRejected as exc:
            result.rejected_lines.append((line.strip(), str(exc)))
    return result


def extract_chunk(
    chunk: TextChunk,
    client: ChatClient,
    params: CompletionParams,
    include_context: bool = True,
    labels: dict[str, str] | None = None,
) -> ExtractionResult:
    """Prompt the model for one chunk and parse the reply.

    If nothing parses and the reply was non-empty, re-prompts once with the
    malformed output and the grammar (``repaired`` flags this). An empty
    triple list is not an error. With ``include_context`` false every
    emitted triple carries an empty context, whatever the model returned.
    Labels are stored through ``labels``.
    """
    provenance = Provenance(chunk.source_id, chunk.chunk_index, Extractor.MODEL)
    raw = client.complete(build_extraction_prompt(chunk, include_context), params)
    result = parse_extraction_response(raw, provenance, include_context, labels)
    if not result.triples and raw.strip():
        repair_raw = client.complete(
            build_repair_prompt(chunk, raw, include_context), params
        )
        result = parse_extraction_response(repair_raw, provenance, include_context, labels)
        result.repaired = True
    return result


# --- pattern extractor ----------------------------------------------------------

# Starts only at the first character of a run of non-separators, which
# changes no match: group 1 must be followed by ",", so it ends at its run's
# end wherever in the run it starts, and a match from inside a run is also
# one from the run's first character.
_SUCH_AS = re.compile(r"(?<![^,.;:])([^,.;:]+),\s+such\s+as\s+([^,.;:]+)", re.IGNORECASE)

# Verb slot: a regular past-tense form, or one of a few common irregulars.
_IRREGULAR_VERBS = (
    "wrote", "won", "built", "made", "met", "led", "ran", "held",
    "taught", "sold", "bought", "began", "became", "left",
)
# Starts only at a line start, which changes no match: "." takes any
# character but "\n", so a match starting after any other character also
# starts one character earlier, and the leftmost match starts where "^"
# matches under MULTILINE.
_VERB_YEAR = re.compile(
    r"^(.+?)\s+((?:[A-Za-z]+ed)|" + "|".join(_IRREGULAR_VERBS) + r")\s+(.+?)\s+in\s+(\d{4})\b",
    re.MULTILINE,
)
_IS_A = re.compile(r"(.+?)\s+(?:is|was|are|were)\s+(?:a|an|the)\s+(.+)", re.IGNORECASE)
_CONJUNCTION_SPLIT = re.compile(r"\s+(?:and|or)\s+", re.IGNORECASE)


def _split_conjunction(text: str) -> list[str]:
    parts = []
    for piece in text.split(","):
        for sub in _CONJUNCTION_SPLIT.split(piece):
            sub = sub.strip()
            if sub:
                parts.append(sub)
    return parts


# Bounded: \d matches every Unicode decimal digit, so years are not few.
@lru_cache(maxsize=1024)
def _year_context(year: str) -> ContextMap:
    return ContextMap({"year": [year]})


def pattern_extract(
    chunk: TextChunk, include_context: bool = True, labels: dict[str, str] | None = None
) -> ExtractionResult:
    """Deterministic rule-based extractor for offline runs and fixtures.

    Per sentence, in order:

    a. ``X, such as Y[, Z and W]`` emits ``(Y, is_a, X)`` per listed item.
    b. ``X <verb> Y in <4-digit year>`` emits ``(X, verb, Y)`` with a
       ``year`` context, or an empty one with ``include_context`` false;
       the verb slot is a crude heuristic (an ``-ed`` form or a short
       irregular list).
    c. ``X is a Y`` emits ``(X, is_a, Y)``; skipped when rule b fired.

    Subject and object are trimmed; a match whose subject or object holds
    only whitespace (``, , such as x``, ``Ada founded   in 1900``) emits
    nothing.

    The sentences are the chunk's ``sentences`` when
    :func:`chunk_document` handed them over, else ``chunk.text`` split
    again; both give the same list. Triples with equal years share one
    immutable ``year`` context, built once per distinct year and kept in a
    bounded cache across calls; the other triples share one empty context.
    Labels are stored through ``labels``.

    The ``such as`` scan is linear in the sentence. The verb/year scan
    starts only at a line start, so a line it rejects costs about its
    length times its verb-like words, not the cube of its length.
    """
    provenance = Provenance(chunk.source_id, chunk.chunk_index, Extractor.PATTERN)
    triples: list[ContextTriple] = []
    share = ({} if labels is None else labels).setdefault

    def emit(subject: str, predicate: str, obj: str, context: ContextMap) -> None:
        subject, obj = subject.strip(), obj.strip()
        if subject and obj:
            triples.append(ContextTriple(
                share(subject, subject), share(predicate, predicate), share(obj, obj),
                context, provenance,
            ))

    sentences = chunk.sentences
    for sentence in split_sentences(chunk.text) if sentences is None else sentences:
        body = sentence.strip().rstrip(".!?").strip()
        if not body:
            continue
        # Skip the scan where it cannot match: casefold maps every character
        # that IGNORECASE equates with a letter of "such" (the long s
        # included) onto that letter.
        if "such" in body.casefold():
            for match in _SUCH_AS.finditer(body):
                for hyponym in _split_conjunction(match.group(2)):
                    emit(hyponym, "is_a", match.group(1), _NO_CONTEXT)
        verb_match = _VERB_YEAR.search(body)
        if verb_match:
            subject, verb, obj, year = verb_match.groups()
            emit(subject, verb, obj, _year_context(year) if include_context else _NO_CONTEXT)
            continue
        is_a_match = _IS_A.match(body)
        if is_a_match:
            emit(is_a_match.group(1), "is_a", is_a_match.group(2), _NO_CONTEXT)
    return ExtractionResult(triples=triples)

"""Extraction: chunking, prompting, response grammar, pattern rules."""

from __future__ import annotations

import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lightkg import extraction
from lightkg.client import CompletionParams, MockChatClient, prompt_fingerprint
from lightkg.extraction import (
    DEFAULT_MAX_CHUNK_CHARS,
    CorpusDocument,
    CorpusFormatError,
    TextChunk,
    build_extraction_prompt,
    build_repair_prompt,
    chunk_document,
    extract_chunk,
    parse_extraction_response,
    pattern_extract,
    read_corpus,
    split_sentences,
)
from lightkg.graph import ContextMap, ContextTriple, Extractor, Provenance
from lightkg.pipeline import PipelineConfig, extract_corpus
from lightkg.serialize import triples_to_jsonl

PARAMS = CompletionParams(model_name="mock")
PROV = Provenance("doc", 0, Extractor.MODEL)

MARIE = "Marie Curie discovered radium in 1898."


def chunk(text: str, source_id: str = "doc", index: int = 0) -> TextChunk:
    return TextChunk(source_id, index, text)


class TestChunking:
    def test_short_text_is_one_chunk(self):
        chunks = chunk_document("d", "One. Two. Three.", max_chunk_chars=10000)
        assert len(chunks) == 1
        assert chunks[0].chunk_index == 0

    def test_empty_text_gives_no_chunks(self):
        assert chunk_document("d", "") == []
        assert chunk_document("d", "   \n ") == []

    def test_split_reconstructs_text(self):
        text = "Aaaa bbb one. Cc dd two. Eee ff three. Gg hh four. Ii jj five."
        chunks = chunk_document("d", text, max_chunk_chars=40)
        assert len(chunks) == 2
        rebuilt = " ".join(c.text for c in chunks)
        assert rebuilt.split() == text.split()

    def test_oversized_sentence_hard_splits(self):
        text = "x" * 50
        chunks = chunk_document("d", text, max_chunk_chars=20)
        assert all(len(c.text) <= 20 for c in chunks)
        assert "".join(c.text for c in chunks) == text

    @given(
        sentences=st.lists(
            st.text(alphabet="abc ", min_size=1, max_size=30).map(str.strip).filter(bool),
            min_size=1,
            max_size=8,
        ),
        budget=st.integers(10, 80),
    )
    def test_chunks_cover_in_order_within_budget(self, sentences, budget):
        text = ". ".join(sentences) + "."
        chunks = chunk_document("d", text, max_chunk_chars=budget)
        assert [c.chunk_index for c in chunks] == list(range(len(chunks)))
        assert all(len(c.text) <= budget for c in chunks)
        # concatenation reproduces the input modulo boundary whitespace
        rebuilt = "".join(c.text for c in chunks)
        assert "".join(rebuilt.split()) == "".join(text.split())


class TestPrompts:
    def test_context_prompt_demands_annotated_grammar(self):
        messages = build_extraction_prompt(chunk(MARIE), include_context=True)
        assert messages[0].role == "system"
        assert messages[-1].role == "user"
        assert "(marie curie | discovered | radium) {year=1898}" in messages[0].content
        assert MARIE in messages[-1].content

    def test_no_context_prompt_has_no_brace_clause(self):
        messages = build_extraction_prompt(chunk(MARIE), include_context=False)
        assert "{" not in messages[0].content
        assert "(marie curie | discovered | radium)" in messages[0].content

    def test_prompts_are_deterministic(self):
        a = build_extraction_prompt(chunk(MARIE), True)
        b = build_extraction_prompt(chunk(MARIE), True)
        assert a == b
        r1 = build_repair_prompt(chunk(MARIE), "garbage", True)
        r2 = build_repair_prompt(chunk(MARIE), "garbage", True)
        assert r1 == r2


class TestParseResponse:
    def test_annotated_line(self):
        result = parse_extraction_response(
            "(Marie Curie | discovered | radium) {year=1898}", PROV
        )
        assert len(result.triples) == 1
        t = result.triples[0]
        assert (t.subject, t.predicate, t.object) == ("Marie Curie", "discovered", "radium")
        assert t.context.get("year") == frozenset({"1898"})
        assert t.provenance == PROV

    def test_empty_predicate_rejected(self):
        result = parse_extraction_response("(A | | B)", PROV)
        assert result.triples == []
        assert len(result.rejected_lines) == 1
        assert "predicate" in result.rejected_lines[0][1]

    def test_mixed_response(self):
        raw = "\n".join(
            [
                "(a | likes | b)",
                "Here are some triples:",
                "(c | hates | d) {since=1999}",
            ]
        )
        result = parse_extraction_response(raw, PROV)
        assert len(result.triples) == 2
        assert len(result.rejected_lines) == 1
        assert result.repaired is False

    def test_blank_lines_ignored(self):
        result = parse_extraction_response("\n\n(a | b | c)\n\n", PROV)
        assert len(result.triples) == 1
        assert result.rejected_lines == []

    def test_list_markers_tolerated(self):
        result = parse_extraction_response("1. (a | b | c)\n- (d | e | f)", PROV)
        assert len(result.triples) == 2

    def test_multiple_values_for_one_key(self):
        result = parse_extraction_response("(a | b | c) {year=1898; year=1902}", PROV)
        assert result.triples[0].context.get("year") == frozenset({"1898", "1902"})

    def test_malformed_context_rejects_line(self):
        result = parse_extraction_response("(a | b | c) {year}", PROV)
        assert result.triples == []
        assert "missing '='" in result.rejected_lines[0][1]

    def test_trailing_text_rejects_line(self):
        result = parse_extraction_response("(a | b | c) extra", PROV)
        assert result.triples == []

    @given(raw=st.text(max_size=300))
    def test_total_over_arbitrary_input(self, raw):
        result = parse_extraction_response(raw, PROV)
        non_blank = sum(1 for line in raw.splitlines() if line.strip())
        assert len(result.triples) + len(result.rejected_lines) == non_blank


class TestExtractChunk:
    def test_well_formed_response(self):
        ch = chunk(MARIE)
        client = MockChatClient(
            {
                prompt_fingerprint(build_extraction_prompt(ch, True)):
                    "(Marie Curie | discovered | radium) {year=1898}"
            }
        )
        result = extract_chunk(ch, client, PARAMS, include_context=True)
        assert len(result.triples) == 1
        assert result.repaired is False
        assert result.triples[0].provenance == Provenance("doc", 0, Extractor.MODEL)

    def test_repair_pass(self):
        ch = chunk(MARIE)
        garbage = "I could not find any facts, sorry!"
        client = MockChatClient(
            {
                prompt_fingerprint(build_extraction_prompt(ch, True)): garbage,
                prompt_fingerprint(build_repair_prompt(ch, garbage, True)):
                    "(marie curie | discovered | radium)",
            }
        )
        result = extract_chunk(ch, client, PARAMS, include_context=True)
        assert len(result.triples) == 1
        assert result.repaired is True

    def test_empty_response_is_not_an_error(self):
        ch = chunk(MARIE)
        client = MockChatClient({prompt_fingerprint(build_extraction_prompt(ch, True)): ""})
        result = extract_chunk(ch, client, PARAMS, include_context=True)
        assert result.triples == []
        assert result.repaired is False

    def test_context_stripped_when_disabled(self):
        ch = chunk(MARIE)
        # the model disobeys and returns context anyway
        client = MockChatClient(
            {
                prompt_fingerprint(build_extraction_prompt(ch, False)):
                    "(marie curie | discovered | radium) {year=1898}"
            }
        )
        result = extract_chunk(ch, client, PARAMS, include_context=False)
        assert len(result.triples) == 1
        assert not result.triples[0].context

    @pytest.mark.parametrize("include_context", [True, False])
    @pytest.mark.parametrize("reply, triples, rejected", [
        (
            "(marie curie | discovered | radium) {year=1898}",
            [("marie curie", "discovered", "radium", {"year": ["1898"]})],
            [],
        ),
        (
            "(marie curie | discovered | radium) {year}\n(radium | is_a | metal)",
            [("radium", "is_a", "metal", {})],
            [("(marie curie | discovered | radium) {year}", "context entry 'year' is missing '='")],
        ),
    ])
    def test_context_is_parsed_before_it_is_dropped(self, include_context, reply, triples, rejected):
        # Without context a malformed body still rejects its line, and a
        # well-formed one is dropped from the triple.
        ch = chunk(MARIE)
        client = MockChatClient({prompt_fingerprint(build_extraction_prompt(ch, include_context)): reply})
        result = extract_chunk(ch, client, PARAMS, include_context)
        assert result.triples == [
            ContextTriple(s, p, o, ContextMap(context if include_context else None), PROV)
            for s, p, o, context in triples
        ]
        assert result.rejected_lines == rejected
        assert result.repaired is False


class TestPatternExtract:
    def test_verb_year_rule(self):
        result = pattern_extract(chunk(MARIE))
        assert len(result.triples) == 1
        t = result.triples[0]
        assert (t.subject, t.predicate, t.object) == ("Marie Curie", "discovered", "radium")
        assert t.context.get("year") == frozenset({"1898"})
        assert t.provenance.extractor is Extractor.PATTERN

    def test_such_as_rule(self):
        result = pattern_extract(chunk("fruits, such as apples"))
        assert [(t.subject, t.predicate, t.object) for t in result.triples] == [
            ("apples", "is_a", "fruits")
        ]

    def test_such_as_rule_with_conjunction(self):
        result = pattern_extract(chunk("Heavy metals, such as radium and polonium, glow."))
        spo = [(t.subject, t.predicate, t.object) for t in result.triples]
        assert ("radium", "is_a", "Heavy metals") in spo
        assert ("polonium", "is_a", "Heavy metals") in spo

    def test_is_a_rule(self):
        result = pattern_extract(chunk("Radium is a metal."))
        assert [(t.subject, t.predicate, t.object) for t in result.triples] == [
            ("Radium", "is_a", "metal")
        ]

    def test_no_rule_matches(self):
        result = pattern_extract(chunk("The sky was blue."))
        assert result.triples == []

    def test_deterministic_bytes(self):
        ch = chunk(MARIE + " Radium is a metal.")
        first = triples_to_jsonl(pattern_extract(ch).triples)
        second = triples_to_jsonl(pattern_extract(ch).triples)
        assert first == second

    @given(text=st.text(alphabet="abcdef .,", min_size=1, max_size=120).filter(lambda s: s.strip()))
    def test_provenance_matches_chunk(self, text):
        result = pattern_extract(TextChunk("src", 3, text))
        for t in result.triples:
            assert t.provenance == Provenance("src", 3, Extractor.PATTERN)

    # The verb/year rule's lazy object takes one blank of the gap before "in".
    @pytest.mark.parametrize("gap", ["   ", " \t ", "\t\t\t"])
    def test_object_of_only_whitespace_yields_no_triple(self, gap):
        assert pattern_extract(chunk(f"Ada founded{gap}in 1900.")).triples == []
        result = pattern_extract(chunk(f"Ada founded{gap}in 1900. {MARIE}"))
        assert spo(result) == [("Marie Curie", "discovered", "radium")]

    @settings(max_examples=300)
    @given(text=support.any_pattern_texts.filter(str.strip))
    def test_total_over_arbitrary_text(self, text):
        for t in pattern_extract(TextChunk("src", 0, text)).triples:
            assert t.subject == t.subject.strip() and t.object == t.object.strip()


def spo(result) -> list[tuple[str, str, str]]:
    return [(t.subject, t.predicate, t.object) for t in result.triples]


class TestSuchAsGate:
    """The ``such as`` scan runs only on sentences that casefold to contain
    "such"; it must find exactly what the ungated scan finds."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Metals, SUCH AS radium", [("radium", "is_a", "Metals")]),
            ("Metals, \u017fuch as radium", [("radium", "is_a", "Metals")]),
            ("Metals, sUcH As radium", [("radium", "is_a", "Metals")]),
            (
                "Gases, such as neon and argon OR xenon",
                [(item, "is_a", "Gases") for item in ("neon", "argon", "xenon")],
            ),
            # The listed items end at the first comma, gated or not.
            ("Gases, such as neon, argon and xenon", [("neon", "is_a", "Gases")]),
            ("Radium is a metal", [("Radium", "is_a", "metal")]),
            ("The sky was blue and the sea was calm", []),
            ("Metals, as such, glow", []),
            # A blank hypernym is skipped, not turned into a triple.
            (", , such as such", []),
            ("Gases, such as neon; , such as argon", [("neon", "is_a", "Gases")]),
        ],
    )
    def test_explicit_cases(self, text, expected):
        result = pattern_extract(chunk(text))
        assert spo(result) == expected
        assert result.triples == support.reference_pattern_extract(chunk(text)).triples

    def test_sentences_without_such_skip_the_scan(self, monkeypatch):
        from lightkg import extraction

        class NoScan:
            def finditer(self, body):
                raise AssertionError(f"scanned {body!r}")

        monkeypatch.setattr(extraction, "_SUCH_AS", NoScan())
        result = pattern_extract(chunk(MARIE + " Radium is a metal. Salt, as a rule, dissolves."))
        assert len(result.triples) == 2

    @settings(max_examples=300)
    @given(text=support.pattern_texts)
    def test_equals_ungated_extractor(self, text):
        ch = TextChunk("src", 1, text)
        assert pattern_extract(ch).triples == support.reference_pattern_extract(ch).triples


class TestAnchoredRules:
    """The ``such as`` and verb/year patterns start only where a match can
    start; they find what the unanchored reference patterns find."""

    @staticmethod
    def found(matches) -> list:
        return [
            [m.span(group) for group in range(m.re.groups + 1)] + [m.groups()]
            for m in matches
            if m is not None
        ]

    @settings(max_examples=1000)
    @given(text=support.rule_texts)
    def test_equal_spans_and_groups(self, text):
        assert self.found([extraction._VERB_YEAR.search(text)]) == self.found(
            [support.REFERENCE_VERB_YEAR.search(text)]
        )
        assert self.found(extraction._SUCH_AS.finditer(text)) == self.found(
            support.REFERENCE_SUCH_AS.finditer(text)
        )

    @pytest.mark.parametrize(
        "words, bound",
        [
            # Many verb-like words and no "in <year>" tail: the unanchored
            # verb/year scan is cubic in the sentence and takes seconds.
            (["Curie", "walked", "the", "lab", "painted"], 0.2),
            # "such" but no "X, such as": the unanchored scan is quadratic
            # and takes tens of milliseconds.
            (["metals", "such", "radium", "as", "glow"], 0.02),
        ],
    )
    def test_long_unmatched_sentence_is_fast(self, words, bound):
        text = " ".join(words * 400)[:DEFAULT_MAX_CHUNK_CHARS]
        timings = []
        for _ in range(3):  # best of three, against a stall of the host
            start = time.perf_counter()
            result = pattern_extract(chunk(text))
            timings.append(time.perf_counter() - start)
            assert result.triples == []
            if timings[-1] < bound:
                break
        assert min(timings) < bound, f"{min(timings):.4f} s for {len(text)} characters"


class TestYearContext:
    """Equal years share one cached ``year`` context; the triples equal the
    ones built with a new context per sentence."""

    @settings(max_examples=200)
    @given(text=support.year_texts())
    def test_equals_reference_extractor(self, text):
        ch = TextChunk("src", 1, text)
        result = pattern_extract(ch)
        assert result.triples == support.reference_pattern_extract(ch).triples
        shared = {}
        for t in result.triples:
            for year in t.context.get("year"):
                assert shared.setdefault(year, t.context) is t.context

    def test_non_ascii_digit_year(self):
        result = pattern_extract(chunk("Curie discovered radium in \u0661\u0668\u0669\u0668."))
        assert result.triples[0].context.get("year") == {"\u0661\u0668\u0669\u0668"}

    @settings(max_examples=100)
    @given(text=support.year_texts())
    def test_without_context_equals_contexts_emptied(self, text):
        ch = TextChunk("src", 1, text)
        expected = [replace(t, context=ContextMap()) for t in pattern_extract(ch).triples]
        assert pattern_extract(ch, False).triples == expected

    def test_year_cache_is_bounded(self):
        from lightkg import extraction

        assert extraction._year_context.cache_info().maxsize is not None


class TestSentencesHandedOver:
    """``chunk_document`` hands each chunk of whole sentences its list of
    sentences, and ``pattern_extract`` reads them instead of splitting the
    text again; a chunk holding a hard-split slice is read from its text."""

    @staticmethod
    def outcome(extract, ch: TextChunk):
        # Should a rule capture only blanks, both raise; compare that too.
        try:
            return extract(ch).triples
        except ValueError as exc:
            return repr(exc)

    @settings(max_examples=300)
    @given(
        text=st.lists(
            st.one_of(support.pattern_texts, support.year_texts(), st.just(" " * 12)),
            min_size=1,
            max_size=5,
        ).map(" ".join),
        budget=st.integers(3, 60),
    )
    def test_equals_reference_extractor_over_chunked_text(self, text, budget):
        for ch in chunk_document("src", text, max_chunk_chars=budget):
            if ch.sentences is not None:
                assert ch.sentences == split_sentences(ch.text)
            assert self.outcome(pattern_extract, ch) == self.outcome(
                support.reference_pattern_extract, ch
            )

    def test_slices_and_a_whole_sentence_read_as_the_resplit_text(self):
        # The first slice is "Curie wrote" and its padding; both slices and
        # the next sentence fit one chunk, whose text splits into two
        # sentences, not the three pieces the chunk was joined from.
        text = "Curie wrote" + " " * 29 + "radium in 1898. Ra is a gas."
        [ch] = chunk_document("src", text, max_chunk_chars=40)
        assert ch.text == "Curie wrote radium in 1898. Ra is a gas."
        assert ch.sentences is None
        assert spo(pattern_extract(ch)) == [
            ("Curie", "wrote", "radium"), ("Ra", "is_a", "gas")
        ]
        assert pattern_extract(ch).triples == support.reference_pattern_extract(ch).triples

    def test_sentences_take_no_part_in_equality_or_repr(self):
        [handed] = chunk_document("d", MARIE + " Radium is a metal.")
        assert handed.sentences == [MARIE, "Radium is a metal."]
        by_hand = TextChunk("d", 0, handed.text)
        assert by_hand.sentences is None
        assert handed == by_hand
        assert hash(handed) == hash(by_hand)
        assert repr(handed) == repr(by_hand) == (
            f"TextChunk(source_id='d', chunk_index=0, text={handed.text!r})"
        )

    def test_extract_corpus_splits_each_document_once(self):
        documents = [
            CorpusDocument(f"doc-{i}", " ".join([MARIE, "Radium is a metal."] * 6))
            for i in range(3)
        ]
        config = PipelineConfig(max_chunk_chars=60)
        with mock.patch.object(
            extraction, "split_sentences", wraps=extraction.split_sentences
        ) as split:
            chunks, results = extract_corpus(config, documents)
        assert split.call_count == len(documents)
        assert len(chunks) > len(documents)
        assert [r.triples for r in results] == [
            support.reference_pattern_extract(ch).triples for ch in chunks
        ]


class TestCorpus:
    def test_read_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "Hello."}\n\n{"id": "b", "text": "Bye."}\n')
        docs = read_corpus(path)
        assert [(d.doc_id, d.text) for d in docs] == [("a", "Hello."), ("b", "Bye.")]

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\nnot json\n')
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert ":2:" in str(err.value)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "no id"}\n')
        with pytest.raises(CorpusFormatError):
            read_corpus(path)

    def test_repeated_id_names_both_lines(self, tmp_path):
        """Two documents with one id would extract as one provenance."""
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "d1", "text": "Ada wrote notes in 1843."}\n\n'
            '{"id": "d2", "text": "Bye."}\n{"id": "d1", "text": "Curie won prizes in 1903."}\n'
        )
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert str(err.value) == f"{path}:4: duplicate id 'd1' (first on line 1)"


def test_split_sentences():
    assert split_sentences("One. Two! Three? Four") == ["One.", "Two!", "Three?", "Four"]

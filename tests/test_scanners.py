"""The text scanners against the per-character loops they replaced.

``embedding._tokens``, ``extraction.extract_mentions`` (``caps-run``),
``corpus.segment_sentences`` and ``corpus.byte_offset_table`` scan text with
``re`` and the UTF-8 codec. The loops below are their earlier scalar
versions, kept as oracles. On text that mixes the characters where a
regular expression could part from ``str.isalnum()`` and ``str.isspace()``
(``_``, non-ASCII letters and digits, combining marks, the information
separators ``\\x1c``-``\\x1f``, ``\\x85``, no-break and ideographic spaces),
both give the same tokens, mentions, spans and offsets. On text holding a
lone surrogate, both give the same result or raise the same exception type.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linearrag import corpus
from linearrag.corpus import (
    MAX_SENTENCE_BYTES,
    _split_oversized,
    _trim,
    byte_offset_table,
    segment_sentences,
)
from linearrag.embedding import _tokens
from linearrag.extraction import (
    DEFAULT_STOPWORDS,
    ExtractorContract,
    extract_mentions,
)

STOPWORDS = frozenset(DEFAULT_STOPWORDS)
CAPS_RUN = ExtractorContract.make()


def ref_tokens(text: str) -> list[str]:
    out: list[str] = []
    current: list[str] = []
    for ch in text.casefold():
        if ch.isalnum():
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def ref_byte_offset_table(text: str) -> list[int]:
    table = [0] * (len(text) + 1)
    running = 0
    for i, ch in enumerate(text):
        table[i] = running
        running += len(ch.encode("utf-8"))
    table[len(text)] = running
    return table


def ref_segment_sentences(passage_text: str) -> list[tuple[int, int]]:
    """The scalar terminal scan; trimming and the oversize split are the
    module's own."""
    if not passage_text:
        return []
    byte_of = ref_byte_offset_table(passage_text)
    n = len(passage_text)
    raw_spans: list[tuple[int, int]] = []
    start = 0
    for i, ch in enumerate(passage_text):
        if ch in ".!?" and (i + 1 == n or passage_text[i + 1].isspace()):
            raw_spans.append((start, i + 1))
            start = i + 1
    if start < n:
        raw_spans.append((start, n))
    spans: list[tuple[int, int]] = []
    for s, e in raw_spans:
        s, e = _trim(passage_text, s, e)
        if s < e:
            spans.extend(_split_oversized(passage_text, byte_of, s, e))
    return [(byte_of[s], byte_of[e]) for s, e in spans]


def ref_tokenize(text: str) -> list[tuple[int, int]]:
    """The char span of each whitespace-separated token's alphanumeric core
    (empty when the token has no alphanumeric character)."""
    cores: list[tuple[int, int]] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        cs, ce = i, j
        while cs < ce and not text[cs].isalnum():
            cs += 1
        while ce > cs and not text[ce - 1].isalnum():
            ce -= 1
        cores.append((cs, ce))
        i = j
    return cores


def ref_caps_run_mentions(
    sentence_text: str, stopwords: frozenset[str]
) -> list[tuple[str, int, int]]:
    tokens = ref_tokenize(sentence_text)
    qualifying = [cs < ce and sentence_text[cs].isupper() for cs, ce in tokens]
    mentions: list[tuple[str, int, int]] = []
    i = 0
    while i < len(tokens):
        if not qualifying[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(tokens) and qualifying[j + 1]:
            j += 1
        run = tokens[i : j + 1]
        if i == 0 and sentence_text[slice(*run[0])].casefold() in stopwords:
            run = run[1:]
        if run:
            cores = [sentence_text[slice(*t)].casefold() for t in run]
            if all(core in stopwords for core in cores):
                run = []
        if len(run) == 1 and run[0][1] - run[0][0] < 2:
            run = []
        if run:
            cs, ce = run[0][0], run[-1][1]
            mentions.append((sentence_text[cs:ce], cs, ce))
        i = j + 1
    return mentions


def ref_extract_mentions(sentence_text: str) -> list[tuple[str, int, int]]:
    """(surface, byte start, byte end) of each ``caps-run`` mention."""
    byte_of = ref_byte_offset_table(sentence_text)
    return [
        (surface, byte_of[cs], byte_of[ce])
        for surface, cs, ce in ref_caps_run_mentions(sentence_text, STOPWORDS)
    ]


def new_extract_mentions(sentence_text: str) -> list[tuple[str, int, int]]:
    return [
        (m.surface, *m.char_span) for m in extract_mentions(sentence_text, CAPS_RUN)
    ]


CHARS = (
    "aqzBQZ_079"
    # non-ASCII letters and digits; ß, ŉ and İ change length when case-folded
    "éßŉİⅫ٣ÉΩж"
    "\u0301\u0308\u20dd"  # combining marks: neither alphanumeric nor space
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u00a0\u2028\u3000"  # str.isspace()
    "\u200b"  # zero-width space: not str.isspace()
    ".!?"
    ",;:'\"-()«»¿…"
)
# Whole words, so that runs of capitalised tokens and stopwords occur, and
# cores behind a head of underscores or punctuation.
WORDS = ("The", "the", "Of", "of", "A", "Alpha", "Beta", "İstanbul", "Ⅻ", "É.")
WORDS += ("_Gamma", "__Ω_", "(Delta)", "«Ⅻ»")

texts = st.lists(st.sampled_from((*CHARS, *WORDS)), max_size=60).map("".join)
surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
texts_with_surrogate = st.tuples(texts, surrogates, texts).map("".join)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)


def outcome(fn, text):
    """``fn(text)``, or the type of the exception it raised."""
    try:
        return fn(text)
    except Exception as exc:
        return type(exc)


@PROPERTY_SETTINGS
@given(texts)
def test_tokens_match_scalar(text):
    assert _tokens(text) == ref_tokens(text)


@PROPERTY_SETTINGS
@given(texts)
def test_byte_offset_table_matches_scalar(text):
    assert byte_offset_table(text) == ref_byte_offset_table(text)


@PROPERTY_SETTINGS
@given(texts)
def test_mentions_match_scalar(text):
    assert new_extract_mentions(text) == ref_extract_mentions(text)


# A small limit makes the oversize split cut inside the generated texts.
@pytest.mark.parametrize("limit", [MAX_SENTENCE_BYTES, 12])
@PROPERTY_SETTINGS
@given(text=texts)
def test_segment_sentences_match_scalar(limit, text):
    with mock.patch.object(corpus, "MAX_SENTENCE_BYTES", limit):
        assert segment_sentences(text) == ref_segment_sentences(text)


@PROPERTY_SETTINGS
@given(texts_with_surrogate)
def test_lone_surrogates_alike(text):
    for new, ref in [
        (_tokens, ref_tokens),
        (byte_offset_table, ref_byte_offset_table),
        (new_extract_mentions, ref_extract_mentions),
        (segment_sentences, ref_segment_sentences),
    ]:
        assert outcome(new, text) == outcome(ref, text), new.__name__

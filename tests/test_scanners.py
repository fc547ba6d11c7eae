"""The text scanners against the per-character loops they replaced.

``embedding._tokens`` and ``embedding._token_bytes``,
``extraction.extract_mentions`` (``caps-run``),
``corpus.segment_sentences`` and ``corpus.byte_offset_table`` scan text with
``re`` and the UTF-8 codec. The loops below are their earlier scalar
versions, kept as oracles; ``caps-run`` has two, the per-character one and
the per-token walk that preceded the one-regex-per-sentence scan. On text
that mixes the characters where a regular expression could part from
``str.isalnum()``, ``str.isupper()`` and ``str.isspace()`` (``_``, non-ASCII
letters and digits, uppercase symbols that are not alphanumeric, combining
marks, the information separators ``\\x1c``-``\\x1f``, ``\\x85``, no-break
and ideographic spaces), both give the same tokens, mentions, spans and
offsets. On text holding a lone surrogate, both give the same result or
raise the same exception type.
"""

import re
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
from linearrag.embedding import _token_bytes, _tokens
from linearrag.extraction import (
    DEFAULT_STOPWORDS,
    ExtractorContract,
    _upper_alnum_class,
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


_TOKEN = re.compile(r"\S+")
_CORE = re.compile(r"[^\W_](?:\S*[^\W_])?")


def ref_token_walk_mentions(
    sentence_text: str, stopwords: frozenset[str]
) -> list[tuple[str, int, int]]:
    """The per-token walk: every token's core found by its own search."""
    cores = [
        _CORE.search(sentence_text, token.start(), token.end())
        for token in _TOKEN.finditer(sentence_text)
    ]
    qualifying = [core is not None and core.group()[0].isupper() for core in cores]
    mentions: list[tuple[str, int, int]] = []
    i = 0
    while i < len(cores):
        if not qualifying[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(cores) and qualifying[j + 1]:
            j += 1
        run = cores[i : j + 1]
        if i == 0 and run[0].group().casefold() in stopwords:
            run = run[1:]
        if run and all(core.group().casefold() in stopwords for core in run):
            run = []
        if len(run) == 1 and len(run[0].group()) < 2:
            run = []
        if run:
            cs, ce = run[0].start(), run[-1].end()
            mentions.append((sentence_text[cs:ce], cs, ce))
        i = j + 1
    return mentions


def ref_extract_mentions(
    sentence_text: str, walk=ref_caps_run_mentions
) -> list[tuple[str, int, int]]:
    """(surface, byte start, byte end) of each ``caps-run`` mention."""
    byte_of = ref_byte_offset_table(sentence_text)
    return [
        (surface, byte_of[cs], byte_of[ce])
        for surface, cs, ce in walk(sentence_text, STOPWORDS)
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
    "Ⓐ\U0001d400"  # Ⓐ: uppercase, not alphanumeric; U+1D400: uppercase beyond the BMP
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u00a0\u2028\u3000"  # str.isspace()
    "\u200b"  # zero-width space: not str.isspace()
    ".!?"
    ",;:'\"-()«»¿…"
)
# Whole words, so that runs of capitalised tokens and stopwords occur, and
# cores behind a head of underscores or punctuation.
WORDS = ("The", "the", "Of", "of", "A", "Alpha", "Beta", "İstanbul", "Ⅻ", "É.")
WORDS += ("_Gamma", "__Ω_", "(Delta)", "«Ⅻ»", "ⒶEta", "Ⓐta")

texts = st.lists(st.sampled_from((*CHARS, *WORDS)), max_size=60).map("".join)
# ASCII texts, which some scanners read on a path of their own.
ascii_texts = st.lists(
    st.sampled_from([piece for piece in (*CHARS, *WORDS) if piece.isascii()]),
    max_size=60,
).map("".join)
surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
texts_with_surrogate = st.tuples(texts, surrogates, texts).map("".join)

# Passages holding a span of multibyte text with no sentence terminal that
# is longer than MAX_SENTENCE_BYTES, so that the real limit cuts it.
unbroken = st.text(
    st.sampled_from([ch for ch in CHARS if ch not in ".!?"]), min_size=1, max_size=30
)
long_passages = st.tuples(texts, unbroken, st.integers(1, 3), texts).map(
    lambda t: t[0]
    + t[1] * (t[2] * MAX_SENTENCE_BYTES // len(t[1].encode("utf-8")) + 1)
    + t[3]
)

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
@given(texts | ascii_texts | texts_with_surrogate)
def test_encoder_tokens_match_scalar(text):
    # The hash encoder's tokenizer: bytes split from ASCII text, the
    # regular expression's tokens encoded otherwise.
    assert _token_bytes(text) == [token.encode() for token in ref_tokens(text)]


@PROPERTY_SETTINGS
@given(texts)
def test_byte_offset_table_matches_scalar(text):
    assert byte_offset_table(text) == ref_byte_offset_table(text)


@PROPERTY_SETTINGS
@given(texts)
def test_mentions_match_scalar(text):
    assert new_extract_mentions(text) == ref_extract_mentions(text)


@PROPERTY_SETTINGS
@given(texts)
def test_mentions_match_token_walk(text):
    assert new_extract_mentions(text) == ref_extract_mentions(
        text, ref_token_walk_mentions
    )


@pytest.mark.parametrize(
    "text, surfaces",
    [
        # Ⓐ (U+24B6) is uppercase but not alphanumeric: it leads a token
        # without qualifying it and stays out of the core.
        ("we met ⒶAlpha Beta.", ["Alpha Beta"]),
        ("we met Ⓐlpha Beta.", ["Beta"]),
        ("we met Ⓐ Beta.", ["Beta"]),
        # A sentence-initial stopword is dropped, behind a lead or spaces too;
        # one further in is kept.
        ("The Eiffel Tower stands.", ["Eiffel Tower"]),
        ("  «The» Eiffel Tower stands.", ["Eiffel Tower"]),
        ("we saw The Eiffel Tower.", ["The Eiffel Tower"]),
        ("The Of Alpha met us.", ["Of Alpha"]),
        # A one-token run needs a core of two characters or more.
        ("we met X.", []),
        ("we met «X» and _Z_.", []),
        ("we met «X», Y.", ["X», Y"]),
        ("we met X Y.", ["X Y"]),
        ("we met Xy.", ["Xy"]),
        # A run made only of stopwords is dropped, wherever it stands.
        ("we saw The Of It.", []),
        ("The It.", []),
        ("It The Of.", []),
        ("we saw The Of It Alpha.", ["The Of It Alpha"]),
    ],
)
def test_caps_run_rules(text, surfaces):
    mentions = new_extract_mentions(text)
    assert [surface for surface, _, _ in mentions] == surfaces
    assert mentions == ref_extract_mentions(text)
    assert mentions == ref_extract_mentions(text, ref_token_walk_mentions)


def test_upper_alnum_class_is_exact():
    every = "".join(map(chr, range(0x110000)))
    found = re.findall(f"[{_upper_alnum_class()}]", every)
    assert found == [ch for ch in every if ch.isupper() and ch.isalnum()]


# A small limit makes the oversize split cut inside the generated texts.
@pytest.mark.parametrize("limit", [MAX_SENTENCE_BYTES, 12])
@PROPERTY_SETTINGS
@given(text=texts)
def test_segment_sentences_match_scalar(limit, text):
    with mock.patch.object(corpus, "MAX_SENTENCE_BYTES", limit):
        assert segment_sentences(text) == ref_segment_sentences(text)


@settings(max_examples=40, deadline=None)
@given(long_passages)
def test_long_multibyte_passages_cut_alike(text):
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

"""Entity mention extraction and canonicalization.

Two extraction strategies are supported:

* ``caps-run`` (default): a deterministic heuristic. A token is a maximal
  run of non-whitespace characters; its alphanumeric core runs from its
  first to its last alphanumeric character. A mention is a maximal run of
  consecutive tokens whose core starts with an uppercase character
  (``str.isupper()``), spanning the first token's core to the last one's.
  A sentence-initial stopword is dropped from the head of its run, runs
  made entirely of stopwords (compared case-folded) are discarded, and
  single-token mentions must have a core of at least two characters. The
  ``stopwords`` parameter, a list of strings, replaces
  ``DEFAULT_STOPWORDS``; it is read and checked once per corpus.

  A sentence is scanned by one regular expression. A token qualifies when
  it is a lead of characters that are neither alphanumeric nor space, then
  a character that is both uppercase and alphanumeric, then anything up to
  the next whitespace; so an uppercase symbol that is not alphanumeric,
  such as Ⓐ, leads a token without qualifying it. Each match is one run of
  qualifying tokens. Only the first and the last token's cores are trimmed;
  the inner tokens' cores are read only when the first core is a stopword.
  Byte offsets are taken only at mention ends.
* ``external``: mentions are read from a line-delimited JSON file of
  ``{sentence_id, surface, start, end}`` records (byte offsets), so a
  statistical tagger can be plugged in offline. The file is read once per
  corpus, by :func:`extract_corpus_mentions`.

Entities are aligned across passages purely by their canonical key
(case-folded, NFC-normalized, whitespace-collapsed, punctuation-stripped).
No alias merging beyond that is attempted. A registry is only ever grown:
``extend_entity_registry`` registers a slice's mentions and returns one
``(sentence, passage, entity)`` row per mention, and building a registry is
growing an empty one. An entity record holds its key and surfaces; which
sentences and passages mention it is kept once, in the graph's incidence
matrices built from those rows.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from .corpus import Corpus, char_to_byte_spans
from .errors import ConfigError

logger = logging.getLogger(__name__)

DEFAULT_STOPWORDS: tuple[str, ...] = tuple(
    """
    a an the and but or nor so yet for of in on at by to from with without
    as into over under it its he she his her him they them their we us our
    you your i me my this that these those there here who whom whose which
    what when where why how is are was were be been being am do does did
    have has had having will would shall should can could may might must
    not no after before during while until once again also just only very
    such same other both each
    """.split()
)


@dataclass(frozen=True)
class EntityMention:
    sentence_id: int
    surface: str
    char_span: tuple[int, int]  # byte offsets within the sentence text


@dataclass(frozen=True)
class EntityRecord:
    id: int
    canonical: str
    surfaces: tuple[str, ...]  # sorted, deduplicated
    # The passage whose mention last added a surface (an upper bound when
    # unknown). Bookkeeping for appending saves, not part of the entity.
    surfaces_grown_at: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class EntityRegistry:
    records: tuple[EntityRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, entity_id: int) -> EntityRecord:
        return self.records[entity_id]

    @cached_property
    def _by_canonical(self) -> dict[str, int]:
        return {r.canonical: r.id for r in self.records}


@dataclass(frozen=True)
class ExtractorContract:
    """A named extraction strategy and its parameters (JSON-serializable)."""

    id: str = "caps-run"
    params: tuple[tuple[str, Any], ...] = ()

    @staticmethod
    def make(id: str = "caps-run", params: Mapping[str, Any] | None = None) -> "ExtractorContract":
        items = tuple(sorted((params or {}).items()))
        return ExtractorContract(id=id, params=items)

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)


def canonicalize(surface: str) -> str:
    """Normalize a surface form into its canonical entity key.

    NFC-normalize, case-fold, strip surrounding punctuation/whitespace and
    collapse inner whitespace. May return the empty string, in which case
    the caller drops the mention.
    """
    s = unicodedata.normalize("NFC", surface).casefold()
    start, end = 0, len(s)
    while start < end and _strippable(s[start]):
        start += 1
    while end > start and _strippable(s[end - 1]):
        end -= 1
    return " ".join(s[start:end].split())


def _strippable(ch: str) -> bool:
    return ch.isspace() or unicodedata.category(ch).startswith("P")


# An alphanumeric core runs from a token's first to its last alphanumeric
# character: ``\s`` matches exactly where ``str.isspace()`` is true, and
# ``[^\W_]`` exactly where ``str.isalnum()`` is true.
_CORE = re.compile(r"[^\W_](?:\S*[^\W_])?")

# Every code point where ``str.isupper()`` and ``str.isalnum()`` both hold
# lies below this limit (tests check all 0x110000), so the class below is
# built from a scan of the first two planes rather than of all of Unicode.
_UPPER_LIMIT = 0x20000


def _upper_alnum_class() -> str:
    """A regex class body matching exactly the code points where
    ``str.isupper()`` and ``str.isalnum()`` both hold."""
    ranges: list[list[int]] = []
    for ch in filter(str.isupper, map(chr, range(_UPPER_LIMIT))):
        if ch.isalnum():
            if ranges and ranges[-1][1] == ord(ch) - 1:
                ranges[-1][1] += 1
            else:
                ranges.append([ord(ch), ord(ch)])
    return "".join(rf"\U{lo:08x}-\U{hi:08x}" for lo, hi in ranges)


# A qualifying token: a lead of characters that are neither alphanumeric nor
# space, an uppercase alphanumeric character (the core's first), then the
# rest of the token. A caps-run is a maximal run of them, whitespace apart.
_QTOKEN = rf"(?:[^\w\s]|_)*[{_upper_alnum_class()}]\S*"
_CAPS_RUN = re.compile(rf"(?<!\S){_QTOKEN}(?:\s+{_QTOKEN})*")


def _caps_run_spans(text: str, stopwords: frozenset[str]) -> list[tuple[int, int]]:
    """The char span of each ``caps-run`` mention of ``text``, left to right.

    Only the first and last tokens' cores bound a mention; the inner
    tokens' cores are read only when the first core is a stopword.
    """
    head = len(text) - len(text.lstrip())  # where the first token starts
    spans: list[tuple[int, int]] = []
    for run in _CAPS_RUN.finditer(text):
        start, end = run.span()
        while not text[start].isalnum():
            start += 1
        while not text[end - 1].isalnum():
            end -= 1
        first = _CORE.match(text, start)
        if first.group().casefold() in stopwords:
            if run.start() == head:  # a sentence-initial stopword is dropped
                first = _CORE.search(text, first.end(), end)
                if first is None:
                    continue
                start = first.start()
            if first.group().casefold() in stopwords and all(
                core.casefold() in stopwords
                for core in _CORE.findall(text, first.end(), end)
            ):
                continue
        if first.end() == end and end - start < 2:  # a one-character token
            continue
        spans.append((start, end))
    return spans


def _stopwords(contract: ExtractorContract) -> frozenset[str]:
    words = contract.param_dict().get("stopwords", DEFAULT_STOPWORDS)
    if not isinstance(words, (list, tuple)) or not all(
        isinstance(word, str) for word in words
    ):
        raise ConfigError(
            f"caps-run stopwords must be a list of strings, got {words!r}"
        )
    return frozenset(words)


def _sentence_mentions(
    text: str, sentence_id: int, stopwords: frozenset[str]
) -> list[EntityMention]:
    spans = _caps_run_spans(text, stopwords)
    return [
        EntityMention(sentence_id, text[start:end], span)
        for (start, end), span in zip(spans, char_to_byte_spans(text, spans))
    ]


def extract_mentions(
    sentence_text: str, contract: ExtractorContract, sentence_id: int = -1
) -> list[EntityMention]:
    """Extract mentions from one sentence with the ``caps-run`` strategy.

    ``external`` mentions come from a file that covers a whole corpus; use
    :func:`extract_corpus_mentions` for them.
    """
    if contract.id == "caps-run":
        return _sentence_mentions(sentence_text, sentence_id, _stopwords(contract))
    if contract.id == "external":
        raise ConfigError(
            "external mentions are read per corpus; use extract_corpus_mentions"
        )
    raise ConfigError(f"unknown extraction strategy: {contract.id!r}")


def _external_path(contract: ExtractorContract) -> str:
    path = contract.param_dict().get("path")
    if not path:
        raise ConfigError("external extractor requires a 'path' parameter")
    return path


def load_external_mentions(path: str | Path) -> dict[int, tuple[EntityMention, ...]]:
    """Load a pre-computed mention file: one JSON record per line with
    fields sentence_id, surface, start, end (byte offsets)."""
    table: dict[int, list[EntityMention]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            mention = EntityMention(
                sentence_id=int(obj["sentence_id"]),
                surface=str(obj["surface"]),
                char_span=(int(obj["start"]), int(obj["end"])),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad mention record: {exc}") from exc
        table.setdefault(mention.sentence_id, []).append(mention)
    return {sid: tuple(ms) for sid, ms in table.items()}


def extract_corpus_mentions(
    corpus: Corpus, contract: ExtractorContract
) -> list[EntityMention]:
    """Run extraction over every sentence, in sentence-id order."""
    return list(_corpus_mentions(corpus, contract))


def _corpus_mentions(
    corpus: Corpus, contract: ExtractorContract
) -> Iterator[EntityMention]:
    """``extract_corpus_mentions`` one mention at a time. A consumer that
    registers each as it comes holds no list of them, so each mention is
    freed at once instead of aging into the collector's older generations."""
    texts = enumerate(corpus.sentence_texts(), corpus.first_sentence_id)
    if contract.id == "external":
        table = load_external_mentions(_external_path(contract))
        for sentence_id, text in texts:
            for m in table.get(sentence_id, ()):
                _check_external_span(text, m)
                yield m
        return
    if contract.id != "caps-run":
        raise ConfigError(f"unknown extraction strategy: {contract.id!r}")
    stopwords = _stopwords(contract)
    for sentence_id, text in texts:
        yield from _sentence_mentions(text, sentence_id, stopwords)


def _check_external_span(sentence_text: str, mention: EntityMention) -> None:
    start, end = mention.char_span
    raw = sentence_text.encode("utf-8")
    if not (0 <= start < end <= len(raw)):
        raise ConfigError(
            f"mention span {mention.char_span} out of range for sentence "
            f"{mention.sentence_id}"
        )
    try:
        addressed = raw[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"mention span {mention.char_span} splits a codepoint in sentence "
            f"{mention.sentence_id}"
        ) from exc
    if addressed != mention.surface:
        raise ConfigError(
            f"mention surface {mention.surface!r} does not match span text "
            f"{addressed!r} in sentence {mention.sentence_id}"
        )


def extend_entity_registry(
    registry: EntityRegistry,
    mentions: Iterable[EntityMention],
    corpus: Corpus,
) -> tuple[EntityRegistry, np.ndarray]:
    """Register the canonical keys of new mentions in an existing registry.

    New entities get the next ids in first-occurrence order (mentions must
    come in corpus order); an existing entity keeps its id and gains the new
    surfaces. Only the records of mentioned entities are touched. Each
    mention's sentence must be one of ``corpus``'s, whose sentence table
    gives its passage (a ValueError otherwise). A surface is recorded with
    its inner whitespace collapsed to single spaces, as ``canonicalize``
    does, so no surface holds a tab, a line break or the index's surface
    separator.

    Returns the grown registry and one ``(sentence, passage, entity)`` int64
    row per mention with a non-empty canonical key, in mention order.
    """
    ids = dict(registry._by_canonical)
    records = list(registry.records)
    added: dict[int, set[str]] = {}
    grown_at: dict[int, int] = {}  # entity -> the mention that last grew it
    sentence_ids: list[int] = []
    entity_ids: list[int] = []
    keys: dict[str, tuple[str, str]] = {}  # surface -> (canonical, collapsed)
    for mention in mentions:
        key = keys.get(mention.surface)
        if key is None:
            key = keys[mention.surface] = (
                canonicalize(mention.surface),
                " ".join(mention.surface.split()),
            )
        canonical, surface = key
        if not canonical:
            continue
        entity_id = ids.get(canonical)
        if entity_id is None:
            entity_id = len(ids)
            ids[canonical] = entity_id
            records.append(EntityRecord(entity_id, canonical, ()))
        surfaces = added.setdefault(entity_id, set())
        if surface not in surfaces:
            surfaces.add(surface)
            if surface not in records[entity_id].surfaces:
                grown_at[entity_id] = len(entity_ids)
        sentence_ids.append(mention.sentence_id)
        entity_ids.append(entity_id)
    sentences = np.array(sentence_ids, dtype=np.int64)
    rows = sentences - corpus.first_sentence_id
    if rows.size and (rows.min() < 0 or rows.max() >= len(corpus.sentences)):
        raise ValueError("a mention names a sentence the corpus does not hold")
    passages = corpus.sentences[rows, 0]
    for entity_id, k in grown_at.items():
        record = records[entity_id]
        records[entity_id] = EntityRecord(
            id=entity_id,
            canonical=record.canonical,
            surfaces=tuple(sorted(added[entity_id].union(record.surfaces))),
            surfaces_grown_at=int(passages[k]),
        )
    grown = EntityRegistry(records=tuple(records))
    grown.__dict__["_by_canonical"] = ids  # seed the cache; saves a full walk
    entities = np.array(entity_ids, dtype=np.int64)
    return grown, np.stack([sentences, passages, entities], axis=1)


def build_entity_registry(
    mentions: Iterable[EntityMention], corpus: Corpus
) -> tuple[EntityRegistry, np.ndarray]:
    """``extend_entity_registry`` of an empty registry: the corpus's entity
    registry and its ``(sentence, passage, entity)`` mention rows."""
    return extend_entity_registry(EntityRegistry(records=()), mentions, corpus)


def distinct_entries(
    rows: np.ndarray, cols: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct in-range (row, col) entries in row-major order, and how
    many times each occurs."""
    keys, counts = np.unique(rows * n_cols + cols, return_counts=True)
    return keys // n_cols, keys % n_cols, counts.astype(np.int64)

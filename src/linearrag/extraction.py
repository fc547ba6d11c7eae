"""Entity mention extraction and canonicalization.

Two extraction strategies are supported:

* ``caps-run`` (default): a deterministic heuristic. A mention is a maximal
  run of consecutive tokens whose alphanumeric core starts with an uppercase
  letter. A sentence-initial stopword is dropped from the head of its run,
  runs made entirely of stopwords are discarded, and single-token mentions
  must have a core of at least two characters.
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
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from .corpus import Corpus, byte_offset_table
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


@dataclass(frozen=True)
class _Token:
    start: int  # char offset of the token in the sentence
    core_start: int  # char offsets of the alphanumeric core
    core_end: int

    def core(self, text: str) -> str:
        return text[self.core_start : self.core_end]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
        tokens.append(_Token(start=i, core_start=cs, core_end=ce))
        i = j
    return tokens


def _caps_run_mentions(
    sentence_text: str, stopwords: frozenset[str]
) -> list[tuple[str, int, int]]:
    """Return (surface, char_start, char_end) triples, left to right."""
    tokens = _tokenize(sentence_text)
    qualifying = [
        t.core_start < t.core_end and sentence_text[t.core_start].isupper()
        for t in tokens
    ]
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
        if i == 0 and run[0].core(sentence_text).casefold() in stopwords:
            run = run[1:]
        if run:
            cores = [t.core(sentence_text).casefold() for t in run]
            if all(core in stopwords for core in cores):
                run = []
        if len(run) == 1 and run[0].core_end - run[0].core_start < 2:
            run = []
        if run:
            cs, ce = run[0].core_start, run[-1].core_end
            mentions.append((sentence_text[cs:ce], cs, ce))
        i = j + 1
    return mentions


def extract_mentions(
    sentence_text: str, contract: ExtractorContract, sentence_id: int = -1
) -> list[EntityMention]:
    """Extract mentions from one sentence with the ``caps-run`` strategy.

    ``external`` mentions come from a file that covers a whole corpus; use
    :func:`extract_corpus_mentions` for them.
    """
    if contract.id == "caps-run":
        stopwords = frozenset(
            contract.param_dict().get("stopwords", DEFAULT_STOPWORDS)
        )
        byte_of = byte_offset_table(sentence_text)
        return [
            EntityMention(
                sentence_id=sentence_id,
                surface=surface,
                char_span=(byte_of[cs], byte_of[ce]),
            )
            for surface, cs, ce in _caps_run_mentions(sentence_text, stopwords)
        ]
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
    if contract.id == "external":
        table = load_external_mentions(_external_path(contract))
        mentions = []
        for sentence in corpus.sentences:
            for m in table.get(sentence.id, ()):
                _check_external_span(sentence.text, m)
                mentions.append(m)
        return mentions
    if contract.id != "caps-run":
        raise ConfigError(f"unknown extraction strategy: {contract.id!r}")
    out: list[EntityMention] = []
    for sentence in corpus.sentences:
        out.extend(extract_mentions(sentence.text, contract, sentence.id))
    return out


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
    owner: Mapping[int, int],
) -> tuple[EntityRegistry, np.ndarray]:
    """Register the canonical keys of new mentions in an existing registry.

    New entities get the next ids in first-occurrence order (mentions must
    come in corpus order); an existing entity keeps its id and gains the new
    surfaces. Only the records of mentioned entities are touched. ``owner``
    maps each mention's sentence to its passage. A surface is recorded with
    its inner whitespace collapsed to single spaces, as ``canonicalize``
    does, so no surface holds a tab, a line break or the index's surface
    separator.

    Returns the grown registry and one ``(sentence, passage, entity)`` int64
    row per mention with a non-empty canonical key, in mention order.
    """
    ids = dict(registry._by_canonical)
    records = list(registry.records)
    added: dict[int, set[str]] = {}
    grown_at: dict[int, int] = {}
    hits: list[tuple[int, int, int]] = []
    for mention in mentions:
        canonical = canonicalize(mention.surface)
        if not canonical:
            continue
        passage_id = owner[mention.sentence_id]
        entity_id = ids.get(canonical)
        if entity_id is None:
            entity_id = len(ids)
            ids[canonical] = entity_id
            records.append(EntityRecord(entity_id, canonical, ()))
        surface = " ".join(mention.surface.split())
        surfaces = added.setdefault(entity_id, set())
        if surface not in surfaces:
            surfaces.add(surface)
            if surface not in records[entity_id].surfaces:
                grown_at[entity_id] = passage_id
        hits.append((mention.sentence_id, passage_id, entity_id))
    for entity_id, passage_id in grown_at.items():
        record = records[entity_id]
        records[entity_id] = EntityRecord(
            id=entity_id,
            canonical=record.canonical,
            surfaces=tuple(sorted(added[entity_id].union(record.surfaces))),
            surfaces_grown_at=passage_id,
        )
    grown = EntityRegistry(records=tuple(records))
    grown.__dict__["_by_canonical"] = ids  # seed the cache; saves a full walk
    return grown, np.array(hits, dtype=np.int64).reshape(-1, 3)


def build_entity_registry(
    mentions: Iterable[EntityMention], corpus: Corpus
) -> tuple[EntityRegistry, np.ndarray]:
    """``extend_entity_registry`` of an empty registry: the corpus's entity
    registry and its ``(sentence, passage, entity)`` mention rows."""
    owner = {s.id: s.passage_id for s in corpus.sentences}
    return extend_entity_registry(EntityRegistry(records=()), mentions, owner)


def distinct_entries(
    rows: np.ndarray, cols: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct in-range (row, col) entries in row-major order, and how
    many times each occurs."""
    keys, counts = np.unique(rows * n_cols + cols, return_counts=True)
    return keys // n_cols, keys % n_cols, counts.astype(np.int64)

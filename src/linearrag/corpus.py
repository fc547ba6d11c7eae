"""Corpus ingestion and punctuation-based sentence segmentation.

The document model is deliberately small: passages with dense integer ids,
one int64 table of sentence byte spans back into their passages (see
``Corpus``), and a content digest that is stable across re-ingestion and
extendable when passages are appended.

Input format is line-delimited JSON records with fields ``doc_key``
(optional), ``title`` (optional) and ``text`` (required). A title, when
present, is prepended to the text with a ``": "`` separator before
segmentation, so it participates in everything downstream.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpusError, IngestError

logger = logging.getLogger(__name__)

# A sentence terminal: '.', '!' or '?' followed by whitespace (``\s``
# matches exactly where ``str.isspace()`` is true) or end-of-text.
# Abbreviations ("Dr.") over-split by design; downstream linking is
# entity-keyed and tolerant of short sentences.
_SENTENCE_END = re.compile(r"[.!?](?=\s|\Z)")

# Hard upper bound on a single sentence, in UTF-8 bytes. Longer spans are
# split at the last whitespace before the limit.
MAX_SENTENCE_BYTES = 8192

_DIGEST_SEED = "linearrag-corpus-v1"

TITLE_SEPARATOR = ": "


@dataclass(frozen=True)
class Passage:
    """One corpus passage. ``text`` already includes the title, if any."""

    id: int
    doc_key: str
    title: str | None
    text: str


@dataclass(frozen=True, eq=False)
class Corpus:
    """Passages and their sentences.

    ``sentences`` is a read-only int64 array of shape (n_sentences, 3). Row
    ``i`` is sentence ``first_sentence_id + i``: its owning passage id and
    the half-open byte span of its text in the UTF-8 encoding of that
    passage's text, the layout of the index's ``sentences.i64``. Owners
    never decrease.
    """

    passages: tuple[Passage, ...]
    sentences: np.ndarray
    source_digest: str
    skipped: int = 0
    first_sentence_id: int = 0

    def __post_init__(self) -> None:
        self.sentences.flags.writeable = False

    def sentence_texts(self, start: int = 0, stop: int | None = None) -> list[str]:
        """The text of each sentence from row ``start`` on, before row
        ``stop`` if given, sliced from its passage's text, which is encoded
        once (an ASCII one not at all)."""
        texts: list[str] = []
        owner = text = raw = None
        for pid, begin, end in zip(*self.sentences[start:stop].T.tolist()):
            if pid != owner:
                owner, text = pid, self.passages[pid - self.passages[0].id].text
                raw = None if text.isascii() else text.encode("utf-8")
            texts.append(text[begin:end] if raw is None else raw[begin:end].decode("utf-8"))
        return texts

    @cached_property
    def key_to_passage_ids(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, list[int]] = {}
        for passage in self.passages:
            out.setdefault(passage.doc_key, []).append(passage.id)
        return {key: tuple(ids) for key, ids in out.items()}

    def __len__(self) -> int:
        return len(self.passages)


def byte_offset_table(text: str) -> list[int]:
    """Per-character byte offsets into the UTF-8 encoding (len(text)+1 entries)."""
    return list(accumulate(map(len, map(str.encode, text)), initial=0))


def char_to_byte_spans(
    text: str, spans: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Ascending, disjoint char spans of ``text`` as UTF-8 byte spans.

    Only the text up to each span end is measured, once. Raises
    UnicodeEncodeError if ``text`` holds a lone surrogate, whether or not a
    span covers it.
    """
    if text.isascii():
        return spans
    text.encode("utf-8")
    out: list[tuple[int, int]] = []
    char = byte = 0  # a char offset and its byte offset
    for start, end in spans:
        begin = byte + len(text[char:start].encode("utf-8"))
        char, byte = end, begin + len(text[start:end].encode("utf-8"))
        out.append((begin, byte))
    return out


def _trim(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def segment_sentences(text: str) -> list[tuple[int, int]]:
    """Split a passage into sentence byte spans.

    A boundary is placed after '.', '!' or '?' when the next character is
    whitespace or end-of-text. A trailing fragment without terminal
    punctuation becomes a final sentence. Spans exclude surrounding
    whitespace; empty spans are dropped. Spans longer than
    ``MAX_SENTENCE_BYTES`` are hard-split at the last whitespace before the
    limit (or at the limit itself if the span has no whitespace).

    Byte offsets are taken only at sentence boundaries; a per-character
    table is built only for a span that has to be cut.
    """
    chars: list[tuple[int, int]] = []
    start = 0
    for end in [match.end() for match in _SENTENCE_END.finditer(text)] + [len(text)]:
        s, e = _trim(text, start, end)
        if s < e:
            chars.append((s, e))
        start = end
    spans: list[tuple[int, int]] = []
    for (s, e), (bs, be) in zip(chars, char_to_byte_spans(text, chars)):
        if be - bs <= MAX_SENTENCE_BYTES:
            spans.append((bs, be))
            continue
        piece = text[s:e]
        byte_of = byte_offset_table(piece)
        spans.extend(
            (bs + byte_of[ps], bs + byte_of[pe])
            for ps, pe in _split_oversized(piece, byte_of, 0, len(piece))
        )
    return spans


def _split_oversized(
    text: str, byte_of: list[int], start: int, end: int
) -> list[tuple[int, int]]:
    """Split a trimmed char span into pieces of at most MAX_SENTENCE_BYTES."""
    pieces: list[tuple[int, int]] = []
    while byte_of[end] - byte_of[start] > MAX_SENTENCE_BYTES:
        # Largest char boundary within the byte budget.
        cut = start
        for i in range(start + 1, end):
            if byte_of[i] - byte_of[start] > MAX_SENTENCE_BYTES:
                break
            cut = i
        split_at = cut
        for i in range(cut, start, -1):
            if text[i].isspace():
                split_at = i
                break
        if split_at == start:  # no whitespace available
            split_at = cut
        s, e = _trim(text, start, split_at)
        if s < e:
            pieces.append((s, e))
        start, _ = _trim(text, split_at, end)
    s, e = _trim(text, start, end)
    if s < e:
        pieces.append((s, e))
    return pieces


@dataclass(frozen=True)
class PassageRecord:
    """A parsed input record, prior to id assignment."""

    doc_key: str | None
    title: str | None
    text: str


def initial_digest() -> str:
    return hashlib.sha256(_DIGEST_SEED.encode("utf-8")).hexdigest()


def chain_digest(prev: str, texts: Iterable[str]) -> str:
    """Extend a corpus digest with additional passage texts, in order.

    The digest is a hash chain over composed passage texts, so ingesting a
    prefix and then appending a suffix yields the same value as ingesting
    the whole corpus at once.
    """
    digest = prev
    for text in texts:
        record = hashlib.sha256(text.encode("utf-8")).hexdigest()
        digest = hashlib.sha256((digest + record).encode("utf-8")).hexdigest()
    return digest


def compose_text(title: str | None, body: str) -> str:
    if title and title.strip():
        return f"{title.strip()}{TITLE_SEPARATOR}{body}"
    return body


def corpus_from_records(
    records: Sequence[PassageRecord],
    skipped: int = 0,
    passage_id_base: int = 0,
    sentence_id_base: int = 0,
) -> Corpus:
    """Assemble a Corpus from parsed records, assigning dense ids.

    Raises IngestError for a record with a field that UTF-8 cannot encode
    (one holding a lone surrogate), since no index could store it.
    """
    if not records:
        raise EmptyCorpusError("no valid passages")
    passages: list[Passage] = []
    sentences: list[int] = []  # owner, start, end per sentence, flat
    for offset, record in enumerate(records):
        pid = passage_id_base + offset
        field = _unencodable_field(record)
        if field is not None:
            raise IngestError(
                f"record {offset} (passage {pid}): {field} holds a lone "
                "surrogate, which UTF-8 cannot encode"
            )
        text = compose_text(record.title, record.text)
        doc_key = record.doc_key if record.doc_key is not None else str(pid)
        passages.append(Passage(id=pid, doc_key=doc_key, title=record.title, text=text))
        for start, end in segment_sentences(text):
            sentences += (pid, start, end)
    digest = chain_digest(initial_digest(), (p.text for p in passages))
    return Corpus(
        passages=tuple(passages),
        sentences=np.array(sentences, dtype=np.int64).reshape(-1, 3),
        source_digest=digest,
        skipped=skipped,
        first_sentence_id=sentence_id_base,
    )


def parse_record(line: str) -> PassageRecord | None:
    """Parse one JSONL record; None if the line is malformed or empty-text.

    A field holding a lone surrogate (a JSON escape such as ``\\ud800``
    that UTF-8 cannot encode) makes the line malformed.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict):
        return None
    text = obj.get("text")
    if not isinstance(text, str) or not text.strip():
        return None
    doc_key = obj.get("doc_key")
    if doc_key is not None and not isinstance(doc_key, str):
        return None
    title = obj.get("title")
    if title is not None and not isinstance(title, str):
        return None
    record = PassageRecord(doc_key=doc_key, title=title, text=text)
    return None if _unencodable_field(record) else record


def _unencodable_field(record: PassageRecord) -> str | None:
    """The name of the first field of ``record`` that UTF-8 cannot encode,
    or None."""
    for name in ("doc_key", "title", "text"):
        value = getattr(record, name)
        try:
            if value is not None:
                value.encode("utf-8")
        except UnicodeEncodeError:
            return name
    return None


def ingest(
    path: str | Path,
    format: str = "jsonl",
    passage_id_base: int = 0,
    sentence_id_base: int = 0,
) -> Corpus:
    """Ingest a JSONL corpus file.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and are decoded one at a
    time. Malformed lines (not UTF-8, bad JSON, missing or empty text, a
    field of the wrong type or one holding a lone surrogate) are skipped
    with a warning and counted in ``Corpus.skipped``. Zero valid passages
    is an error.
    """
    if format != "jsonl":
        raise IngestError(f"unsupported corpus format: {format!r}")
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read corpus file {path}: {exc}") from exc

    records: list[PassageRecord] = []
    skipped = 0
    for lineno, raw_line in enumerate(data.splitlines(), start=1):
        try:
            line = raw_line.decode("utf-8")
        except UnicodeDecodeError:
            record = None
        else:
            if not line.strip():
                continue
            record = parse_record(line)
        if record is None:
            skipped += 1
            logger.warning("%s:%d: skipping malformed record", path, lineno)
            continue
        records.append(record)

    if not records:
        raise EmptyCorpusError(f"no valid passages in {path} ({skipped} skipped)")
    if skipped:
        logger.warning("%s: skipped %d malformed record(s)", path, skipped)
    return corpus_from_records(
        records,
        skipped=skipped,
        passage_id_base=passage_id_base,
        sentence_id_base=sentence_id_base,
    )

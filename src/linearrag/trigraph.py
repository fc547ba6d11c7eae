"""The tri-graph: passage, sentence and entity nodes joined by two sparse
binary incidence matrices.

``contain`` is passage x entity, ``mention`` is sentence x entity. Both are
indicator-valued; raw mention multiplicities live in ``occurrence_counts``,
an int64 array aligned with ``contain``'s entries. Construction never
touches the network.

A graph is never mutated: ``add_passages`` returns a new one. The sparse
operators a query needs are built from it once, on first use, and cached on
the graph.

The persisted index directory holds, all little-endian / UTF-8:

* ``manifest.json`` - format_version, corpus_digest, node counts, extractor
  contract, embedder contract.
* ``passages.jsonl`` / ``sentences.jsonl`` - node records (sentences store
  byte spans into their passage text).
* ``entities.tsv`` - id, canonical key, unit-separator-joined surfaces.
* ``contain.coo`` / ``mention.coo`` - sorted ``row<TAB>col`` lines.
* ``occurrence.tsv`` - passage_id, entity_id, mention count.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse as sp

from .corpus import Corpus, Passage, Sentence, chain_digest, initial_digest
from .errors import (
    ConsistencyError,
    DigestMismatchError,
    UpdateError,
    VersionMismatchError,
)
from .extraction import (
    EntityRecord,
    EntityRegistry,
    ExtractorContract,
    build_entity_registry,
    canonicalize,
    extract_corpus_mentions,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1

SURFACE_SEPARATOR = "\x1f"  # ASCII unit separator


class SparseBinaryMatrix:
    """Sorted, deduplicated COO entries plus CSR row offsets.

    Entries are kept as two parallel int64 arrays in row-major order;
    ``indptr`` has ``n_rows + 1`` prefix sums so rows can be iterated
    without a scan.
    """

    __slots__ = ("n_rows", "n_cols", "row_ids", "col_ids", "indptr")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        row_ids: np.ndarray,
        col_ids: np.ndarray,
        indptr: np.ndarray,
    ):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.row_ids = row_ids
        self.col_ids = col_ids
        self.indptr = indptr

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], n_rows: int, n_cols: int
    ) -> "SparseBinaryMatrix":
        """Build from (row, col) pairs; sorts, deduplicates, validates range."""
        arr = np.asarray(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2)
        rows = arr[:, 0] if len(arr) else np.empty(0, dtype=np.int64)
        cols = arr[:, 1] if len(arr) else np.empty(0, dtype=np.int64)
        if len(arr):
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ConsistencyError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ConsistencyError("column index out of range")
        matrix = cls(n_rows, n_cols, rows, cols, _row_indptr(rows, n_rows))
        matrix.validate()
        return matrix

    @property
    def nnz(self) -> int:
        return len(self.row_ids)

    def cols_of(self, row: int) -> np.ndarray:
        return self.col_ids[self.indptr[row] : self.indptr[row + 1]]

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.row_ids.tolist(), self.col_ids.tolist()))

    def col_counts(self) -> np.ndarray:
        return np.bincount(self.col_ids, minlength=self.n_cols).astype(np.int64)

    def to_csr(self) -> sp.csr_matrix:
        data = np.ones(self.nnz, dtype=np.float64)
        return sp.csr_matrix(
            (data, self.col_ids, self.indptr), shape=(self.n_rows, self.n_cols)
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        dense[self.row_ids, self.col_ids] = True
        return dense

    def validate(self) -> None:
        """Raise ConsistencyError if any structural invariant is broken."""
        if self.nnz:
            if self.row_ids.min() < 0 or self.row_ids.max() >= self.n_rows:
                raise ConsistencyError("row index out of range")
            if self.col_ids.min() < 0 or self.col_ids.max() >= self.n_cols:
                raise ConsistencyError("column index out of range")
            keys = self.row_ids * (self.n_cols + 1) + self.col_ids
            if not np.all(np.diff(keys) > 0):
                raise ConsistencyError("entries not sorted or contain duplicates")
        if len(self.indptr) != self.n_rows + 1 or self.indptr[0] != 0:
            raise ConsistencyError("csr prefix mismatch")
        if self.indptr[-1] != self.nnz or not np.array_equal(
            np.diff(self.indptr),
            np.bincount(self.row_ids, minlength=self.n_rows),
        ):
            raise ConsistencyError("csr prefix mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseBinaryMatrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and np.array_equal(self.row_ids, other.row_ids)
            and np.array_equal(self.col_ids, other.col_ids)
        )

    def __repr__(self) -> str:
        return f"SparseBinaryMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def _row_indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    counts = np.bincount(rows, minlength=n_rows) if len(rows) else np.zeros(n_rows, dtype=np.int64)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@dataclass(eq=False)
class TriGraph:
    corpus: Corpus
    contain: SparseBinaryMatrix  # passages x entities
    mention: SparseBinaryMatrix  # sentences x entities
    sentence_owner: np.ndarray  # sentence_id -> passage_id
    entity_registry: EntityRegistry
    occurrence_counts: np.ndarray  # int64 mention counts, one per contain entry
    extractor: ExtractorContract

    @property
    def corpus_digest(self) -> str:
        return self.corpus.source_digest

    @property
    def n_passages(self) -> int:
        return len(self.corpus.passages)

    @property
    def n_sentences(self) -> int:
        return len(self.corpus.sentences)

    @property
    def n_entities(self) -> int:
        return len(self.entity_registry)

    @cached_property
    def log_occurrence(self) -> np.ndarray:
        """``log1p`` of the mention counts, aligned with contain's entries."""
        return np.log1p(self.occurrence_counts.astype(np.float64))

    @cached_property
    def entity_mentions(self) -> sp.csr_matrix:
        """The mention matrix transposed (entity x sentence) as CSR.

        Each row lists its sentences in ascending id, so ``entity_mentions @ u``
        adds each entity's terms in the order of the mention entries.
        """
        mention = self.mention
        order = np.argsort(mention.col_ids, kind="stable")
        return sp.csr_matrix(
            (
                np.ones(mention.nnz, dtype=np.float64),
                mention.row_ids[order],
                _row_indptr(mention.col_ids, mention.n_cols),
            ),
            shape=(mention.n_cols, mention.n_rows),
        )

    @cached_property
    def ppr_transition(self) -> sp.csr_matrix:
        """W^T for the row-normalized adjacency of the passage-entity
        bipartite graph (passages first), so that
        (W^T I)[i] = sum over neighbors j of I[j] / deg(j)."""
        n_p = self.n_passages
        n = n_p + self.n_entities
        rows = self.contain.row_ids
        cols = self.contain.col_ids + n_p
        src = np.concatenate([rows, cols])
        dst = np.concatenate([cols, rows])
        deg = np.bincount(src, minlength=n).astype(np.float64)
        inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        # Entry (dst, src) = 1/deg(src): mass flows from src to its neighbors.
        return sp.csr_matrix((inv_deg[src], (dst, src)), shape=(n, n))


def graph_equal(a: TriGraph, b: TriGraph) -> bool:
    """Observational equality: every field except internal entry ordering
    (which is canonical anyway)."""
    return (
        a.corpus.passages == b.corpus.passages
        and a.corpus.sentences == b.corpus.sentences
        and a.corpus_digest == b.corpus_digest
        and a.contain == b.contain
        and a.mention == b.mention
        and np.array_equal(a.sentence_owner, b.sentence_owner)
        and a.entity_registry.records == b.entity_registry.records
        and np.array_equal(a.occurrence_counts, b.occurrence_counts)
        and a.extractor == b.extractor
    )


def build(corpus: Corpus, contract: ExtractorContract | None = None) -> TriGraph:
    """Construct the tri-graph for a corpus. Purely local computation."""
    contract = contract or ExtractorContract.make()
    mentions = extract_corpus_mentions(corpus, contract)
    registry, facts = build_entity_registry(mentions, corpus)
    if not registry.records:
        logger.warning("extraction produced zero entities; graph will be empty")
    n_p, n_s, n_e = len(corpus.passages), len(corpus.sentences), len(registry)
    contain = SparseBinaryMatrix.from_pairs(facts.passage_entity, n_p, n_e)
    return TriGraph(
        corpus=corpus,
        contain=contain,
        mention=SparseBinaryMatrix.from_pairs(facts.sentence_entity, n_s, n_e),
        sentence_owner=np.array(
            [s.passage_id for s in corpus.sentences], dtype=np.int64
        ),
        entity_registry=registry,
        occurrence_counts=_counts_of(facts.occurrence, contain, 0),
        extractor=contract,
    )


def _counts_of(
    occurrence: Mapping[tuple[int, int], int],
    contain: SparseBinaryMatrix,
    start: int,
) -> np.ndarray:
    """Counts of ``contain``'s entries from ``start`` on, in entry order."""
    pairs = zip(contain.row_ids[start:].tolist(), contain.col_ids[start:].tolist())
    return np.array([occurrence[pair] for pair in pairs], dtype=np.int64)


def add_passages(graph: TriGraph, new_slice: Corpus) -> TriGraph:
    """Extend a graph with new passages, returning a new graph.

    Extraction and registry merging work on the slice only, but the
    ``contain`` and ``mention`` entry lists are rebuilt through a global
    sort, so the cost still grows with the size of the whole graph.

    The slice's passage and sentence ids must continue the graph's dense id
    ranges. The result equals a full rebuild over the concatenated corpus.
    """
    if not new_slice.passages:
        return graph
    expected_pid = graph.n_passages
    for offset, passage in enumerate(new_slice.passages):
        if passage.id != expected_pid + offset:
            raise UpdateError(
                f"passage id {passage.id} does not continue the dense range "
                f"starting at {expected_pid}"
            )
    expected_sid = graph.n_sentences
    for offset, sentence in enumerate(new_slice.sentences):
        if sentence.id != expected_sid + offset:
            raise UpdateError(
                f"sentence id {sentence.id} does not continue the dense range "
                f"starting at {expected_sid}"
            )

    mentions = extract_corpus_mentions(new_slice, graph.extractor)

    # Registry extension: ids append-only, surfaces merged, first_seen kept.
    ids = {r.canonical: r.id for r in graph.entity_registry.records}
    surfaces: dict[int, set[str]] = {}
    first_seen: dict[int, int] = {}
    owner = {s.id: s.passage_id for s in new_slice.sentences}
    sentence_pairs: set[tuple[int, int]] = set()
    occurrence: dict[tuple[int, int], int] = {}

    for mention in mentions:
        canonical = canonicalize(mention.surface)
        if not canonical:
            continue
        passage_id = owner[mention.sentence_id]
        entity_id = ids.get(canonical)
        if entity_id is None:
            entity_id = len(ids)
            ids[canonical] = entity_id
            first_seen[entity_id] = passage_id
        surfaces.setdefault(entity_id, set()).add(mention.surface)
        sentence_pairs.add((mention.sentence_id, entity_id))
        key = (passage_id, entity_id)
        occurrence[key] = occurrence.get(key, 0) + 1

    records: list[EntityRecord] = []
    for record in graph.entity_registry.records:
        new_surfaces = surfaces.get(record.id)
        if new_surfaces:
            merged = tuple(sorted(set(record.surfaces) | new_surfaces))
            record = EntityRecord(
                id=record.id,
                canonical=record.canonical,
                surfaces=merged,
                first_seen_passage=record.first_seen_passage,
            )
        records.append(record)
    by_id = {eid: canonical for canonical, eid in ids.items()}
    for eid in range(len(graph.entity_registry), len(ids)):
        records.append(
            EntityRecord(
                id=eid,
                canonical=by_id[eid],
                surfaces=tuple(sorted(surfaces.get(eid, set()))),
                first_seen_passage=first_seen[eid],
            )
        )

    n_p = graph.n_passages + len(new_slice.passages)
    n_s = graph.n_sentences + len(new_slice.sentences)
    n_e = len(ids)
    contain = SparseBinaryMatrix.from_pairs(
        graph.contain.pairs() + sorted({(p, e) for (p, e) in occurrence}),
        n_p,
        n_e,
    )
    mention_m = SparseBinaryMatrix.from_pairs(
        graph.mention.pairs() + sorted(sentence_pairs), n_s, n_e
    )
    # New passage ids exceed every old one, so the slice's contain entries
    # sort after all of the graph's.
    counts = np.concatenate(
        [graph.occurrence_counts, _counts_of(occurrence, contain, graph.contain.nnz)]
    )

    merged_corpus = Corpus(
        passages=graph.corpus.passages + new_slice.passages,
        sentences=graph.corpus.sentences + new_slice.sentences,
        source_digest=chain_digest(
            graph.corpus_digest, (p.text for p in new_slice.passages)
        ),
        skipped=graph.corpus.skipped + new_slice.skipped,
    )
    return TriGraph(
        corpus=merged_corpus,
        contain=contain,
        mention=mention_m,
        sentence_owner=np.concatenate(
            [
                graph.sentence_owner,
                np.array([s.passage_id for s in new_slice.sentences], dtype=np.int64),
            ]
        )
        if new_slice.sentences
        else graph.sentence_owner,
        entity_registry=EntityRegistry(records=tuple(records)),
        occurrence_counts=counts,
        extractor=graph.extractor,
    )


def _derive_contain_pairs(
    mention: SparseBinaryMatrix, sentence_owner: np.ndarray
) -> set[tuple[int, int]]:
    return {
        (int(sentence_owner[s]), int(e))
        for s, e in zip(mention.row_ids, mention.col_ids)
    }


def save(
    graph: TriGraph,
    directory: str | Path,
    embedder: Mapping[str, Any] | None = None,
) -> None:
    """Persist a graph to an index directory (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "corpus_digest": graph.corpus_digest,
        "n_passages": graph.n_passages,
        "n_sentences": graph.n_sentences,
        "n_entities": graph.n_entities,
        "extractor": {
            "id": graph.extractor.id,
            "params": graph.extractor.param_dict(),
        },
        "embedder": dict(embedder) if embedder else None,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with (directory / "passages.jsonl").open("w", encoding="utf-8") as f:
        for p in graph.corpus.passages:
            f.write(
                json.dumps(
                    {"id": p.id, "doc_key": p.doc_key, "title": p.title, "text": p.text},
                    ensure_ascii=False,
                )
                + "\n"
            )
    with (directory / "sentences.jsonl").open("w", encoding="utf-8") as f:
        for s in graph.corpus.sentences:
            f.write(
                json.dumps(
                    {
                        "id": s.id,
                        "passage_id": s.passage_id,
                        "start": s.char_span[0],
                        "end": s.char_span[1],
                    }
                )
                + "\n"
            )
    with (directory / "entities.tsv").open("w", encoding="utf-8") as f:
        for r in graph.entity_registry.records:
            f.write(f"{r.id}\t{r.canonical}\t{SURFACE_SEPARATOR.join(r.surfaces)}\n")
    _write_coo(directory / "contain.coo", graph.contain)
    _write_coo(directory / "mention.coo", graph.mention)
    with (directory / "occurrence.tsv").open("w", encoding="utf-8") as f:
        for p, e, count in zip(
            graph.contain.row_ids.tolist(),
            graph.contain.col_ids.tolist(),
            graph.occurrence_counts.tolist(),
        ):
            f.write(f"{p}\t{e}\t{count}\n")


def _write_coo(path: Path, matrix: SparseBinaryMatrix) -> None:
    with path.open("w", encoding="utf-8") as f:
        for r, c in zip(matrix.row_ids, matrix.col_ids):
            f.write(f"{r}\t{c}\n")


def read_manifest(directory: str | Path) -> dict[str, Any]:
    path = Path(directory) / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConsistencyError(f"cannot read manifest at {path}: {exc}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise VersionMismatchError(
            f"index format version {manifest.get('format_version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    return manifest


def load(directory: str | Path) -> TriGraph:
    """Load and fully validate a persisted graph.

    Raises VersionMismatchError / DigestMismatchError / ConsistencyError
    for the corresponding classes of damage.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)

    passages = _load_passages(directory / "passages.jsonl")
    if len(passages) != manifest["n_passages"]:
        raise ConsistencyError(
            f"passages.jsonl has {len(passages)} records, manifest says "
            f"{manifest['n_passages']}"
        )
    digest = chain_digest(initial_digest(), (p.text for p in passages))
    if digest != manifest["corpus_digest"]:
        raise DigestMismatchError(
            "stored corpus digest does not match passage contents"
        )

    sentences = _load_sentences(directory / "sentences.jsonl", passages)
    if len(sentences) != manifest["n_sentences"]:
        raise ConsistencyError(
            f"sentences.jsonl has {len(sentences)} records, manifest says "
            f"{manifest['n_sentences']}"
        )

    n_p, n_s = len(passages), len(sentences)
    contain = _load_coo(directory / "contain.coo", n_p, manifest["n_entities"])
    mention = _load_coo(directory / "mention.coo", n_s, manifest["n_entities"])

    sentence_owner = np.array([s.passage_id for s in sentences], dtype=np.int64)
    if set(contain.pairs()) != _derive_contain_pairs(mention, sentence_owner):
        raise ConsistencyError(
            "contain matrix does not match the one derived from mentions"
        )

    occurrence = _load_occurrence(directory / "occurrence.tsv")
    if set(occurrence.keys()) != set(contain.pairs()):
        raise ConsistencyError("occurrence table does not match contain matrix")
    if any(count < 1 for count in occurrence.values()):
        raise ConsistencyError("occurrence counts must be positive")

    registry = _load_registry(directory / "entities.tsv", manifest["n_entities"], contain)

    extractor_info = manifest.get("extractor") or {}
    contract = ExtractorContract.make(
        id=extractor_info.get("id", "caps-run"),
        params=extractor_info.get("params") or {},
    )

    corpus = Corpus(
        passages=tuple(passages),
        sentences=tuple(sentences),
        source_digest=digest,
    )
    return TriGraph(
        corpus=corpus,
        contain=contain,
        mention=mention,
        sentence_owner=sentence_owner,
        entity_registry=registry,
        occurrence_counts=_counts_of(occurrence, contain, 0),
        extractor=contract,
    )


def _load_passages(path: Path) -> list[Passage]:
    passages: list[Passage] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConsistencyError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            passage = Passage(
                id=int(obj["id"]),
                doc_key=str(obj["doc_key"]),
                title=obj.get("title"),
                text=str(obj["text"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad passage record") from exc
        if passage.id != len(passages):
            raise ConsistencyError(f"{path}:{lineno}: passage ids not dense")
        passages.append(passage)
    return passages


def _load_sentences(path: Path, passages: Sequence[Passage]) -> list[Sentence]:
    sentences: list[Sentence] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConsistencyError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            sid = int(obj["id"])
            pid = int(obj["passage_id"])
            span = (int(obj["start"]), int(obj["end"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad sentence record") from exc
        if sid != len(sentences):
            raise ConsistencyError(f"{path}:{lineno}: sentence ids not dense")
        if not 0 <= pid < len(passages):
            raise ConsistencyError(f"{path}:{lineno}: unknown passage {pid}")
        raw = passages[pid].text.encode("utf-8")
        if not (0 <= span[0] < span[1] <= len(raw)):
            raise ConsistencyError(f"{path}:{lineno}: span out of range")
        try:
            text = raw[span[0] : span[1]].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConsistencyError(f"{path}:{lineno}: span splits a codepoint") from exc
        sentences.append(Sentence(id=sid, passage_id=pid, char_span=span, text=text))
    return sentences


def _load_coo(path: Path, n_rows: int, n_cols: int) -> SparseBinaryMatrix:
    pairs: list[tuple[int, int]] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConsistencyError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        try:
            pair = (int(parts[0]), int(parts[1]))
        except (IndexError, ValueError) as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad coordinate line") from exc
        pairs.append(pair)
    if pairs != sorted(set(pairs)):
        raise ConsistencyError(f"{path}: entries not sorted and unique")
    return SparseBinaryMatrix.from_pairs(pairs, n_rows, n_cols)


def _load_occurrence(path: Path) -> dict[tuple[int, int], int]:
    occurrence: dict[tuple[int, int], int] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConsistencyError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        try:
            key = (int(parts[0]), int(parts[1]))
            count = int(parts[2])
        except (IndexError, ValueError) as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad occurrence line") from exc
        if key in occurrence:
            raise ConsistencyError(f"{path}:{lineno}: duplicate occurrence key")
        occurrence[key] = count
    return occurrence


def _load_registry(
    path: Path, n_entities: int, contain: SparseBinaryMatrix
) -> EntityRegistry:
    # first_seen_passage is not stored: entity ids follow first occurrence
    # in corpus order, so it is the smallest passage containing the entity.
    first_seen = np.full(n_entities, -1, dtype=np.int64)
    for p, e in zip(contain.row_ids[::-1], contain.col_ids[::-1]):
        first_seen[e] = p
    records: list[EntityRecord] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConsistencyError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConsistencyError(f"{path}:{lineno}: bad entity line")
        try:
            eid = int(parts[0])
        except ValueError as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad entity id") from exc
        if eid != len(records):
            raise ConsistencyError(f"{path}:{lineno}: entity ids not dense")
        surfaces = tuple(parts[2].split(SURFACE_SEPARATOR)) if parts[2] else ()
        records.append(
            EntityRecord(
                id=eid,
                canonical=parts[1],
                surfaces=surfaces,
                first_seen_passage=int(first_seen[eid]) if eid < n_entities else -1,
            )
        )
    if len(records) != n_entities:
        raise ConsistencyError(
            f"entities.tsv has {len(records)} records, manifest says {n_entities}"
        )
    return EntityRegistry(records=tuple(records))

"""The tri-graph: passage, sentence and entity nodes joined by two sparse
binary incidence matrices.

``contain`` is passage x entity, ``mention`` is sentence x entity. Both are
indicator-valued; raw mention multiplicities live in ``occurrence_counts``,
an int64 array aligned with ``contain``'s entries. ``contain`` is the
passage-level projection of ``mention`` through ``sentence_owner``, so only
``mention`` is stored. Construction never touches the network.

A graph is never mutated: ``add_passages`` returns a new one. New passage,
sentence and entity ids are larger than every old one, so a slice's entries
sort after the graph's and growing a graph only appends to its arrays.
``build`` is the same growth applied to an empty graph, so every fact of a
graph is derived by one path. An entity's passages are read from
``contain`` alone; its registry record holds only its key and surfaces. The
sparse operators a query needs are built from the graph once, on first use,
and cached on it.

The persisted index directory (format version 2) holds:

* ``passages.jsonl`` - one ``{id, doc_key, title, text}`` record per line.
* ``sentences.i64`` - three little-endian int64 per sentence: owning
  passage, byte start and byte end of its span in the passage text.
* ``mention.i64`` - two little-endian int64 per mention entry: sentence,
  entity, in row-major order.
* ``occurrence.i64`` - one little-endian int64 mention count per contain
  entry; ``load`` derives the contain entries from the mentions.
* ``entities.tsv`` - a log of ``id<TAB>canonical<TAB>surfaces`` lines
  (surfaces joined by the unit separator; no key or surface holds
  whitespace other than single spaces); a later line for an id replaces
  the earlier one.
* ``manifest.json`` - format_version, corpus_digest, node counts, extractor
  and embedder contracts, the committed byte length of every file above,
  and the row count of each vector file (``*.vec``, written by
  ``embedding.save_store``) as the last store save committed it.

Every file only grows. ``save`` appends the rows past what the manifest
commits, fsyncs, then replaces the manifest atomically: the manifest is the
commit point, and ``load`` reads only the committed prefix of each file.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

import numpy as np
from scipy import sparse as sp

from . import storage
from .corpus import Corpus, Passage, Sentence, chain_digest, initial_digest
from .errors import (
    ConsistencyError,
    DigestMismatchError,
    IndexLoadError,
    UpdateError,
    VersionMismatchError,
)
from .extraction import (
    EntityRecord,
    EntityRegistry,
    ExtractorContract,
    distinct_entries,
    extend_entity_registry,
    extract_corpus_mentions,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 2

SURFACE_SEPARATOR = "\x1f"  # ASCII unit separator

MANIFEST = "manifest.json"
# The files a manifest commits, in the order a save appends to them.
GRAPH_FILES = (
    "passages.jsonl",
    "sentences.i64",
    "mention.i64",
    "occurrence.i64",
    "entities.tsv",
)
# The vector files ``embedding.save_store`` writes beside them; the manifest's
# ``vector_rows`` commit their row counts.
STORE_FILES = ("entities.vec", "sentences.vec", "passages.vec")
# Files of format version 1 that version 2 no longer writes.
V1_FILES = ("sentences.jsonl", "contain.coo", "mention.coo", "occurrence.tsv")
_INT64 = np.dtype("<i8")


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
    def sorted_entries(
        cls, rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
    ) -> "SparseBinaryMatrix":
        """Wrap entries that must already be sorted and distinct; raises
        ConsistencyError if they are not, or fall out of range."""
        _check_range(rows, cols, n_rows, n_cols)
        if np.any(np.diff(rows * n_cols + cols) <= 0):
            raise ConsistencyError("entries not sorted or contain duplicates")
        return cls(n_rows, n_cols, rows, cols, _row_indptr(rows, n_rows))

    def extended(
        self, rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
    ) -> "SparseBinaryMatrix":
        """This matrix grown to ``n_rows x n_cols`` with entries in the new
        rows appended after its own.

        Only the appended entries are validated: lying in rows past every old
        row, they sort after every old entry."""
        if n_rows < self.n_rows or n_cols < self.n_cols:
            raise ConsistencyError("a matrix can only grow")
        tail = SparseBinaryMatrix.sorted_entries(
            rows - self.n_rows, cols, n_rows - self.n_rows, n_cols
        )
        return SparseBinaryMatrix(
            n_rows,
            n_cols,
            np.concatenate([self.row_ids, rows]),
            np.concatenate([self.col_ids, cols]),
            np.concatenate([self.indptr[:-1], tail.indptr + self.nnz]),
        )

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


def _check_range(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> None:
    if len(rows):
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ConsistencyError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ConsistencyError("column index out of range")


def _row_indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
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
    def mention_transposed(self) -> sp.csc_matrix:
        """The mention matrix transposed (entity x sentence): its CSR form
        read as CSC, with no re-sort.

        ``mention_transposed @ u`` walks the sentences in ascending id, so each
        entity adds its terms in the order of the mention entries.
        """
        return self.mention.to_csr().T

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
    graph = _grow(_empty_graph(contract or ExtractorContract.make()), corpus, corpus)
    if not graph.n_entities:
        logger.warning("extraction produced zero entities; graph will be empty")
    return graph


def add_passages(graph: TriGraph, new_slice: Corpus) -> TriGraph:
    """Extend a graph with new passages, returning a new graph.

    Extraction, registry merging and the slice's matrix entries and counts
    are computed from the slice alone and appended after the graph's
    arrays; nothing is re-sorted, because new ids exceed every old one.
    What still grows with the corpus is copying: the graph's arrays and
    passage tuples are copied into the result (about 1.1 ms for the whole
    call at 3k passages, 2.2 ms at 12k), and ``extend_store`` copies every
    vector row (``np.vstack``, about 5 ms at 3k passages).

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
    merged_corpus = Corpus(
        passages=graph.corpus.passages + new_slice.passages,
        sentences=graph.corpus.sentences + new_slice.sentences,
        source_digest=chain_digest(
            graph.corpus_digest, (p.text for p in new_slice.passages)
        ),
        skipped=graph.corpus.skipped + new_slice.skipped,
    )
    return _grow(graph, new_slice, merged_corpus)


def _empty_graph(contract: ExtractorContract) -> TriGraph:
    none = np.empty(0, dtype=np.int64)
    matrix = SparseBinaryMatrix(0, 0, none, none, np.zeros(1, dtype=np.int64))
    return TriGraph(
        corpus=Corpus(passages=(), sentences=(), source_digest=initial_digest()),
        contain=matrix,
        mention=matrix,
        sentence_owner=none,
        entity_registry=EntityRegistry(records=()),
        occurrence_counts=none,
        extractor=contract,
    )


def _grow(graph: TriGraph, new_slice: Corpus, corpus: Corpus) -> TriGraph:
    """``graph`` plus the nodes and entries of ``new_slice``, whose ids
    continue the graph's; ``corpus`` is the whole corpus of the result."""
    owner = np.array([s.passage_id for s in new_slice.sentences], dtype=np.int64)
    registry, hits = extend_entity_registry(
        graph.entity_registry,
        extract_corpus_mentions(new_slice, graph.extractor),
        {s.id: s.passage_id for s in new_slice.sentences},
    )
    n_e = len(registry)
    sentences, passages, entities = hits.T
    mention_rows, mention_cols, _ = distinct_entries(sentences, entities, n_e)
    contain_rows, contain_cols, counts = distinct_entries(passages, entities, n_e)
    return TriGraph(
        corpus=corpus,
        contain=graph.contain.extended(
            contain_rows, contain_cols, len(corpus.passages), n_e
        ),
        mention=graph.mention.extended(
            mention_rows, mention_cols, len(corpus.sentences), n_e
        ),
        sentence_owner=np.concatenate([graph.sentence_owner, owner]),
        entity_registry=registry,
        occurrence_counts=np.concatenate([graph.occurrence_counts, counts]),
        extractor=graph.extractor,
    )


def save(
    graph: TriGraph,
    directory: str | Path,
    embedder: Mapping[str, Any] | None = None,
) -> None:
    """Persist a graph to an index directory (created if missing).

    If the directory already commits a prefix of ``graph`` - same extractor
    and embedder contracts, and ``graph``'s corpus digest chains on from the
    committed one - only the rows past that prefix are appended, after
    cutting each file back to its committed length. Otherwise the manifest
    is removed first, with the vector files and any format-1 files, and
    every graph file rewritten. Either way the manifest is replaced last
    and commits the save; a save that fails before then leaves the
    committed index as it was (an append) or no index (a full write). The
    digest covers passage texts (titles included), not doc keys: a graph
    that differs from the committed one only in doc keys keeps the
    committed keys.

    An append keeps the committed ``vector_rows``, which belong to the
    prefix; a full write commits none, so ``embedding.save_store`` then
    rewrites every vector file.
    """
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
    # The manifest as load will read it back (JSON has no tuples).
    manifest = json.loads(json.dumps(manifest))
    base = _committed_prefix(directory, manifest, graph)
    if base is None:
        for name in (MANIFEST, *STORE_FILES, *V1_FILES):
            storage.remove(directory / name)
        base = {"n_passages": 0, "n_sentences": 0, "n_entities": 0, "vector_rows": {}}
        lengths = dict.fromkeys(GRAPH_FILES, 0)
    else:
        lengths = dict(base["files"])
    for name, data in zip(GRAPH_FILES, _rows_after(graph, base)):
        storage.append(directory / name, lengths[name], data)
        lengths[name] += len(data)
    storage.replace_json(
        directory / MANIFEST,
        {**manifest, "files": lengths, "vector_rows": base["vector_rows"]},
    )


def _committed_prefix(
    directory: Path, manifest: Mapping[str, Any], graph: TriGraph
) -> dict[str, Any] | None:
    """The directory's manifest if the index it commits is a prefix of
    ``graph`` under the same contracts, else None."""
    try:
        old = read_manifest(directory)
        n_p, n_s, n_e = _node_counts(old)
        lengths = _committed_lengths(old)
        sizes = {name: (directory / name).stat().st_size for name in GRAPH_FILES}
    except (IndexLoadError, OSError):
        return None
    # Same passages under the same extractor give the same sentences and
    # entities, so the digest chain is the whole prefix test.
    if (
        old.get("extractor") != manifest["extractor"]
        or old.get("embedder") != manifest["embedder"]
        or not 0 < n_p <= graph.n_passages
        or not (0 <= n_s <= graph.n_sentences and 0 <= n_e <= graph.n_entities)
        or any(sizes[name] < lengths[name] for name in GRAPH_FILES)
    ):
        return None
    texts = (p.text for p in graph.corpus.passages[n_p:])
    if chain_digest(old["corpus_digest"], texts) != graph.corpus_digest:
        return None
    return {
        "n_passages": n_p,
        "n_sentences": n_s,
        "n_entities": n_e,
        "files": lengths,
        "vector_rows": old.get("vector_rows") or {},
    }


def _rows_after(graph: TriGraph, base: Mapping[str, Any]) -> tuple[bytes, ...]:
    """What each of ``GRAPH_FILES`` gains past the counts in ``base``."""
    n_p, n_s, n_e = base["n_passages"], base["n_sentences"], base["n_entities"]
    passages = "".join(
        json.dumps(
            {"id": p.id, "doc_key": p.doc_key, "title": p.title, "text": p.text},
            ensure_ascii=False,
        )
        + "\n"
        for p in graph.corpus.passages[n_p:]
    )
    sentences = np.array(
        [(s.passage_id, *s.char_span) for s in graph.corpus.sentences[n_s:]],
        dtype=_INT64,
    )
    first = graph.mention.indptr[n_s]
    mention = np.stack(
        [graph.mention.row_ids[first:], graph.mention.col_ids[first:]], axis=1
    )
    counts = graph.occurrence_counts[graph.contain.indptr[n_p] :]
    # An old entity whose surfaces grew past the committed passages is
    # logged again; the later line wins on load.
    records = graph.entity_registry.records
    mentioned = np.unique(mention[:, 1])
    logged = [
        records[i] for i in mentioned[mentioned < n_e].tolist()
        if records[i].surfaces_grown_at >= n_p
    ]
    logged += records[n_e:]
    entities = "".join(
        f"{r.id}\t{r.canonical}\t{SURFACE_SEPARATOR.join(r.surfaces)}\n"
        for r in logged
    )
    return (
        passages.encode("utf-8"),
        sentences.tobytes(),
        mention.astype(_INT64).tobytes(),
        counts.astype(_INT64).tobytes(),
        entities.encode("utf-8"),
    )


def read_manifest(directory: str | Path) -> dict[str, Any]:
    path = Path(directory) / MANIFEST
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConsistencyError(f"cannot read manifest at {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConsistencyError(f"manifest at {path} is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise VersionMismatchError(
            f"index format version {manifest.get('format_version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    return manifest


def _node_counts(manifest: Mapping[str, Any]) -> tuple[int, int, int]:
    try:
        return tuple(
            int(manifest[k]) for k in ("n_passages", "n_sentences", "n_entities")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConsistencyError(f"manifest lacks a node count: {exc}") from exc


def _committed_lengths(manifest: Mapping[str, Any]) -> dict[str, int]:
    files = manifest.get("files")
    if not isinstance(files, Mapping):
        raise ConsistencyError("manifest does not list its files")
    lengths = {name: files.get(name) for name in GRAPH_FILES}
    for name, length in lengths.items():
        if type(length) is not int or length < 0:
            raise ConsistencyError(f"manifest gives {name} no valid committed length")
    return lengths


def load(directory: str | Path) -> TriGraph:
    """Load and fully validate a persisted graph.

    Raises VersionMismatchError / DigestMismatchError / ConsistencyError
    for the corresponding classes of damage.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    n_p, n_s, n_e = _node_counts(manifest)
    lengths = _committed_lengths(manifest)
    files = {
        name: _read_index_file(directory / name, lengths[name]) for name in GRAPH_FILES
    }
    # Bytes past a committed length were left by a save that did not commit.
    committed = {name: files[name][: lengths[name]] for name in GRAPH_FILES}

    # Passages are read by record count, not committed bytes, so that an
    # edited passage text shows as a digest mismatch.
    path = directory / "passages.jsonl"
    passages = _parse_passages(path, files[path.name], n_p)
    if len(passages) != n_p:
        raise ConsistencyError(
            f"{path} has {len(passages)} records, manifest says {n_p}"
        )
    digest = chain_digest(initial_digest(), (p.text for p in passages))
    if digest != manifest.get("corpus_digest"):
        raise DigestMismatchError(
            "stored corpus digest does not match passage contents"
        )

    path = directory / "sentences.i64"
    owner, starts, ends = _int64_columns(path, committed[path.name], 3)
    if len(owner) != n_s:
        raise ConsistencyError(
            f"{path} has {len(owner)} records, manifest says {n_s}"
        )
    sentences = _sentences(path, owner, starts, ends, passages)

    path = directory / "mention.i64"
    rows, cols = _int64_columns(path, committed[path.name], 2)
    try:
        mention = SparseBinaryMatrix.sorted_entries(rows, cols, n_s, n_e)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{path}: {exc}") from exc
    contain_rows, contain_cols, sentence_counts = distinct_entries(
        owner[mention.row_ids], mention.col_ids, n_e
    )
    contain = SparseBinaryMatrix(
        n_p, n_e, contain_rows, contain_cols, _row_indptr(contain_rows, n_p)
    )

    path = directory / "occurrence.i64"
    (counts,) = _int64_columns(path, committed[path.name], 1)
    if len(counts) != contain.nnz:
        raise ConsistencyError(
            f"{path} has {len(counts)} counts for {contain.nnz} contain entries "
            "derived from the mentions"
        )
    if np.any(counts < sentence_counts):
        raise ConsistencyError(
            f"{path}: a count is below the number of sentences mentioning the entity"
        )

    path = directory / "entities.tsv"
    registry = _load_registry(path, committed[path.name], n_e, contain)

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
        sentence_owner=owner,
        entity_registry=registry,
        occurrence_counts=counts,
        extractor=contract,
    )


def _read_index_file(path: Path, committed: int) -> bytes:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConsistencyError(f"cannot read {path}: {exc}") from exc
    if len(data) < committed:
        raise ConsistencyError(
            f"{path} is shorter than its committed length "
            f"({len(data)} < {committed} bytes)"
        )
    return data


def _lines(path: Path, data: bytes) -> list[str]:
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ConsistencyError(f"{path}: not UTF-8: {exc}") from exc


def _int64_columns(path: Path, data: bytes, width: int) -> list[np.ndarray]:
    """The columns of a file of little-endian int64 rows ``width`` wide."""
    if len(data) % (_INT64.itemsize * width):
        raise ConsistencyError(
            f"{path}: {len(data)} bytes is not a whole number of "
            f"{width}-integer rows"
        )
    table = np.frombuffer(data, dtype=_INT64).reshape(-1, width)
    return [np.ascontiguousarray(column, dtype=np.int64) for column in table.T]


def _parse_passages(path: Path, data: bytes, n_passages: int) -> list[Passage]:
    """The first ``n_passages`` records of ``passages.jsonl``."""
    passages: list[Passage] = []
    for lineno, line in enumerate(data.split(b"\n"), 1):
        if len(passages) == n_passages:
            break
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad passage record") from exc
        if passage.id != len(passages):
            raise ConsistencyError(f"{path}:{lineno}: passage ids not dense")
        passages.append(passage)
    return passages


def _sentences(
    path: Path,
    owner: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    passages: list[Passage],
) -> list[Sentence]:
    if len(owner) and (owner.min() < 0 or owner.max() >= len(passages)):
        raise ConsistencyError(f"{path}: sentence owned by an unknown passage")
    if np.any(np.diff(owner) < 0):
        raise ConsistencyError(f"{path}: sentences not in passage order")
    raw = [p.text.encode("utf-8") for p in passages]
    limit = np.array([len(r) for r in raw], dtype=np.int64)[owner]
    if np.any((starts < 0) | (starts >= ends) | (ends > limit)):
        raise ConsistencyError(f"{path}: sentence span out of range")
    sentences: list[Sentence] = []
    for sid, (pid, start, end) in enumerate(
        zip(owner.tolist(), starts.tolist(), ends.tolist())
    ):
        try:
            text = raw[pid][start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConsistencyError(
                f"{path}: sentence {sid}: span splits a codepoint"
            ) from exc
        sentences.append(
            Sentence(id=sid, passage_id=pid, char_span=(start, end), text=text)
        )
    return sentences


def _load_registry(
    path: Path, data: bytes, n_entities: int, contain: SparseBinaryMatrix
) -> EntityRegistry:
    # surfaces_grown_at is not stored; the last passage bounds it.
    unmentioned = np.flatnonzero(contain.col_counts() == 0)
    if unmentioned.size:
        raise ConsistencyError(f"{path}: entity {unmentioned[0]} is mentioned nowhere")
    records: list[EntityRecord] = []
    for lineno, line in enumerate(_lines(path, data), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConsistencyError(f"{path}:{lineno}: bad entity line")
        try:
            eid = int(parts[0])
        except ValueError as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad entity id") from exc
        if not 0 <= eid <= len(records) or eid >= n_entities:
            raise ConsistencyError(f"{path}:{lineno}: entity ids not dense")
        record = EntityRecord(
            id=eid,
            canonical=parts[1],
            surfaces=tuple(parts[2].split(SURFACE_SEPARATOR)) if parts[2] else (),
            surfaces_grown_at=contain.n_rows - 1,
        )
        if eid == len(records):
            records.append(record)
        elif records[eid].canonical != record.canonical:
            raise ConsistencyError(f"{path}:{lineno}: entity {eid} changes its key")
        else:
            records[eid] = record  # a later line replaces the earlier one
    if len(records) != n_entities:
        raise ConsistencyError(
            f"{path} has {len(records)} records, manifest says {n_entities}"
        )
    return EntityRegistry(records=tuple(records))

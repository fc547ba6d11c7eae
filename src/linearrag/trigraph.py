"""The tri-graph: passage, sentence and entity nodes joined by two sparse
binary incidence matrices.

``contain`` is passage x entity, ``mention`` is sentence x entity. Both are
indicator-valued; raw mention multiplicities live in ``occurrence_counts``,
an int64 array aligned with ``contain``'s entries. ``contain`` is the
passage-level projection of ``mention`` through the owner column of the
corpus's sentence table, so only ``mention`` is stored. Construction never
touches the network.

A graph is never mutated: ``add_passages`` returns a new one. New passage,
sentence and entity ids are larger than every old one, so a slice's entries
sort after the graph's and growing a graph only appends to its arrays.
``build`` is the same growth applied to an empty graph, so every fact of a
graph is derived by one path. An entity's passages are read from
``contain`` alone; its registry record holds only its key and surfaces. The
operators a query needs are made on first use and cached: the entity-major
view of each incidence (``SparseBinaryMatrix.by_column``), and the degree
roots by which PageRank scales its products with ``contain`` both ways
(``ColumnMajor.dot``, ``ColumnMajor.row_major_dot``); the degree-normalized
contain matrix is never stored.

The persisted index directory (format version 3) holds:

* ``passages.jsonl`` - one ``{id, doc_key, title, text}`` record per line.
* ``sentences.i64`` - three little-endian int64 per sentence: owning
  passage, byte start and byte end of its span in the passage text; the
  rows of ``Corpus.sentences``, which ``load`` keeps as it reads them.
* ``mention.i64`` - two little-endian int64 per mention entry: sentence,
  entity, in row-major order.
* ``occurrence.i64`` - one little-endian int64 mention count per contain
  entry; ``load`` derives the contain entries from the mentions.
* ``entities.tsv`` - a log of ``id<TAB>canonical<TAB>surfaces`` lines
  (surfaces joined by the unit separator; no key or surface holds
  whitespace other than single spaces); a later line for an id replaces
  the earlier one.
* ``manifest.json`` - format_version, corpus_digest, node counts, extractor
  and embedder contracts, and the committed byte length of every file
  above: the base of the index.
* ``graph.tail`` - records appended since the base, each the bytes every
  file above gains, between its start and end node counts, with the corpus
  digest after it (``GRAPH_RECORD``; see ``storage.TailFormat``). Its
  header's committed length is its commit point.
* ``*.vec`` and ``vectors.tail`` - the vectors (see ``embedding``): each
  vector file holds its rows as one block, a bitmap of each row's nonzero
  entries followed by their float32 values, and ``vectors.tail`` holds
  the blocks of appended rows, one record per append.

Every graph base file only grows, until a full write. An append commits one
record in ``graph.tail`` and leaves the manifest alone. Once the tail passes
``FOLD_FRACTION`` of the base, a save folds it: it appends the rows past the
manifest's counts to the base files, fsyncs, replaces the manifest
atomically, and only then resets the tail, the base plus tail layout of an
LSM-tree (O'Neil et al., Acta Informatica 1996). The ``embedding.save_store``
after it folds the vector tail by writing each vector file anew as one
block. ``load`` reads the committed prefix of each base file followed by
the tail records past the manifest's counts. A format-2 index, which has
no tails, loads as one with empty tails; an index whose vectors are in the
dense layout of vector file version 1 loads too, and its next store save
writes them whole in the current layout.
"""

from __future__ import annotations

import copy
import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

import numpy as np
from scipy import sparse as sp

from . import storage
from .corpus import Corpus, Passage, chain_digest, initial_digest
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
    _corpus_mentions,
    distinct_entries,
    extend_entity_registry,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 3
# Format 2 is format 3 without tail files.
READABLE_VERSIONS = (2, FORMAT_VERSION)

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
GRAPH_TAIL = "graph.tail"
# A graph record: the bytes each of ``GRAPH_FILES`` gains, its node counts
# in the order passages, sentences, entities, and the corpus digest after it
# (32 bytes).
GRAPH_RECORD = storage.TailFormat(len(GRAPH_FILES), extra=32)
# The vector files ``embedding.save_store`` writes beside them, whose header
# row counts commit their rows, and its tail.
STORE_FILES = ("entities.vec", "sentences.vec", "passages.vec")
VECTOR_TAIL = "vectors.tail"
# Files of format version 1 that later versions no longer write.
V1_FILES = ("sentences.jsonl", "contain.coo", "mention.coo", "occurrence.tsv")
_INT64 = np.dtype("<i8")
# A column-major view is transposed anew from the whole matrix once the rows
# grown since its base was made hold more than this share of the base's
# entries (see ``ColumnMajor``), and a save folds the graph tail into the
# base files once it would hold more than this share of their bytes.
FOLD_FRACTION = 0.0625


class SparseBinaryMatrix:
    """A binary matrix in CSR form: the column ids of its sorted, distinct
    entries in row-major order, and ``indptr``, the ``n_rows + 1`` prefix
    sums of the row lengths, which alone give each entry's row. It is read
    column-major through ``by_column``. ``grown_from``, if given, is a
    matrix whose rows and entries are a prefix of this one's.
    """

    __slots__ = ("n_rows", "n_cols", "col_ids", "indptr", "_view", "_view_from")
    # Each entry is 1.0; ``embedding.SparseRows`` holds a value per entry.
    values: np.ndarray | None = None

    def __init__(self, n_rows, n_cols, col_ids, indptr, grown_from=None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.col_ids = col_ids
        self.indptr = indptr
        # Until the view is made, the one of the nearest ancestor that made one.
        self._view = None
        self._view_from = grown_from and (grown_from._view or grown_from._view_from)

    @property
    def by_column(self) -> "ColumnMajor":
        """This matrix read column-major, made on first use: derived from
        ``_view_from`` (``ColumnMajor.of``), which it then lets go."""
        if self._view is None:
            self._view, self._view_from = ColumnMajor.of(self, self._view_from), None
        return self._view

    @classmethod
    def sorted_entries(
        cls, rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
    ) -> "SparseBinaryMatrix":
        """Wrap entries that must already be sorted and distinct; raises
        ConsistencyError if they are not, or fall out of range."""
        _check_range(rows, cols, n_rows, n_cols)
        if np.any(np.diff(rows * n_cols + cols) <= 0):
            raise ConsistencyError("entries not sorted or contain duplicates")
        return cls(n_rows, n_cols, cols, _row_indptr(rows, n_rows))

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
            np.concatenate([self.col_ids, cols]),
            np.concatenate([self.indptr[:-1], tail.indptr + self.nnz]),
            self,
        )

    @property
    def row_ids(self) -> np.ndarray:
        """Each entry's row, derived from ``indptr`` on every read."""
        return self.rows_from(0)

    def rows_from(self, row: int) -> np.ndarray:
        """The row of each entry in rows ``row`` onwards."""
        return np.repeat(np.arange(row, self.n_rows), np.diff(self.indptr[row:]))

    @property
    def nnz(self) -> int:
        return len(self.col_ids)

    shape = property(lambda self: (self.n_rows, self.n_cols))

    def cols_of(self, row: int) -> np.ndarray:
        return self.col_ids[self.indptr[row] : self.indptr[row + 1]]

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.row_ids.tolist(), self.col_ids.tolist()))

    def col_counts(self) -> np.ndarray:
        return np.bincount(self.col_ids, minlength=self.n_cols).astype(np.int64)

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
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.col_ids, other.col_ids)
            and np.array_equal(self.values, other.values)
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

    @property
    def mention_by_entity(self) -> "ColumnMajor":
        """The mention incidence read entity-major, each entry valued 1.0:
        per entity, the sentences that mention it. ``retrieval`` reads it
        for each hop's frontier gate, candidate mass and supporting
        sentences."""
        return self.mention.by_column

    @property
    def contain_by_entity(self) -> "ColumnMajor":
        """The contain incidence read entity-major, each entry valued 1.0:
        per entity, the passages that hold it. ``retrieval`` reads it for
        the passage seeds' entries and PPR's products with C and C^T."""
        return self.contain.by_column

    @cached_property
    def degree_roots(self) -> tuple[np.ndarray, np.ndarray]:
        """The square roots of the node degrees in ``contain``, passages
        then entities, and their inverses, 0 for a node of degree 0:
        ``retrieval.ppr`` applies B = D_p^-1/2 C D_e^-1/2 as these scalings
        around products with C."""
        degrees = np.concatenate(
            [np.diff(self.contain.indptr), self.contain_by_entity.row_lengths()]
        )
        roots = np.sqrt(degrees.astype(np.float64))
        inverse = np.divide(1.0, roots, out=np.zeros_like(roots), where=roots > 0.0)
        return roots, inverse

    def settle_operators(self) -> None:
        """Fold the tails of the entity-major views this graph has made.

        ``retrieval.retrieve`` calls it as each query starts. A graph's first
        query makes its views, and a grown graph derives them with tails
        (see ``ColumnMajor``); its second query finds them made and folds
        them. On the benchmark's graph-query at 3000 passages (one BLAS
        thread, a shared 2-vCPU VM), removing this fold raised the query
        p50 by 11%, 14% and 28% in three paired runs, and by 9-23% in four
        with the tails also held entity-major, so the fold stays. Folding
        leaves every product's bits as they were."""
        for matrix in (self.mention, self.contain):
            if matrix._view is not None and len(matrix._view.tail_rows):
                matrix._view = ColumnMajor.of(matrix)


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entry positions of ``rows`` of the CSR matrix with offsets
    ``indptr``, row after row, and the length of each row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    # Array methods: numpy's function wrappers cost a query about 1 us each.
    ends = lengths.cumsum()
    positions = np.arange(ends[-1] if len(ends) else 0)
    positions += (starts - (ends - lengths)).repeat(lengths)
    return positions, lengths


def _transposed(matrix: SparseBinaryMatrix) -> tuple[sp.csr_matrix, np.ndarray | None]:
    """``matrix`` as a CSR matrix of the transposed shape, row ids ascending
    within each row, by one transposition of the pattern that carries each
    entry's position (Gustavson, ACM TOMS 1978): each entry 1.0, with the
    position in ``matrix`` of each; or, with values, each its value."""
    index = np.int32 if matrix.nnz < 2**31 else np.int64
    part = sp.csr_matrix(
        (np.arange(matrix.nnz, dtype=index), matrix.col_ids, matrix.indptr),
        shape=(matrix.n_rows, matrix.n_cols),
    ).T.tocsr()
    if matrix.values is not None:
        part.data = matrix.values[part.data]
        return part, None
    positions, part.data = part.data, np.ones(part.nnz)
    return part, positions


@dataclass(frozen=True)
class ColumnMajor:
    """A row-major sparse matrix read column-major: per column, the rows
    that hold it. The graph reads each binary incidence (passages or
    sentences x entities) entity by entity; a store reads each kind's
    sparse rows, a matrix with values, bucket by bucket, to score a query
    term at a time.

    It is held as a base and a tail. The base is a scipy CSR matrix
    (columns x rows) of the entries of the rows below ``fold``, row ids
    ascending within each column: of a binary matrix, each 1.0, with the
    row-major position of each (``base_positions``); of one with values,
    each its value, and no positions. The tail is the entries of the rows
    from ``fold`` on, left in row-major order: their rows and columns, from
    position ``base.nnz`` of the row-major arrays on, and ``values``, the
    row-major matrix's (None: each entry 1.0). Every tail row follows every
    base row, so a column's base entries and then its tail entries are its
    whole column in ascending row id. One gather (``_gathered``) reads the
    entries of the columns asked for, base then tail; ``dot`` and
    ``row_major_dot``, the products of a binary matrix, read the base
    through scipy and add the tail's terms after it, keeping a whole CSR
    product's bits.

    A grown matrix's view shares the base arrays of the view it derives
    from, widened by the new columns, and takes the rows past ``fold`` as
    its tail, so it costs O(tail + columns) to make. Once the tail holds
    more than ``FOLD_FRACTION`` of the base's entries, the whole matrix is
    transposed into a new base with no tail, as in an LSM-tree (O'Neil et
    al., Acta Informatica 1996), and the old base is let go.
    ``TriGraph.settle_operators`` also folds a graph asked a second time.
    """

    base: sp.csr_matrix
    base_positions: np.ndarray | None
    tail_rows: np.ndarray
    tail_cols: np.ndarray
    fold: int
    values: np.ndarray | None = None

    @classmethod
    def of(
        cls, matrix: SparseBinaryMatrix, grown_from: "ColumnMajor | None" = None
    ) -> "ColumnMajor":
        """``matrix`` read column-major. ``grown_from``, if given, is the view
        of a matrix whose rows, entries and values are a prefix of
        ``matrix``'s; it is left unchanged."""
        n_cols, n_rows = matrix.n_cols, matrix.n_rows
        if grown_from is None or (
            matrix.nnz - grown_from.base.nnz > FOLD_FRACTION * grown_from.base.nnz
        ):
            fold = n_rows
            base, base_positions = _transposed(matrix)
        else:
            fold, base_positions = grown_from.fold, grown_from.base_positions
            # A shallow copy shares the base's arrays; widened, it has an
            # ``indptr`` of its own. Unlike a new matrix, it checks nothing.
            base = copy.copy(grown_from.base)
            base.resize(n_cols, n_rows)
        # intp columns: numpy gathers through int32 indices 2-3x slower.
        return cls(
            base,
            base_positions,
            matrix.rows_from(fold),
            matrix.col_ids[base.nnz :].astype(np.intp, copy=False),
            fold,
            matrix.values,
        )

    def row_lengths(self) -> np.ndarray:
        """The number of entries of each column."""
        n_cols = self.base.shape[0]
        return np.diff(self.base.indptr) + np.bincount(self.tail_cols, minlength=n_cols)

    def _gathered(
        self, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The entries of ``cols`` (distinct): the base's, column by column,
        then the tail's, in row-major order, so each column's come in
        ascending row id. For each entry, the index of its column in
        ``cols`` and its row; and the indices of the entries into the base's
        arrays and into the tail's, apart."""
        base_at, lengths = _row_entries(self.base.indptr, cols)
        slots = np.arange(len(cols)).repeat(lengths)
        # intp: numpy indexes, counts and ``ufunc.at``s by int32 ids slowly.
        rows = self.base.indices[base_at].astype(np.intp)
        if not len(self.tail_rows):
            return slots, rows, base_at, np.zeros(0, dtype=np.intp)
        # intp, as the base's slots: an int32 map gathers slower, its slots
        # cast when joined to those.
        slot_of = np.full(self.base.shape[0], -1)
        slot_of[cols] = np.arange(len(cols))
        tail_slots = slot_of[self.tail_cols]
        tail_at = np.flatnonzero(tail_slots >= 0)
        slots = np.concatenate([slots, tail_slots[tail_at]])
        rows = np.concatenate([rows, self.tail_rows[tail_at]])
        return slots, rows, base_at, tail_at

    def entries(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of ``cols`` of a binary matrix's view, in
        ``_gathered``'s order: for each, its column, its row and its
        row-major position."""
        slots, rows, base_at, tail_at = self._gathered(cols)
        positions = np.concatenate(
            [self.base_positions[base_at], self.base.nnz + tail_at]
        )
        return cols[slots], rows, positions

    def row_max(self, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per row, the highest of 0 and the ``values`` (one per column of
        ``cols``) of the columns it holds. A max does not depend on the
        order in which the entries are read."""
        slots, rows, _, _ = self._gathered(cols)
        out = np.zeros(self.base.shape[1])
        np.maximum.at(out, rows, values[slots])
        return out

    def best_rows(self, z: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """For each of ``cols`` (distinct), the row among its entries with
        the highest ``z``, or -1 where it has none; ties go to the lowest
        row id, whether the row is in the base or the tail:
        ``np.maximum.at`` takes each column's highest value, then
        ``np.minimum.at`` its first entry that reaches it, which, as its
        entries come in ascending row id, holds the lowest such row."""
        slots, rows, _, _ = self._gathered(cols)
        values = z[rows]
        top = np.full(len(cols), -np.inf)
        np.maximum.at(top, slots, values)
        reached = np.flatnonzero(values == top[slots])
        first = np.full(len(cols), len(rows))
        np.minimum.at(first, slots[reached], reached)
        return np.append(rows, -1)[first]

    def row_major_terms(
        self, v: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The product of a row-major matrix with values with ``v`` (one
        value per column) over the entries of ``v`` at ``cols`` alone, its
        nonzero ones in ascending order, term at a time as an inverted file
        is read (Zobel and Moffat, ACM Computing Surveys 2006), and each
        row's count of entries in those columns. Each row sums from +0.0 in
        ascending column id."""
        slots, rows, base_at, tail_at = self._gathered(cols)
        values = self.base.data[base_at]
        if len(tail_at):
            values = np.concatenate([values, self.values[self.base.nnz + tail_at]])
        terms = v[cols][slots] * values
        n_rows = self.base.shape[1]
        # ``np.bincount`` of no entries gives integers, weighted or not.
        sums = np.bincount(rows, terms, n_rows).astype(np.float64, copy=False)
        return sums, np.bincount(rows, minlength=n_rows)

    def row_major_dot(self, v: np.ndarray) -> np.ndarray:
        """The product of the row-major binary matrix with ``v``, with the
        bits of scipy's CSR product: the base's transpose (scipy's CSC over
        the same arrays) adds each row's terms from +0.0 in ascending column
        id, and ``np.add.at`` the tail rows' in row-major order, which is
        ascending column id too."""
        out = self._base_transposed @ v
        if len(self.tail_rows):
            np.add.at(out, self.tail_rows, v[self.tail_cols])
        return out

    @cached_property
    def _base_transposed(self) -> sp.csc_matrix:
        # Made once: scipy builds and checks a new matrix on each ``.T``,
        # which costs PPR's product with C about as much as the product.
        return self.base.T

    def dot(self, z: np.ndarray) -> np.ndarray:
        """The product of the binary matrix's transpose with ``z``, with the
        bits of the whole view's CSR product: scipy sums each column's base
        terms from +0.0 in ascending row id, and ``np.add.at`` continues
        each sum with its tail terms in row-major order, ascending row id
        too."""
        out = self.base @ z
        if len(self.tail_rows):
            np.add.at(out, self.tail_cols, z[self.tail_rows])
        return out


def graph_equal(a: TriGraph, b: TriGraph) -> bool:
    """Observational equality: every field except internal entry ordering
    (which is canonical anyway)."""
    return (
        a.corpus.passages == b.corpus.passages
        and np.array_equal(a.corpus.sentences, b.corpus.sentences)
        and a.corpus_digest == b.corpus_digest
        and a.contain == b.contain
        and a.mention == b.mention
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
    What still grows with the corpus is copying: the graph's arrays (its
    sentence table among them), its passage tuple and its entity registry
    are copied into the result, so ``graph`` is never changed
    (``evalbench.append_costs`` measures this call by stage).
    The result's entity-major views derive from ``graph``'s on first use,
    with no transposition of a whole incidence until a tail passes
    ``FOLD_FRACTION`` (``SparseBinaryMatrix.by_column``). They hold no
    degrees: the result computes its degree roots anew.

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
    if new_slice.first_sentence_id != graph.n_sentences:
        raise UpdateError(
            f"sentence id {new_slice.first_sentence_id} does not continue the "
            f"dense range starting at {graph.n_sentences}"
        )
    merged_corpus = Corpus(
        passages=graph.corpus.passages + new_slice.passages,
        sentences=np.concatenate([graph.corpus.sentences, new_slice.sentences]),
        source_digest=chain_digest(
            graph.corpus_digest, (p.text for p in new_slice.passages)
        ),
        skipped=graph.corpus.skipped + new_slice.skipped,
    )
    return _grow(graph, new_slice, merged_corpus)


def _empty_graph(contract: ExtractorContract) -> TriGraph:
    none = np.empty(0, dtype=np.int64)
    matrix = SparseBinaryMatrix(0, 0, none, np.zeros(1, dtype=np.int64))
    return TriGraph(
        corpus=Corpus((), np.empty((0, 3), dtype=np.int64), initial_digest()),
        contain=matrix,
        mention=matrix,
        entity_registry=EntityRegistry(records=()),
        occurrence_counts=none,
        extractor=contract,
    )


def _grow(graph: TriGraph, new_slice: Corpus, corpus: Corpus) -> TriGraph:
    """``graph`` plus the nodes and entries of ``new_slice``, whose ids
    continue the graph's; ``corpus`` is the whole corpus of the result."""
    registry, hits = extend_entity_registry(
        graph.entity_registry,
        _corpus_mentions(new_slice, graph.extractor),
        new_slice,
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
    committed one - only what lies past that prefix is written, as one
    record that ``storage.append_tail`` commits in ``graph.tail``: two
    fsyncs, and the manifest is left alone. Once the tail with that record
    would hold more than ``FOLD_FRACTION`` of the base files' committed
    bytes, the save folds instead: every row past the manifest's counts is
    appended to the base files, each cut back to its committed length
    first, and fsynced; the manifest is replaced; and only then is the tail
    reset. A save that fails before its commit leaves the committed index
    as it was.

    Otherwise the manifest is removed first, with both tails, the vector
    files and any format-1 files, and every graph file rewritten, so a
    failure leaves no index; ``embedding.save_store`` then rewrites every
    vector file. The digest covers passage texts (titles included), not doc
    keys: a graph that differs from the committed one only in doc keys
    keeps the committed keys.
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
    committed = _committed_prefix(directory, manifest, graph)
    if committed is not None:
        base, lengths, tail, end = committed
        counts = (graph.n_passages, graph.n_sentences, graph.n_entities)
        path = directory / GRAPH_TAIL
        if counts == end:
            if tail and end == base:  # records a fold moved into the base
                storage.reset_tail(path)
            return
        record = GRAPH_RECORD.record(
            end, counts, _rows_after(graph, end), bytes.fromhex(graph.corpus_digest)
        )
        if tail + len(record) <= FOLD_FRACTION * sum(lengths.values()):
            storage.append_tail(path, tail, record)
            return
        if _base_intact(directory, lengths):
            _write_base(graph, directory, manifest, base, lengths)
            if tail:
                storage.reset_tail(path)
            return
    for name in (MANIFEST, GRAPH_TAIL, VECTOR_TAIL, *STORE_FILES, *V1_FILES):
        storage.remove(directory / name)
    _write_base(graph, directory, manifest, (0, 0, 0), dict.fromkeys(GRAPH_FILES, 0))


def _write_base(
    graph: TriGraph,
    directory: Path,
    manifest: Mapping[str, Any],
    base: tuple[int, int, int],
    lengths: Mapping[str, int],
) -> None:
    """Append the rows of ``graph`` past the node counts ``base`` to the
    base files, each cut back to its committed length in ``lengths``, and
    commit them by replacing the manifest."""
    lengths = dict(lengths)
    for name, data in zip(GRAPH_FILES, _rows_after(graph, base)):
        storage.append(directory / name, lengths[name], data)
        lengths[name] += len(data)
    storage.replace_json(directory / MANIFEST, {**manifest, "files": lengths})


def _base_intact(directory: Path, lengths: Mapping[str, int]) -> bool:
    """Whether every base file holds at least its committed bytes: a fold
    into a shorter one would pad it with zeros."""
    try:
        return all((directory / n).stat().st_size >= lengths[n] for n in GRAPH_FILES)
    except OSError:
        return False


def _committed_prefix(
    directory: Path, manifest: Mapping[str, Any], graph: TriGraph
) -> tuple[tuple[int, int, int], dict[str, int], int, tuple[int, int, int]] | None:
    """What the directory commits, if that is a prefix of ``graph`` under
    the same contracts: the manifest's node counts and file lengths, the
    committed length of the graph tail, and the node counts at the tail's
    end (the manifest's, if the tail holds no record past them). Else None.

    It reads the manifest and the tail's last record, not the records."""
    try:
        old = read_manifest(directory)
        base = _node_counts(old)
        lengths = _committed_lengths(old)
        tail, last = GRAPH_RECORD.last(directory / GRAPH_TAIL)
    except (IndexLoadError, OSError):
        return None
    end, digest = base, old.get("corpus_digest")
    if last is not None and last.end[0] > base[0]:
        end, digest = last.end, last.extra.hex()
    counts = (graph.n_passages, graph.n_sentences, graph.n_entities)
    # Same passages under the same extractor give the same sentences and
    # entities, so the digest chain is the whole prefix test.
    if (
        old.get("extractor") != manifest["extractor"]
        or old.get("embedder") != manifest["embedder"]
        or not 0 < base[0]
        or not all(0 <= b <= e <= n for b, e, n in zip(base, end, counts))
        or not isinstance(digest, str)
    ):
        return None
    texts = (p.text for p in graph.corpus.passages[end[0] :])
    if chain_digest(digest, texts) != graph.corpus_digest:
        return None
    return base, lengths, tail, end


def _rows_after(graph: TriGraph, counts: tuple[int, int, int]) -> tuple[bytes, ...]:
    """What each of ``GRAPH_FILES`` gains past the node ``counts``
    (passages, sentences, entities)."""
    n_p, n_s, n_e = counts
    passages = "".join(
        json.dumps(
            {"id": p.id, "doc_key": p.doc_key, "title": p.title, "text": p.text},
            ensure_ascii=False,
        )
        + "\n"
        for p in graph.corpus.passages[n_p:]
    )
    first = graph.mention.indptr[n_s]
    mention = np.stack(
        [graph.mention.rows_from(n_s), graph.mention.col_ids[first:]], axis=1
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
        graph.corpus.sentences[n_s:].astype(_INT64).tobytes(),
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
    if manifest.get("format_version") not in READABLE_VERSIONS:
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


def committed_counts(directory: str | Path) -> tuple[tuple[int, int, int], int]:
    """The node counts an index directory commits, base and graph tail
    together, and the number of records its graph tail holds."""
    directory = Path(directory)
    base = _node_counts(read_manifest(directory))
    path = directory / GRAPH_TAIL
    records = GRAPH_RECORD.records(path)
    past = storage.records_past(path, records, base, range(3))
    return (past[-1].end if past else base), len(records)


def load(directory: str | Path) -> TriGraph:
    """Load and fully validate a persisted graph.

    Each file's content is its committed prefix followed by its parts of the
    graph tail's records past the manifest's counts. Raises
    VersionMismatchError / DigestMismatchError / ConsistencyError for the
    corresponding classes of damage.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    base = _node_counts(manifest)
    lengths = _committed_lengths(manifest)
    tail = directory / GRAPH_TAIL
    records = storage.records_past(tail, GRAPH_RECORD.records(tail), base, range(3))
    n_p, n_s, n_e = records[-1].end if records else base
    files = {
        name: _read_index_file(directory / name, lengths[name]) for name in GRAPH_FILES
    }
    # Bytes past a committed length were left by a save that did not commit.
    # With no tail records, join returns the prefix itself, uncopied.
    committed = {
        name: b"".join([files[name][: lengths[name]], *(r.parts[i] for r in records)])
        for i, name in enumerate(GRAPH_FILES)
    }

    # Passages are read by record count, not committed bytes, so that an
    # edited passage text shows as a digest mismatch.
    path = directory / "passages.jsonl"
    passages = _parse_passages(path, files[path.name], base[0], [])
    if len(passages) != base[0]:
        raise ConsistencyError(
            f"{path} has {len(passages)} records, manifest says {base[0]}"
        )
    digest = chain_digest(initial_digest(), (p.text for p in passages))
    if digest != manifest.get("corpus_digest"):
        raise DigestMismatchError(
            "stored corpus digest does not match passage contents"
        )
    _parse_passages(tail, b"".join(r.parts[0] for r in records), n_p, passages)
    if len(passages) != n_p:
        raise ConsistencyError(
            f"{tail} holds {len(passages) - base[0]} passage records, "
            f"its counts say {n_p - base[0]}"
        )
    for record in records:
        texts = (p.text for p in passages[record.start[0] : record.end[0]])
        digest = chain_digest(digest, texts)
        if digest != record.extra.hex():
            raise ConsistencyError(
                f"{tail}: the corpus digest of the record ending at passage "
                f"{record.end[0]} does not chain on from the one before it"
            )

    path = directory / "sentences.i64"
    sentences = _int64_rows(path, committed[path.name], 3)
    if len(sentences) != n_s:
        raise ConsistencyError(
            f"{path} has {len(sentences)} records, manifest says {n_s}"
        )
    _check_sentences(path, sentences, passages)

    path = directory / "mention.i64"
    rows, cols = np.ascontiguousarray(_int64_rows(path, committed[path.name], 2).T)
    try:
        mention = SparseBinaryMatrix.sorted_entries(rows, cols, n_s, n_e)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{path}: {exc}") from exc
    contain_rows, contain_cols, sentence_counts = distinct_entries(
        sentences[rows, 0], cols, n_e
    )
    contain = SparseBinaryMatrix(n_p, n_e, contain_cols, _row_indptr(contain_rows, n_p))

    path = directory / "occurrence.i64"
    counts = _int64_rows(path, committed[path.name], 1)[:, 0]
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
    return TriGraph(
        corpus=Corpus(tuple(passages), sentences, source_digest=digest),
        contain=contain,
        mention=mention,
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


def _int64_rows(path: Path, data: bytes, width: int) -> np.ndarray:
    """``data``'s little-endian int64 rows, ``width`` wide, as a read-only view."""
    if len(data) % (_INT64.itemsize * width):
        raise ConsistencyError(
            f"{path}: {len(data)} bytes is not a whole number of "
            f"{width}-integer rows"
        )
    return np.frombuffer(data, dtype=_INT64).reshape(-1, width)


def _parse_passages(
    path: Path, data: bytes, n_passages: int, passages: list[Passage]
) -> list[Passage]:
    """Extend ``passages`` with the records of ``passages.jsonl`` content in
    ``data`` until it holds ``n_passages``, and return it."""
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
            # JSON decodes a lone surrogate escape (\ud800), which UTF-8
            # cannot encode for the digest check or a later save.
            f"{passage.doc_key}{passage.title}{passage.text}".encode("utf-8")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad passage record") from exc
        if passage.id != len(passages):
            raise ConsistencyError(f"{path}:{lineno}: passage ids not dense")
        passages.append(passage)
    return passages


def _check_sentences(path: Path, table: np.ndarray, passages: list[Passage]) -> None:
    """Check that each sentence has a known owner, in passage order, and a
    span of whole codepoints of its text. Errors name the first bad one."""

    def fail(bad: np.ndarray, what: str) -> None:
        if bad.any():
            raise ConsistencyError(f"{path}: sentence {np.argmax(bad)}: {what}")

    owner, starts, ends = table.T
    fail((owner < 0) | (owner >= len(passages)), "owned by an unknown passage")
    fail(np.diff(owner, prepend=0) < 0, "not in passage order")
    raw = [p.text.encode("utf-8") for p in passages]
    sizes = np.array([len(r) for r in raw], dtype=np.int64)
    fail((starts < 0) | (starts >= ends) | (ends > sizes[owner]), "span out of range")
    # Valid UTF-8 splits between codepoints exactly before a byte that is
    # not a continuation byte (0b10xxxxxx). A passage's bytes begin with
    # such a byte, and a zero byte stands past the last passage.
    text = np.frombuffer(b"".join(raw) + b"\0", dtype=np.uint8)
    at = (np.cumsum(sizes) - sizes)[owner, None] + table[:, 1:]
    fail(((text[at] & 0xC0) == 0x80).any(axis=1), "span splits a codepoint")


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

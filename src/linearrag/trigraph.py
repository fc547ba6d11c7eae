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
sparse operators a query needs are made once per graph, on first use, and
cached on it. They hold incidence patterns only: the entity-major view of
each incidence, a graph grown by ``add_passages`` derives from that of the
graph it grew from (see ``EntityMajor``); the degree-normalized contain
matrix that PageRank solves with is never stored, but applied as scalings
by the degree roots around products with ``contain``, which its
entity-major view gives both ways (``EntityMajor.dot`` and
``EntityMajor.row_major_dot``).

The persisted index directory (format version 2) holds:

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
from dataclasses import dataclass, field
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
# An entity-major view is transposed anew from the whole incidence once the
# rows grown since its base was made hold more than this share of the
# base's entries (see ``EntityMajor``).
FOLD_FRACTION = 0.0625
# The cached entity-major views a grown graph derives from its ancestor's,
# each with the incidence it reads.
_OPERATORS = {"mention_by_entity": "mention", "contain_by_entity": "contain"}


class SparseBinaryMatrix:
    """A binary matrix in CSR form: the column ids of its sorted, distinct
    entries in row-major order, and ``indptr``, the ``n_rows + 1`` prefix
    sums of the row lengths, which alone give each entry's row.
    """

    __slots__ = ("n_rows", "n_cols", "col_ids", "indptr")

    def __init__(
        self, n_rows: int, n_cols: int, col_ids: np.ndarray, indptr: np.ndarray
    ):
        self.n_rows = n_rows
        self.n_cols = n_cols
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
    # The query operators of the graph this one grew from, or of the nearest
    # ancestor that made them; ``add_passages`` fills it, and making an
    # operator from its entry drops the entry.
    _grown_from: dict[str, Any] = field(default_factory=dict, init=False, repr=False)

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
    def mention_by_entity(self) -> "EntityMajor":
        """The mention incidence read entity-major, each entry valued 1.0:
        per entity, the sentences that mention it. ``retrieval`` reads it
        for each hop's frontier gate, candidate mass and supporting
        sentences."""
        return EntityMajor.of(
            self.mention, grown_from=self._grown_from.pop("mention_by_entity", None)
        )

    @cached_property
    def contain_by_entity(self) -> "EntityMajor":
        """The contain incidence read entity-major, each entry valued 1.0:
        per entity, the passages that hold it. ``retrieval`` reads it for
        the passage seeds' entries and PPR's products with C and C^T."""
        return EntityMajor.of(
            self.contain, grown_from=self._grown_from.pop("contain_by_entity", None)
        )

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
        (see ``EntityMajor``); its second query finds them made and folds
        them. At 3000 passages (one BLAS thread, a shared 2-vCPU VM) the
        tails cost a graph-path query about 0.3 ms, whatever their length
        from 60 to 600 entries, and folding both costs about 0.4 ms, so a
        graph read twice pays about as much for its tails as for a fold.
        Folding leaves every product's bits as they were."""
        made = vars(self)
        for name, incidence in _OPERATORS.items():
            view = made.get(name)
            if view is not None and len(view.tail_rows):
                made[name] = EntityMajor.of(getattr(self, incidence))

    def _operators(self) -> dict[str, Any]:
        """Each query operator this graph has made, or else the one it would
        derive its own from."""
        made = vars(self)
        return {
            name: made[name] if name in made else self._grown_from[name]
            for name in _OPERATORS
            if name in made or name in self._grown_from
        }


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entry positions of ``rows`` of the CSR matrix with offsets
    ``indptr``, row after row, and the length of each row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    positions = np.arange(ends[-1] if len(ends) else 0)
    positions += np.repeat(starts - (ends - lengths), lengths)
    return positions, lengths


def _transposed(matrix: SparseBinaryMatrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """``matrix`` as a CSR matrix of the transposed shape, each entry 1.0,
    and the position in ``matrix`` of each of its entries: one
    transposition of the pattern that carries each entry's position
    (Gustavson, ACM TOMS 1978). Row ids ascend within each of its rows."""
    part = sp.csr_matrix(
        (np.arange(matrix.nnz), matrix.col_ids, matrix.indptr),
        shape=(matrix.n_rows, matrix.n_cols),
    ).T.tocsr()
    positions = part.data
    part.data = np.ones(len(positions))
    return part, positions


@dataclass(frozen=True)
class EntityMajor:
    """A row-major binary incidence (passages or sentences x entities) read
    entity-major: per entity, the rows that hold it, ascending, with each
    entry's position in the row-major order. It holds the pattern only;
    each entry is valued 1.0.

    It is held as a base and a tail. The base is a scipy CSR matrix
    (entities x rows) of the entries of the rows below ``fold``, with the
    row-major position of each of its entries. The tail is the entries of
    the rows from ``fold`` on, left in row-major order: their rows and
    columns (entities), from position ``base.nnz`` of the row-major arrays
    on. Rows added later have larger ids, so an entity's tail entries
    follow its base entries, and in row-major order they come in ascending
    row id: base then tail is each entity's whole row in order. Reading the
    tail is a scan of it.

    A grown graph's view shares the base arrays of the view it derives
    from, widened by the entities new since then, and takes the rows past
    ``fold`` as its tail, so it costs O(tail + entities) to make. Once the tail holds more than ``FOLD_FRACTION`` of the base's
    entries, the whole incidence is transposed into a new base and the tail
    starts empty: transpositions then cost amortised O(appended entries),
    and a tail scan stays a fixed fraction of a base read, as in an
    LSM-tree (O'Neil et al., Acta Informatica 1996).
    """

    base: sp.csr_matrix
    base_positions: np.ndarray
    tail_rows: np.ndarray
    tail_cols: np.ndarray
    fold: int

    @classmethod
    def of(
        cls, matrix: SparseBinaryMatrix, grown_from: "EntityMajor | None" = None
    ) -> "EntityMajor":
        """``matrix`` read entity-major. ``grown_from``, if given, is the view
        of a matrix whose rows and entries are a prefix of ``matrix``'s; it
        is left unchanged."""
        n_cols, n_rows = matrix.n_cols, matrix.n_rows
        if grown_from is None or (
            matrix.nnz - grown_from.base.nnz > FOLD_FRACTION * grown_from.base.nnz
        ):
            fold = n_rows
            base, base_positions = _transposed(matrix)
        else:
            fold, old = grown_from.fold, grown_from.base
            base_positions = grown_from.base_positions
            indptr = np.concatenate(
                [old.indptr, np.full(n_cols - old.shape[0], old.indptr[-1])]
            )
            base = sp.csr_matrix(
                (old.data, old.indices, indptr), shape=(n_cols, n_rows)
            )
        return cls(
            base,
            base_positions,
            matrix.rows_from(fold),
            matrix.col_ids[base.nnz :],
            fold,
        )

    def row_lengths(self) -> np.ndarray:
        """The number of entries of each entity."""
        n_cols = self.base.shape[0]
        return np.diff(self.base.indptr) + np.bincount(self.tail_cols, minlength=n_cols)

    def _tail_entries(self, entities: np.ndarray) -> np.ndarray:
        """The indices into the tail of the entries of ``entities``."""
        wanted = np.zeros(self.base.shape[0], dtype=bool)
        wanted[entities] = True
        return np.flatnonzero(wanted[self.tail_cols])

    def entries(
        self, entities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of ``entities``' rows: the base's, entity by entity,
        then the tail's, in row-major order. For each entry, its entity, its
        row and its row-major position."""
        at, lengths = _row_entries(self.base.indptr, entities)
        found = (np.repeat(entities, lengths), self.base.indices[at], self.base_positions[at])
        if not len(self.tail_rows):
            return found
        at = self._tail_entries(entities)
        tail = (self.tail_cols[at], self.tail_rows[at], self.base.nnz + at)
        return tuple(np.concatenate(pair) for pair in zip(found, tail))

    def row_max(self, entities: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per row, the highest of 0 and the ``values`` (one per entity of
        ``entities``) of the entities it holds. A max does not depend on the
        order in which the entries are read."""
        at, lengths = _row_entries(self.base.indptr, entities)
        out = np.zeros(self.base.shape[1])
        np.maximum.at(out, self.base.indices[at], np.repeat(values, lengths))
        if len(self.tail_rows):
            value_of = np.zeros(self.base.shape[0])
            value_of[entities] = values
            at = self._tail_entries(entities)
            np.maximum.at(out, self.tail_rows[at], value_of[self.tail_cols[at]])
        return out

    def best_rows(self, z: np.ndarray, entities: np.ndarray) -> np.ndarray:
        """For each of ``entities`` (ascending, distinct), the row among its
        entries with the highest ``z``, or -1 where it has none; ties go to
        the lowest row id.

        In the base, a segmented reduction over the gathered rows:
        ``np.maximum.reduceat`` takes each entity's highest value, then
        ``np.minimum.reduceat`` over entry positions picks the first entry
        that reaches it; row ids ascend within an entity's base entries, so
        the first is the lowest. Every tail row follows every base row, so
        the tail's pick, by ``np.maximum.at`` and ``np.minimum.at`` over the
        entities' tail entries, replaces the base's only on a strictly
        higher value.
        """
        indptr, rows = self.base.indptr, self.base.indices
        filled = indptr[entities + 1] > indptr[entities]
        positions, lengths = _row_entries(indptr, entities[filled])
        values = z[rows[positions]]
        starts = np.cumsum(lengths) - lengths
        highest = np.maximum.reduceat(values, starts)
        reached = values == np.repeat(highest, lengths)
        first = np.minimum.reduceat(
            np.where(reached, np.arange(len(values)), len(values)), starts
        )
        best = np.full(len(entities), -1, dtype=np.int64)
        best[filled] = rows[positions[first]]
        if not len(self.tail_rows):
            return best  # the tail scan below costs ~17 us with no tail
        top = np.full(len(entities), -np.inf)
        top[filled] = highest
        at = self._tail_entries(entities)
        slot = np.searchsorted(entities, self.tail_cols[at])
        rows, values = self.tail_rows[at], z[self.tail_rows[at]]
        tail_top = np.full(len(entities), -np.inf)
        np.maximum.at(tail_top, slot, values)
        reached = values == tail_top[slot]
        tail_best = np.full(len(entities), np.iinfo(np.int64).max)
        np.minimum.at(tail_best, slot[reached], rows[reached])
        higher = tail_top > top
        best[higher] = tail_best[higher]
        return best

    def row_major_dot(self, v: np.ndarray) -> np.ndarray:
        """The product of the row-major incidence with ``v`` (one value per
        entity), with the bits of scipy's CSR product of that incidence.

        The base's transpose is scipy's CSC matrix over the same arrays, made
        without a copy; its product adds each row's terms from +0.0 in
        ascending entity id, as the CSR product does. The rows from ``fold``
        on hold no base entry, and ``np.add.at`` adds their tail terms in
        row-major order, which within a row is ascending entity id too.
        """
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
        """The product with ``z``, with the bits of a product with the whole
        entity-major matrix as one CSR.

        scipy's CSR product sums each row from +0.0 in the order of its
        entries, each term 1.0 times ``z``. ``np.add.at`` then adds the
        tail's terms one by one in row-major order, which for each entity is
        ascending row id, so each sum continues as it would over the
        entity's whole row.
        """
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
    The entity-major views the result makes on first use are derived from
    those ``graph`` has made, or else from those it would derive its own
    from, with no new transposition of a whole incidence until a tail
    passes ``FOLD_FRACTION`` (see ``EntityMajor``). They hold no values, so
    no degree change patches them: PageRank's B is applied as scalings of
    C by the degree roots, which the result computes anew
    (``TriGraph.degree_roots``), around products with C and C^T that both
    read the entity-major contain view. Nothing converts C itself.

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
    grown = _grow(graph, new_slice, merged_corpus)
    grown._grown_from = graph._operators()
    return grown


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

"""Text encoding contract, cosine scoring, and the on-disk vector store.

Everything downstream only needs L2-normalized float32 vectors, one per
entity canonical key, sentence, and passage. The built-in ``hash`` encoder
is a fully deterministic bag-of-words hasher intended for tests and offline
experiments; real sentence encoders plug in either through the encoder
registry (in process) or by importing vector files written in the store
layout (offline).

Vector file layout, version 2 (little-endian): 8-byte magic ``LRGVEC01``,
uint32 format version, uint32 dim, uint64 row count, uint64 byte count of
the vector data, uint32 encoder-id length, encoder id (UTF-8), then the
vector data: one block (``encode_block``) holding every row, or no bytes
for no rows. A block is its uint64 row and value counts, one bitmap of
``ceil(dim / 8)`` bytes per row marking the entries whose float32 bits are
not all zero, then those entries as float32, row by row - the validity
bitmap and value buffer of Apache Arrow's columnar format. Every bit comes
back, ``-0.0`` included, and a row costs its bitmap and its nonzero
entries: a hash-encoded row has one nonzero per distinct token bucket. A
vector file is only ever written whole, to a temporary file that is then
renamed over it (``write_vector_file``). Readers refuse header counts that
the file's size cannot hold before they allocate the rows. Version 1, whose
header has no byte count and whose data is the rows as dense float32, is
still read, so exported vectors can be imported in that layout. In memory,
rows are always dense float32; beside them each kind of a store may keep a
sparse index of its marked entries (``SparseRows``), which queries read
column-major and ``load_store`` makes from the positions the bitmaps mark.

An append writes no vector file: it commits a block of the new rows of
each of the three kinds as one record of ``vectors.tail``
(``VECTOR_RECORD``), whose header's committed length is its commit point
(see ``storage``). ``load_store`` reads each file followed by its rows in
the tail's records past its own count, decoding all of them into one
growth buffer. ``save_store`` folds the tail when ``trigraph.save`` folds
the graph's, by writing each file anew as one block, so that a folded index
is byte for byte the index a full write makes.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import re
import struct
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, BinaryIO, Callable, NamedTuple, Protocol, Sequence

import numpy as np

from . import storage
from .buffers import appended, reserved
from .errors import ConfigError, ConsistencyError, EncodingError, IndexLoadError
from .trigraph import STORE_FILES, VECTOR_TAIL, SparseBinaryMatrix, TriGraph
from .trigraph import read_manifest

MAGIC = b"LRGVEC01"
FILE_VERSION = 2
_PREFIX = struct.Struct("<II")  # version, dim
_COUNTS = struct.Struct("<QQ")  # committed rows and bytes of vector data
_V1_ROWS = struct.Struct("<Q")  # version 1 commits its dense rows by count
_ID_LENGTH = struct.Struct("<I")
_BLOCK = struct.Struct("<QQ")  # a block's rows and values
# A vector record: the rows each of ``STORE_FILES`` gains, with its row
# counts in that order.
VECTOR_RECORD = storage.TailFormat(len(STORE_FILES))

NORM_TOLERANCE = 1e-4
# A kind of vectors keeps a sparse index (``SparseRows``) only while its
# marked entries are at most this share of all its entries; a denser kind
# is scanned whole by every query and keeps none. See CHANGES.md for the
# sweep it was picked from.
DENSITY_CUT = 0.15
# A grown store's sparse index of a kind is extended by the rows new since
# the index was made once they number more than this; until then queries
# gather those rows. An extension and its view cost 0.09-0.2 ms, a gather of
# 32 rows 12-26 us, so an append and a query extend every fourth time or so.
TAIL_ROWS = 32
# Rows of ``HashEncoder.encode_batch`` summed at a time.
ENCODE_BLOCK_ROWS = 512


@dataclass(frozen=True)
class EncoderContract:
    id: str
    dim: int


class Encoder(Protocol):
    contract: EncoderContract

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray: ...


# A maximal alphanumeric run: ``[^\W_]`` matches exactly the characters for
# which ``str.isalnum()`` is true.
_TOKEN = re.compile(r"[^\W_]+")


def _tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.casefold())


def _bucket_sign(token: str, dim: int, seed: int) -> tuple[int, float]:
    digest = hashlib.blake2b(
        f"{seed}:{token}".encode("utf-8"), digest_size=8
    ).digest()
    value = int.from_bytes(digest, "little")
    return value % dim, 1.0 if (value >> 63) & 1 == 0 else -1.0


def hash_encode(text: str, dim: int, seed: int) -> np.ndarray:
    """Deterministic bag-of-words hash embedding: the one-row case of
    ``HashEncoder(dim, seed).encode_batch``.

    Tokens are maximal alphanumeric runs of the case-folded text. Each token
    is hashed (keyed blake2b) to a bucket in [0, dim) and a sign, and the
    signed counts are L2-normalized. If the accumulation is all zero (no
    tokens, or signs cancelled), the result is the basis vector at the
    bucket of the full text, so no zero vector can ever be produced. A
    ``dim`` below 8 is a ConfigError.
    """
    return HashEncoder(dim, seed).encode_batch([text])[0]


class HashEncoder:
    """The built-in deterministic encoder; its id is ``hash:<dim>:<seed>``.

    Both arguments go through ``int()``, so the pieces of an id rebuild it.
    A ``dim`` below 8 is a ConfigError.
    """

    def __init__(self, dim: int | str = 256, seed: int | str = 0):
        self.dim = int(dim)
        self.seed = int(seed)
        if self.dim < 8:
            raise ConfigError(f"hash encoder dim must be >= 8, got {self.dim}")
        self.contract = EncoderContract(f"hash:{self.dim}:{self.seed}", self.dim)

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        """``hash_encode`` of each text, in one pass over the batch: each
        distinct token is hashed once, and the signed counts of each block
        of ``ENCODE_BLOCK_ROWS`` rows are summed by one ``np.bincount`` over
        ``row * dim + bucket`` and written into one preallocated float32
        result. The sums are small integers, exact in float64 and float32
        alike, so the rows equal per-token float32 adds bit for bit."""
        dim, seed, n = self.dim, self.seed, len(texts)
        token_lists = [_tokens(text) for text in texts]
        tokens = list(chain.from_iterable(token_lists))
        index = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
        hashed = [_bucket_sign(token, dim, seed) for token in index]
        bucket_of = np.array([bucket for bucket, _ in hashed], dtype=np.intp)
        sign_of = np.array([sign for _, sign in hashed], dtype=np.float64)
        ids = np.fromiter(
            map(index.__getitem__, tokens), dtype=np.intp, count=len(tokens)
        )
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=n)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        acc = np.empty((n, dim), dtype=np.float32)
        for lo in range(0, n, ENCODE_BLOCK_ROWS):
            hi = min(lo + ENCODE_BLOCK_ROWS, n)
            block = ids[starts[lo] : starts[hi]]
            rows = np.repeat(np.arange(hi - lo, dtype=np.intp), lengths[lo:hi])
            acc[lo:hi] = np.bincount(
                rows * dim + bucket_of[block],
                weights=sign_of[block],
                minlength=(hi - lo) * dim,
            ).reshape(hi - lo, dim)
        for row in np.flatnonzero(~acc.any(axis=1)):
            acc[row, _bucket_sign(texts[row], dim, seed)[0]] = 1.0
        norms = np.sqrt(np.einsum("ij,ij->i", acc, acc, dtype=np.float64))
        acc /= norms.astype(np.float32)[:, None]
        return acc


class RotatedEncoder(HashEncoder):
    """A stand-in for the density of a learned encoder's rows, not a model;
    its id is ``rotated:<dim>:<seed>``. A row is ``HashEncoder``'s times a
    seeded random orthogonal matrix (Mezzadri, Notices of the AMS 2007),
    renormalised, as float32: every cosine is kept up to rounding, and
    nearly every entry is nonzero, so each kind is scanned whole."""

    def __init__(self, dim: int | str = 256, seed: int | str = 0):
        super().__init__(dim, seed)
        self.contract = EncoderContract(f"rotated:{self.dim}:{self.seed}", self.dim)
        gaussian = np.random.default_rng(self.seed).standard_normal((self.dim,) * 2)
        q, r = np.linalg.qr(gaussian)
        self.rotation = q * np.sign(np.diag(r))

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        rows = super().encode_batch(texts)
        for lo in range(0, len(rows), ENCODE_BLOCK_ROWS):
            block = rows[lo : lo + ENCODE_BLOCK_ROWS]
            rotated = block.astype(np.float64) @ self.rotation
            block[...] = rotated / np.linalg.norm(rotated, axis=1, keepdims=True)
        return rows


_ENCODER_FACTORIES: dict[str, Callable[..., Encoder]] = {}


def register_encoder(name: str, factory: Callable[..., Encoder]) -> None:
    _ENCODER_FACTORIES[name] = factory


register_encoder("hash", HashEncoder)
register_encoder("rotated", RotatedEncoder)


def make_encoder(name: str, *args: Any, **params: Any) -> Encoder:
    """Instantiate a registered encoder. An unknown name, or arguments its
    factory does not accept, are config errors."""
    factory = _ENCODER_FACTORIES.get(name)
    if factory is None:
        raise ConfigError(f"unknown encoder: {name!r}")
    try:
        inspect.signature(factory).bind(*args, **params)
    except TypeError as exc:
        raise ConfigError(f"encoder {name!r}: {exc}") from None
    return factory(*args, **params)


def resolve_encoder(encoder_id: str) -> Encoder | None:
    """Rebuild an encoder from its contract id.

    A contract id is the registry name followed by the factory's positional
    arguments, joined by ``:`` (``hash:256:0`` is ``HashEncoder("256", "0")``).
    A name that is not registered returns None: the vectors were imported,
    and the caller must attach an encoder before queries can be embedded.
    A rebuilt encoder whose contract id differs is an EncodingError.
    """
    name, *args = encoder_id.split(":")
    if name not in _ENCODER_FACTORIES:
        return None
    encoder = make_encoder(name, *args)
    if encoder.contract.id != encoder_id:
        raise EncodingError(
            f"encoder {name!r} rebuilt from {encoder_id!r} has contract id "
            f"{encoder.contract.id!r}"
        )
    return encoder


def _encode_checked(
    encoder: Encoder,
    texts: Sequence[str],
    dim: int,
    what: str,
    normalized: bool = True,
) -> np.ndarray:
    """``encoder``'s vectors for ``texts``. Every encode goes through here:
    unless they have shape ``(len(texts), dim)``, are finite and (if
    ``normalized``) have unit length, EncodingError names the encoder."""
    encoder_id = encoder.contract.id
    vectors = np.asarray(encoder.encode_batch(texts))
    if vectors.shape != (len(texts), dim):
        raise EncodingError(
            f"encoder {encoder_id!r} returned {what} of shape {vectors.shape}, "
            f"expected {(len(texts), dim)}"
        )
    if normalized:
        try:
            validate_normalized(vectors, what)
        except ConsistencyError as exc:
            raise EncodingError(f"encoder {encoder_id!r}: {exc}") from None
    elif not np.isfinite(vectors).all():
        raise EncodingError(
            f"encoder {encoder_id!r} returned {what} holding NaN or infinite values"
        )
    return vectors


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two L2-normalized vectors."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a.astype(np.float64), b.astype(np.float64)))


def validate_normalized(
    rows: np.ndarray, what: str, entries: "_Entries | None" = None
) -> None:
    """Raise ConsistencyError unless every row is finite and L2-normalized.
    Given ``entries``, the entries of ``rows`` that may be nonzero, only
    those are read."""
    if rows.size == 0:
        return
    if entries is None:
        non_finite = ~np.isfinite(rows).all(axis=1)
    else:
        non_finite = np.zeros(len(rows), dtype=bool)
        non_finite[entries.rows[~np.isfinite(entries.values)]] = True
    if np.any(non_finite):
        raise ConsistencyError(
            f"{what}: {int(non_finite.sum())} vector(s) hold NaN or infinite values"
        )
    if entries is None:
        squares = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    else:
        values = entries.values.astype(np.float64)
        squares = np.bincount(entries.rows, values * values, minlength=len(rows))
    norms = np.sqrt(squares)
    bad = np.abs(norms - 1.0) > NORM_TOLERANCE
    if np.any(bad):
        raise ConsistencyError(
            f"{what}: {int(bad.sum())} vector(s) are not L2-normalized"
        )


class SparseRows(SparseBinaryMatrix):
    """The entries of a float32 matrix whose bits are not all zero (those
    a vector file's bitmaps mark), in CSR form with those entries as its
    ``values``, which queries read column-major (``by_column``). Its arrays
    are the tips of growth buffers (``buffers.appended``), so
    ``sparse_rows(rows, grown_from=this)`` grows them in place when this is
    the newest index grown from them, and never changes this one."""

    __slots__ = ("values",)

    def __init__(self, n_rows, n_cols, col_ids, indptr, values, grown_from=None):
        super().__init__(n_rows, n_cols, col_ids, indptr, grown_from)
        self.values = values


def sparse_rows(
    rows: np.ndarray, grown_from: SparseRows | None = None
) -> SparseRows | None:
    """The sparse index of ``rows``, or None where queries scan them whole:
    rows that are not float32, hold a value that is not finite, or whose
    marked entries pass ``DENSITY_CUT`` of their entries. ``grown_from``,
    if given, is the index of the first ``grown_from.n_rows`` of ``rows``:
    only the rows past it are read, and their entries follow its own."""
    new = rows[grown_from.n_rows if grown_from is not None else 0 :]
    if rows.dtype != np.float32 or not np.isfinite(new).all():
        return None
    marked = np.ascontiguousarray(new).view(np.uint32).reshape(-1) != 0
    old_nnz = grown_from.nnz if grown_from is not None else 0
    if _too_dense(old_nnz + np.count_nonzero(marked), rows.shape):
        return None
    at = np.flatnonzero(marked)
    row_ids, cols = np.divmod(at, rows.shape[1])
    return _grown(grown_from, rows.shape, row_ids, cols, new.reshape(-1)[at])


def _too_dense(nnz: int, shape: tuple[int, int]) -> bool:
    """Whether ``nnz`` marked entries of a matrix of ``shape`` pass the
    density cut."""
    return nnz > DENSITY_CUT * shape[0] * shape[1]


def _grown(
    grown_from: SparseRows | None,
    shape: tuple[int, int],
    row_ids: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> SparseRows | None:
    """``grown_from`` (None: no rows) followed by the entries of its rows
    past it: each one's row (counted from the first new row), column and
    float32 value, in row-major order. None if the whole passes the
    density cut."""
    n_rows, dim = shape
    old_nnz = grown_from.nnz if grown_from is not None else 0
    nnz = old_nnz + len(values)
    if _too_dense(nnz, shape):
        return None
    index = np.int32 if nnz < 2**31 else np.int64
    start = grown_from.n_rows if grown_from is not None else 0
    counts = np.bincount(row_ids, minlength=n_rows - start)
    indptr = np.cumsum(counts, dtype=index) + index(old_nnz)
    # A copy: decoded values are views of a vector file's bytes.
    parts = [cols.astype(index), indptr, values.astype(np.float32)]
    if grown_from is None:
        parts[1] = np.concatenate([[index(0)], indptr])
    else:
        old = (grown_from.col_ids, grown_from.indptr, grown_from.values)
        parts = [appended(a, b) for a, b in zip(old, parts)]
    return SparseRows(n_rows, dim, *parts, grown_from)


# Each kind's vectors, as ``EmbeddingStore`` names them.
VECTOR_KINDS = ("entity_vectors", "sentence_vectors", "passage_vectors")
# What ``EmbeddingStore._grown_from`` holds for a kind no ancestor indexed.
_UNGROWN = object()


@dataclass(eq=False)
class EmbeddingStore:
    dim: int
    encoder_id: str
    entity_vectors: np.ndarray  # (n_entities, dim) float32
    sentence_vectors: np.ndarray  # (n_sentences, dim)
    passage_vectors: np.ndarray  # (n_passages, dim)
    encoder: Encoder | None = field(default=None, repr=False)
    # Each kind's sparse index once made (None for a kind scanned whole), and
    # the indexes of the store this one grew from, or of the nearest
    # ancestor that made them; ``extend_store`` fills it, and making an
    # index from its entry drops the entry.
    _indexes: dict[str, Any] = field(default_factory=dict, init=False, repr=False)
    _grown_from: dict[str, Any] = field(default_factory=dict, init=False, repr=False)

    def sparse_rows(self, kind: str) -> SparseRows | None:
        """The sparse index (``SparseRows``) of the vectors ``kind`` names
        (one of ``VECTOR_KINDS``), or None for a kind that queries scan
        whole (see ``sparse_rows``). It is made on first use: from the
        vector files' bitmaps by ``load_store``, else from the index of the
        store this one grew from, else from the rows. A grown store takes
        its parent's index as it is while the rows past it number at most
        ``TAIL_ROWS``, and else extends it by those rows; so an index may
        hold only a prefix of the rows, and queries score the rest from the
        dense rows. A kind scanned whole stays so in the stores grown from
        this one. Made once, an index assumes that the rows it was made
        from are not changed in place afterwards; the rows ``extend_store``
        grows and ``load_store`` reads are read-only."""
        made = self._indexes
        if kind not in made:
            rows = getattr(self, kind)
            parent = self._grown_from.pop(kind, _UNGROWN)
            if parent is _UNGROWN:
                made[kind] = sparse_rows(rows)
            elif parent is None or len(rows) - parent.n_rows <= TAIL_ROWS:
                made[kind] = parent
            else:
                made[kind] = sparse_rows(rows, parent)
        return made[kind]

    def encode_query(self, text: str) -> np.ndarray:
        if self.encoder is None:
            raise ConfigError(
                f"store built with encoder {self.encoder_id!r} cannot embed "
                "queries; attach an in-process encoder"
            )
        vectors = _encode_checked(
            self.encoder, [text], self.dim, "a query vector", normalized=False
        )
        return vectors[0].astype(np.float64)

    def matches(self, graph: TriGraph) -> bool:
        return (
            self.entity_vectors.shape[0] == graph.n_entities
            and self.sentence_vectors.shape[0] == graph.n_sentences
            and self.passage_vectors.shape[0] == graph.n_passages
        )


def _node_texts(graph: TriGraph, start: Sequence[int]) -> tuple[list[str], ...]:
    """Entity canonicals, sentence texts and passage texts, each kind from
    its row in ``start`` on."""
    entities, sentences, passages = start
    return (
        [r.canonical for r in graph.entity_registry.records[entities:]],
        graph.corpus.sentence_texts(sentences),
        [p.text for p in graph.corpus.passages[passages:]],
    )


_KINDS = ("entity vectors", "sentence vectors", "passage vectors")


def build_store(graph: TriGraph, encoder: Encoder) -> EmbeddingStore:
    """Encode entity canonicals, sentences, and passages for a graph: an
    ``extend_store`` of an empty store of the encoder's contract."""
    contract = encoder.contract
    empty = np.zeros((0, contract.dim), dtype=np.float32)
    store = EmbeddingStore(contract.dim, contract.id, empty, empty, empty)
    return extend_store(store, graph, encoder)


def extend_store(
    store: EmbeddingStore,
    graph: TriGraph,
    encoder: Encoder | None = None,
) -> EmbeddingStore:
    """Encode whatever nodes the store is missing for a grown graph.

    Existing rows are kept verbatim; only appended entities, sentences and
    passages are encoded, and the rows of an empty kind are the encoded ones,
    uncopied. The others grow as read-only views of growth buffers
    (``buffers.appended``): in place when ``store`` is the newest store grown
    from them, else by one copy of the old rows, so a chain of extends
    copies amortised O(new rows). The new store's sparse indexes
    (``EmbeddingStore.sparse_rows``) are ``store``'s, or those its nearest
    indexed ancestor made, grown by the new rows only, through the same
    growth buffers, with their views, on first use. ``store`` is never changed.
    Row counts may only grow. An encoder whose contract id is not the store's is a
    ConfigError, raised before anything is encoded.
    """
    encoder = encoder or store.encoder
    if encoder is None:
        raise ConfigError(
            f"store built with encoder {store.encoder_id!r} cannot be "
            "extended without an in-process encoder"
        )
    if encoder.contract.id != store.encoder_id:
        raise ConfigError(
            f"encoder {encoder.contract.id!r} cannot extend a store built "
            f"with encoder {store.encoder_id!r}"
        )
    old = (store.entity_vectors, store.sentence_vectors, store.passage_vectors)
    new_texts = _node_texts(graph, [len(rows) for rows in old])
    grown = []
    for kind, rows, texts in zip(_KINDS, old, new_texts):
        if texts:
            new = _encode_checked(encoder, texts, store.dim, kind)
            rows = appended(rows, new) if len(rows) else new
        grown.append(rows)
    extended = EmbeddingStore(store.dim, store.encoder_id, *grown, encoder=encoder)
    # Each index ``store`` has made, or else the one it would derive its own
    # from.
    extended._grown_from.update({**store._grown_from, **store._indexes})
    return extended


def encode_block(rows: np.ndarray) -> bytes:
    """The block of a vector file that holds ``rows``, a float32 matrix:
    uint64 row and value counts, one bitmap of ``ceil(dim / 8)`` bytes per
    row whose bits (most significant first) mark the entries whose float32
    bits are not all zero, then those entries as float32, row by row. No
    rows make no block. Every bit comes back, ``-0.0`` included."""
    rows = _le_rows(rows)
    if not len(rows):
        return b""
    marked = rows.view("<u4") != 0
    values = rows[marked]
    return b"".join(
        (
            _BLOCK.pack(len(rows), len(values)),
            np.packbits(marked, axis=1).tobytes(),
            values.tobytes(),
        )
    )


def write_vector_file(path: str | Path, rows: np.ndarray, encoder_id: str) -> None:
    """Replace the vector file ``path`` with one holding ``rows`` as one
    block (``encode_block``), atomically (``storage.replace_file``)."""
    rows = _le_rows(rows)
    if rows.ndim != 2:
        raise ValueError("vector file payload must be a 2-D array")
    block = encode_block(rows)
    encoded_id = encoder_id.encode("utf-8")
    header = b"".join(
        (
            MAGIC,
            _PREFIX.pack(FILE_VERSION, rows.shape[1]),
            _COUNTS.pack(len(rows), len(block)),
            _ID_LENGTH.pack(len(encoded_id)),
            encoded_id,
        )
    )
    storage.replace_file(Path(path), header + block)


@dataclass(frozen=True)
class _Header:
    version: int
    dim: int
    rows: int  # committed rows
    size: int  # committed bytes of vector data
    encoder_id: str


def _read_header(f: BinaryIO, path: Path) -> _Header:
    """Read a vector file's header. ConsistencyError if it is not a readable
    header, or if the rows or bytes it commits pass the end of the file."""
    head = f.read(len(MAGIC) + _PREFIX.size)
    if len(head) < len(MAGIC) + _PREFIX.size or head[: len(MAGIC)] != MAGIC:
        raise ConsistencyError(f"{path}: not a vector store file")
    version, dim = _PREFIX.unpack_from(head, len(MAGIC))
    if version not in (1, FILE_VERSION):
        raise ConsistencyError(f"{path}: unsupported vector file version {version}")
    counts = _V1_ROWS if version == 1 else _COUNTS
    raw = f.read(counts.size + _ID_LENGTH.size)
    if len(raw) < counts.size + _ID_LENGTH.size:
        raise ConsistencyError(f"{path}: not a vector store file")
    if version == 1:
        (rows,) = _V1_ROWS.unpack_from(raw)
        size = rows * dim * 4
    else:
        rows, size = _COUNTS.unpack_from(raw)
    (id_length,) = _ID_LENGTH.unpack_from(raw, counts.size)
    try:
        encoder_id = f.read(id_length).decode("utf-8")
    except UnicodeDecodeError:
        raise ConsistencyError(f"{path}: encoder id is not UTF-8") from None
    available = os.fstat(f.fileno()).st_size - f.tell()
    if size > available:
        raise ConsistencyError(
            f"{path}: committed length {size} of vector data passes the end "
            f"of the file ({available} bytes)"
        )
    if rows * _bitmap_bytes(dim) > size:
        raise ConsistencyError(
            f"{path}: {rows} rows of dim {dim} need more than the {size} "
            "bytes of vector data its header commits"
        )
    return _Header(version, dim, rows, size, encoder_id)


def _bitmap_bytes(dim: int) -> int:
    return -(-dim // 8)


def read_vector_file(path: str | Path) -> tuple[np.ndarray, str]:
    """The rows a vector file's header commits, and its encoder id. Bytes
    past the committed data belong to an append that never committed and
    are ignored."""
    rows, encoder_id, _ = _read_vectors(Path(path), Path(path), (), 0)
    return rows, encoder_id


class _Entries(NamedTuple):
    """The marked entries of decoded rows, in row-major order."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray  # float32


def _read_vectors(
    path: Path, tail: Path, records: Sequence[storage.TailRecord], kind: int
) -> tuple[np.ndarray, str, _Entries | None]:
    """The rows a vector file's header commits followed by part ``kind`` of
    each of ``records``, the records of ``tail`` past those rows, and its
    encoder id: decoded into the tip of a growth buffer
    (``buffers.reserved``), read-only. Each count is checked against the
    bytes that hold it before the rows are allocated. Also the entries the
    bitmaps mark, when every block returned its own (``_decode_block``);
    else, and for version 1, None."""
    with path.open("rb") as f:
        header = _read_header(f, path)
        data = f.read(header.size)
    if len(data) < header.size:
        raise ConsistencyError(f"{path}: shorter than its committed vector data")
    dim, dense = header.dim, header.version == 1
    parts = [(path, data, header.rows)]
    for record in storage.records_past(tail, records, [header.rows], [kind]):
        part, n_rows = record.parts[kind], record.end[kind] - record.start[kind]
        if dense:
            fits = len(part) == n_rows * dim * 4
        else:
            fits = len(part) >= n_rows * _bitmap_bytes(dim)
        if not fits:
            raise ConsistencyError(
                f"{tail}: a record holds {len(part)} bytes of {path.name} "
                f"rows, its counts say {n_rows} rows of dim {dim}"
            )
        parts.append((tail, part, n_rows))
    rows = reserved(sum(n for _, _, n in parts), (dim,), np.float32)
    decoded: list[_Entries | None] = []
    at = 0
    for where, part, n_rows in parts:
        into = rows[at : at + n_rows]
        if dense:
            into[...] = np.frombuffer(part, "<f4").reshape(n_rows, dim)
            decoded.append(None)
        else:
            entries = _decode_block(part, into, where)
            if entries is not None and at:
                entries.rows[...] += at
            decoded.append(entries)
        at += n_rows
    rows.flags.writeable = False
    if None in decoded:
        return rows, header.encoder_id, None
    if len(decoded) == 1:
        return rows, header.encoder_id, decoded[0]
    return rows, header.encoder_id, _Entries(*map(np.concatenate, zip(*decoded)))


def _decode_block(
    data: bytes | memoryview, rows: np.ndarray, where: Path
) -> _Entries | None:
    """Decode the block ``data`` (no bytes for no rows) into ``rows``, zeroed
    rows that it must fill exactly. ConsistencyError naming ``where`` for a
    block of other counts than its bytes or ``rows`` hold, a bitmap bit set
    past the dim, a value count that is not the bitmaps' count of set bits,
    or a marked entry whose stored bits are all zero.

    A block whose values pass ``DENSITY_CUT`` of its entries is decoded
    through one mask of every entry, and None is returned. In any other,
    only the bitmap bytes with a set bit are unpacked: each set bit's byte
    and place give its row and column, in the row-major order of the
    values, those positions alone are written, and the entries they mark
    are returned."""
    n_rows, dim = rows.shape
    if not n_rows and not len(data):
        none = np.zeros(0, dtype=np.intp)
        return _Entries(none, none, np.zeros(0, dtype=np.float32))
    width = _bitmap_bytes(dim)
    # Bytes too few for a block's counts hold no block of ``n_rows`` rows.
    n, n_values = _BLOCK.unpack_from(data) if len(data) >= _BLOCK.size else (-1, 0)
    values_at = _BLOCK.size + n * width
    if n != n_rows or values_at + 4 * n_values != len(data):
        raise ConsistencyError(
            f"{where}: a block of {len(data)} bytes does not hold {n_rows} rows "
            f"of dim {dim} and the values its header counts"
        )
    bitmaps = np.frombuffer(data, np.uint8, n * width, _BLOCK.size).reshape(n, width)
    padding = (1 << (-dim % 8)) - 1  # the last bitmap byte's bits past dim
    if padding and np.any(bitmaps[:, -1] & padding):
        raise ConsistencyError(
            f"{where}: a row's bitmap sets a padding bit past dim {dim}"
        )
    if _too_dense(n_values, rows.shape):
        marked = np.unpackbits(bitmaps, axis=1, count=dim).view(bool)
        n_marked = int(np.count_nonzero(marked))
    else:
        flat = bitmaps.reshape(-1)
        filled = np.flatnonzero(flat != 0)
        set_bits = np.flatnonzero(np.unpackbits(flat[filled]).view(bool))
        n_marked = len(set_bits)
    if n_marked != n_values:
        raise ConsistencyError(
            f"{where}: a block holds {n_values} values, its bitmaps mark {n_marked}"
        )
    values = np.frombuffer(data, "<f4", n_values, values_at)
    if not values.view("<u4").all():
        raise ConsistencyError(
            f"{where}: a block marks an entry whose stored bits are all zero"
        )
    if _too_dense(n_values, rows.shape):
        rows[marked] = values
        return None
    row_ids, cols = np.divmod(filled[set_bits >> 3], width)
    cols *= 8
    cols += set_bits & 7
    rows.reshape(-1)[row_ids * dim + cols] = values
    return _Entries(row_ids, cols, values)


def save_store(store: EmbeddingStore, directory: str | Path) -> None:
    """Write the three vector files of a store.

    If the directory's manifest names the store's embedder, and the vector
    files (all of this version) and ``vectors.tail`` commit a prefix of the
    store's rows, only the rows past that prefix are written: one record,
    a block of each kind, that ``storage.append_tail`` commits in the tail,
    two fsyncs. It reads the manifest, each file's header and the tail's
    last record. Once the manifest's node counts have passed the tail's
    end - the ``save`` before it folded the graph - the store folds
    instead, and any other store is written whole. Both write every vector
    file anew as one block (``write_vector_file``), so a folded file is
    byte for byte the file a full write makes; then fsync the directory;
    then remove the tail. A tail holding records past the store's rows is
    removed first. A full ``trigraph.save`` removes the vector files and
    the tail, so the store saved after it is always written whole. The
    manifest is never written here.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = (store.entity_vectors, store.sentence_vectors, store.passage_vectors)
    tail = directory / VECTOR_TAIL
    committed = _committed_rows(directory, store)
    if committed is not None and not committed.folds:
        end, counts = committed.end, tuple(len(rows) for rows in arrays)
        if end != counts:
            parts = [encode_block(rows[e:]) for rows, e in zip(arrays, end)]
            record = VECTOR_RECORD.record(end, counts, parts)
            storage.append_tail(tail, committed.length, record)
        elif committed.passed:  # what a failed fold left
            storage.remove(tail)
        return
    # Until the directory fsync, a reader may find any mix of old and new
    # files, and the tail must extend each old one and be skipped past each
    # new one.
    if not _passed_by(tail, arrays):
        storage.remove(tail)
    for name, rows in zip(STORE_FILES, arrays):
        write_vector_file(directory / name, rows, store.encoder_id)
    storage.sync_directory(directory)
    storage.remove(tail)


def _le_rows(rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rows, dtype="<f4")


def _passed_by(tail: Path, arrays: Sequence[np.ndarray]) -> bool:
    """Whether every record of the vector tail ends at or before the rows
    of ``arrays``, so that readers skip them all past files that hold
    those rows."""
    try:
        _, last = VECTOR_RECORD.last(tail)
    except (ConsistencyError, OSError):
        return False
    return last is None or all(e <= len(rows) for e, rows in zip(last.end, arrays))


class _Committed(NamedTuple):
    length: int  # the vector tail's committed length
    end: tuple[int, ...]  # the row counts the files and the tail commit
    folds: bool  # whether the manifest's node counts passed them
    passed: bool  # whether the tail holds records, all ending in the files


def _committed_rows(directory: Path, store: EmbeddingStore) -> _Committed | None:
    """What the directory commits of the store, if its manifest names the
    store's embedder and it commits at most the store's rows, in vector
    files of this version. Else None."""
    try:
        manifest = read_manifest(directory)
        length, last = VECTOR_RECORD.last(directory / VECTOR_TAIL)
    except (IndexLoadError, OSError):
        return None
    if manifest.get("embedder") != {"id": store.encoder_id, "dim": store.dim}:
        return None
    arrays = (store.entity_vectors, store.sentence_vectors, store.passage_vectors)
    end = []
    for name, rows in zip(STORE_FILES, arrays):
        try:
            with (directory / name).open("rb") as f:
                header = _read_header(f, directory / name)
        except (OSError, ConsistencyError):
            return None
        stored = (header.version, header.dim, header.encoder_id)
        if stored != (FILE_VERSION, rows.shape[1], store.encoder_id):
            return None
        end.append(header.rows)
    # Records a fold wrote to the files end at or before the files' rows.
    passed = last is not None and all(e <= b for e, b in zip(last.end, end))
    if last is not None:
        end = list(map(max, end, last.end))
    graph = [manifest.get(k) for k in ("n_entities", "n_sentences", "n_passages")]
    if not all(type(n) is int for n in graph) or any(
        e > len(rows) for e, rows in zip(end, arrays)
    ):
        return None
    folds = any(e < n for e, n in zip(end, graph))
    return _Committed(length, tuple(end), folds, passed)


def load_store(
    directory: str | Path,
    graph: TriGraph | None = None,
    encoder: Encoder | None = None,
) -> EmbeddingStore:
    """Load the three vector files, each followed by its rows in the vector
    tail's records past the rows its header commits, validating norms and
    (optionally) row-count agreement with a graph. The entries that the
    files' bitmaps mark also make each kind's sparse index
    (``EmbeddingStore.sparse_rows``), unless a block of the kind passes the
    density cut or its file is of version 1: then its first use derives
    it."""
    directory = Path(directory)
    tail = directory / VECTOR_TAIL
    records = VECTOR_RECORD.records(tail)
    arrays: list[np.ndarray] = []
    ids: list[str] = []
    indexes: dict[str, SparseRows | None] = {}
    for kind, name in enumerate(STORE_FILES):
        rows, encoder_id, entries = _read_vectors(directory / name, tail, records, kind)
        validate_normalized(rows, name, entries)
        if entries is not None:
            indexes[VECTOR_KINDS[kind]] = _grown(None, rows.shape, *entries)
        arrays.append(rows)
        ids.append(encoder_id)
    if len(set(ids)) != 1:
        raise ConsistencyError(f"vector files disagree on encoder id: {ids}")
    dims = {a.shape[1] for a in arrays}
    if len(dims) != 1:
        raise ConsistencyError(f"vector files disagree on dim: {sorted(dims)}")
    if encoder is None:
        try:
            encoder = resolve_encoder(ids[0])
        except (ValueError, TypeError, ConfigError) as exc:
            raise ConsistencyError(
                f"{directory / STORE_FILES[0]}: stored encoder id {ids[0]!r} "
                f"does not rebuild an encoder: {exc}"
            ) from None
    store = EmbeddingStore(dims.pop(), ids[0], *arrays, encoder=encoder)
    store._indexes.update(indexes)
    if graph is not None and not store.matches(graph):
        raise ConsistencyError(
            "embedding store row counts do not match the graph: "
            f"store=({store.entity_vectors.shape[0]} entities, "
            f"{store.sentence_vectors.shape[0]} sentences, "
            f"{store.passage_vectors.shape[0]} passages), graph="
            f"({graph.n_entities}, {graph.n_sentences}, {graph.n_passages})"
        )
    return store

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
still read, so exported vectors can be imported in that layout.

In memory each kind is held one way (``EmbeddingStore.kinds``): while its
marked entries are at most ``DENSITY_CUT`` of its entries, as those entries
alone (``SparseRows``), which ``load_store`` decodes from the bitmaps and
``encode_block`` writes back; past the cut, as dense float32 rows.

An append writes no vector file: it commits a block of the new rows of
each of the three kinds as one record of ``vectors.tail``
(``VECTOR_RECORD``), whose header's committed length is its commit point
(see ``storage``). ``load_store`` reads each file followed by its rows in
the tail's records past its own count, decoding all of them into the tips
of growth buffers (``buffers.reserved``), so the first append after a load
copies nothing. ``save_store`` folds the tail when ``trigraph.save`` folds
the graph's, by writing each file anew as one block, so that a folded index
is byte for byte the index a full write makes.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import re
import struct
from dataclasses import dataclass
from itertools import accumulate, islice
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, Protocol
from typing import Sequence

import numpy as np

from . import storage
from .buffers import appended, reserved
from .errors import ConfigError, ConsistencyError, EncodingError, IndexLoadError
from .trigraph import STORE_FILES, VECTOR_TAIL, SparseBinaryMatrix, TriGraph
from .trigraph import _row_entries, read_manifest

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
# A store holds a kind of vectors as its sparse rows (``SparseRows``) only
# while their marked entries are at most this share of all its entries; a
# denser kind is held as dense rows and scanned whole by every query. See
# CHANGES.md for the sweep it was picked from.
DENSITY_CUT = 0.15
# Rows of ``HashEncoder.encode_batch`` summed at a time.
ENCODE_BLOCK_ROWS = 512
CHUNK_ROWS = 1024  # rows ``extend_store`` encodes, ``_decode_block`` unpacks, at once


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
# Each byte of an ASCII text as ``_token_bytes`` reads it: a letter or digit
# lower-cased (``str.casefold`` of ASCII), any other byte a separator.
_ASCII_FOLD = bytes(
    ord(chr(c).lower()) if c < 128 and chr(c).isalnum() else ord(" ")
    for c in range(256)
)


def _tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.casefold())


def _token_bytes(text: str) -> list[bytes]:
    """The UTF-8 bytes of each of ``_tokens(text)``; an ASCII text's are
    folded and split as bytes, with no regular expression."""
    if text.isascii():
        return text.encode().translate(_ASCII_FOLD).split()
    return [token.encode() for token in _tokens(text)]


def _signed_bucket(key: bytes, dim: int) -> int:
    """The bucket in [0, dim) of ``key``'s 8-byte blake2b, or its complement
    ``~bucket`` where the hash's top bit makes its sign negative."""
    value = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
    return value % dim if value >> 63 == 0 else ~(value % dim)


def _bucket_sign(token: str, dim: int, seed: int) -> tuple[int, float]:
    code = _signed_bucket(f"{seed}:{token}".encode("utf-8"), dim)
    return (code, 1.0) if code >= 0 else (~code, -1.0)


def hash_encode(text: str, dim: int, seed: int) -> np.ndarray:
    """Deterministic bag-of-words hash embedding: the one-row case of
    ``HashEncoder(dim, seed).encode_batch``.

    Tokens are maximal alphanumeric runs of the case-folded text. Each token
    is hashed (blake2b of ``"<seed>:<token>"`` as UTF-8) to a bucket in
    [0, dim) and a sign, and the signed counts are L2-normalized. A row
    depends only on the multiset of its tokens' buckets and signs (the
    hashing trick of Weinberger et al., ICML 2009). If the accumulation is
    all zero (no tokens, or signs cancelled), the result is the basis
    vector at the bucket of the full text, so no zero vector can ever be
    produced. A ``dim`` below 8 is a ConfigError.
    """
    return HashEncoder(dim, seed).encode_batch([text])[0]


class HashEncoder:
    """The built-in deterministic encoder; its id is ``hash:<dim>:<seed>``.

    Both arguments go through ``int()``, so the pieces of an id rebuild it.
    A ``dim`` below 8 is a ConfigError. An encoder remembers each distinct
    token it has seen, at build, append or query, with its bucket and sign,
    so it hashes each token once in its life: its memory grows with the
    vocabulary it has read, not with the texts.
    """

    def __init__(self, dim: int | str = 256, seed: int | str = 0):
        self.dim = int(dim)
        self.seed = int(seed)
        if self.dim < 8:
            raise ConfigError(f"hash encoder dim must be >= 8, got {self.dim}")
        self.contract = EncoderContract(f"hash:{self.dim}:{self.seed}", self.dim)
        # Each token seen, as UTF-8, to its ``_signed_bucket``.
        self._codes: dict[bytes, int] = {}

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        """``hash_encode`` of each text, in one pass over the batch: each
        token the encoder has not seen before is hashed once and kept, and
        the signed counts of each block of ``ENCODE_BLOCK_ROWS`` rows are
        summed by one ``np.bincount`` over ``row * dim + bucket`` and
        written into one preallocated float32 result. The sums are small
        integers, exact in float64 and float32 alike, so the rows equal
        per-token float32 adds bit for bit, whatever texts came before."""
        dim, n = self.dim, len(texts)
        # One list of every token and one of lengths, not a list per text,
        # so that the batch leaves few objects for the collector to count.
        tokens: list[bytes] = []
        counts: list[int] = []
        for text in texts:
            run = _token_bytes(text)
            tokens += run
            counts.append(len(run))
        codes, key = self._codes, f"{self.seed}:".encode()
        for token in set(tokens).difference(codes):
            codes[token] = _signed_bucket(key + token, dim)
        signed = np.fromiter(
            map(codes.__getitem__, tokens), dtype=np.int64, count=len(tokens)
        )
        negative = signed >> 63  # -1 where the sign is negative, else 0
        bucket_of, sign_of = signed ^ negative, (negative | 1).astype(np.float64)
        lengths = np.array(counts, dtype=np.intp)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        acc = np.empty((n, dim), dtype=np.float32)
        for lo in range(0, n, ENCODE_BLOCK_ROWS):
            hi = min(lo + ENCODE_BLOCK_ROWS, n)
            block = slice(starts[lo], starts[hi])
            rows = np.repeat(np.arange(hi - lo, dtype=np.intp), lengths[lo:hi])
            acc[lo:hi] = np.bincount(
                rows * dim + bucket_of[block],
                weights=sign_of[block],
                minlength=(hi - lo) * dim,
            ).reshape(hi - lo, dim)
        for row in np.flatnonzero(~acc.any(axis=1)):
            acc[row, _bucket_sign(texts[row], dim, self.seed)[0]] = 1.0
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
    """``encoder``'s vectors for ``texts`` as float32: every encode goes
    through here. Unless they have shape ``(len(texts), dim)``, are finite
    and (if ``normalized``) have unit length, EncodingError names it."""
    encoder_id = encoder.contract.id
    vectors = np.asarray(encoder.encode_batch(texts), dtype=np.float32)
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


def validate_normalized(rows: HeldRows, what: str) -> None:
    """Raise ConsistencyError unless every row is finite and L2-normalized.
    Of sparse rows (``SparseRows``), only their entries are read."""
    if 0 in rows.shape:
        return
    if isinstance(rows, SparseRows):
        row_ids, values = rows.row_ids, rows.values.astype(np.float64)
        bad_rows = np.bincount(row_ids[~np.isfinite(values)]) > 0
        squares = np.bincount(row_ids, values * values, minlength=rows.n_rows)
    else:
        bad_rows = ~np.isfinite(rows).all(axis=1)
        squares = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    if np.any(bad_rows):
        raise ConsistencyError(
            f"{what}: {int(bad_rows.sum())} vector(s) hold NaN or infinite values"
        )
    norms = np.sqrt(squares)
    bad = np.abs(norms - 1.0) > NORM_TOLERANCE
    if np.any(bad):
        raise ConsistencyError(
            f"{what}: {int(bad.sum())} vector(s) are not L2-normalized"
        )


class SparseRows(SparseBinaryMatrix):
    """A float32 matrix as the entries whose bits are not all zero (those a
    vector file's bitmaps mark), in CSR form with their ``values``: how a
    store holds a kind under ``DENSITY_CUT``. ``sparse_rows(rows,
    grown_from=this)`` grows it through ``extended``."""

    __slots__ = ()

    def scatter(self, rows: slice | np.ndarray, into: np.ndarray) -> None:
        """Write ``rows`` (a slice with bounds, or ascending ids) into
        ``into``, C-contiguous zeros of as many rows of ``n_cols``."""
        if isinstance(rows, slice):
            positions = slice(self.indptr[rows.start], self.indptr[rows.stop])
            lengths = np.diff(self.indptr[rows.start : rows.stop + 1])
        else:
            positions, lengths = _row_entries(self.indptr, rows)
        slots = np.arange(0, len(lengths) * self.n_cols, self.n_cols).repeat(lengths)
        slots += self.col_ids[positions]
        # numpy writes a gather of its own dtype faster than it casts one.
        into.reshape(-1)[slots] = self.values[positions].astype(into.dtype)

    def to_dense(self) -> np.ndarray:
        """The rows as dense float32, read-only, made anew on each call:
        O(rows x n_cols). The one densifying path."""
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.float32)
        self.scatter(slice(0, self.n_rows), dense)
        dense.flags.writeable = False
        return dense


# A kind of vectors as a store holds it.
HeldRows = np.ndarray | SparseRows


def sparse_rows(
    rows: np.ndarray, grown_from: SparseRows | None = None
) -> SparseRows | None:
    """The sparse rows of float32 ``rows``, following those of ``grown_from``
    if given; or None, where a store holds the kind dense: for rows holding
    a value that is not finite, or whose marked entries, with
    ``grown_from``'s, pass ``DENSITY_CUT`` of all their entries."""
    n_rows, dim = rows.shape
    if grown_from is None:
        none = np.zeros(1, dtype=np.int32)
        grown_from = SparseRows(0, dim, none[:0], none, np.zeros(0, np.float32))
    flat = np.ascontiguousarray(rows).reshape(-1)
    marked = flat.view(np.uint32) != 0
    nnz = grown_from.nnz + int(np.count_nonzero(marked))
    n_rows += grown_from.n_rows
    if nnz > DENSITY_CUT * n_rows * dim:
        return None
    at = np.flatnonzero(marked)
    values = flat[at]  # every unmarked entry is +0.0, so finite
    if not np.isfinite(values).all():
        return None
    row_ids, cols = np.divmod(at, dim)
    index = np.int32 if nnz < 2**31 else np.int64
    row_ids += grown_from.n_rows
    return grown_from.extended(row_ids, cols.astype(index), n_rows, dim, values)


def _held(rows: np.ndarray) -> HeldRows:
    """Dense ``rows`` as a store holds them, narrowed to float32."""
    rows = np.asarray(rows, dtype=np.float32)
    return rows if (held := sparse_rows(rows)) is None else held


def _marked(held: HeldRows) -> int:
    """A kind's count of marked entries, whose float32 bits are not all zero."""
    if isinstance(held, SparseRows):
        return held.nnz
    return int(np.count_nonzero(held.view(np.uint32)))


def _appended_rows(
    held: HeldRows, marked: int, rows: np.ndarray
) -> tuple[HeldRows, int]:
    """A kind as a store holds it, ``marked`` its count of marked entries,
    followed by the dense float32 ``rows``: held as ``_held`` holds all those
    rows, with their count. Crossing ``DENSITY_CUT`` either way costs one
    pass over every row; an empty kind past it takes ``rows`` uncopied."""
    if isinstance(held, SparseRows):
        if (grown := sparse_rows(rows, held)) is not None:
            return grown, grown.nnz
        held = _dense(held)  # past the cut
    marked += _marked(rows)
    if marked <= DENSITY_CUT * (len(held) + len(rows)) * held.shape[1]:
        return _held(appended(held, rows)), marked  # back under the cut
    return (appended(held, rows) if len(held) else rows), marked


# Each kind of vectors a store holds, in the order of ``STORE_FILES``.
VECTOR_KINDS = ("entity_vectors", "sentence_vectors", "passage_vectors")


def _dense(held: HeldRows) -> np.ndarray:
    """A kind as a store holds it, as dense rows."""
    return held.to_dense() if isinstance(held, SparseRows) else held


class EmbeddingStore:
    """An encoder's vectors of a graph's entities, sentences and passages,
    made from dense rows narrowed to float32 and held one way each in
    ``kinds``: as sparse rows under ``DENSITY_CUT``, else dense. ``entity_vectors``,
    ``sentence_vectors`` and ``passage_vectors`` give dense rows, read-only,
    a sparse kind's made anew on each access at O(rows x dim)."""

    entity_vectors = property(lambda self: _dense(self.kinds["entity_vectors"]))
    sentence_vectors = property(lambda self: _dense(self.kinds["sentence_vectors"]))
    passage_vectors = property(lambda self: _dense(self.kinds["passage_vectors"]))

    def __init__(
        self,
        dim: int,
        encoder_id: str,
        entity_vectors: np.ndarray,
        sentence_vectors: np.ndarray,
        passage_vectors: np.ndarray,
        encoder: Encoder | None = None,
    ):
        rows = (entity_vectors, sentence_vectors, passage_vectors)
        self._hold(dim, encoder_id, map(_held, rows), encoder)

    def _hold(self, dim, encoder_id, kinds, encoder, marked=None) -> "EmbeddingStore":
        self.dim, self.encoder_id, self.encoder = dim, encoder_id, encoder
        self.kinds: dict[str, HeldRows] = dict(zip(VECTOR_KINDS, kinds))
        # Each kind's count of marked entries, which ``extend_store`` grows.
        self.marked = tuple(marked or map(_marked, self.kinds.values()))
        return self

    @classmethod
    def _holding(cls, dim, encoder_id, kinds, encoder, marked=None) -> "EmbeddingStore":
        """A store that holds each kind as ``kinds`` gives it, ``marked``
        their counts of marked entries (counted if not given)."""
        return cls.__new__(cls)._hold(dim, encoder_id, kinds, encoder, marked)

    @property
    def row_counts(self) -> tuple[int, ...]:
        return tuple(held.shape[0] for held in self.kinds.values())

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
        counts = (graph.n_entities, graph.n_sentences, graph.n_passages)
        return self.row_counts == counts


def _node_texts(graph: TriGraph, start: Sequence[int]) -> Iterator[str]:
    """Entity canonicals, sentence texts and passage texts, each kind from
    its row in ``start`` on, one kind after another, read from the graph as
    they are asked for: sentences ``CHUNK_ROWS`` at a time."""
    entities, sentences, passages = start
    records, corpus = graph.entity_registry.records, graph.corpus
    yield from (records[i].canonical for i in range(entities, graph.n_entities))
    for lo in range(sentences, graph.n_sentences, CHUNK_ROWS):
        yield from corpus.sentence_texts(lo, lo + CHUNK_ROWS)
    yield from (corpus.passages[i].text for i in range(passages, graph.n_passages))


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
    passages are encoded. Their texts, the kinds one after another, are
    read from the graph ``CHUNK_ROWS`` at a time, one encoder call each, so
    an append calls the encoder once, and a build holds one batch of texts
    and of dense rows at a time, never a list of every text. Each kind
    grows as it is held (``_appended_rows``), its arrays as read-only views
    of growth buffers (``buffers.appended``): in place when ``store`` is the
    newest store grown from them, else by one copy, so a chain of extends
    copies amortised O(new rows). ``store`` is never changed. Row counts may
    only grow: a graph with fewer nodes of a kind than the store has rows,
    or an encoder whose contract id is not the store's, is a ConfigError,
    raised before anything is encoded.
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
    counts = (graph.n_entities, graph.n_sentences, graph.n_passages)
    if any(rows > n for rows, n in zip(store.row_counts, counts)):
        raise ConfigError(
            f"a store of {store.row_counts} rows cannot extend to a graph of "
            f"{counts} nodes: row counts may only grow"
        )
    texts = _node_texts(graph, store.row_counts)
    # Each kind's end in ``texts``.
    ends = list(accumulate(n - rows for rows, n in zip(store.row_counts, counts)))
    grown = list(zip(store.kinds.values(), store.marked))
    for lo in range(0, ends[-1], CHUNK_ROWS):
        chunk = list(islice(texts, CHUNK_ROWS))
        rows = _encode_checked(encoder, chunk, store.dim, "vectors")
        for kind, (start, end) in enumerate(zip([0, *ends], ends)):
            part = rows[max(start - lo, 0) : max(end - lo, 0)]
            if len(part):
                grown[kind] = _appended_rows(*grown[kind], part)
    kinds, marked = zip(*grown)
    return EmbeddingStore._holding(store.dim, store.encoder_id, kinds, encoder, marked)


def encode_block(rows: HeldRows) -> bytes:
    """The block of a vector file that holds ``rows``, a float32 matrix,
    dense or as its sparse rows (alike): uint64 row and value counts, one
    bitmap of ``ceil(dim / 8)`` bytes per row whose bits (most significant
    first) mark the entries whose float32 bits are not all zero, then those
    entries as float32, row by row. No rows make no block. Every bit comes
    back, ``-0.0`` included."""
    return _block(rows, 0)


def _block(held: HeldRows, start: int) -> bytes:
    """``encode_block`` of the rows of ``held`` from ``start`` on."""
    n_rows = held.shape[0] - start
    if isinstance(held, SparseRows):
        at = held.indptr[start]
        # Each row padded to whole bitmap bytes, its marks set in one flat pass.
        width = _bitmap_bytes(held.n_cols) * 8
        marked = np.zeros((n_rows, width), dtype=bool)
        slots = np.arange(0, marked.size, width).repeat(np.diff(held.indptr[start:]))
        slots += held.col_ids[at:]
        marked.reshape(-1)[slots] = True
        values = held.values[at:].astype("<f4", copy=False)
    else:
        rows = np.ascontiguousarray(held[start:], dtype="<f4")
        marked = rows.view("<u4") != 0
        values = rows[marked]
    if not n_rows:
        return b""
    bitmaps = np.packbits(marked, axis=1).tobytes()
    return _BLOCK.pack(n_rows, len(values)) + bitmaps + values.tobytes()


def write_vector_file(path: str | Path, rows: HeldRows, encoder_id: str) -> None:
    """Replace the vector file ``path`` with one holding ``rows`` as one
    block (``encode_block``), atomically (``storage.replace_file``)."""
    if not isinstance(rows, SparseRows) and np.ndim(rows) != 2:
        raise ValueError("vector file payload must be a 2-D array")
    block = encode_block(rows)
    encoded_id = encoder_id.encode("utf-8")
    header = b"".join(
        (
            MAGIC,
            _PREFIX.pack(FILE_VERSION, rows.shape[1]),
            _COUNTS.pack(rows.shape[0], len(block)),
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
    """The rows a vector file's header commits, as dense rows, and its
    encoder id. Bytes past the committed data belong to an append that
    never committed and are ignored."""
    rows, encoder_id = _read_vectors(Path(path), Path(path), (), 0)
    return _dense(rows), encoder_id


def _read_vectors(
    path: Path, tail: Path, records: Sequence[storage.TailRecord], kind: int
) -> tuple[HeldRows, str]:
    """The rows a vector file's header commits followed by part ``kind`` of
    each of ``records``, the records of ``tail`` past those rows, as a
    store holds them (as the blocks' value counts say), decoded read-only
    into the tips of growth buffers (``buffers.reserved``); and its encoder
    id. Each count is checked against its bytes before any allocation."""
    with path.open("rb") as f:
        header = _read_header(f, path)
        data = f.read(header.size)
    if len(data) < header.size:
        raise ConsistencyError(f"{path}: shorter than its committed vector data")
    dim, dense = header.dim, header.version == 1
    parts = [(path, data, header.rows)]
    for record in storage.records_past(tail, records, [header.rows], [kind]):
        part, n_rows = record.parts[kind], record.end[kind] - record.start[kind]
        # Dense rows fill their bytes; a block holds at least its bitmaps.
        needs = n_rows * (dim * 4 if dense else _bitmap_bytes(dim))
        if len(part) < needs or dense and len(part) != needs:
            raise ConsistencyError(
                f"{tail}: a record holds {len(part)} bytes of {path.name} "
                f"rows, its counts say {n_rows} rows of dim {dim}"
            )
        parts.append((tail, part, n_rows))
    n_rows = sum(n for _, _, n in parts)
    if dense:
        rows = [np.frombuffer(part, "<f4").reshape(n, dim) for _, part, n in parts]
        return _held(np.concatenate(rows, dtype=np.float32)), header.encoder_id
    counts = [_block_values(part, n, dim, where) for where, part, n in parts]
    nnz = sum(counts)
    if nnz > DENSITY_CUT * n_rows * dim:
        arrays = [held := reserved(n_rows, (dim,), np.float32)]
    else:
        index = np.int32 if nnz < 2**31 else np.int64
        sizes = ((nnz, index), (n_rows + 1, index), (nnz, np.float32))
        arrays = [reserved(size, (), dtype) for size, dtype in sizes]
        held = SparseRows(n_rows, dim, *arrays)
        held.indptr[0] = 0
    row = entry = 0
    for (where, part, n), n_values in zip(parts, counts):
        _decode_block(part, held, row, entry, where)
        row, entry = row + n, entry + n_values
    if isinstance(held, SparseRows):
        np.cumsum(held.indptr, out=held.indptr)
    for array in arrays:
        array.flags.writeable = False
    return held, header.encoder_id


def _block_values(data: bytes | memoryview, n_rows: int, dim: int, where: Path) -> int:
    """The value count of the block ``data`` (no bytes for no rows).
    ConsistencyError naming ``where`` for a block of other counts than its
    bytes or ``n_rows`` rows of ``dim`` hold."""
    if not n_rows and not len(data):
        return 0
    # Bytes too few for a block's counts hold no block of ``n_rows`` rows.
    n, n_values = _BLOCK.unpack_from(data) if len(data) >= _BLOCK.size else (-1, 0)
    if n != n_rows or _BLOCK.size + n * _bitmap_bytes(dim) + 4 * n_values != len(data):
        raise ConsistencyError(
            f"{where}: a block of {len(data)} bytes does not hold {n_rows} rows "
            f"of dim {dim} and the values its header counts"
        )
    return n_values


def _decode_block(
    data: bytes | memoryview, held: HeldRows, row: int, entry: int, where: Path
) -> None:
    """Decode the block ``data``, whose counts ``_block_values`` checked,
    into the rows of ``held`` from ``row`` on: dense rows, zeroed and given
    their values; or sparse rows, its entries at position ``entry`` of
    their columns and values on, each row's length in ``indptr[1 + row:]``.
    ConsistencyError naming ``where`` for a bitmap bit set past the dim, a
    value count that is not the bitmaps' count of set bits, or a marked
    entry whose stored bits are all zero. The bitmaps are read
    ``CHUNK_ROWS`` rows at a time; for sparse rows only the bitmap bytes
    with a set bit are unpacked, each set bit's byte and place giving its
    row and column."""
    if not len(data):
        return
    dim = held.shape[1]
    width = _bitmap_bytes(dim)
    n_rows, n_values = _BLOCK.unpack_from(data)
    bitmaps = np.frombuffer(data, np.uint8, n_rows * width, _BLOCK.size)
    bitmaps = bitmaps.reshape(n_rows, width)
    padding = (1 << (-dim % 8)) - 1  # the last bitmap byte's bits past dim
    if padding and np.any(bitmaps[:, -1] & padding):
        raise ConsistencyError(
            f"{where}: a row's bitmap sets a padding bit past dim {dim}"
        )
    values = np.frombuffer(data, "<f4", n_values, _BLOCK.size + n_rows * width)
    n_marked = 0
    for lo in range(0, n_rows, CHUNK_ROWS):
        chunk = bitmaps[lo : lo + CHUNK_ROWS]
        if isinstance(held, SparseRows):
            flat = chunk.reshape(-1)
            filled = np.flatnonzero(flat)
            set_bits = np.flatnonzero(np.unpackbits(flat[filled]).view(bool))
            marked = len(set_bits)
            if n_marked + marked <= n_values:
                chunk_rows, cols = np.divmod(filled[set_bits >> 3], width)
                held.col_ids[entry + n_marked :][:marked] = cols * 8 + (set_bits & 7)
                lengths = np.bincount(chunk_rows, minlength=len(chunk))
                held.indptr[row + lo + 1 :][: len(chunk)] = lengths
        else:
            mask = np.unpackbits(chunk, axis=1, count=dim).view(bool)
            marked = int(np.count_nonzero(mask))
            if n_marked + marked <= n_values:
                into = held[row + lo : row + lo + len(chunk)]
                into[...] = 0.0
                into[mask] = values[n_marked : n_marked + marked]
        n_marked += marked
    if n_marked != n_values:
        raise ConsistencyError(
            f"{where}: a block holds {n_values} values, its bitmaps mark {n_marked}"
        )
    if not values.view("<u4").all():
        raise ConsistencyError(
            f"{where}: a block marks an entry whose stored bits are all zero"
        )
    if isinstance(held, SparseRows):
        held.values[entry : entry + n_values] = values


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
    kinds, counts = tuple(store.kinds.values()), store.row_counts
    tail = directory / VECTOR_TAIL
    committed = _committed_rows(directory, store)
    if committed is not None and not committed.folds:
        end = committed.end
        if end != counts:
            parts = [_block(held, e) for held, e in zip(kinds, end)]
            record = VECTOR_RECORD.record(end, counts, parts)
            storage.append_tail(tail, committed.length, record)
        elif committed.passed:  # what a failed fold left
            storage.remove(tail)
        return
    # Until the directory fsync, a reader may find any mix of old and new
    # files, and the tail must extend each old one and be skipped past each
    # new one.
    if not _passed_by(tail, counts):
        storage.remove(tail)
    for name, held in zip(STORE_FILES, kinds):
        write_vector_file(directory / name, held, store.encoder_id)
    storage.sync_directory(directory)
    storage.remove(tail)


def _passed_by(tail: Path, counts: Sequence[int]) -> bool:
    """Whether every record of the vector tail ends at or before the row
    ``counts`` of each kind, so that readers skip them all past files that
    hold those rows."""
    try:
        _, last = VECTOR_RECORD.last(tail)
    except (ConsistencyError, OSError):
        return False
    return last is None or all(e <= n for e, n in zip(last.end, counts))


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
    end = []
    for name, held in zip(STORE_FILES, store.kinds.values()):
        try:
            with (directory / name).open("rb") as f:
                header = _read_header(f, directory / name)
        except (OSError, ConsistencyError):
            return None
        stored = (header.version, header.dim, header.encoder_id)
        if stored != (FILE_VERSION, held.shape[1], store.encoder_id):
            return None
        end.append(header.rows)
    # Records a fold wrote to the files end at or before the files' rows.
    passed = last is not None and all(e <= b for e, b in zip(last.end, end))
    if last is not None:
        end = list(map(max, end, last.end))
    graph = [manifest.get(k) for k in ("n_entities", "n_sentences", "n_passages")]
    if not all(type(n) is int for n in graph) or any(
        e > n for e, n in zip(end, store.row_counts)
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
    tail's records past the rows its header commits, each kind as a store
    holds it (``_read_vectors``), validating norms and (optionally)
    row-count agreement with a graph."""
    directory = Path(directory)
    tail = directory / VECTOR_TAIL
    records = VECTOR_RECORD.records(tail)
    kinds: list[HeldRows] = []
    ids: list[str] = []
    for kind, name in enumerate(STORE_FILES):
        held, encoder_id = _read_vectors(directory / name, tail, records, kind)
        validate_normalized(held, name)
        kinds.append(held)
        ids.append(encoder_id)
    if len(set(ids)) != 1:
        raise ConsistencyError(f"vector files disagree on encoder id: {ids}")
    dims = {held.shape[1] for held in kinds}
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
    store = EmbeddingStore._holding(dims.pop(), ids[0], kinds, encoder)
    if graph is not None and not store.matches(graph):
        entities, sentences, passages = store.row_counts
        raise ConsistencyError(
            "embedding store row counts do not match the graph: "
            f"store=({entities} entities, {sentences} sentences, "
            f"{passages} passages), graph="
            f"({graph.n_entities}, {graph.n_sentences}, {graph.n_passages})"
        )
    return store

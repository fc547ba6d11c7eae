"""Text encoding contract, cosine scoring, and the on-disk vector store.

Everything downstream only needs L2-normalized float32 vectors, one per
entity canonical key, sentence, and passage. The built-in ``hash`` encoder
is a fully deterministic bag-of-words hasher intended for tests and offline
experiments; real sentence encoders plug in either through the encoder
registry (in process) or by importing vector files written in the store
layout (offline).

Vector file layout (little-endian): 8-byte magic ``LRGVEC01``, uint32
format version, uint32 dim, uint64 row count, uint32 encoder-id length,
encoder id (UTF-8), then rows*dim float32 values. The header's row count
commits the file's rows, and readers ignore bytes past the rows it counts.
An append writes no vector file: it commits the new rows of all three as
one record of ``vectors.tail`` (``VECTOR_RECORD``), whose header's committed
length is its commit point (see ``storage``). ``load_store`` reads each file
followed by its rows in the tail's records past its own count, and
``save_store`` folds the tail into the files when ``trigraph.save`` folds
the graph's.
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
from typing import Any, BinaryIO, Callable, Protocol, Sequence

import numpy as np

from . import storage
from .buffers import appended
from .errors import ConfigError, ConsistencyError, EncodingError, IndexLoadError
from .trigraph import STORE_FILES, VECTOR_TAIL, TriGraph, read_manifest

MAGIC = b"LRGVEC01"
FILE_VERSION = 1
_HEADER = struct.Struct("<IIQI")  # version, dim, rows, encoder-id length
_ROWS_OFFSET = len(MAGIC) + 8  # where the uint64 row count sits
# A vector record: the rows each of ``STORE_FILES`` gains, with its row
# counts in that order.
VECTOR_RECORD = storage.TailFormat(len(STORE_FILES))

NORM_TOLERANCE = 1e-4


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
        distinct token is hashed once, and the signed counts of all rows are
        summed by one ``np.bincount`` over ``row * dim + bucket``. The sums
        are small integers, exact in float64 and float32 alike, so the rows
        equal per-token float32 adds bit for bit."""
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
        rows = np.repeat(np.arange(n, dtype=np.intp), lengths)
        acc = np.bincount(
            rows * dim + bucket_of[ids], weights=sign_of[ids], minlength=n * dim
        )
        acc = acc.reshape(n, dim).astype(np.float32)
        for row in np.flatnonzero(~acc.any(axis=1)):
            acc[row, _bucket_sign(texts[row], dim, seed)[0]] = 1.0
        norms = np.sqrt(np.einsum("ij,ij->i", acc, acc, dtype=np.float64))
        acc /= norms.astype(np.float32)[:, None]
        return acc


_ENCODER_FACTORIES: dict[str, Callable[..., Encoder]] = {}


def register_encoder(name: str, factory: Callable[..., Encoder]) -> None:
    _ENCODER_FACTORIES[name] = factory


register_encoder("hash", HashEncoder)


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


def validate_normalized(rows: np.ndarray, what: str) -> None:
    """Raise ConsistencyError unless every row is finite and L2-normalized."""
    if rows.size == 0:
        return
    non_finite = ~np.isfinite(rows).all(axis=1)
    if np.any(non_finite):
        raise ConsistencyError(
            f"{what}: {int(non_finite.sum())} vector(s) hold NaN or infinite values"
        )
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
    bad = np.abs(norms - 1.0) > NORM_TOLERANCE
    if np.any(bad):
        raise ConsistencyError(
            f"{what}: {int(bad.sum())} vector(s) are not L2-normalized"
        )


@dataclass(eq=False)
class EmbeddingStore:
    dim: int
    encoder_id: str
    entity_vectors: np.ndarray  # (n_entities, dim) float32
    sentence_vectors: np.ndarray  # (n_sentences, dim)
    passage_vectors: np.ndarray  # (n_passages, dim)
    encoder: Encoder | None = field(default=None, repr=False)

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
    copies amortised O(new rows). ``store`` is never changed. Row counts
    may only grow. An encoder whose contract id is not the store's is a
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
    return EmbeddingStore(store.dim, store.encoder_id, *grown, encoder=encoder)


def write_vector_file(path: str | Path, rows: np.ndarray, encoder_id: str) -> None:
    """Write a whole vector file, header and rows, and fsync it."""
    rows = np.ascontiguousarray(rows, dtype="<f4")
    if rows.ndim != 2:
        raise ValueError("vector file payload must be a 2-D array")
    encoded_id = encoder_id.encode("utf-8")
    header = MAGIC + _HEADER.pack(
        FILE_VERSION, rows.shape[1], rows.shape[0], len(encoded_id)
    )
    storage.append(Path(path), 0, b"".join((header, encoded_id, memoryview(rows))))


def _read_header(f: BinaryIO, path: str | Path) -> tuple[int, int, str]:
    """Read a vector file's header: its dim, committed row count and
    encoder id. ConsistencyError if it is not a readable header."""
    head = f.read(len(MAGIC) + _HEADER.size)
    if len(head) < len(MAGIC) + _HEADER.size or head[: len(MAGIC)] != MAGIC:
        raise ConsistencyError(f"{path}: not a vector store file")
    version, dim, rows, id_len = _HEADER.unpack_from(head, len(MAGIC))
    if version != FILE_VERSION:
        raise ConsistencyError(f"{path}: unsupported vector file version {version}")
    try:
        return dim, rows, f.read(id_len).decode("utf-8")
    except UnicodeDecodeError:
        raise ConsistencyError(f"{path}: encoder id is not UTF-8") from None


def read_vector_file(path: str | Path) -> tuple[np.ndarray, str]:
    """The rows a vector file's header commits, and its encoder id. Bytes
    past the counted rows belong to an append that never committed and are
    ignored."""
    return _read_vectors(Path(path), Path(path), (), 0)


def _read_vectors(
    path: Path, tail: Path, records: Sequence[storage.TailRecord], kind: int
) -> tuple[np.ndarray, str]:
    """The rows a vector file's header commits followed by part ``kind`` of
    each of ``records``, the records of ``tail`` past those rows, and its
    encoder id."""
    with path.open("rb") as f:
        dim, count, encoder_id = _read_header(f, path)
        expected = count * dim * 4
        available = os.fstat(f.fileno()).st_size - f.tell()
        if available < expected:
            raise ConsistencyError(
                f"{path}: expected {expected} bytes of vector data, got {available}"
            )
        parts = []
        for record in storage.records_past(tail, records, [count], [kind]):
            part, n_rows = record.parts[kind], record.end[kind] - record.start[kind]
            if len(part) != n_rows * dim * 4:
                raise ConsistencyError(
                    f"{tail}: a record holds {len(part)} bytes of {path.name} "
                    f"rows, its counts say {n_rows} rows of dim {dim}"
                )
            parts.append(part)
        payload = bytearray(expected + sum(len(part) for part in parts))
        f.readinto(memoryview(payload)[:expected])
    at = expected
    for part in parts:
        payload[at : at + len(part)] = part
        at += len(part)
    return np.frombuffer(payload, dtype="<f4").reshape(-1, dim), encoder_id


def save_store(store: EmbeddingStore, directory: str | Path) -> None:
    """Write the three vector files of a store.

    If the directory's manifest names the store's embedder, and the vector
    files and ``vectors.tail`` commit a prefix of the store's rows, only the
    rows past that prefix are written: one record that
    ``storage.append_tail`` commits in the tail, two fsyncs. It reads the
    manifest and the tail's last record, or each file's header when the
    tail is empty. Once the manifest's node counts have passed the tail's
    end - the ``save`` before it folded the graph - the store folds too:
    each vector file is cut back to the rows its header commits, gets the
    rows past them appended and fsynced, then its header's row count
    updated in place and fsynced; only then is the tail reset. Any other
    store is written whole: the tail removed, each file rewritten and
    fsynced, then the directory fsynced. A full ``trigraph.save`` removes
    the vector files and the tail, so the store saved after it is always
    written whole. The manifest is never written here.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = (store.entity_vectors, store.sentence_vectors, store.passage_vectors)
    tail = directory / VECTOR_TAIL
    committed = _committed_rows(directory, store)
    if committed is not None:
        length, end, folds = committed
        counts = tuple(len(rows) for rows in arrays)
        if not folds:
            if end != counts:
                parts = [_le_rows(rows[e:]).tobytes() for rows, e in zip(arrays, end)]
                record = VECTOR_RECORD.record(end, counts, parts)
                storage.append_tail(tail, length, record)
            return
        bases = _committed_files(directory, store)
        if None not in bases:
            for name, rows, (offset, stored) in zip(STORE_FILES, arrays, bases):
                path = directory / name
                storage.append(path, offset, _le_rows(rows[stored:]).tobytes())
                storage.overwrite(path, _ROWS_OFFSET, struct.pack("<Q", len(rows)))
            if length:
                storage.reset_tail(tail)
            return
    storage.remove(tail)
    for name, rows in zip(STORE_FILES, arrays):
        write_vector_file(directory / name, rows, store.encoder_id)
    storage.sync_directory(directory)


def _le_rows(rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rows, dtype="<f4")


def _committed_rows(
    directory: Path, store: EmbeddingStore
) -> tuple[int, tuple[int, ...], bool] | None:
    """If the directory's manifest names the store's embedder and the index
    commits at most the store's rows: the committed length of the vector
    tail, the row counts at its end, and whether the store folds (the
    manifest's node counts passed them). Else None."""
    try:
        manifest = read_manifest(directory)
        length, last = VECTOR_RECORD.last(directory / VECTOR_TAIL)
    except (IndexLoadError, OSError):
        return None
    if manifest.get("embedder") != {"id": store.encoder_id, "dim": store.dim}:
        return None
    if last is not None:
        end = last.end
    else:
        bases = _committed_files(directory, store)
        if None in bases:
            return None
        end = tuple(stored for _, stored in bases)
    arrays = (store.entity_vectors, store.sentence_vectors, store.passage_vectors)
    graph = [manifest.get(k) for k in ("n_entities", "n_sentences", "n_passages")]
    if not all(type(n) is int for n in graph) or any(
        e > len(rows) for e, rows in zip(end, arrays)
    ):
        return None
    return length, tuple(end), any(e < n for e, n in zip(end, graph))


def _committed_files(
    directory: Path, store: EmbeddingStore
) -> list[tuple[int, int] | None]:
    """``_committed_bytes`` of each of ``STORE_FILES`` for the store's rows."""
    arrays = (store.entity_vectors, store.sentence_vectors, store.passage_vectors)
    return [
        _committed_bytes(directory / name, rows, store.encoder_id)
        for name, rows in zip(STORE_FILES, arrays)
    ]


def _committed_bytes(
    path: Path, rows: np.ndarray, encoder_id: str
) -> tuple[int, int] | None:
    """The length of the header and committed rows of a vector file that
    holds at most ``len(rows)`` rows under ``encoder_id`` and ``rows``'s
    dim, and its row count; None for any other file."""
    try:
        with path.open("rb") as f:
            dim, stored, stored_id = _read_header(f, path)
            header_bytes = f.tell()
    except (OSError, ConsistencyError):
        return None
    if (dim, stored_id) != (rows.shape[1], encoder_id) or stored > len(rows):
        return None
    return header_bytes + stored * dim * 4, stored


def load_store(
    directory: str | Path,
    graph: TriGraph | None = None,
    encoder: Encoder | None = None,
) -> EmbeddingStore:
    """Load the three vector files, each followed by its rows in the vector
    tail's records past the rows its header commits, validating norms and
    (optionally) row-count agreement with a graph."""
    directory = Path(directory)
    tail = directory / VECTOR_TAIL
    records = VECTOR_RECORD.records(tail)
    arrays: list[np.ndarray] = []
    ids: list[str] = []
    for kind, name in enumerate(STORE_FILES):
        rows, encoder_id = _read_vectors(directory / name, tail, records, kind)
        validate_normalized(rows, name)
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
    if graph is not None and not store.matches(graph):
        raise ConsistencyError(
            "embedding store row counts do not match the graph: "
            f"store=({store.entity_vectors.shape[0]} entities, "
            f"{store.sentence_vectors.shape[0]} sentences, "
            f"{store.passage_vectors.shape[0]} passages), graph="
            f"({graph.n_entities}, {graph.n_sentences}, {graph.n_passages})"
        )
    return store

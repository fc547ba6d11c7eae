import json
import struct
from pathlib import Path

import numpy as np
import pytest

from linearrag import embedding
from linearrag.corpus import Corpus, PassageRecord, corpus_from_records, ingest
from linearrag.embedding import EncoderContract, HashEncoder, build_store
from linearrag.trigraph import build

DATA_DIR = Path(__file__).parent / "data"

# Committed fixture settings; frozen together with the files in tests/data.
CHAIN_ENCODER = {"dim": 128, "seed": 0}
MULTIHOP_ENCODER = {"dim": 256, "seed": 4}


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def make_corpus(texts, doc_keys=None, titles=None) -> Corpus:
    records = []
    for i, text in enumerate(texts):
        records.append(
            PassageRecord(
                doc_key=doc_keys[i] if doc_keys else None,
                title=titles[i] if titles else None,
                text=text,
            )
        )
    return corpus_from_records(records)


def trace_dict(trace: np.ndarray) -> dict[int, tuple[int, int | None]]:
    """An ``ActivationState.trace`` array as the mapping it encodes: each
    activated entity to its first hop and its best supporting sentence, None
    where the array holds -1 (a hop-0 seed)."""
    return {
        e: (hop, None if sentence < 0 else sentence)
        for e, (hop, sentence) in enumerate(trace.tolist())
        if hop >= 0
    }


def seed_trace(n_entities: int, seeds) -> np.ndarray:
    """The trace array of a hop-0 state whose seeds are ``seeds``."""
    trace = np.full((n_entities, 2), -1, dtype=np.int64)
    trace[list(seeds), 0] = 0
    return trace


def write_v1_vector_file(path: Path, rows: np.ndarray, encoder_id: str) -> None:
    """A vector file of version 1: magic, uint32 version and dim, uint64 row
    count, uint32 encoder-id length, the id, then the rows as dense
    little-endian float32."""
    encoded = encoder_id.encode("utf-8")
    counts = struct.pack("<IIQI", 1, rows.shape[1], len(rows), len(encoded))
    dense = np.asarray(rows, dtype="<f4").tobytes()
    path.write_bytes(embedding.MAGIC + counts + encoded + dense)


def write_jsonl(path: Path, rows) -> Path:
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n")
    return path


@pytest.fixture(scope="session")
def chain_corpus() -> Corpus:
    return ingest(DATA_DIR / "chain" / "corpus.jsonl")


@pytest.fixture(scope="session")
def chain_index(chain_corpus):
    graph = build(chain_corpus)
    store = build_store(graph, HashEncoder(**CHAIN_ENCODER))
    return graph, store


class TokenEncoder:
    """A small encoder to register under the name ``tf``: token lengths and
    positions bucketed, L2-normalized. Its contract id is ``tf:<dim>``.

    Setting the class attribute ``poison`` makes every batch it encodes
    from then on faulty: ``wide`` (one extra column), ``nan`` or
    ``unnormalized``.
    """

    poison: str | None = None

    def __init__(self, dim="16"):
        self.dim = int(dim)
        self.contract = EncoderContract(f"tf:{self.dim}", self.dim)

    def encode_batch(self, texts):
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            for j, token in enumerate(text.split()):
                out[i, (len(token) + j) % self.dim] += 1.0
            if not out[i].any():
                out[i, 0] = 1.0
            out[i] /= np.linalg.norm(out[i])
        if self.poison == "wide":
            return np.hstack([out, np.zeros((len(texts), 1), dtype=np.float32)])
        if self.poison == "nan":
            out[:, -1] = np.nan
        if self.poison == "unnormalized":
            out *= 2.0
        return out


POISONS = ("wide", "nan", "unnormalized")


@pytest.fixture()
def tf_encoder(monkeypatch):
    """Register ``TokenEncoder`` as ``tf`` for one test only."""
    monkeypatch.setattr(
        embedding, "_ENCODER_FACTORIES", dict(embedding._ENCODER_FACTORIES)
    )
    monkeypatch.setattr(TokenEncoder, "poison", None)
    embedding.register_encoder("tf", TokenEncoder)
    return TokenEncoder

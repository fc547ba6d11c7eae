import json

import numpy as np
import pytest

from linearrag.embedding import (
    EncoderContract,
    HashEncoder,
    build_store,
    cosine,
    encode_batch,
    hash_encode,
    load_store,
    make_encoder,
    read_vector_file,
    register_encoder,
    resolve_encoder,
    save_store,
    write_vector_file,
)
from linearrag.errors import ConfigError, ConsistencyError, EncodingError
from linearrag.trigraph import build

from conftest import DATA_DIR, make_corpus


class TestHashEncode:
    def test_deterministic(self):
        assert np.array_equal(hash_encode("paris", 32, 5), hash_encode("paris", 32, 5))

    def test_bag_of_words_order_invariance(self):
        a = hash_encode("paris big", 32, 5)
        b = hash_encode("big   PARIS", 32, 5)
        assert np.array_equal(a, b)

    def test_token_multiplicity_matters(self):
        a = hash_encode("paris big", 32, 5)
        b = hash_encode("paris paris big", 32, 5)
        assert not np.array_equal(a, b)

    def test_shared_token_similarity_ordering(self):
        # Computed directly: sharing "paris" must beat sharing nothing.
        seed, dim = 7, 64
        near = cosine(hash_encode("paris big", dim, seed), hash_encode("paris small", dim, seed))
        far = cosine(hash_encode("paris big", dim, seed), hash_encode("rome small", dim, seed))
        assert near > far

    def test_zero_accumulation_falls_back_to_basis(self):
        for text in ("", "...", "  \t "):
            vec = hash_encode(text, 16, 3)
            assert np.count_nonzero(vec) == 1
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-6

    def test_normalized(self):
        for text in ("a", "some longer text with words", "7 49 343"):
            assert abs(np.linalg.norm(hash_encode(text, 24, 11)) - 1.0) < 1e-6

    def test_dim_minimum(self):
        with pytest.raises(ConfigError):
            hash_encode("x", 4, 0)
        with pytest.raises(ConfigError):
            HashEncoder(dim=7)

    def test_golden_file(self):
        golden = json.loads((DATA_DIR / "hash_golden.json").read_text())
        dim, seed = golden["dim"], golden["seed"]
        for text, expected in golden["vectors"].items():
            got = hash_encode(text, dim, seed)
            assert np.array_equal(got, np.array(expected, dtype=np.float32)), text


class TestCosine:
    def test_identity(self):
        v = hash_encode("some text", 32, 1)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-6)

    def test_orthonormal_basis(self):
        e1 = np.zeros(8, dtype=np.float32)
        e2 = np.zeros(8, dtype=np.float32)
        e1[0] = 1.0
        e2[3] = 1.0
        assert cosine(e1, e2) == 0.0

    def test_long_double_oracle(self):
        # Expected values computed once with numpy longdouble arithmetic.
        cases = [
            ([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 0.5, -1.0], 0.10954451150103323),
            ([0.5, -0.25, 0.125, 1.0], [1.0, 1.0, -2.0, 0.5], 0.17354436625492495),
            ([2.0, -1.0, 0.0, 0.25], [-1.0, 2.0, -3.0, 4.0], -0.24343224778007383),
        ]
        for a, b, expected in cases:
            av = np.asarray(a, dtype=np.float32)
            bv = np.asarray(b, dtype=np.float32)
            av = av / np.linalg.norm(av)
            bv = bv / np.linalg.norm(bv)
            assert cosine(av, bv) == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self):
        a = hash_encode("alpha beta", 32, 2)
        b = hash_encode("gamma delta", 32, 2)
        assert cosine(a, b) == cosine(b, a)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(8, dtype=np.float32), np.zeros(16, dtype=np.float32))


class TestEncodeBatch:
    def test_purity(self):
        contract = EncoderContract(id="hash:32:9", dim=32)
        vectors = encode_batch(["a", "a"], contract)
        assert np.array_equal(vectors[0], vectors[1])

    def test_empty(self):
        contract = EncoderContract(id="hash:32:9", dim=32)
        assert encode_batch([], contract).shape == (0, 32)

    def test_external_unavailable(self):
        contract = EncoderContract(id="mpnet-export", dim=768)
        with pytest.raises(EncodingError, match="mpnet-export"):
            encode_batch(["text"], contract)

    def test_unknown_encoder_name(self):
        with pytest.raises(ConfigError):
            make_encoder("bert")

    def test_resolve_round_trip(self):
        encoder = HashEncoder(dim=48, seed=12)
        resolved = resolve_encoder(encoder.contract.id)
        assert resolved is not None
        assert np.array_equal(
            resolved.encode_batch(["x y z"]), encoder.encode_batch(["x y z"])
        )

    def test_resolve_external_is_none(self):
        assert resolve_encoder("all-mpnet-base-v2") is None


class TestStore:
    @pytest.fixture()
    def graph(self):
        return build(
            make_corpus(["Paris is big. Rome is old.", "Berlin builds. Paris shines!"])
        )

    def test_build_counts(self, graph):
        store = build_store(graph, HashEncoder(dim=32, seed=1))
        assert store.entity_vectors.shape == (graph.n_entities, 32)
        assert store.sentence_vectors.shape == (graph.n_sentences, 32)
        assert store.passage_vectors.shape == (graph.n_passages, 32)

    def test_round_trip(self, graph, tmp_path):
        store = build_store(graph, HashEncoder(dim=32, seed=1))
        save_store(store, tmp_path)
        loaded = load_store(tmp_path, graph)
        assert loaded.encoder_id == "hash:32:1"
        assert loaded.encoder is not None  # resolved from the id
        for name in ("entity_vectors", "sentence_vectors", "passage_vectors"):
            assert np.array_equal(getattr(loaded, name), getattr(store, name))

    def test_row_count_mismatch_is_hard_error(self, graph, tmp_path):
        store = build_store(graph, HashEncoder(dim=32, seed=1))
        save_store(store, tmp_path)
        other = build(make_corpus(["Completely different. Text here."]))
        with pytest.raises(ConsistencyError):
            load_store(tmp_path, other)

    def test_truncated_file(self, graph, tmp_path):
        store = build_store(graph, HashEncoder(dim=32, seed=1))
        save_store(store, tmp_path)
        path = tmp_path / "entities.vec"
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ConsistencyError):
            load_store(tmp_path, graph)

    def test_unnormalized_rows_rejected(self, tmp_path):
        rows = np.full((3, 8), 0.9, dtype=np.float32)
        write_vector_file(tmp_path / "v.vec", rows, "custom")
        data, encoder_id = read_vector_file(tmp_path / "v.vec")
        assert encoder_id == "custom"
        from linearrag.embedding import validate_normalized

        with pytest.raises(ConsistencyError):
            validate_normalized(data, "v.vec")

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_row_rejected_on_load(self, graph, tmp_path, poison):
        store = build_store(graph, HashEncoder(dim=32, seed=1))
        rows = store.sentence_vectors.copy()
        rows[1, 3] = poison
        save_store(store, tmp_path)
        write_vector_file(tmp_path / "sentences.vec", rows, store.encoder_id)
        with pytest.raises(ConsistencyError, match="NaN or infinite"):
            load_store(tmp_path, graph)

    def test_norm_invariant_on_persisted_store(self, graph, tmp_path):
        store = build_store(graph, HashEncoder(dim=32, seed=1))
        save_store(store, tmp_path)
        for name in ("entities.vec", "sentences.vec", "passages.vec"):
            rows, _ = read_vector_file(tmp_path / name)
            norms = np.linalg.norm(rows.astype(np.float64), axis=1)
            assert np.all(np.abs(norms - 1.0) <= 1e-4)

    def test_encoder_swap_keeps_pipeline_valid(self, graph):
        # Any encoder with matching row counts must run the full pipeline.
        from linearrag.retrieval import RetrievalConfig, retrieve

        class TfBaseline:
            """Toy deterministic encoder registered through the seam."""

            def __init__(self, dim=16):
                self.contract = EncoderContract(id="tf-baseline:16", dim=dim)

            def encode_batch(self, texts):
                out = np.zeros((len(texts), self.contract.dim), dtype=np.float32)
                for i, text in enumerate(texts):
                    for j, token in enumerate(text.split()):
                        out[i, (len(token) + j) % self.contract.dim] += 1.0
                    if not out[i].any():
                        out[i, 0] = 1.0
                    out[i] /= np.linalg.norm(out[i])
                return out

        register_encoder("tf-baseline", TfBaseline)
        encoder = make_encoder("tf-baseline")
        store = build_store(graph, encoder)
        cfg = RetrievalConfig(entity_sim_threshold=0.1, delta=0.001, top_k=2)
        ranked = retrieve("Paris shines", graph, store, cfg)
        assert len(ranked.items) == 2


class _FixedQueryEncoder:
    """Encodes every text as one fixed row (to feed ``encode_query``)."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float32)
        self.contract = EncoderContract(id="fixed", dim=8)

    def encode_batch(self, texts):
        return np.stack([self.row for _ in texts])


class TestEncodeQuery:
    @pytest.fixture()
    def store(self):
        graph = build(make_corpus(["Paris is big."]))
        return build_store(graph, HashEncoder(dim=8, seed=1))

    def test_wrong_shape_is_encoding_error(self, store):
        store.encoder = _FixedQueryEncoder(np.full(9, 1 / 3))
        with pytest.raises(EncodingError, match="shape"):
            store.encode_query("paris")

    def test_nan_vector_is_encoding_error(self, store):
        row = np.zeros(8)
        row[0] = np.nan
        store.encoder = _FixedQueryEncoder(row)
        with pytest.raises(EncodingError, match="NaN"):
            store.encode_query("paris")

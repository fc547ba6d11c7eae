import json

import numpy as np
import pytest

from linearrag.embedding import (
    EmbeddingStore,
    EncoderContract,
    HashEncoder,
    _encode_checked,
    build_store,
    cosine,
    extend_store,
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
from linearrag.trigraph import add_passages, build

from conftest import DATA_DIR, POISONS, TokenEncoder, make_corpus
from test_trigraph import make_slice


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
            HashEncoder(dim=7).encode_batch(["x"])

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


class Drifted(TokenEncoder):
    """A factory whose contract id no longer matches the id it was given."""

    def __init__(self, dim="16"):
        super().__init__(dim)
        self.contract = EncoderContract(f"tf:{self.dim}:v2", self.dim)


class TestEncodeBatch:
    def test_purity(self):
        encoder = resolve_encoder("hash:32:9")
        vectors = _encode_checked(encoder, ["a", "a"], 32, "vectors")
        assert vectors.shape == (2, 32)
        assert np.array_equal(vectors[0], vectors[1])

    def test_empty(self):
        encoder = make_encoder("hash", "32", "9")
        assert _encode_checked(encoder, [], 32, "vectors").shape == (0, 32)

    def test_external_unavailable(self):
        # An id whose name is not registered rebuilds no encoder, so a store
        # under it can neither embed queries nor grow; both errors name it.
        assert resolve_encoder("mpnet-export:768") is None
        rows = np.eye(8, dtype=np.float32)[:1]
        store = EmbeddingStore(8, "mpnet-export:768", rows, rows, rows)
        with pytest.raises(ConfigError, match="mpnet-export"):
            store.encode_query("text")
        graph = build(make_corpus(["Paris is big."]))
        with pytest.raises(ConfigError, match="mpnet-export"):
            extend_store(store, graph)

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

    def test_id_rule(self):
        # A contract id is the registry name and the factory's positional
        # arguments; the built-in defaults live on HashEncoder alone.
        assert make_encoder("hash", "64", "3").contract.id == "hash:64:3"
        assert make_encoder("hash", dim=64, seed=3).contract.id == "hash:64:3"
        assert make_encoder("hash").contract == EncoderContract("hash:256:0", 256)
        assert HashEncoder().contract == make_encoder("hash").contract

    def test_unaccepted_parameter_is_config_error(self):
        with pytest.raises(ConfigError, match="hash"):
            make_encoder("hash", dim=64, vectors_dir="x")
        with pytest.raises(ConfigError, match="hash"):
            resolve_encoder("hash:64:3:1")

    def test_registered_encoder_resolves(self, tf_encoder):
        encoder = make_encoder("tf", dim=16)
        assert encoder.contract.id == "tf:16"
        resolved = resolve_encoder("tf:16")
        assert isinstance(resolved, tf_encoder)
        assert resolved.contract == encoder.contract

    def test_rebuilt_contract_mismatch_is_rejected(self, tf_encoder):
        # hash's seed defaults to 0, so "hash:32" rebuilds "hash:32:0".
        with pytest.raises(EncodingError, match="hash:32:0"):
            resolve_encoder("hash:32")
        register_encoder("tf", Drifted)
        with pytest.raises(EncodingError, match="tf:16:v2"):
            resolve_encoder("tf:16")


TEXTS = ["Paris is big. Rome is old.", "Berlin builds. Paris shines!"]


class TestStore:
    @pytest.fixture()
    def graph(self):
        return build(make_corpus(TEXTS))

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

    def test_row_count_past_end_of_file(self, graph, tmp_path):
        # A damaged row count is refused from the file's size, before any
        # buffer of that size is allocated.
        save_store(build_store(graph, HashEncoder(dim=32, seed=1)), tmp_path)
        path = tmp_path / "passages.vec"
        raw = bytearray(path.read_bytes())
        raw[16:24] = (2**40).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ConsistencyError, match="bytes of vector data"):
            read_vector_file(path)

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

    def test_registered_encoder_survives_save_and_load(
        self, graph, tmp_path, tf_encoder
    ):
        store = build_store(graph, make_encoder("tf", dim=16))
        save_store(store, tmp_path)
        loaded = load_store(tmp_path, graph)
        assert isinstance(loaded.encoder, tf_encoder)
        assert np.array_equal(
            loaded.encode_query("Paris shines"), store.encode_query("Paris shines")
        )

    def test_mismatched_rebuild_fails_load(self, graph, tmp_path, tf_encoder):
        save_store(build_store(graph, make_encoder("tf", dim=16)), tmp_path)
        register_encoder("tf", Drifted)  # "tf:16" now rebuilds "tf:16:v2"
        with pytest.raises(EncodingError, match="tf:16:v2"):
            load_store(tmp_path, graph)

    @pytest.mark.parametrize("poison", POISONS)
    def test_build_store_rejects_bad_output(self, graph, tf_encoder, poison):
        tf_encoder.poison = poison
        with pytest.raises(EncodingError, match="tf:16"):
            build_store(graph, make_encoder("tf", dim=16))

    @pytest.mark.parametrize("poison", POISONS)
    def test_extend_store_rejects_bad_new_rows(
        self, graph, tmp_path, tf_encoder, poison
    ):
        store = build_store(graph, make_encoder("tf", dim=16))
        save_store(store, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        grown = add_passages(
            graph, make_slice(make_corpus([*TEXTS, "Vienna waltzes."]), 2, 3)
        )
        tf_encoder.poison = poison
        with pytest.raises(EncodingError, match="tf:16"):
            extend_store(store, grown)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_extend_store_refuses_another_contract_id(self, graph):
        store = build_store(graph, HashEncoder(dim=16, seed=3))
        grown = add_passages(
            graph, make_slice(make_corpus([*TEXTS, "Vienna waltzes."]), 2, 3)
        )
        encoded = []

        class Spy(HashEncoder):
            def encode_batch(self, texts):
                encoded.append(list(texts))
                return super().encode_batch(texts)

        with pytest.raises(ConfigError, match="'hash:16:4'.*'hash:16:3'"):
            extend_store(store, grown, Spy(dim=16, seed=4))
        assert encoded == []
        extended = extend_store(store, grown, Spy(dim=16, seed=3))
        assert encoded == [["vienna"], ["Vienna waltzes."], ["Vienna waltzes."]]
        assert extended.matches(grown)

    def test_build_store_is_extend_of_empty_store(self, graph):
        returned = []

        class Spy(HashEncoder):
            def encode_batch(self, texts):
                returned.append(super().encode_batch(texts))
                return returned[-1]

        encoder = Spy(dim=32, seed=1)
        empty = np.zeros((0, 32), dtype=np.float32)
        extended = extend_store(
            EmbeddingStore(32, encoder.contract.id, empty, empty, empty), graph, encoder
        )
        built = build_store(graph, encoder)
        names = ("entity_vectors", "sentence_vectors", "passage_vectors")
        for name, rows in zip(names, returned[3:]):
            assert np.array_equal(getattr(built, name), getattr(extended, name))
            assert getattr(built, name) is rows  # the encoded rows, uncopied

    def test_damaged_stored_encoder_id_is_consistency_error(self, graph, tmp_path):
        save_store(build_store(graph, HashEncoder(dim=32, seed=1)), tmp_path)
        for name in ("entities.vec", "sentences.vec", "passages.vec"):
            path = tmp_path / name
            path.write_bytes(path.read_bytes().replace(b"hash:32:1", b"hash:3x:1"))
        with pytest.raises(ConsistencyError, match="entities.vec.*hash:3x:1"):
            load_store(tmp_path, graph)
        # An attached encoder needs no rebuild.
        loaded = load_store(tmp_path, graph, HashEncoder(dim=32, seed=1))
        assert loaded.encoder_id == "hash:3x:1"

    def test_encoder_swap_keeps_pipeline_valid(self, graph, tf_encoder):
        # Any encoder with matching row counts must run the full pipeline.
        from linearrag.retrieval import RetrievalConfig, retrieve

        store = build_store(graph, make_encoder("tf"))
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

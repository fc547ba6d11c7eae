import json
import random
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis.extra.numpy import arrays
from hypothesis import strategies as st

from linearrag import embedding
from linearrag.corpus import ingest
from linearrag.embedding import (
    FILE_VERSION,
    EmbeddingStore,
    EncoderContract,
    HashEncoder,
    SparseRows,
    _bucket_sign,
    _encode_checked,
    _tokens,
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
    sparse_rows,
    write_vector_file,
)
from linearrag.errors import ConfigError, ConsistencyError, EncodingError
from linearrag.evalbench import load_qa_examples
from linearrag.retrieval import RetrievalConfig, retrieve
from linearrag.trigraph import add_passages, build, load, save

from conftest import (
    DATA_DIR,
    MULTIHOP_ENCODER,
    POISONS,
    TokenEncoder,
    make_corpus,
    write_v1_vector_file,
)
from test_trigraph import make_slice


def ref_hash_encode(text, dim, seed):
    """The scalar definition of a hash-encoded row, which ``encode_batch``
    replaced: one ``_bucket_sign`` and one float32 add per token."""
    acc = np.zeros(dim, dtype=np.float32)
    for token in _tokens(text):
        bucket, sign = _bucket_sign(token, dim, seed)
        acc[bucket] += sign
    if not np.any(acc):
        bucket, _ = _bucket_sign(text, dim, seed)
        acc[bucket] = 1.0
    return (acc / np.linalg.norm(acc)).astype(np.float32)


def cancelling_text(dim, seed):
    """Two distinct tokens that hash to one bucket with opposite signs,
    found by a seeded search over random lowercase words."""
    rng = random.Random(dim * 7919 + seed)
    seen = {}
    while True:
        token = "".join(rng.choices(string.ascii_lowercase, k=6))
        bucket, sign = _bucket_sign(token, dim, seed)
        if (bucket, -sign) in seen:
            return f"{seen[bucket, -sign]} {token}"
        seen[bucket, sign] = token


# (dim, seed) pairs: the smallest dim, a dim that is not a power of two,
# and the benchmark's encoder.
PAIRS = ((8, 0), (37, 11), (256, 0))
CANCELLING = {pair: cancelling_text(*pair) for pair in PAIRS}

# Words and characters where tokenizing is easy to get wrong: ß, İ and the
# ligature ﬁ change length when case-folded; tab and \x1f separate tokens,
# and so does _, which is not alphanumeric.
PIECES = ("ß", "İ", "ﬁ", "Straße", "STRASSE", "İstanbul", "ﬁne", "Ω", "٣", "7")
PIECES += ("Alpha", "beta", "a_b", " ", "\t", "\x1f", "_", ".", "!")
# Texts without a token: each falls back to a basis vector.
TOKENLESS = ("", "...", " \t ", "_", "\x1f", "-_-")

texts = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)
batches = st.lists(texts | st.sampled_from(TOKENLESS), min_size=1, max_size=8)


def equals_oracle(batch, dim, seed):
    got = HashEncoder(dim, seed).encode_batch(batch)
    expected = np.stack([ref_hash_encode(text, dim, seed) for text in batch])
    return got.dtype == np.float32 and np.array_equal(got, expected)


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


class TestEncodeBatchAgainstOracle:
    def test_cancelling_text_falls_back_to_basis(self):
        for (dim, seed), text in CANCELLING.items():
            assert len(_tokens(text)) == 2
            assert np.count_nonzero(ref_hash_encode(text, dim, seed)) == 1
            assert equals_oracle([text], dim, seed)

    @pytest.mark.parametrize("dim, seed", PAIRS)
    def test_tokenless_rows_between_others(self, dim, seed):
        # Rows without tokens shift no other row's counts (``np.repeat``
        # aligns each token with its row); duplicates encode alike.
        batch = ["Paris big", "", "ß İ ﬁ", "...", CANCELLING[dim, seed]]
        batch += ["Paris big", "\t\x1f_", "a_b\tfine"]
        assert equals_oracle(batch, dim, seed)
        for text in batch:
            assert equals_oracle([text], dim, seed)

    @settings(max_examples=200, deadline=None)
    @given(
        batch=batches,
        pair=st.sampled_from(PAIRS),
        cancel_at=st.none() | st.integers(0, 8),
    )
    @example(batch=["x", "", "y"], pair=(8, 0), cancel_at=None)
    @example(batch=["ß", "ß"], pair=(37, 11), cancel_at=1)
    def test_batch_equals_stacked_oracle(self, batch, pair, cancel_at):
        if cancel_at is not None:
            batch = [*batch[:cancel_at], CANCELLING[pair], *batch[cancel_at:]]
        assert equals_oracle(batch, *pair)

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_row_blocks_equal_oracle(self, monkeypatch, block_rows):
        # Blocks that split the batch, with a tokenless and a cancelling row
        # on either side of a boundary.
        monkeypatch.setattr(embedding, "ENCODE_BLOCK_ROWS", block_rows)
        batch = ["Paris big", "", CANCELLING[37, 11], "Rome old", "...", "ß ß"]
        assert equals_oracle(batch, 37, 11)


    @settings(max_examples=100, deadline=None)
    @given(before=batches, batch=batches, pair=st.sampled_from(PAIRS))
    def test_a_used_encoder_encodes_as_a_fresh_one(self, before, batch, pair):
        # The tokens an encoder keeps from earlier batches change no row,
        # and it keeps one entry per distinct token it has read.
        used = HashEncoder(*pair)
        used.encode_batch(before)
        rows = used.encode_batch(batch)
        assert rows.tobytes() == HashEncoder(*pair).encode_batch(batch).tobytes()
        assert equals_oracle(batch, *pair)
        seen = {token.encode() for text in before + batch for token in _tokens(text)}
        assert set(used._codes) == seen


# Passages to build from and append: ASCII and non-ASCII texts, so that
# sentences of either kind fall on either side of a batch boundary.
BATCH_TEXTS = [
    "Paris is big. Rome is old!",
    "Berlin builds. Paris shines? Straße İstanbul ﬁne.",
    "Alpha Beta met Gamma. Delta_Epsilon left.",
    "Rome old. Berlin new.",
    "Gamma Ray read. Ω and Ⅻ met Alpha Beta. İstanbul waits.",
]


def built_and_grown(encoder_id):
    """The stores ``build_store`` makes of ``BATCH_TEXTS`` and of its first
    two passages, and those that two ``extend_store`` calls grow from the
    latter, each from a fresh encoder."""
    corpus = make_corpus(BATCH_TEXTS)
    graph = build(make_slice(corpus, 0, 2))
    stores = [build_store(graph, resolve_encoder(encoder_id))]
    for start, stop in ((2, 3), (3, 5)):
        graph = add_passages(graph, make_slice(corpus, start, stop))
        stores.append(extend_store(stores[-1], graph))
    return [build_store(build(corpus), resolve_encoder(encoder_id)), *stores]


@pytest.mark.parametrize("encoder_id", ["hash:16:3", "rotated:16:3"])
@pytest.mark.parametrize("chunk_rows", [1, 3])
def test_batches_encode_as_one_batch(monkeypatch, encoder_id, chunk_rows):
    one_batch = built_and_grown(encoder_id)
    assert sum(one_batch[0].row_counts) <= embedding.CHUNK_ROWS
    monkeypatch.setattr(embedding, "CHUNK_ROWS", chunk_rows)
    for expected, store in zip(one_batch, built_and_grown(encoder_id), strict=True):
        assert store.row_counts == expected.row_counts
        assert store.marked == expected.marked
        for kind in embedding.VECTOR_KINDS:
            assert type(store.kinds[kind]) is type(expected.kinds[kind])
            got, want = getattr(store, kind), getattr(expected, kind)
            assert got.tobytes() == want.tobytes(), kind


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
        # A damaged row count is refused, since its rows' bitmaps alone pass
        # the committed bytes, which the file's size bounds, before any
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
        # One call: the new entities', sentences' and passages' texts in turn.
        assert encoded == [["vienna", "Vienna waltzes.", "Vienna waltzes."]]
        assert extended.matches(grown)

    def test_extend_store_refuses_a_graph_with_fewer_nodes(self, graph):
        larger = build(make_corpus([*TEXTS, "Vienna waltzes."]))
        encoded = []

        class Spy(HashEncoder):
            def encode_batch(self, texts):
                encoded.append(list(texts))
                return super().encode_batch(texts)

        store = build_store(larger, HashEncoder(dim=16, seed=3))
        assert store.row_counts == (4, 5, 3)
        with pytest.raises(ConfigError, match=r"\(4, 5, 3\).*\(3, 4, 2\)"):
            extend_store(store, graph, Spy(dim=16, seed=3))
        assert encoded == []

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
        assert len(returned) == 2  # one encoder call each
        names = ("entity_vectors", "sentence_vectors", "passage_vectors")
        ends = np.cumsum([graph.n_entities, graph.n_sentences, graph.n_passages])
        for name, rows in zip(names, np.split(returned[1], ends[:-1])):
            assert np.array_equal(getattr(built, name), getattr(extended, name))
            held = built.kinds[name]
            if isinstance(held, SparseRows):
                assert held == sparse_rows(rows)
            else:  # the encoded rows, uncopied
                assert np.shares_memory(held, rows) and np.array_equal(held, rows)

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

    def test_stored_dim_below_minimum_is_consistency_error(self, tmp_path):
        # HashEncoder refuses dim < 8 when it is built, so load_store cannot
        # rebuild one from the id and names the vector file.
        rows = np.eye(4, dtype=np.float32)
        for name in ("entities.vec", "sentences.vec", "passages.vec"):
            write_vector_file(tmp_path / name, rows, "hash:4:0")
        with pytest.raises(ConsistencyError, match="entities.vec.*hash:4:0"):
            load_store(tmp_path)

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


class Float64Encoder(HashEncoder):
    """The hash encoder's rows as float64, each nonzero entry moved by
    1e-9: values that float32 cannot hold."""

    def encode_batch(self, texts):
        rows = super().encode_batch(texts).astype(np.float64)
        return rows + 1e-9 * np.sign(rows)


def test_a_float64_encoder_answers_alike_before_and_after_a_save(tmp_path):
    """Every encode narrows to float32, as a vector file stores it, so a
    store answers the same ids with the same score bits before a save and
    after a load."""
    encoder = Float64Encoder(**MULTIHOP_ENCODER)
    graph = build(ingest(DATA_DIR / "multihop" / "corpus.jsonl"))
    store = build_store(graph, encoder)
    save(graph, tmp_path, embedder={"id": encoder.contract.id, "dim": encoder.dim})
    save_store(store, tmp_path)
    loaded = load_store(tmp_path, load(tmp_path), encoder)
    for held in (*store.kinds.values(), *loaded.kinds.values()):
        assert isinstance(held, SparseRows) and held.values.dtype == np.float32
    examples = load_qa_examples(DATA_DIR / "multihop" / "qa.jsonl")
    for question in ["Karo met Lumen", *(e.question for e in examples)]:
        before, after = (
            [
                (item.passage_id, float(item.score).hex())
                for item in retrieve(question, graph, held, RetrievalConfig()).items
            ]
            for held in (store, loaded)
        )
        assert before == after, question


# Float32 bit patterns a vector file must keep: -0.0, subnormals and the
# smallest normal.
SPECIAL_BITS = (0x80000000, 0x00000001, 0x007FFFFF, 0x80000001, 0x00800000)


@st.composite
def float32_matrices(draw):
    """A float32 matrix of any dim from 1, whose rows are each all zero,
    sparse, or fully dense with arbitrary nonzero bits (NaNs included)."""
    dim = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["zero", "sparse", "dense"]), max_size=6))
    nonzero = st.sampled_from(SPECIAL_BITS) | st.integers(1, 2**32 - 1)
    bits = draw(arrays(np.uint32, (len(kinds), dim), elements=nonzero))
    for row, kind in enumerate(kinds):
        if kind == "zero":
            bits[row] = 0
        elif kind == "sparse":
            keep = draw(st.sets(st.integers(0, dim - 1), max_size=3))
            bits[row, [c for c in range(dim) if c not in keep]] = 0
    return bits.view(np.float32)


def vector_file_header_size(encoder_id):
    """Magic, version and dim, row and byte counts, id length, id."""
    return 8 + 8 + 16 + 4 + len(encoder_id.encode())


class TestVectorFile:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=float32_matrices())
    @example(rows=np.zeros((0, 3), dtype=np.float32))
    @example(rows=np.array([[-0.0] * 9], dtype=np.float32))
    def test_round_trip_keeps_every_bit(self, tmp_path, rows):
        path = tmp_path / "v.vec"
        write_vector_file(path, rows, "custom")
        back, encoder_id = read_vector_file(path)
        # Through one mask of every entry, as a block past the density cut
        # decodes, and through its set bits alone, as any other does.
        for cut in (0.0, 1.0):
            with mock.patch.object(embedding, "DENSITY_CUT", cut):
                again, _ = read_vector_file(path)
            assert np.array_equal(again.view(np.uint32), rows.view(np.uint32))
        assert encoder_id == "custom"
        assert back.shape == rows.shape
        assert np.array_equal(back.view(np.uint32), rows.view(np.uint32))
        assert not back.flags.writeable

    def test_rows_cost_a_bitmap_and_their_nonzero_values(self, tmp_path):
        rows = np.zeros((5, 12), dtype=np.float32)
        rows[0, [0, 11]] = (0.6, 0.8)
        rows[3, 4] = -0.0
        write_vector_file(tmp_path / "v.vec", rows, "custom")
        size = (tmp_path / "v.vec").stat().st_size
        assert size == vector_file_header_size("custom") + 16 + 5 * 2 + 3 * 4

    def test_version_1_file_reads(self, tmp_path):
        rows = np.eye(3, 9, dtype=np.float32)
        write_v1_vector_file(tmp_path / "v.vec", rows, "custom")
        back, encoder_id = read_vector_file(tmp_path / "v.vec")
        assert encoder_id == "custom" and np.array_equal(back, rows)
        write_vector_file(tmp_path / "v.vec", rows, "custom")
        raw = (tmp_path / "v.vec").read_bytes()
        assert raw[8:12] == FILE_VERSION.to_bytes(4, "little") == b"\x02\0\0\0"

    # Damage to a vector file of dim 12 (two bitmap bytes per row, the last
    # four bits of each row's second byte padding), and the error it gives.
    @pytest.mark.parametrize(
        "damage, error",
        [
            ("padding", "sets a padding bit past dim 12"),
            ("zero value", "marks an entry whose stored bits are all zero"),
            ("value count", "holds 5 values, its bitmaps mark 4"),
            ("past end", "committed length .* passes the end of the file"),
        ],
    )
    def test_damage_is_named(self, tmp_path, damage, error):
        self.check_damage_is_named(tmp_path, damage, error)

    # The same damage to a block decoded through one mask of every entry,
    # as a block denser than the density cut is.
    @pytest.mark.parametrize(
        "damage, error",
        [
            ("padding", "sets a padding bit past dim 12"),
            ("zero value", "marks an entry whose stored bits are all zero"),
            ("value count", "holds 5 values, its bitmaps mark 4"),
        ],
    )
    def test_damage_to_a_dense_block_is_named(
        self, tmp_path, monkeypatch, damage, error
    ):
        monkeypatch.setattr(embedding, "DENSITY_CUT", 0.0)
        self.check_damage_is_named(tmp_path, damage, error)

    @staticmethod
    def check_damage_is_named(tmp_path, damage, error):
        rows = np.zeros((3, 12), dtype=np.float32)
        rows[0, [0, 11]] = (0.6, 0.8)
        rows[1, 5] = 1.0
        rows[2, [2, 3]] = (-0.6, 0.8)
        path = tmp_path / "v.vec"
        write_vector_file(path, rows, "custom")
        raw = bytearray(path.read_bytes())
        bitmaps = vector_file_header_size("custom") + 16
        if damage == "padding":
            raw[bitmaps + 1] |= 1  # row 0, column 15
        elif damage == "zero value":
            raw[-4:] = bytes(4)
        elif damage == "value count":
            raw[bitmaps + 2] &= ~(1 << 2)  # row 1, column 5
        else:
            raw[24:32] = len(raw).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ConsistencyError, match=rf"v\.vec: .*{error}"):
            read_vector_file(path)

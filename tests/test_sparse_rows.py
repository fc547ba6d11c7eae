"""The sparse rows a store holds a kind as (``embedding.SparseRows``) and
the query similarities scored from them (``retrieval._similarities``):
term at a time through their column-major views, and the other rows
scattered into float64 blocks, bit for bit the whole product of their
dense rows; grown along any tree of extends as a fresh derivation of the
grown rows, leaving every parent's arrays and view as they were; loaded
from the vector files as a build makes them; and never densified by a
library path."""

from unittest import mock

import numpy as np
import pytest
from scipy import sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linearrag import embedding, retrieval, trigraph
from linearrag.corpus import corpus_from_records
from linearrag.embedding import (
    VECTOR_KINDS,
    HashEncoder,
    RotatedEncoder,
    SparseRows,
    build_store,
    extend_store,
    load_store,
    save_store,
    sparse_rows,
)
from linearrag.retrieval import (
    RetrievalConfig,
    _kind_scores,
    _query_terms,
    _row_similarities,
    _scored,
    _similarities,
    dense_ranking,
    retrieve,
)
from linearrag.trigraph import add_passages, build, load, save

from test_buffers import POOL, records

# Wide enough that hash-encoded rows stay below the density cut.
ENCODER = HashEncoder(dim=128, seed=3)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def float32_values(rng, size):
    """Nonzero float32 values of every class: normal ones of mixed
    magnitude, subnormals, and values near the largest."""
    kind = rng.integers(0, 4, size=size)
    normal = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size=size)
    subnormal = rng.integers(1, 2**23, size=size) * 2.0**-149
    large = rng.uniform(1.0, 3.4, size=size) * 1e38
    values = np.choose(kind, [normal, normal, subnormal, large]).astype(np.float32)
    values *= rng.choice(np.float32([-1.0, 1.0]), size=size)
    values[values == 0.0] = np.float32(1.0)
    return values


@st.composite
def scored_rows(draw):
    """A float32 matrix and a query vector of float32 values: each row
    shares 0, 1, 2 or more nonzero entries with the query, holds other
    nonzero entries where the query is zero, and may store -0.0."""
    dim = draw(st.sampled_from([7, 8, 9, 13, 16, 31, 64]))
    n_rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_support = int(rng.integers(1, min(dim, 10) + 1))
    support = rng.choice(dim, size=n_support, replace=False)
    outside = np.setdiff1d(np.arange(dim), support)
    query = np.zeros(dim, dtype=np.float32)
    query[support] = float32_values(rng, len(support))
    query[rng.choice(outside, size=min(len(outside), 2), replace=False)] = -0.0
    vectors = np.zeros((n_rows, dim), dtype=np.float32)
    for row in vectors:
        shared = min(int(rng.choice([0, 1, 2, 3, 5])), len(support))
        at = rng.choice(support, size=shared, replace=False)
        row[at] = float32_values(rng, shared)
        others = int(rng.integers(0, len(outside) + 1))
        at = rng.choice(outside, size=others, replace=False)
        row[at] = float32_values(rng, others)
        if rng.random() < 0.3:
            row[rng.choice(dim, size=2)] = -0.0
    return vectors, query.astype(np.float64)


def as_sparse(vectors, grown_from=None):
    """``sparse_rows`` of any rows, past the density cut too."""
    with mock.patch.object(embedding, "DENSITY_CUT", 1.0):
        return sparse_rows(vectors, grown_from)


def whole_product(vectors, query_vec):
    return vectors.astype(np.float64) @ query_vec


@settings(max_examples=300, deadline=None)
@given(
    scored_rows(),
    st.sampled_from([0.0, retrieval.GATHER_SHARE, 1.0]),
    st.integers(0, 3),
    st.sampled_from([0.0, 100.0]),
)
def test_sparse_scores_have_the_full_scans_bits(
    rows_and_query, gather_share, grown, fold_fraction
):
    """A kind held as sparse rows alone: rows with 0, 1 or 2 products
    summed term at a time, the others scattered and scored whole, or all
    scanned once those pass the share. The rows are grown by their last
    rows from the sparse rows of a shorter prefix, whose view their own
    derives from: with those rows as its tail (fold fraction 100), or
    folded into its base (0). Every score has the bits of the whole float64
    product of the dense rows, and each row's count of shared entries is
    the count a product of its pattern of ones with the query's nonzero
    entries gives."""
    vectors, query_vec = rows_and_query
    parent = max(len(vectors) - grown, 0)
    prefix = as_sparse(vectors[:parent])
    prefix.by_column
    index = as_sparse(vectors[parent:], prefix)
    assert index is not None
    with mock.patch.object(trigraph, "FOLD_FRACTION", fold_fraction):
        view = index.by_column
    tailed = index.nnz - prefix.nnz <= fold_fraction * prefix.nnz
    assert view.fold == (parent if tailed else len(vectors))
    pattern = sp.csr_matrix(
        (np.ones(index.nnz, dtype=np.float32), index.col_ids, index.indptr),
        shape=vectors.shape,
    )
    counts = view.row_major_terms(query_vec, np.flatnonzero(query_vec))[1]
    assert np.array_equal(counts, pattern @ (query_vec != 0.0).astype(np.float32))
    with mock.patch.object(retrieval, "GATHER_SHARE", gather_share):
        scores, dense_rows = _scored(index, query_vec, _query_terms(query_vec))
    assert same_bits(scores, whole_product(vectors, query_vec))
    assert same_bits(scores, _similarities(vectors, query_vec))
    # A stored -0.0 meeting a nonzero query entry counts as a product too.
    marked = vectors.view(np.uint32) != 0
    products = (marked & (query_vec != 0)).sum(axis=1)
    assert np.array_equal(counts, products)
    gathered = int(np.count_nonzero(products >= 3))
    scanned = gathered > gather_share * len(vectors)
    assert dense_rows == (len(vectors) if scanned else gathered)


@settings(max_examples=200, deadline=None)
@given(rows_and_query=scored_rows(), data=st.data())
@pytest.mark.parametrize("remainder", [0, 1, 2, 3])
def test_scattered_rows_have_the_whole_products_bits(rows_and_query, data, remainder):
    """``_row_similarities`` over sparse rows alone, for a row count of each
    remainder mod 4: any ascending subset of the rows, the last ``n % 4``
    among them or not, and every row, as a ``GATHER_SHARE`` full scan does
    it, score with the bits of the whole float64 product of the dense
    rows; so does a query vector holding a value that is not float32,
    which is scanned whole."""
    vectors, query_vec = rows_and_query
    vectors = vectors[: max(len(vectors) - (len(vectors) - remainder) % 4, 0)]
    held = as_sparse(vectors)
    full = whole_product(vectors, query_vec)
    picks = data.draw(st.sets(st.integers(0, max(len(vectors) - 1, 0))))
    rows = np.array(sorted(picks & set(range(len(vectors)))), dtype=np.intp)
    assert same_bits(_row_similarities(held, query_vec, rows), full[rows])
    assert same_bits(_row_similarities(held, query_vec), full)
    with mock.patch.object(retrieval, "GATHER_SHARE", 0.0):
        scores, scanned = _scored(held, query_vec, _query_terms(query_vec))
    assert same_bits(scores, full)
    wide = query_vec.copy()
    wide[np.flatnonzero(wide)[:1]] = 0.1
    assert _query_terms(wide) is None
    scores, scanned = _scored(held, wide, _query_terms(wide))
    assert scanned == len(vectors)
    assert same_bits(scores, whole_product(vectors, wide))


@pytest.mark.parametrize(
    "value", [0.1, 1e-300, 1e300, np.inf, -np.inf, np.nan], ids=repr
)
def test_a_query_vector_not_of_finite_float32_values_is_scanned(value):
    rng = np.random.default_rng(7)
    vectors = np.zeros((9, 64), dtype=np.float32)
    vectors[:, :4] = rng.standard_normal((9, 4))
    query_vec = np.zeros(64)
    query_vec[:2] = [0.5, value]
    index = sparse_rows(vectors)
    assert index is not None
    with mock.patch.object(retrieval, "GATHER_SHARE", 1.0):
        scores, dense_rows = _scored(index, query_vec, _query_terms(query_vec))
    assert dense_rows == len(vectors)
    assert same_bits(scores, _similarities(vectors, query_vec))


def test_rows_the_index_cannot_hold_are_scanned():
    """Rows denser than the cut or holding a value that is not finite have
    no sparse rows; a store holds such a kind dense and scans it whole."""
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((6, 16)).astype(np.float32)
    assert sparse_rows(dense) is None
    sparse = np.zeros((6, 16), dtype=np.float32)
    sparse[:, 0] = 1.0
    assert sparse_rows(sparse) is not None
    sparse[3, 5] = np.inf
    assert sparse_rows(sparse) is None

    graph = build(corpus_from_records(records(POOL[:6])))
    store = build_store(graph, HashEncoder(dim=8, seed=3))
    query_vec = store.encode_query("Paris met Rome")
    with mock.patch.object(retrieval, "GATHER_SHARE", 1.0):
        for kind, held in store.kinds.items():
            if not isinstance(held, SparseRows):
                terms = _query_terms(query_vec)
                assert _kind_scores(store, kind, query_vec, terms)[1] == len(held)
        assert isinstance(store.kinds["passage_vectors"], np.ndarray)


def index_arrays(index):
    """Every array of an index, and of its view once made."""
    if index is None:
        return []
    arrays = [index.indptr, index.col_ids, index.values]
    view = index._view
    if view is not None:
        base = view.base
        arrays += [base.data, base.indices, base.indptr]
        arrays += [view.tail_rows, view.tail_cols]
    return arrays


def view_entries(view):
    """Each entry of a view of a matrix with values: its column, row and
    value, sorted."""
    slots, rows, base_at, tail_at = view._gathered(np.arange(view.base.shape[0]))
    values = [view.base.data[base_at], view.values[view.base.nnz + tail_at]]
    return sorted(zip(slots.tolist(), rows.tolist(), np.concatenate(values).tolist()))


def assert_view_is_a_fresh_derivation(view, fresh, rng):
    """The two views hold the same entries, and score a query of random
    float32 values on every column with the same bits and counts."""
    everyone = np.arange(fresh.base.shape[0])
    assert view.base_positions is fresh.base_positions is None
    assert view_entries(view) == view_entries(fresh)
    query_vec = rng.standard_normal(len(everyone)).astype(np.float32)
    query_vec = query_vec.astype(np.float64)
    terms = view.row_major_terms(query_vec, np.flatnonzero(query_vec))
    fresh_terms = fresh.row_major_terms(query_vec, np.flatnonzero(query_vec))
    for mine, theirs in zip(terms, fresh_terms):
        assert same_bits(mine, theirs)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    root=st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=4),
    steps=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ),
    fold_fraction=st.sampled_from([0.0, trigraph.FOLD_FRACTION, 100.0]),
)
def test_extended_indexes_equal_a_fresh_derivation_and_leave_parents_intact(
    root, steps, fold_fraction
):
    """A tree of extends: each step extends a random earlier store, the tip
    or not, whose sparse rows' views were made or not. Every store's sparse
    rows of a kind equal a fresh derivation from its dense rows; their view,
    derived from an ancestor's with the rows past that one as its tail, or
    folded, equals a fresh view. Growing them and making their views
    changes no byte of an earlier store's arrays or views. The
    similarities scored through them have the full scan's bits. A fold
    fraction of 0 folds every view, 100 none."""
    with mock.patch.object(trigraph, "FOLD_FRACTION", fold_fraction):
        extend_tree(root, steps)


def extend_tree(root, steps):
    rng = np.random.default_rng(len(steps))
    graph = build(corpus_from_records(records([POOL[i] for i in root])))
    nodes = [(graph, build_store(graph, ENCODER))]
    snapshots = []  # (sparse rows, copies of their arrays)

    def snapshot(store):
        for index in store.kinds.values():
            snapshots.append((index, [a.copy() for a in index_arrays(index)]))

    snapshot(nodes[0][1])
    for pick, picks, query_parent in steps:
        graph, store = nodes[pick % len(nodes)]
        if query_parent:
            query_vec = store.encode_query(" ".join(POOL[:2]))
            for kind in VECTOR_KINDS:
                _kind_scores(store, kind, query_vec, _query_terms(query_vec))
            snapshot(store)
        slice_ = corpus_from_records(
            records([POOL[i] for i in picks]),
            passage_id_base=graph.n_passages,
            sentence_id_base=graph.n_sentences,
        )
        graph = add_passages(graph, slice_)
        nodes.append((graph, extend_store(store, graph)))
        snapshot(nodes[-1][1])
    for _, store in reversed(nodes):
        query_vec = store.encode_query(" ".join(POOL[:2]))
        for kind in VECTOR_KINDS:
            index, rows = store.kinds[kind], getattr(store, kind)
            assert isinstance(index, SparseRows), kind
            fresh = sparse_rows(rows)
            assert index == fresh, kind
            scores = _kind_scores(store, kind, query_vec, _query_terms(query_vec))[0]
            assert same_bits(scores, _similarities(rows, query_vec)), kind
            assert_view_is_a_fresh_derivation(
                index.by_column, fresh.by_column, rng
            )
        for index, copies in snapshots:
            for now, then in zip(index_arrays(index), copies):
                assert same_bits(now, then)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cuts=st.lists(st.integers(1, len(POOL) - 1), max_size=4, unique=True).map(sorted),
    dim=st.sampled_from([8, 128]),
)
def test_loaded_indexes_equal_built_ones(tmp_path_factory, cuts, dim):
    """Vector files followed by appended tail records load each kind as a
    build holds the same rows. At dim 128 every kind is decoded straight
    from the files' bitmaps into its sparse rows; at dim 8 the passage
    blocks pass the density cut and load as dense rows. Neither derives
    sparse rows from dense ones."""
    encoder = HashEncoder(dim=dim, seed=3)
    directory = tmp_path_factory.mktemp("index")
    bounds = [0, *cuts, len(POOL)]
    graph = store = None
    for start, stop in zip(bounds, bounds[1:]):
        piece = corpus_from_records(
            records(POOL[start:stop]),
            passage_id_base=graph.n_passages if graph else 0,
            sentence_id_base=graph.n_sentences if graph else 0,
        )
        graph = build(piece) if graph is None else add_passages(graph, piece)
        if store is None:
            store = build_store(graph, encoder)
        else:
            store = extend_store(store, graph)
        save(graph, directory, embedder={"id": encoder.contract.id, "dim": dim})
        save_store(store, directory)
    built = build_store(build(corpus_from_records(records(POOL))), encoder)
    underived = mock.patch.object(embedding, "sparse_rows", side_effect=AssertionError)
    with underived:
        loaded = load_store(directory, load(directory))
    for kind in VECTOR_KINDS:
        held, expected = loaded.kinds[kind], built.kinds[kind]
        assert type(held) is type(expected), kind
        if isinstance(expected, SparseRows):
            assert held == expected, kind
        else:
            assert np.array_equal(held, expected), kind
    dense = [not isinstance(held, SparseRows) for held in built.kinds.values()]
    assert dense[2] if dim == 8 else not any(dense)


def test_a_dense_stand_in_store_keeps_no_index_and_scores_the_whole_product():
    """Rows of the rotated encoder hold every entry, so the store holds
    every kind dense, and each kind's similarities, scanned whole, have the
    bits of the whole float64 product."""
    graph = build(corpus_from_records(records(POOL)))
    store = build_store(graph, RotatedEncoder(dim=64, seed=5))
    query_vec = store.encode_query(" ".join(POOL[:2]))
    assert np.count_nonzero(query_vec) == len(query_vec)
    for kind in VECTOR_KINDS:
        vectors = getattr(store, kind)
        assert store.kinds[kind] is vectors, kind
        terms = _query_terms(query_vec)
        scores, dense_rows = _kind_scores(store, kind, query_vec, terms)
        assert dense_rows == len(vectors) > 0
        assert same_bits(scores, vectors.astype(np.float64) @ query_vec), kind


def test_no_library_path_densifies_a_sparse_kind(tmp_path):
    """``SparseRows.to_dense`` is the one densifying helper: a spy on it
    sees no call while a store of sparse kinds is built, grown, saved whole
    and by a tail record, loaded, matched to its graph and queried on the
    graph path and both fallbacks; the public row fields, which the tests'
    dense oracles read, go through it on each access."""
    graph = build(corpus_from_records(records(POOL[:8])))
    store = build_store(graph, ENCODER)
    assert all(isinstance(held, SparseRows) for held in store.kinds.values())
    embedder = {"id": ENCODER.contract.id, "dim": ENCODER.dim}
    cfg = RetrievalConfig(delta=0.01)
    question = " ".join(POOL[:2])
    spy = mock.patch.object(SparseRows, "to_dense", side_effect=AssertionError)
    # The slice is appended to the tail files whatever its share of them.
    unfolded = mock.patch.object(trigraph, "FOLD_FRACTION", 100.0)
    with spy as densify, unfolded:
        save(graph, tmp_path, embedder=embedder)
        save_store(store, tmp_path)
        slice_ = corpus_from_records(
            records(POOL[8:11]),
            passage_id_base=graph.n_passages,
            sentence_id_base=graph.n_sentences,
        )
        grown_graph = add_passages(graph, slice_)
        grown = extend_store(store, grown_graph)
        save(grown_graph, tmp_path, embedder=embedder)
        save_store(grown, tmp_path)
        assert (tmp_path / trigraph.VECTOR_TAIL).exists()
        loaded = load_store(tmp_path, load(tmp_path))
        assert loaded.matches(grown_graph) and grown.matches(grown_graph)
        answers = []
        for held in (grown, loaded):
            answers.append(retrieve(question, grown_graph, held, cfg))
            for fallback in ("dense", "empty"):
                unseeded = RetrievalConfig(entity_sim_threshold=2.0, fallback=fallback)
                assert retrieve(question, grown_graph, held, unseeded).fallback_used
            dense_ranking(held.encode_query(question), held, 3)
        assert answers[0] == answers[1] and not answers[0].fallback_used
    assert not densify.called
    counted = mock.patch.object(
        SparseRows, "to_dense", autospec=True, side_effect=SparseRows.to_dense
    )
    with counted as densify:
        for kind in VECTOR_KINDS:
            assert np.array_equal(getattr(loaded, kind), getattr(grown, kind))
    assert densify.call_count == 2 * len(VECTOR_KINDS)

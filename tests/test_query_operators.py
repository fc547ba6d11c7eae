"""The per-graph query operators against scalar transcriptions and oracles.

``propagate``, ``passage_seed_scores`` and ``ppr`` run over arrays and
sparse operators that a ``TriGraph`` makes once, on first use, or derives
from those of the graph it grew from. These tests check them on small
random tri-graphs against element-by-element loops (``np.maximum.at``,
``np.add.at`` and a dict walk over the mention entries) and against the
dense PPR fixed point; check that a grown graph's operators give the bits of
a fresh build's and never change those of the graph it grew from; and check
the hops from ``initial_activation``'s sentence similarities and the top-k
selection against the scalar oracle on the full scan and the full sort.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from linearrag.corpus import Corpus, Passage
from linearrag.embedding import HashEncoder, build_store, extend_store
from linearrag.evalbench import generate_synthetic_corpus
from linearrag import trigraph
from linearrag.retrieval import (
    ActivationState,
    EntityLevel,
    RetrievalConfig,
    _frontier_gate,
    _row_similarities,
    _similarities,
    _top_k,
    initial_activation,
    passage_seed_scores,
    ppr,
    propagate,
    retrieve,
)
from linearrag.extraction import EntityRecord, EntityRegistry, ExtractorContract
from linearrag.trigraph import SparseBinaryMatrix, TriGraph, add_passages, build

from conftest import seed_trace, trace_dict
from test_acceptance import random_entity_corpus
from test_retrieval import dense_ppr_oracle
from test_trigraph import make_slice

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Few distinct values, so that gates, masses and maxima tie often; the
# zero sigma gives signed zeros in the sentence mass.
ACTIVATIONS = (0.0, 0.25, 0.5, 1.0)
SIGMAS = (-0.5, 0.0, 0.25, 0.5)


@st.composite
def random_graphs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corpus = random_entity_corpus(
        rng,
        n_passages=draw(st.integers(1, 12)),
        pool_size=draw(st.integers(1, 10)),
    )
    return build(corpus), rng


def random_state(graph, rng) -> ActivationState:
    """Discrete activations and sigmas; the frontier is a random subset of
    the activated entities."""
    a = rng.choice(ACTIVATIONS, size=graph.n_entities)
    sigma = rng.choice(SIGMAS, size=graph.n_sentences)
    frontier = frozenset(
        int(e) for e in np.nonzero(a > 0.0)[0] if rng.random() < 0.7
    )
    return ActivationState(
        a=a,
        sigma=sigma,
        hop=0,
        frontier=frontier,
        trace=seed_trace(graph.n_entities, frontier),
        query_vec=np.zeros(8),
    )


def scalar_gate(graph, a, frontier):
    rows, cols = graph.mention.row_ids, graph.mention.col_ids
    in_frontier = np.zeros(graph.n_entities, dtype=bool)
    in_frontier[list(frontier)] = True
    selected = in_frontier[cols]
    gate = np.zeros(graph.n_sentences, dtype=np.float64)
    np.maximum.at(gate, rows[selected], a[cols[selected]])
    return gate


def scalar_candidates(graph, u):
    candidates = np.zeros(graph.n_entities, dtype=np.float64)
    np.add.at(candidates, graph.mention.col_ids, u[graph.mention.row_ids])
    return candidates


def scalar_best_sentence(graph, u, changed):
    best = {}
    for s, e in zip(graph.mention.row_ids.tolist(), graph.mention.col_ids.tolist()):
        if not changed[e]:
            continue
        mass = u[s]
        if e not in best or mass > best[e][0]:
            best[e] = (mass, s)
    return {e: s for e, (_, s) in best.items()}


def scalar_propagate(state, graph, cfg):
    """``propagate`` written entry by entry."""
    u = state.sigma * scalar_gate(graph, state.a, state.frontier)
    candidates = scalar_candidates(graph, u)
    retained = candidates > cfg.delta
    a_new = np.where(retained, np.maximum(candidates, state.a), state.a)
    changed = a_new > state.a
    trace = trace_dict(state.trace)
    best = scalar_best_sentence(graph, u, changed)
    for e in np.nonzero(changed)[0].tolist():
        trace.setdefault(e, (state.hop + 1, best.get(e)))
    return a_new, frozenset(np.nonzero(changed)[0].tolist()), trace


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# At most 1300 x 7 values: below the size at which OpenBLAS splits a
# matrix-vector product across threads. A split product groups rows by the
# thread count, so only a single-threaded one is a bit-exact reference.
# Every residue of n % 4 is asked at small sizes and at block boundaries:
# the last n % 4 rows are scored after filler rows.
@pytest.mark.parametrize(
    "n_rows", [0, 1, 2, 3, 4, 5, 6, 7, 511, 512, 513, 515, 1024, 1025, 1027, 1300]
)
def test_blockwise_similarities_equal_whole_matrix_cast(n_rows):
    dim = 7
    rng = np.random.default_rng(n_rows)
    vectors = rng.standard_normal((n_rows, dim)).astype(np.float32)
    query_vec = rng.standard_normal(dim)
    assert same_bits(
        _similarities(vectors, query_vec), vectors.astype(np.float64) @ query_vec
    )


@PROPERTY_SETTINGS
@given(random_graphs(), st.data())
def test_gate_mass_and_best_sentence_equal_scalar_code(graph_rng, data):
    graph, rng = graph_rng
    state = random_state(graph, rng)
    frontier_ids = np.array(sorted(state.frontier), dtype=np.intp)
    gate = _frontier_gate(graph, state.a, frontier_ids)
    assert np.array_equal(gate, scalar_gate(graph, state.a, state.frontier))

    u = state.sigma * gate
    n_e = graph.n_entities
    op = graph.mention_by_entity
    assert same_bits(op.dot(u), scalar_candidates(graph, u))
    # Continuous masses round differently in every summation order.
    noise = rng.standard_normal(graph.n_sentences)
    assert same_bits(op.dot(noise), scalar_candidates(graph, noise))

    changed = rng.random(n_e) < 0.6
    entities = np.flatnonzero(changed)
    best = scalar_best_sentence(graph, u, changed)
    assert graph.mention_by_entity.best_rows(u, entities).tolist() == [
        best.get(e, -1) for e in entities.tolist()
    ]

    cfg = RetrievalConfig(delta=data.draw(st.sampled_from([0.0, 0.1, 0.3])))
    advanced = propagate(state, graph, cfg)
    if state.frontier:
        a_new, frontier, trace = scalar_propagate(state, graph, cfg)
        assert same_bits(advanced.a, a_new)
        assert advanced.frontier == frontier
        assert trace_dict(advanced.trace) == trace


@PROPERTY_SETTINGS
@given(random_graphs(), st.sampled_from([0.0, 0.1, 0.3]))
def test_propagate_leaves_its_input_state_unchanged(graph_rng, delta):
    graph, rng = graph_rng
    state = random_state(graph, rng)
    cfg = RetrievalConfig(delta=delta)
    for _ in range(2):
        a, trace = state.a.copy(), state.trace.copy()
        advanced = propagate(state, graph, cfg)
        assert same_bits(state.a, a)
        assert same_bits(state.trace, trace)
        state = advanced


@PROPERTY_SETTINGS
@given(random_graphs())
def test_log_occurrence_follows_entity_major_contain_entries(graph_rng):
    """The log counts ``passage_seed_scores`` gathers at the entity-major
    view's positions are those of the entries the view names."""
    graph, _ = graph_rng
    view = graph.contain_by_entity
    entities, passages, positions = view.entries(np.arange(graph.n_entities))
    log_occurrence = np.log1p(graph.occurrence_counts[positions])
    assert len(log_occurrence) == len(positions) == graph.contain.nnz
    at = {(p, e): i for i, (e, p) in enumerate(zip(entities, passages))}
    counts = graph.occurrence_counts.tolist()
    for position, ((p, e), count) in enumerate(zip(graph.contain.pairs(), counts)):
        assert positions[at[p, e]] == position
        assert log_occurrence[at[p, e]] == np.log1p(count)


@PROPERTY_SETTINGS
@given(random_graphs(), st.floats(0.0, 1.0), st.floats(0.5, 3.0))
def test_passage_seed_scores_match_scalar_formula(graph_rng, lambda_, weight):
    graph, rng = graph_rng
    store = build_store(graph, HashEncoder(dim=16, seed=int(rng.integers(0, 100))))
    state = random_state(graph, rng)
    state = ActivationState(
        a=state.a,
        sigma=state.sigma,
        hop=0,
        frontier=state.frontier,
        trace=state.trace,
        query_vec=store.encode_query("Ent01 Ent02 met"),
    )
    overrides = {
        e: float(rng.choice([1.0, 1.5, 4.0])) for e in range(graph.n_entities)
    }
    cfg = RetrievalConfig(lambda_=lambda_, passage_weight=weight)
    seeds = passage_seed_scores(state, graph, store, EntityLevel(overrides), cfg)

    counts = dict(zip(graph.contain.pairs(), graph.occurrence_counts.tolist()))
    for pid in range(graph.n_passages):
        sim = float(np.dot(store.passage_vectors[pid].astype(np.float64), state.query_vec))
        inner = 0.0
        for (p, e), count in counts.items():
            if p == pid and state.a[e] > 0:
                inner += state.a[e] * math.log(1 + count) / overrides[e]
        expected = (lambda_ * max(sim, 0.0) + math.log(1 + inner)) * weight
        assert seeds[pid] == pytest.approx(expected, rel=1e-12, abs=1e-300)


@PROPERTY_SETTINGS
@given(random_graphs())
def test_ppr_matches_dense_fixed_point(graph_rng):
    graph, rng = graph_rng
    passage_seeds = rng.random(graph.n_passages)
    entity_seeds = rng.random(graph.n_entities) * (rng.random(graph.n_entities) < 0.5)
    cfg = RetrievalConfig(ppr_tol=1e-13, ppr_max_iters=5000)
    importance = ppr(graph, entity_seeds, passage_seeds, cfg)
    oracle = dense_ppr_oracle(graph, passage_seeds, entity_seeds, cfg.damping)
    assert np.max(np.abs(importance - oracle)) < 1e-8


def bipartite_graph(n_passages, n_entities, pairs):
    """A TriGraph whose contain matrix holds ``pairs``; ``ppr`` reads nothing
    else, so here an entity, too, may be isolated."""
    rows, cols = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
    contain = SparseBinaryMatrix.sorted_entries(
        np.ascontiguousarray(rows), np.ascontiguousarray(cols), n_passages, n_entities
    )
    return TriGraph(
        corpus=Corpus(
            passages=tuple(Passage(i, str(i), None, "x") for i in range(n_passages)),
            sentences=np.empty((0, 3), dtype=np.int64),
            source_digest="",
        ),
        contain=contain,
        mention=contain,
        entity_registry=EntityRegistry(
            records=tuple(EntityRecord(i, f"e{i}", ()) for i in range(n_entities))
        ),
        occurrence_counts=np.ones(contain.nnz, dtype=np.int64),
        extractor=ExtractorContract.make(),
    )


def mention_graph(n_sentences, n_entities, pairs):
    """A TriGraph of one passage whose mention matrix holds the (sentence,
    entity) ``pairs``; stage 1 reads nothing else, so an entity may have no
    mention at all."""
    rows, cols = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
    mention = SparseBinaryMatrix.sorted_entries(
        np.ascontiguousarray(rows), np.ascontiguousarray(cols), n_sentences, n_entities
    )
    mentioned, counts = np.unique(cols, return_counts=True)
    contain = SparseBinaryMatrix.sorted_entries(
        np.zeros(len(mentioned), dtype=np.int64), mentioned, 1, n_entities
    )
    return TriGraph(
        corpus=Corpus(
            passages=(Passage(0, "0", None, "x"),),
            sentences=np.tile(np.array([0, 0, 1], dtype=np.int64), (n_sentences, 1)),
            source_digest="",
        ),
        contain=contain,
        mention=mention,
        entity_registry=EntityRegistry(
            records=tuple(EntityRecord(i, f"e{i}", ()) for i in range(n_entities))
        ),
        occurrence_counts=counts.astype(np.int64),
        extractor=ExtractorContract.make(),
    )


@pytest.mark.parametrize(
    "mass, best",
    [
        ([0.1, 0.5, 0.5, 0.2], 1),  # equal mass in sentences 1 and 2
        ([-0.0, 0.0, -0.5, -0.0], 0),  # -0.0 first, then +0.0
        ([-0.5, 0.0, -0.0, -0.5], 1),  # +0.0 first, then -0.0
    ],
)
def test_best_sentence_ties_go_to_lowest_id(mass, best):
    graph = mention_graph(4, 2, [(s, 0) for s in range(4)] + [(3, 1)])
    u = np.array(mass)
    changed = np.array([True, False])
    found = graph.mention_by_entity.best_rows(u, np.flatnonzero(changed))
    assert found.tolist() == [best]
    assert scalar_best_sentence(graph, u, changed) == {0: best}


def test_trace_takes_lowest_sentence_of_equal_mass():
    graph = mention_graph(3, 2, [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
    state = ActivationState(
        a=np.array([1.0, 0.0]),
        sigma=np.array([0.9, 0.3, 0.3]),
        hop=0,
        frontier=frozenset({0}),
        trace=seed_trace(2, {0}),
        query_vec=np.zeros(8),
    )
    advanced = propagate(state, graph, RetrievalConfig(delta=0.1))
    trace = trace_dict(advanced.trace)
    assert trace == {0: (0, None), 1: (1, 1)}
    assert trace == scalar_propagate(state, graph, RetrievalConfig(delta=0.1))[2]


@pytest.mark.parametrize(
    "frontier", [{0, 2}, {2}, {3}, {0, 3}, {0, 1, 2, 3}]
)
def test_frontier_entities_without_mentions(frontier):
    """Entities 2 and 3 have empty operator rows, one in the middle and one
    at the end of the operator."""
    graph = mention_graph(3, 4, [(0, 0), (0, 1), (1, 1), (2, 0)])
    assert graph.mention_by_entity.row_lengths().tolist() == [2, 2, 0, 0]
    state = ActivationState(
        a=np.array([0.5, 0.25, 1.0, 1.0]),
        sigma=np.array([0.5, 0.25, 0.5]),
        hop=0,
        frontier=frozenset(frontier),
        trace=seed_trace(4, frontier),
        query_vec=np.zeros(8),
    )
    frontier_ids = np.array(sorted(state.frontier), dtype=np.intp)
    gate = _frontier_gate(graph, state.a, frontier_ids)
    assert np.array_equal(gate, scalar_gate(graph, state.a, state.frontier))
    u = state.sigma * gate
    changed = np.ones(4, dtype=bool)
    best = scalar_best_sentence(graph, u, changed)
    assert graph.mention_by_entity.best_rows(u, np.arange(4)).tolist() == [
        best.get(e, -1) for e in range(4)
    ]

    cfg = RetrievalConfig(delta=0.0)
    advanced = propagate(state, graph, cfg)
    a_new, new_frontier, trace = scalar_propagate(state, graph, cfg)
    assert same_bits(advanced.a, a_new)
    assert advanced.frontier == new_frontier
    assert trace_dict(advanced.trace) == trace


@st.composite
def bipartite_ppr_inputs(draw):
    """Random bipartite graphs, isolated nodes on either side included, with
    seeds that are often 0 and sometimes 0 on a whole side."""
    n_p, n_e = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    pairs = draw(
        st.sets(st.tuples(st.integers(0, n_p - 1), st.integers(0, n_e - 1)))
    )
    weights = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    passage_seeds = np.array(draw(st.lists(weights, min_size=n_p, max_size=n_p)))
    entity_seeds = np.array(draw(st.lists(weights, min_size=n_e, max_size=n_e)))
    zero_side = draw(st.sampled_from(("none", "passages", "entities")))
    if zero_side == "passages":
        passage_seeds[:] = 0.0
    elif zero_side == "entities":
        entity_seeds[:] = 0.0
    if not (passage_seeds.sum() + entity_seeds.sum()) > 0.0:
        (entity_seeds if zero_side == "passages" else passage_seeds)[0] = 1.0
    damping = draw(st.floats(0.05, 0.95))
    return bipartite_graph(n_p, n_e, pairs), passage_seeds, entity_seeds, damping


@PROPERTY_SETTINGS
@given(bipartite_ppr_inputs())
def test_ppr_matches_dense_fixed_point_on_bipartite_graphs(inputs):
    graph, passage_seeds, entity_seeds, damping = inputs
    cfg = RetrievalConfig(damping=damping, ppr_tol=1e-12)
    importance = ppr(graph, entity_seeds, passage_seeds, cfg)
    oracle = dense_ppr_oracle(graph, passage_seeds, entity_seeds, damping)
    assert np.max(np.abs(importance - oracle)) < 1e-9


def test_append_after_queries_does_not_reuse_stale_operators():
    whole, examples = generate_synthetic_corpus(
        n_passages=60, avg_sentences=3, entity_pool=30, seed=11, n_chains=4
    )
    cfg = RetrievalConfig(delta=0.01)
    encoder = HashEncoder(dim=64, seed=2)
    questions = [example.question for example in examples]

    graph = build(make_slice(whole, 0, 40))
    store = build_store(graph, encoder)
    before = [retrieve(q, graph, store, cfg) for q in questions]
    assert any(not ranked.fallback_used for ranked in before)
    assert graph.mention._view is not None
    assert graph.contain._view is not None
    assert "degree_roots" in vars(graph)

    grown = add_passages(graph, make_slice(whole, 40, 60))
    grown_store = extend_store(store, grown)
    rebuilt = build(whole)
    rebuilt_store = build_store(rebuilt, encoder)
    for q in questions:
        assert retrieve(q, grown, grown_store, cfg) == retrieve(
            q, rebuilt, rebuilt_store, cfg
        )
    assert [retrieve(q, graph, store, cfg) for q in questions] == before


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 320),
    st.integers(0, 3),
    st.sampled_from([7, 8, 256]),
    st.sampled_from([1, 2, 3, 5, 513]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_gathered_similarities_equal_the_full_scan(
    quads, remainder, dim, size, with_last_rows, seed
):
    """Any ascending set of rows, the matrix's last ``n % 4`` rows among
    them or not, scores with the bits of ``_similarities``' full scan."""
    n_rows = max(4 * quads + remainder, 1)
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n_rows, dim)).astype(np.float32)
    query_vec = rng.standard_normal(dim)
    rows = rng.choice(n_rows, size=min(size, n_rows), replace=False)
    if with_last_rows:
        rows = np.concatenate([rows, np.arange(n_rows - n_rows % 4, n_rows)])
    rows = np.unique(rows)
    assert same_bits(
        _row_similarities(vectors, query_vec, rows),
        _similarities(vectors, query_vec)[rows],
    )


SCORES = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 3.0, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(SCORES, max_size=40), st.integers(1, 45))
def test_top_k_equals_the_full_sort(values, k):
    """Ties (+0.0 and -0.0 among them), NaN and k at or past the number of
    scores rank as the full ``lexsort`` ranks them."""
    scores = np.array(values, dtype=np.float64)
    expected = np.lexsort((np.arange(len(scores)), -scores))[:k]
    assert _top_k(scores, k).tolist() == expected.tolist()


def entity_query(graph, rng) -> str:
    """A query naming a few of the graph's entities among other words."""
    names = [r.surfaces[0] for r in graph.entity_registry.records] or ["nobody"]
    picked = rng.choice(names, size=int(rng.integers(1, 4))).tolist()
    return " ".join([*picked, "met", "nobody"])


@PROPERTY_SETTINGS
@given(random_graphs(), st.sampled_from([0.0, 0.05, 0.3]), st.integers(1, 4))
def test_hops_from_initial_activation_equal_the_scalar_oracle_on_dense_sigma(
    graph_rng, delta, max_hops
):
    """A state from ``initial_activation``, whose sigma is scored whole
    through the store's sparse index, holds the full scan's bits in sigma
    and propagates to the activations, frontier and trace the scalar oracle
    gives on the dense sigma."""
    graph, rng = graph_rng
    store = build_store(graph, HashEncoder(dim=16, seed=int(rng.integers(0, 100))))
    cfg = RetrievalConfig(entity_sim_threshold=0.1, delta=delta, max_hops=max_hops)
    state = initial_activation(entity_query(graph, rng), graph, store, cfg)
    dense = _similarities(store.sentence_vectors, state.query_vec)
    if state.frontier:
        assert same_bits(state.sigma, dense)
    while state.frontier and state.hop < cfg.max_hops:
        oracle = ActivationState(
            a=state.a,
            sigma=dense,
            hop=state.hop,
            frontier=state.frontier,
            trace=state.trace,
            query_vec=state.query_vec,
        )
        a_new, frontier, trace = scalar_propagate(oracle, graph, cfg)
        advanced = propagate(state, graph, cfg)
        assert same_bits(advanced.a, a_new)
        assert advanced.frontier == frontier
        assert trace_dict(advanced.trace) == trace
        assert advanced.sigma is state.sigma
        state = advanced


VIEWS = ("mention_by_entity", "contain_by_entity")


def operator_arrays(graph) -> list[np.ndarray]:
    """Every array of the query operators ``graph`` has made: the views
    cached on its incidences, and its degree roots."""
    arrays = []
    for matrix in (graph.mention, graph.contain):
        view = matrix._view
        if view is not None:
            arrays += [
                view.base.data,
                view.base.indices,
                view.base.indptr,
                view.base_positions,
                view.tail_rows,
                view.tail_cols,
            ]
    return arrays + list(vars(graph).get("degree_roots", ()))


def assert_c_product_is_scipys(graph, rng):
    """The contain view's product with C has the bits of scipy's CSR
    product of ``contain``, made here from its arrays."""
    contain = graph.contain
    c = sp.csr_matrix(
        (np.ones(contain.nnz), contain.col_ids, contain.indptr),
        shape=(contain.n_rows, contain.n_cols),
    )
    v = rng.standard_normal(graph.n_entities)
    assert same_bits(graph.contain_by_entity.row_major_dot(v), c @ v)


def assert_operators_equal_a_fresh_build(grown, fresh, rng):
    for name in VIEWS:
        view, fresh_view = getattr(grown, name), getattr(fresh, name)
        n_rows = view.base.shape[1]
        z = rng.standard_normal(n_rows)
        assert same_bits(view.dot(z), fresh_view.dot(z))
        everyone = np.arange(grown.n_entities)
        assert sorted(zip(*(a.tolist() for a in view.entries(everyone)))) == sorted(
            zip(*(a.tolist() for a in fresh_view.entries(everyone)))
        )
        assert np.array_equal(view.row_lengths(), fresh_view.row_lengths())
        # Few distinct values, so that the best rows tie often.
        z = rng.choice([-0.0, 0.0, 0.5, 1.0], size=n_rows)
        values = rng.choice([-1.0, 0.25, 0.5, 1.0], size=grown.n_entities)
        assert same_bits(
            view.row_max(everyone, values), fresh_view.row_max(everyone, values)
        )
        assert np.array_equal(
            view.best_rows(z, everyone), fresh_view.best_rows(z, everyone)
        )
    assert_c_product_is_scipys(grown, rng)
    v = rng.standard_normal(grown.n_entities)
    assert same_bits(
        grown.contain_by_entity.row_major_dot(v),
        fresh.contain_by_entity.row_major_dot(v),
    )
    for mine, theirs in zip(grown.degree_roots, fresh.degree_roots):
        assert same_bits(mine, theirs)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=6),
    st.sampled_from([0.0, trigraph.FOLD_FRACTION, 100.0]),
)
def test_grown_operators_equal_a_fresh_build_and_leave_the_parent_intact(
    seed, steps, fold_fraction
):
    """A chain of appends, each graph queried or not before its child is
    made: each graph's operators give the bits of a fresh build's, and its
    rankings are a fresh build's; making and querying a child changes no
    array of its parent's operators. A fold fraction of 0 folds at every
    append, 100 never."""
    rng = np.random.default_rng(seed)
    whole = random_entity_corpus(
        rng, n_passages=sum(n for n, _ in steps) + 4, pool_size=int(rng.integers(2, 9))
    )
    encoder = HashEncoder(dim=16, seed=3)
    cfg = RetrievalConfig(entity_sim_threshold=0.1, delta=0.05)
    with mock.patch.object(trigraph, "FOLD_FRACTION", fold_fraction):
        graph = build(make_slice(whole, 0, 4))
        store = build_store(graph, encoder)
        stop = 4
        for n_new, queried in steps:
            query = entity_query(graph, rng)
            if queried:
                retrieve(query, graph, store, cfg)
            before = [a.copy() for a in operator_arrays(graph)]
            grown = add_passages(graph, make_slice(whole, stop, stop + n_new))
            grown_store = extend_store(store, grown)
            stop += n_new
            fresh = build(make_slice(whole, 0, stop))
            fresh_store = build_store(fresh, encoder)
            assert retrieve(query, grown, grown_store, cfg) == retrieve(
                query, fresh, fresh_store, cfg
            )
            assert_operators_equal_a_fresh_build(grown, fresh, rng)
            after = operator_arrays(graph)
            assert len(after) == len(before)
            for now, then in zip(after, before):
                assert same_bits(now, then)
            graph, store = grown, grown_store


def test_a_tail_past_the_fold_fraction_is_folded():
    """Appends one passage at a time, each graph queried: every view keeps a
    tail of at most ``FOLD_FRACTION`` of its base's entries, the chain both
    grows tails and folds them, the contain view's product with C has the
    bits of a CSR product with tails and after folds, and the last graph
    answers as a rebuild."""
    whole, examples = generate_synthetic_corpus(
        n_passages=60, avg_sentences=3, entity_pool=30, seed=11, n_chains=4
    )
    cfg = RetrievalConfig(delta=0.01)
    encoder = HashEncoder(dim=64, seed=2)
    questions = [example.question for example in examples]
    graph = build(make_slice(whole, 0, 40))
    store = build_store(graph, encoder)
    retrieve(questions[0], graph, store, cfg)
    seen = {name: set() for name in VIEWS}
    rng = np.random.default_rng(5)
    for stop in range(41, 61):
        graph = add_passages(graph, make_slice(whole, stop - 1, stop))
        store = extend_store(store, graph)
        retrieve(questions[stop % len(questions)], graph, store, cfg)
        assert_c_product_is_scipys(graph, rng)
        for name, views in seen.items():
            view = getattr(graph, name)
            assert len(view.tail_rows) <= trigraph.FOLD_FRACTION * view.base.nnz
            views.add((view.base.nnz, len(view.tail_rows) > 0))
    for views in seen.values():
        assert len({nnz for nnz, _ in views}) > 1
        assert any(tailed for _, tailed in views)
    rebuilt = build(whole)
    rebuilt_store = build_store(rebuilt, encoder)
    for q in questions:
        assert retrieve(q, graph, store, cfg) == retrieve(
            q, rebuilt, rebuilt_store, cfg
        )


def test_a_graph_asked_again_folds_its_tails_and_keeps_its_answers():
    """A grown graph's first query reads the operators it derived, tails and
    all; the next finds them made and folds them; every answer is a
    rebuild's."""
    whole, examples = generate_synthetic_corpus(
        n_passages=60, avg_sentences=3, entity_pool=30, seed=11, n_chains=4
    )
    cfg = RetrievalConfig(delta=0.01)
    encoder = HashEncoder(dim=64, seed=2)
    questions = [example.question for example in examples]
    graph = build(make_slice(whole, 0, 58))
    store = build_store(graph, encoder)
    for q in questions:
        retrieve(q, graph, store, cfg)
    # Two passages: a tail under FOLD_FRACTION of the base.
    grown = add_passages(graph, make_slice(whole, 58, 60))
    grown_store = extend_store(store, grown)
    rebuilt = build(whole)
    rebuilt_store = build_store(rebuilt, encoder)

    tails = []
    for q in questions * 2:
        assert retrieve(q, grown, grown_store, cfg) == retrieve(
            q, rebuilt, rebuilt_store, cfg
        )
        tails.append([len(getattr(grown, name).tail_rows) for name in VIEWS])
    assert all(t > 0 for t in tails[0])
    assert all(t == 0 for pair in tails[1:] for t in pair)


def test_a_grown_contain_view_shares_its_parents_base_and_tails_the_slice():
    """Deriving a grown graph's contain view costs O(slice): it shares every
    base array of its parent's view, whose values are not patched for the
    entities whose degrees the slice changed, and its tail is the slice's
    contain entries."""
    whole, _ = generate_synthetic_corpus(
        n_passages=60, avg_sentences=3, entity_pool=30, seed=11, n_chains=4
    )
    graph = build(make_slice(whole, 0, 58))
    parent = graph.contain_by_entity
    grown = add_passages(graph, make_slice(whole, 58, 60))
    view = grown.contain_by_entity
    for array in ("data", "indices"):
        assert np.shares_memory(getattr(view.base, array), getattr(parent.base, array))
    assert np.shares_memory(view.base_positions, parent.base_positions)
    first = graph.contain.nnz
    assert view.base.nnz == first
    assert np.array_equal(view.tail_rows, grown.contain.rows_from(graph.n_passages))
    assert np.array_equal(view.tail_cols, grown.contain.col_ids[first:])
    assert len(view.tail_rows) == grown.contain.nnz - first > 0

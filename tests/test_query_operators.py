"""The per-graph query operators against scalar transcriptions and oracles.

``propagate``, ``passage_seed_scores`` and ``ppr`` run over arrays and
sparse operators that a ``TriGraph`` builds once, on first use. These tests
check them on small random tri-graphs against element-by-element loops
(``np.maximum.at``, ``np.add.at`` and a dict walk over the mention entries)
and against the dense PPR fixed point, and check that a graph's caches
never leak into the graph ``add_passages`` returns.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linearrag.embedding import HashEncoder, build_store, extend_store
from linearrag.evalbench import generate_synthetic_corpus
from linearrag.retrieval import (
    ActivationState,
    EntityLevel,
    RetrievalConfig,
    _best_supporting_sentence,
    _frontier_gate,
    _similarities,
    passage_seed_scores,
    ppr,
    propagate,
    retrieve,
)
from linearrag.trigraph import add_passages, build

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
        trace={e: (0, None) for e in frontier},
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
    trace = dict(state.trace)
    best = scalar_best_sentence(graph, u, changed)
    for e in np.nonzero(changed)[0].tolist():
        trace.setdefault(e, (state.hop + 1, best.get(e)))
    return a_new, frozenset(np.nonzero(changed)[0].tolist()), trace


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# At most 1300 x 7 values: below the size at which OpenBLAS splits a
# matrix-vector product across threads. A split product groups rows by the
# thread count, so only a single-threaded one is a bit-exact reference.
@pytest.mark.parametrize("n_rows", [0, 1, 2, 511, 512, 513, 1024, 1025, 1300])
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
    gate = _frontier_gate(graph, state.a, state.frontier)
    assert np.array_equal(gate, scalar_gate(graph, state.a, state.frontier))

    u = state.sigma * gate
    assert same_bits(graph.mention_transposed @ u, scalar_candidates(graph, u))
    # Continuous masses round differently in every summation order.
    noise = rng.standard_normal(graph.n_sentences)
    assert same_bits(graph.mention_transposed @ noise, scalar_candidates(graph, noise))

    changed = rng.random(graph.n_entities) < 0.6
    assert _best_supporting_sentence(
        graph.mention.row_ids, graph.mention.col_ids, u, changed
    ) == scalar_best_sentence(graph, u, changed)

    cfg = RetrievalConfig(delta=data.draw(st.sampled_from([0.0, 0.1, 0.3])))
    advanced = propagate(state, graph, cfg)
    if state.frontier:
        a_new, frontier, trace = scalar_propagate(state, graph, cfg)
        assert same_bits(advanced.a, a_new)
        assert advanced.frontier == frontier
        assert advanced.trace == trace


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
    for cached in ("mention_transposed", "ppr_transition", "log_occurrence"):
        assert cached in vars(graph), cached

    grown = add_passages(graph, make_slice(whole, 40, 60))
    grown_store = extend_store(store, grown)
    rebuilt = build(whole)
    rebuilt_store = build_store(rebuilt, encoder)
    for q in questions:
        assert retrieve(q, grown, grown_store, cfg) == retrieve(
            q, rebuilt, rebuilt_store, cfg
        )
    assert [retrieve(q, graph, store, cfg) for q in questions] == before

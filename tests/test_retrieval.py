import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from linearrag.corpus import ingest
from linearrag.embedding import VECTOR_KINDS, HashEncoder, build_store, extend_store
from linearrag.errors import ConfigError, EmptySeedError
from linearrag.evalbench import load_qa_examples
from linearrag.retrieval import (
    VALID_FALLBACKS,
    ActivationState,
    EntityLevel,
    RetrievalConfig,
    _kind_scores,
    _query_terms,
    _similarities,
    activate,
    dense_ranking,
    initial_activation,
    passage_seed_scores,
    ppr,
    propagate,
    retrieve,
)
from linearrag.trigraph import ColumnMajor, add_passages, build

from conftest import DATA_DIR, MULTIHOP_ENCODER, make_corpus, trace_dict
from test_trigraph import make_slice


def make_index(texts, dim=64, seed=1):
    graph = build(make_corpus(texts))
    store = build_store(graph, HashEncoder(dim=dim, seed=seed))
    return graph, store


class TestRetrievalConfig:
    def test_defaults_follow_reference_settings(self):
        cfg = RetrievalConfig()
        assert cfg.entity_sim_threshold == 0.5
        assert cfg.delta == 4.0
        assert cfg.max_hops == 4
        assert cfg.damping == 0.85
        assert cfg.lambda_ == 0.05
        assert cfg.top_k == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"damping": 0.0},
            {"damping": 1.0},
            {"top_k": 0},
            {"delta": -0.1},
            {"max_hops": -1},
            {"lambda_": -0.5},
            {"fallback": "magic"},
            {"ppr_tol": 0.0},
            {"ppr_max_iters": 0},
            {"lambda_": math.inf},
            {"passage_weight": math.inf},
            {"ppr_tol": math.inf},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetrievalConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": "x"},
            {"top_k": 2.5},
            {"max_hops": True},
            {"ppr_max_iters": "100"},
            {"damping": False},
            {"ppr_tol": None},
        ],
    )
    def test_wrongly_typed_values_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ConfigError, match=f"{name} must be"):
            RetrievalConfig(**kwargs)

    def test_integers_accepted_as_floats(self):
        cfg = RetrievalConfig(delta=1, entity_sim_threshold=0, passage_weight=2)
        assert (cfg.delta, cfg.entity_sim_threshold, cfg.passage_weight) == (1, 0, 2)

    def test_infinite_delta_allowed(self):
        assert RetrievalConfig(delta=math.inf).delta == math.inf

    @pytest.mark.parametrize(
        "name",
        [
            "entity_sim_threshold",
            "delta",
            "damping",
            "lambda_",
            "passage_weight",
            "ppr_tol",
        ],
    )
    def test_nan_rejected(self, name):
        with pytest.raises(ConfigError, match="NaN"):
            RetrievalConfig(**{name: math.nan})

    def test_negative_passage_weight_rejected(self):
        with pytest.raises(ConfigError, match="passage_weight"):
            RetrievalConfig(passage_weight=-1.0)
        assert RetrievalConfig(passage_weight=0.0).passage_weight == 0.0


class TestInitialActivation:
    def test_query_equal_to_canonical_scores_one(self):
        graph, store = make_index(["Paris is big."])
        state = initial_activation("paris", graph, store, RetrievalConfig())
        assert state.a[0] == pytest.approx(1.0, abs=1e-6)
        assert state.frontier == {0}
        assert state.hop == 0
        assert trace_dict(state.trace) == {0: (0, None)}

    def test_all_below_threshold_gives_empty_frontier(self):
        graph, store = make_index(["Paris is big."])
        cfg = RetrievalConfig(entity_sim_threshold=math.inf)
        state = initial_activation("paris", graph, store, cfg)
        assert not state.frontier
        assert np.all(state.a == 0.0)

    def test_masked_similarity_oracle_five_entities(self):
        graph, store = make_index(
            [
                "Aldora sells grain. Brennos keeps bees.",
                "Caldus mines salt. Dovren carves stone. Evrik binds books.",
            ]
        )
        assert graph.n_entities == 5
        cfg = RetrievalConfig(entity_sim_threshold=0.2)
        query = "aldora grain brennos"
        state = initial_activation(query, graph, store, cfg)

        q = store.encode_query(query)
        for eid in range(5):
            sim = float(np.dot(store.entity_vectors[eid].astype(np.float64), q))
            expected = sim if sim > cfg.entity_sim_threshold else 0.0
            assert state.a[eid] == pytest.approx(expected, abs=1e-9)
        # With entities seeding, every sentence is scored at hop 0, with the
        # full scan's values; the hops carry them unchanged.
        assert state.frontier
        sigma = _similarities(store.sentence_vectors, q)
        for sid in range(graph.n_sentences):
            sim = float(np.dot(store.sentence_vectors[sid].astype(np.float64), q))
            assert sigma[sid] == pytest.approx(sim, abs=1e-9)
        assert state.sigma.tobytes() == sigma.tobytes()
        final = activate(query, graph, store, replace(cfg, delta=0.0))
        assert final.sigma.tobytes() == sigma.tobytes()


CHAIN_TEXTS = [
    "Alpha relates quietly toward Bravo yonder.",
    "Bravo relates quietly toward Charlie yonder.",
]


def chain_setup(delta=0.05, max_hops=4, seed=1):
    graph, store = make_index(CHAIN_TEXTS, dim=64, seed=seed)
    cfg = RetrievalConfig(delta=delta, max_hops=max_hops)
    ids = {r.canonical: r.id for r in graph.entity_registry.records}
    return graph, store, cfg, ids


class TestPropagate:
    def test_chain_path_enumeration_oracle(self):
        graph, store, cfg, ids = chain_setup()
        state = initial_activation("alpha relates", graph, store, cfg)
        a_id, b_id, c_id = ids["alpha"], ids["bravo"], ids["charlie"]
        q = store.encode_query("alpha relates")
        sigma0 = float(np.dot(store.sentence_vectors[0].astype(np.float64), q))
        sigma1 = float(np.dot(store.sentence_vectors[1].astype(np.float64), q))
        a0 = float(state.a[a_id])

        # Oracle preconditions: only alpha seeds, both sentences relevant,
        # and no self-reinforcement (sigma0 + sigma1 < 1).
        assert state.frontier == {a_id}
        assert sigma0 > 0 and sigma1 > 0 and sigma0 + sigma1 < 1.0

        one = propagate(state, graph, cfg)
        assert one.hop == 1
        assert one.frontier == {b_id}
        assert one.a[b_id] == pytest.approx(sigma0 * a0, rel=1e-12)
        assert one.a[c_id] == 0.0
        assert trace_dict(one.trace)[b_id] == (1, 0)

        two = propagate(one, graph, cfg)
        assert two.hop == 2
        assert two.frontier == {c_id}
        assert two.a[c_id] == pytest.approx(sigma1 * sigma0 * a0, rel=1e-12)
        assert two.a[b_id] == one.a[b_id]  # no re-entry below prior max
        assert trace_dict(two.trace)[c_id] == (2, 1)

    def test_infinite_delta_is_pure_termination(self):
        graph, store, _, _ = chain_setup()
        cfg = RetrievalConfig(delta=math.inf)
        state = initial_activation("alpha relates", graph, store, cfg)
        after = propagate(state, graph, cfg)
        assert np.array_equal(after.a, state.a)
        assert after.frontier == frozenset()

    def test_single_sentence_one_term_sum(self):
        graph, store = make_index(["Karo visits Lumen."])
        ids = {r.canonical: r.id for r in graph.entity_registry.records}
        cfg = RetrievalConfig(delta=0.001)
        state = initial_activation("karo", graph, store, cfg)
        assert state.frontier == {ids["karo"]}
        after = propagate(state, graph, cfg)
        sigma = _similarities(store.sentence_vectors, state.query_vec)
        assert after.sigma[0] == sigma[0]
        expected = sigma[0] * state.a[ids["karo"]]
        assert after.a[ids["lumen"]] == pytest.approx(expected, rel=1e-12)

    def test_empty_frontier_is_noop(self):
        graph, store, cfg, _ = chain_setup()
        state = initial_activation("unrelated words", graph, store, cfg)
        assert not state.frontier
        assert propagate(state, graph, cfg) is state

    def test_monotone_nondecreasing(self):
        graph, store, cfg, _ = chain_setup(delta=0.001)
        state = initial_activation("alpha relates", graph, store, cfg)
        for _ in range(4):
            after = propagate(state, graph, cfg)
            assert np.all(after.a >= state.a)
            state = after


class TestActivate:
    def test_max_hops_zero_equals_initial(self):
        graph, store, _, _ = chain_setup()
        cfg = RetrievalConfig(max_hops=0, delta=0.05)
        final = activate("alpha relates", graph, store, cfg)
        fresh = initial_activation("alpha relates", graph, store, cfg)
        assert final.hop == 0
        assert np.array_equal(final.a, fresh.a)
        assert final.frontier == fresh.frontier

    def test_chain_terminates_at_hop_two(self):
        graph, store, cfg, ids = chain_setup(delta=0.05, max_hops=4)
        final = activate("alpha relates", graph, store, cfg)
        assert final.hop == 2
        assert final.a[ids["charlie"]] > 0

    def test_infinite_delta_performs_zero_hops(self):
        graph, store, _, _ = chain_setup()
        cfg = RetrievalConfig(delta=math.inf)
        final = activate("alpha relates", graph, store, cfg)
        assert final.hop == 0

    def test_output_dominates_initial(self):
        graph, store, cfg, _ = chain_setup(delta=0.001)
        final = activate("alpha relates", graph, store, cfg)
        fresh = initial_activation("alpha relates", graph, store, cfg)
        assert np.all(final.a >= fresh.a)

    def test_hop_soundness_three_hop_chain_vs_bfs(self):
        texts = [
            "Alpha joined Bravo on the expedition.",
            "Bravo guided Charlie across the expedition camp.",
            "Charlie supplied Delta during the expedition winter.",
        ]
        graph, store = make_index(texts, dim=128, seed=0)
        cfg = RetrievalConfig(entity_sim_threshold=0.5, delta=0.0, max_hops=4)
        final = activate("alpha expedition", graph, store, cfg)
        trace = trace_dict(final.trace)

        seeds = {e for e, (hop, _) in trace.items() if hop == 0}
        distance = bfs_entity_distance(graph, seeds)
        ids = {r.canonical: r.id for r in graph.entity_registry.records}
        assert seeds == {ids["alpha"]}
        for name, expected in [("alpha", 0), ("bravo", 1), ("charlie", 2), ("delta", 3)]:
            eid = ids[name]
            assert trace[eid][0] == distance[eid] == expected
        # Soundness bound: no activation can arrive before its BFS distance.
        for eid, (hop, _) in trace.items():
            assert hop >= distance.get(eid, math.inf) or hop >= 0
            assert hop >= distance[eid]


def bfs_entity_distance(graph, seeds):
    """Entity-level BFS where two entities are adjacent iff co-mentioned."""
    neighbors = {}
    for sid in range(graph.mention.n_rows):
        cols = graph.mention.cols_of(sid).tolist()
        for e in cols:
            neighbors.setdefault(e, set()).update(c for c in cols if c != e)
    distance = {e: 0 for e in seeds}
    frontier = set(seeds)
    hop = 0
    while frontier:
        hop += 1
        next_frontier = set()
        for e in frontier:
            for n in neighbors.get(e, ()):
                if n not in distance:
                    distance[n] = hop
                    next_frontier.add(n)
        frontier = next_frontier
    return distance


class TestPassageSeeds:
    def test_zero_without_active_entities_when_lambda_zero(self):
        graph, store = make_index(["Karo rests.", "Lumen shines."])
        cfg = RetrievalConfig(lambda_=0.0, entity_sim_threshold=math.inf)
        state = initial_activation("karo", graph, store, cfg)
        seeds = passage_seed_scores(state, graph, store, None, cfg)
        assert np.all(seeds == 0.0)

    def test_closed_form_single_entity(self):
        graph, store = make_index(["Karo rests."])
        cfg = RetrievalConfig(lambda_=0.0, passage_weight=1.0)
        state = initial_activation("karo", graph, store, cfg)
        state = ActivationState(
            a=np.array([1.0]),
            sigma=state.sigma,
            hop=0,
            frontier=frozenset({0}),
            trace=state.trace,
            query_vec=state.query_vec,
        )
        seeds = passage_seed_scores(state, graph, store, None, cfg)
        assert seeds[0] == pytest.approx(math.log(1 + math.log(2)), rel=1e-12)

    def test_direct_formula_oracle_four_passages(self):
        texts = [
            "Karo met Lumen. Karo smiled.",
            "Lumen met Dorvo.",
            "Dorvo rested near Karo. Dorvo left. Dorvo returned!",
            "nothing capitalized here.",
        ]
        graph, store = make_index(texts)
        cfg = RetrievalConfig(
            lambda_=0.05, passage_weight=2.0, entity_sim_threshold=0.2, delta=0.01
        )
        state = activate("karo lumen", graph, store, cfg)
        levels = EntityLevel(overrides={0: 2.0})
        seeds = passage_seed_scores(state, graph, store, levels, cfg)

        # Scalar transcription of the hybrid-seed formula, entry by entry.
        level_of = lambda e: 2.0 if e == 0 else 1.0
        q = state.query_vec
        for pid in range(graph.n_passages):
            sim = float(np.dot(store.passage_vectors[pid].astype(np.float64), q))
            inner = 0.0
            occurrence = zip(graph.contain.pairs(), graph.occurrence_counts.tolist())
            for (p, e), count in occurrence:
                if p == pid and state.a[e] > 0:
                    inner += state.a[e] * math.log(1 + count) / level_of(e)
            expected = (cfg.lambda_ * max(sim, 0.0) + math.log(1 + inner)) * 2.0
            assert seeds[pid] == pytest.approx(expected, rel=1e-12)

    def test_entity_level_divides_contribution(self):
        graph, store = make_index(["Karo rests."])
        cfg = RetrievalConfig(lambda_=0.0)
        state = initial_activation("karo", graph, store, cfg)
        flat = passage_seed_scores(state, graph, store, None, cfg)
        halved = passage_seed_scores(
            state, graph, store, EntityLevel(overrides={0: 2.0}), cfg
        )
        assert halved[0] < flat[0]

    def test_level_below_one_rejected(self):
        with pytest.raises(ConfigError):
            EntityLevel(overrides={0: 0.5})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({0: math.nan}, "entity level for 0"),
            ({0: True}, "entity level for 0"),
            ({0: "2"}, "entity level for 0"),
            ({0: None}, "entity level for 0"),
            ({1.0: 2.0}, "entity id must be an integer, got 1.0"),
            ({"0": 2.0}, "entity id must be an integer, got '0'"),
            ({True: 2.0}, "entity id must be an integer, got True"),
        ],
    )
    def test_bad_entity_id_or_level_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            EntityLevel(overrides=overrides)

    def test_integer_ids_and_real_levels_accepted(self):
        overrides = {np.int64(0): 2, 1: np.float32(1.5), 2: math.inf}
        levels = EntityLevel(overrides=overrides)
        assert levels.as_array(3).tolist() == [2.0, 1.5, math.inf]


class TestPpr:
    def test_two_node_closed_form(self):
        graph, _ = make_index(["Karo rests."])
        cfg = RetrievalConfig(ppr_tol=1e-14, ppr_max_iters=2000)
        importance = ppr(graph, np.array([0.0]), np.array([1.0]), cfg)
        # Fixed point of i_p = 0.15 + 0.85 i_e, i_e = 0.85 i_p.
        expected_p = 0.15 / (1 - 0.85 * 0.85)
        assert importance[0] == pytest.approx(expected_p, abs=1e-8)
        assert importance[1] == pytest.approx(0.85 * expected_p, abs=1e-8)

    def test_damping_limit_returns_reset(self):
        graph, _ = make_index(["Karo met Lumen.", "Lumen met Dorvo."])
        cfg = RetrievalConfig(damping=1e-9, ppr_tol=1e-16, ppr_max_iters=50)
        entity_seeds = np.array([1.0, 2.0, 1.0])
        passage_seeds = np.array([4.0, 2.0])
        importance = ppr(graph, entity_seeds, passage_seeds, cfg)
        reset = np.concatenate([passage_seeds, entity_seeds])
        reset = reset / reset.sum()
        assert np.max(np.abs(importance - reset)) < 1e-8

    def test_six_node_dense_linear_algebra_oracle(self):
        graph, _ = make_index(
            ["Karo met Lumen.", "Karo slept.", "Lumen rose. Orphan words."]
        )
        # Bipartite layout: 3 passages + entities; add an entity that no
        # passage shares by keeping corpus as-is (entities: karo, lumen,
        # orphan words -> 'orphan words' appears once).
        n = graph.n_passages + graph.n_entities
        entity_seeds = np.linspace(0.2, 1.0, graph.n_entities)
        passage_seeds = np.array([1.0, 0.5, 0.25])
        cfg = RetrievalConfig(ppr_tol=1e-14, ppr_max_iters=5000)
        importance = ppr(graph, entity_seeds, passage_seeds, cfg)
        oracle = dense_ppr_oracle(graph, passage_seeds, entity_seeds, cfg.damping)
        assert np.max(np.abs(importance - oracle)) < 1e-8

    def test_isolated_node_keeps_reset_share(self):
        # Passage with no entities is isolated in the bipartite graph.
        graph, _ = make_index(["Karo met Lumen.", "nothing capitalized."])
        passage_seeds = np.array([0.5, 0.5])
        entity_seeds = np.zeros(graph.n_entities)
        cfg = RetrievalConfig(ppr_tol=1e-14, ppr_max_iters=2000)
        importance = ppr(graph, entity_seeds, passage_seeds, cfg)
        reset_total = passage_seeds.sum() + entity_seeds.sum()
        assert importance[1] == pytest.approx(
            (1 - cfg.damping) * 0.5 / reset_total, abs=1e-10
        )

    def test_stopping_at_the_cap_logs_one_warning(self, caplog):
        graph, _ = make_index(
            ["Karo met Lumen.", "Lumen met Dorvo. Dorvo slept.", "Karo slept!"]
        )
        cfg = RetrievalConfig(ppr_max_iters=1)
        with caplog.at_level(logging.WARNING, logger="linearrag.retrieval"):
            ppr(graph, np.array([0.9, 0.4, 0.1]), np.array([0.7, 0.2, 0.05]), cfg)
        (record,) = caplog.records
        assert record.name == "linearrag.retrieval"
        assert record.levelno == logging.WARNING
        assert "after 1 conjugate-gradient steps" in record.getMessage()

    def test_result_meets_ppr_tol_in_the_original_equation(self):
        # One passage names every entity, so its degree - and its weight
        # in the residual - is far above the other passages'.
        names = [f"Ent{i:02d}" for i in range(30)]
        texts = [" met ".join(names) + " met nobody."]
        texts += [f"{a} met {b} met nobody." for a, b in zip(names, names[1:5])]
        graph, _ = make_index(texts)
        rng = np.random.default_rng(3)
        passage_seeds = rng.random(graph.n_passages)
        entity_seeds = rng.random(graph.n_entities)
        r = np.concatenate([passage_seeds, entity_seeds])
        r /= r.sum()
        transition = dense_transition(graph)
        for tol in (1e-4, 1e-6, 1e-8):
            cfg = RetrievalConfig(ppr_tol=tol)
            x = ppr(graph, entity_seeds, passage_seeds, cfg)
            residual = x - cfg.damping * (transition @ x) - (1 - cfg.damping) * r
            assert np.abs(residual).sum() < tol

    def test_empty_seed_error(self):
        graph, _ = make_index(["Karo rests."])
        with pytest.raises(EmptySeedError):
            ppr(graph, np.zeros(1), np.zeros(1), RetrievalConfig())

    @pytest.mark.parametrize(
        "entity_seed, passage_seed, message",
        [
            (math.nan, 1.0, "finite"),
            (1.0, math.inf, "finite"),
            (-math.inf, 1.0, "finite"),
            (1e308, 1e308, "finite"),
            (1.0, -1.0, "sum to 0"),
        ],
    )
    def test_non_finite_or_zero_sum_seed_rejected(
        self, entity_seed, passage_seed, message
    ):
        graph, _ = make_index(["Karo rests."])
        seeds = np.array([entity_seed]), np.array([passage_seed])
        with pytest.raises(ValueError, match=message), np.errstate(over="ignore"):
            ppr(graph, *seeds, RetrievalConfig())

    def test_negative_seed_entries_accepted(self):
        # retrieve's activations are never negative, but other callers'
        # seeds may be.
        graph, _ = make_index(["Karo met Lumen."])
        cfg = RetrievalConfig()
        importance = ppr(graph, np.array([-0.5, 0.25]), np.array([1.0]), cfg)
        assert np.all(np.isfinite(importance))

    def test_seed_scaling_leaves_ranking_unchanged(self):
        graph, _ = make_index(
            ["Karo met Lumen.", "Lumen met Dorvo. Dorvo slept.", "Karo slept!"]
        )
        cfg = RetrievalConfig(ppr_tol=1e-12, ppr_max_iters=1000)
        entity_seeds = np.array([0.9, 0.4, 0.1])
        passage_seeds = np.array([0.7, 0.2, 0.05])
        base = ppr(graph, entity_seeds, passage_seeds, cfg)
        for scale in (1e-6, 0.5, 3.0, 1e6):
            scaled = ppr(graph, entity_seeds * scale, passage_seeds * scale, cfg)
            assert np.array_equal(np.argsort(-base), np.argsort(-scaled))
            assert np.max(np.abs(scaled - base)) < 1e-9


def test_ppr_l1_differences_non_increasing_and_mass_converges():
    graph, _ = make_index(
        ["Karo met Lumen.", "Lumen met Dorvo. Dorvo slept.", "Karo slept!"]
    )
    d = 0.85
    transition = dense_transition(graph)
    r = np.concatenate([np.array([0.7, 0.2, 0.05]), np.array([0.9, 0.4, 0.1])])
    r /= r.sum()
    importance = r.copy()
    diffs = []
    for _ in range(150):
        updated = (1 - d) * r + d * (transition @ importance)
        diffs.append(float(np.abs(updated - importance).sum()))
        importance = updated
    for before, after in zip(diffs[1:], diffs[2:]):
        assert after <= before + 1e-15
    assert diffs[-1] < 1e-8  # total importance settles
    assert np.isfinite(importance.sum())


def test_pipeline_modules_have_no_network_dependency():
    # Structural zero-token guarantee: nothing in the indexing or retrieval
    # path imports a socket/HTTP client. (evalbench imports socket solely
    # to implement the network guard.)
    import types

    import linearrag.cli
    import linearrag.corpus
    import linearrag.embedding
    import linearrag.extraction
    import linearrag.retrieval
    import linearrag.trigraph

    banned = {"socket", "ssl", "http", "urllib", "requests", "httpx", "aiohttp"}
    for module in (
        linearrag.corpus,
        linearrag.extraction,
        linearrag.trigraph,
        linearrag.embedding,
        linearrag.retrieval,
        linearrag.cli,
    ):
        imported = {
            value.__name__.split(".")[0]
            for value in vars(module).values()
            if isinstance(value, types.ModuleType)
        }
        assert not (imported & banned), module.__name__


def dense_transition(graph):
    """W^T for the row-normalized adjacency W of the passage-entity graph
    (passages first), as a dense array: column j spreads node j's mass
    evenly over its neighbours, and is 0 for a node of degree 0."""
    n_p, n_e = graph.n_passages, graph.n_entities
    n = n_p + n_e
    adjacency = np.zeros((n, n))
    for p, e in graph.contain.pairs():
        adjacency[p, n_p + e] = 1.0
        adjacency[n_p + e, p] = 1.0
    deg = adjacency.sum(axis=1)
    w = np.divide(adjacency, deg[:, None], out=np.zeros_like(adjacency), where=deg[:, None] > 0)
    return w.T


def dense_ppr_oracle(graph, passage_seeds, entity_seeds, damping):
    """(1-d) (Id - d W^T)^-1 r via dense linear algebra."""
    transition = dense_transition(graph)
    r = np.concatenate([passage_seeds, entity_seeds]).astype(np.float64)
    r = r / r.sum()
    return (1 - damping) * np.linalg.solve(np.eye(len(r)) - damping * transition, r)


@pytest.fixture(scope="module")
def chain_fixture(chain_index):
    graph, store = chain_index
    examples = load_qa_examples(DATA_DIR / "chain" / "qa.jsonl")
    return graph, store, examples[0]


class TestRetrieve:
    def test_committed_chain_beats_dense_in_top3(self, chain_fixture):
        graph, store, example = chain_fixture
        key_to_id = {p.doc_key: p.id for p in graph.corpus.passages}
        gold_ids = {key_to_id[k] for k in example.gold_passage_keys}
        cfg = RetrievalConfig(delta=0.01, top_k=3)

        ranked = retrieve(example.question, graph, store, cfg)
        assert gold_ids <= set(ranked.passage_ids())
        assert ranked.hops_used == 2
        assert not ranked.fallback_used

        query_vec = store.encode_query(example.question)
        dense_ids = {pid for pid, _ in dense_ranking(query_vec, store, 3)}
        assert not gold_ids <= dense_ids

    def test_scores_non_increasing_and_bounded(self, chain_fixture):
        graph, store, example = chain_fixture
        ranked = retrieve(example.question, graph, store, RetrievalConfig(delta=0.01))
        scores = [item.score for item in ranked.items]
        assert scores == sorted(scores, reverse=True)
        assert len(ranked.items) <= 5

    def test_contributing_entities_are_activated_and_contained(self, chain_fixture):
        graph, store, example = chain_fixture
        ranked = retrieve(example.question, graph, store, RetrievalConfig(delta=0.01))
        state = activate(example.question, graph, store, RetrievalConfig(delta=0.01))
        active = set(state.activated_entities().tolist())
        for item in ranked.items:
            contained = set(graph.contain.cols_of(item.passage_id).tolist())
            for eid in item.contributing_entities:
                assert eid in active
                assert eid in contained

    def test_dense_fallback_equals_cosine_ranking(self):
        graph, store = make_index(
            ["Karo met Lumen.", "Lumen met Dorvo.", "Dorvo slept."]
        )
        cfg = RetrievalConfig(entity_sim_threshold=math.inf, fallback="dense", top_k=3)
        ranked = retrieve("unrelated query words", graph, store, cfg)
        assert ranked.fallback_used
        query_vec = store.encode_query("unrelated query words")
        expected = dense_ranking(query_vec, store, 3)
        assert [i.passage_id for i in ranked.items] == [pid for pid, _ in expected]
        for item, (_, score) in zip(ranked.items, expected):
            assert item.score == pytest.approx(score, rel=1e-12)
            assert item.contributing_entities == ()

    def test_empty_fallback_returns_flagged_empty(self):
        graph, store = make_index(["Karo met Lumen."])
        cfg = RetrievalConfig(entity_sim_threshold=math.inf, fallback="empty")
        ranked = retrieve("unrelated", graph, store, cfg)
        assert ranked.items == ()
        assert ranked.fallback_used

    def test_top_k_larger_than_corpus_returns_all_sorted(self):
        graph, store = make_index(["Karo rests.", "Karo naps.", "Karo sleeps."])
        cfg = RetrievalConfig(top_k=10, delta=0.01)
        ranked = retrieve("karo", graph, store, cfg)
        assert len(ranked.items) == 3
        scores = [i.score for i in ranked.items]
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_by_ascending_passage_id(self):
        graph, store = make_index(["Karo rests.", "Karo rests."])
        ranked = retrieve("karo", graph, store, RetrievalConfig(delta=0.01))
        assert ranked.items[0].score == pytest.approx(ranked.items[1].score, rel=1e-12)
        assert [i.passage_id for i in ranked.items] == [0, 1]

    def test_pure_function_of_inputs(self, chain_fixture):
        graph, store, example = chain_fixture
        cfg = RetrievalConfig(delta=0.01)
        first = retrieve(example.question, graph, store, cfg)
        second = retrieve(example.question, graph, store, cfg)
        assert first == second

    def test_threshold_below_zero_seeds_as_zero_does(self):
        # A negative similarity above a negative threshold would give the
        # reset vector negative mass and push its passage to the bottom.
        texts = ["Karo met Lumen.", "Lumen met Dorvo. Dorvo slept.", "Karo slept!"]
        graph, store = make_index([*texts, "Zed ran."], dim=8, seed=0)
        below = RetrievalConfig(entity_sim_threshold=-1.0)
        assert np.all(initial_activation("zed foo", graph, store, below).a >= 0.0)
        ranked = retrieve("zed foo", graph, store, below)
        assert ranked == retrieve(
            "zed foo", graph, store, RetrievalConfig(entity_sim_threshold=0.0)
        )
        assert ranked.items[0].passage_id == 3
        assert min(item.score for item in ranked.items) >= 0.0

    def test_store_graph_mismatch_is_config_error(self):
        graph, _ = make_index(["Karo rests."])
        _, other_store = make_index(["Karo met Lumen.", "Lumen left."])
        with pytest.raises(ConfigError):
            retrieve("karo", graph, other_store, RetrievalConfig())


GRAPH_STAGES = ("initial_activation", "propagate", "passage_seed_scores", "ppr", "rank")
FALLBACK_STAGES = ("initial_activation", "propagate", "dense_ranking")


class TestQueryStats:
    def test_graph_path_stages_and_converged_solve(self, chain_fixture):
        graph, store, example = chain_fixture
        cfg = RetrievalConfig(delta=0.01)
        stats = retrieve(example.question, graph, store, cfg).stats
        assert tuple(stats.stage_ms) == GRAPH_STAGES
        assert all(ms >= 0.0 for ms in stats.stage_ms.values())
        assert stats.ppr_steps >= 1
        assert stats.ppr_residual_l1 < cfg.ppr_tol
        assert stats.ppr_converged is True
        q = store.encode_query(example.question)
        assert stats.dense_rows == sum(
            _kind_scores(store, kind, q, _query_terms(q))[1]
            for kind in VECTOR_KINDS
        )

    def test_solve_stopped_at_the_cap_not_converged(self, chain_fixture):
        graph, store, example = chain_fixture
        cfg = RetrievalConfig(delta=0.01, ppr_max_iters=1)
        stats = retrieve(example.question, graph, store, cfg).stats
        assert tuple(stats.stage_ms) == GRAPH_STAGES
        assert stats.ppr_converged is False
        assert stats.ppr_steps == 1
        assert stats.ppr_residual_l1 >= cfg.ppr_tol

    @pytest.mark.parametrize("fallback", VALID_FALLBACKS)
    def test_fallback_stages_and_no_solve(self, fallback):
        graph, store = make_index(["Karo met Lumen.", "Lumen met Dorvo."])
        cfg = RetrievalConfig(entity_sim_threshold=math.inf, fallback=fallback)
        ranked = retrieve("unrelated", graph, store, cfg)
        assert ranked.fallback_used
        stats = ranked.stats
        assert tuple(stats.stage_ms) == FALLBACK_STAGES
        assert stats.ppr_steps is None
        assert stats.ppr_residual_l1 is None
        assert stats.ppr_converged is None
        # No entity seeds, so no sentence is scored; passages only for the
        # dense fallback.
        q = store.encode_query("unrelated")
        kinds = ["entity_vectors"] + ["passage_vectors"] * (fallback == "dense")
        assert stats.dense_rows == sum(
            _kind_scores(store, k, q, _query_terms(q))[1] for k in kinds
        )

    def test_steps_are_the_fewest_at_which_ppr_logs_no_warning(
        self, chain_fixture, caplog
    ):
        # The step count as an outside caller can observe it: ppr capped
        # below it warns that it stopped unconverged, capped at it does not.
        graph, store, example = chain_fixture
        cfg = RetrievalConfig(delta=0.01)
        names = [graph.entity_registry[e].surfaces[0] for e in range(graph.n_entities)]
        for query in [example.question, *names]:
            steps = retrieve(query, graph, store, cfg).stats.ppr_steps
            state = activate(query, graph, store, cfg)
            seeds = passage_seed_scores(state, graph, store, None, cfg)
            warned = []
            for cap in range(1, steps + 1):
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="linearrag.retrieval"):
                    ppr(graph, state.a, seeds, replace(cfg, ppr_max_iters=cap))
                warned.append(bool(caplog.records))
            assert warned == [True] * (steps - 1) + [False], query


def answer(ranked):
    """A ``retrieve`` result as comparable values: each item's id, score
    bits and contributing entities, then the hops and the fallback flag."""
    items = [
        (item.passage_id, np.float64(item.score).tobytes(), item.contributing_entities)
        for item in ranked.items
    ]
    return items, ranked.hops_used, ranked.fallback_used


def staged_answer(question, graph, store, cfg):
    """What ``retrieve`` should answer, from its public stages one by one:
    ``activate``, ``passage_seed_scores``, the passage block of ``ppr`` and
    a full sort, or ``dense_ranking`` when nothing is activated."""
    state = activate(question, graph, store, cfg)
    active = state.a > 0.0
    if not active.any():
        top = []
        if cfg.fallback == "dense":
            top = dense_ranking(store.encode_query(question), store, cfg.top_k)
        items = [(pid, np.float64(score).tobytes(), ()) for pid, score in top]
        return items, state.hop, True
    seeds = passage_seed_scores(state, graph, store, None, cfg)
    scores = ppr(graph, state.a, seeds, cfg)[: graph.n_passages]
    order = np.lexsort((np.arange(len(scores)), -scores))[: cfg.top_k]
    items = [
        (
            int(pid),
            scores[pid].tobytes(),
            tuple(int(e) for e in graph.contain.cols_of(int(pid)) if active[e]),
        )
        for pid in order
    ]
    return items, state.hop, False


STAGED_CONFIGS = [RetrievalConfig(delta=0.01), RetrievalConfig()]
FALLBACK_QUESTION = "unrelated query words"


@pytest.fixture(scope="module")
def multihop_fixture():
    corpus = ingest(DATA_DIR / "multihop" / "corpus.jsonl")
    examples = load_qa_examples(DATA_DIR / "multihop" / "qa.jsonl")
    return corpus, [example.question for example in examples]


class TestRetrieveEqualsItsStages:
    """``retrieve`` runs its stages without the activation trace or PPR's
    entity block; its answers keep the bits of the public stages'."""

    @pytest.mark.parametrize("cfg", STAGED_CONFIGS, ids=["delta=0.01", "default"])
    def test_chain_fixture(self, chain_index, cfg):
        graph, store = chain_index
        examples = load_qa_examples(DATA_DIR / "chain" / "qa.jsonl")
        names = [record.surfaces[0] for record in graph.entity_registry.records]
        questions = [e.question for e in examples] + names + [FALLBACK_QUESTION]
        answers = [retrieve(q, graph, store, cfg) for q in questions]
        for question, ranked in zip(questions, answers):
            assert answer(ranked) == staged_answer(question, graph, store, cfg)
        assert answers[-1].fallback_used
        assert not answers[0].fallback_used

    @pytest.mark.parametrize("cfg", STAGED_CONFIGS, ids=["delta=0.01", "default"])
    def test_multihop_fixture_built_and_grown(self, multihop_fixture, cfg):
        corpus, questions = multihop_fixture
        questions = [*questions, FALLBACK_QUESTION]
        encoder = HashEncoder(**MULTIHOP_ENCODER)
        graph = build(corpus)
        store = build_store(graph, encoder)
        for question in questions:
            ranked = retrieve(question, graph, store, cfg)
            assert answer(ranked) == staged_answer(question, graph, store, cfg)
        assert retrieve(FALLBACK_QUESTION, graph, store, cfg).fallback_used

        parent = build(make_slice(corpus, 0, 57))
        parent_store = build_store(parent, encoder)
        retrieve(questions[0], parent, parent_store, cfg)  # makes its views
        grown = add_passages(parent, make_slice(corpus, 57, 60))
        grown_store = extend_store(parent_store, grown)
        for asked in ("once", "twice"):
            # The first ask makes views with tails, the second folds them.
            ranked = retrieve(questions[0], grown, grown_store, cfg)
            tails = len(grown.mention_by_entity.tail_rows)
            assert (tails > 0) == (asked == "once")
            staged = staged_answer(questions[0], grown, grown_store, cfg)
            assert answer(ranked) == staged, asked
        for question in questions:
            ranked = retrieve(question, grown, grown_store, cfg)
            assert answer(ranked) == staged_answer(question, grown, grown_store, cfg)

    def test_retrieve_finds_no_supporting_sentence_and_activate_does(
        self, chain_index
    ):
        graph, store = chain_index
        question = load_qa_examples(DATA_DIR / "chain" / "qa.jsonl")[0].question
        cfg = RetrievalConfig(delta=0.01)
        with mock.patch.object(
            ColumnMajor, "best_rows", autospec=True, side_effect=ColumnMajor.best_rows
        ) as spy:
            assert retrieve(question, graph, store, cfg).hops_used == 2
            spy.assert_not_called()
            assert activate(question, graph, store, cfg).hop == 2
            assert spy.call_count == 2

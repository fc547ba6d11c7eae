"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default ``pytest`` run.
"""

import json
import math
import time

import numpy as np
import pytest

from linearrag.cli import main
from linearrag.corpus import ingest
from linearrag.embedding import HashEncoder, build_store
from linearrag.evalbench import (
    INDEX_STAGES,
    StageClock,
    bench_scaling,
    evaluate,
    forbid_network,
    generate_synthetic_corpus,
    index_pass,
    load_qa_examples,
    write_corpus_jsonl,
)
from linearrag.extraction import ExtractorContract, canonicalize, extract_mentions
from linearrag.retrieval import (
    ActivationState,
    RetrievalConfig,
    activate,
    ppr,
    propagate,
    retrieve,
)
from linearrag.trigraph import add_passages, build, graph_equal

from conftest import DATA_DIR, MULTIHOP_ENCODER, make_corpus, seed_trace, trace_dict
from test_retrieval import bfs_entity_distance, dense_ppr_oracle
from test_trigraph import make_slice

CAPS_RUN = ExtractorContract.make()


def random_entity_corpus(rng, n_passages, pool_size, max_sentences=3, max_entities=3):
    """Random corpora whose entities are synthetic capitalized tokens."""
    names = [f"Ent{i:02d}" for i in range(pool_size)]
    verbs = ("met", "helped", "avoided", "followed", "greeted")
    texts = []
    for _ in range(n_passages):
        sentences = []
        for _ in range(int(rng.integers(1, max_sentences + 1))):
            k = int(rng.integers(1, max_entities + 1))
            chosen = [names[int(rng.integers(0, pool_size))] for _ in range(k)]
            verb = verbs[int(rng.integers(0, len(verbs)))]
            sentences.append(f"{f' {verb} '.join(chosen)} {verb} nobody.")
        texts.append(" ".join(sentences))
    return make_corpus(texts)


def test_criterion_1_matrix_construction_oracle():
    started = time.perf_counter()
    fixtures = [
        generate_synthetic_corpus(10, 2, 14, seed=31, n_chains=2)[0],
        generate_synthetic_corpus(40, 3, 30, seed=32, n_chains=4)[0],
        generate_synthetic_corpus(100, 3, 50, seed=33, n_chains=6)[0],
    ]
    for corpus in fixtures:
        graph = build(corpus, CAPS_RUN)
        ids = {r.canonical: r.id for r in graph.entity_registry.records}
        n_s, n_p, n_e = len(corpus.sentences), len(corpus.passages), len(ids)
        dense_mention = np.zeros((n_s, n_e), dtype=bool)
        dense_contain = np.zeros((n_p, n_e), dtype=bool)
        owners = corpus.sentences[:, 0].tolist()
        for sid, (text, pid) in enumerate(zip(corpus.sentence_texts(), owners)):
            for m in extract_mentions(text, CAPS_RUN, sid):
                key = canonicalize(m.surface)
                if key:
                    dense_mention[sid, ids[key]] = True
                    dense_contain[pid, ids[key]] = True
        assert np.array_equal(graph.mention.to_dense(), dense_mention)
        assert np.array_equal(graph.contain.to_dense(), dense_contain)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 1: contain/mention equal dense brute-force oracle "
          f"on {len(fixtures)} fixtures ({elapsed:.2f}s)")


def test_criterion_2_incremental_equals_rebuild():
    started = time.perf_counter()
    whole, _ = generate_synthetic_corpus(50, 2, 40, seed=41, n_chains=4)
    full = build(whole, CAPS_RUN)
    rng = np.random.default_rng(52)
    splits = sorted(int(s) for s in rng.choice(np.arange(1, 50), size=10, replace=False))
    for split in splits:
        prefix = make_slice(whole, 0, split)
        suffix = make_slice(whole, split, 50)
        incremental = add_passages(build(prefix, CAPS_RUN), suffix)
        assert graph_equal(incremental, full), f"split at {split}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 2: add_passages equals full rebuild on 10 random "
          f"splits ({elapsed:.2f}s)")


def _three_hop_corpus():
    texts = [
        "Alpha joined Bravo on the expedition.",
        "Bravo guided Charlie across the expedition camp.",
        "Charlie supplied Delta during the expedition winter.",
        "Echo joined Foxtrot on the expedition.",
        "Foxtrot guided Golf across the expedition camp.",
        "Golf supplied Hotel during the expedition winter.",
    ]
    return make_corpus(texts), [
        ("alpha expedition", ["alpha", "bravo", "charlie", "delta"]),
        ("echo expedition", ["echo", "foxtrot", "golf", "hotel"]),
    ]


def test_criterion_3_multi_hop_activation_soundness():
    checked = 0
    cfg = RetrievalConfig(delta=0.0, max_hops=4)

    # 3-hop handcrafted chains (encoder seed verified when the fixture
    # was authored: all chain sentences score positive query relevance).
    corpus, queries = _three_hop_corpus()
    graph = build(corpus, CAPS_RUN)
    store = build_store(graph, HashEncoder(dim=128, seed=2))
    ids = {r.canonical: r.id for r in graph.entity_registry.records}
    for query, chain in queries:
        trace = trace_dict(activate(query, graph, store, cfg).trace)
        seeds = {e for e, (hop, _) in trace.items() if hop == 0}
        assert seeds == {ids[chain[0]]}
        distance = bfs_entity_distance(graph, seeds)
        for expected, name in enumerate(chain):
            assert trace[ids[name]][0] == distance[ids[name]] == expected
            checked += 1
        for eid, (hop, _) in trace.items():
            assert hop >= distance[eid]

    # 2-hop planted chains from the committed suite.
    corpus = ingest(DATA_DIR / "multihop" / "corpus.jsonl")
    examples = load_qa_examples(DATA_DIR / "multihop" / "qa.jsonl")
    graph = build(corpus, CAPS_RUN)
    store = build_store(graph, HashEncoder(**MULTIHOP_ENCODER))
    registry = {r.canonical: r.id for r in graph.entity_registry.records}
    key_to_id = {p.doc_key: p.id for p in corpus.passages}
    for example in examples:
        a_name = example.question.removeprefix("Who joined ").removesuffix(
            " on the expedition?"
        )
        a_id = registry[a_name.casefold()]
        c_id = registry[example.gold_answer.casefold()]
        first_pid = min(key_to_id[k] for k in example.gold_passage_keys
                        if a_id in set(graph.contain.cols_of(key_to_id[k])))
        b_id = next(
            int(e) for e in graph.contain.cols_of(first_pid) if e != a_id
        )
        trace = trace_dict(activate(example.question, graph, store, cfg).trace)
        seeds = {e for e, (hop, _) in trace.items() if hop == 0}
        distance = bfs_entity_distance(graph, seeds)
        for eid in (a_id, b_id, c_id):
            assert trace[eid][0] == distance[eid]
            checked += 1
        assert trace[b_id][0] == 1
        assert trace[c_id][0] == 2
    print(f"\n[PASS] criterion 3: activation hop equals BFS distance for "
          f"{checked} chain entities (100% agreement)")


def test_criterion_4_propagation_monotonicity_and_termination():
    rng = np.random.default_rng(2024)
    graphs = 0
    while graphs < 200:
        corpus = random_entity_corpus(
            rng,
            n_passages=int(rng.integers(1, 6)),
            pool_size=int(rng.integers(2, 10)),
        )
        graph = build(corpus, CAPS_RUN)
        if graph.n_entities == 0:
            continue
        graphs += 1
        n_e, n_s = graph.n_entities, graph.n_sentences
        sigma = rng.uniform(-1.0, 1.0, size=n_s)
        a0 = np.where(rng.uniform(size=n_e) < 0.5, rng.uniform(0.2, 1.0, size=n_e), 0.0)
        frontier = frozenset(int(e) for e in np.nonzero(a0 > 0)[0])
        max_hops = int(rng.integers(0, 5))
        delta = float(rng.choice([0.0, 0.05, 0.5, 2.0]))
        cfg = RetrievalConfig(delta=delta, max_hops=max_hops)
        state = ActivationState(
            a=a0.copy(), sigma=sigma, hop=0, frontier=frontier,
            trace=seed_trace(n_e, frontier), query_vec=np.zeros(4),
            scored=np.ones(n_s, dtype=bool),
        )

        # The stage-1 driver loop, with every invariant checked per hop.
        while state.hop < cfg.max_hops and state.frontier:
            advanced = propagate(state, graph, cfg)
            assert np.all(advanced.a >= state.a)
            assert advanced.hop == state.hop + 1
            if not advanced.frontier:
                assert np.array_equal(advanced.a, state.a)
                break
            state = advanced
        assert state.hop <= max_hops
        assert np.all(state.a >= a0)

        # Infinite threshold: pure termination, zero effective hops.
        inf_cfg = RetrievalConfig(delta=math.inf, max_hops=4)
        fresh = ActivationState(
            a=a0.copy(), sigma=sigma, hop=0, frontier=frontier,
            trace=seed_trace(n_e, frontier), query_vec=np.zeros(4),
            scored=np.ones(n_s, dtype=bool),
        )
        after = propagate(fresh, graph, inf_cfg)
        assert np.array_equal(after.a, fresh.a)
        assert not after.frontier
    print(f"\n[PASS] criterion 4: monotone activation, bounded hops, and "
          f"pure termination at delta=+inf over {graphs} random graphs")


def test_criterion_5_ppr_matches_dense_fixed_point():
    rng = np.random.default_rng(77)
    cfg = RetrievalConfig(ppr_tol=1e-13, ppr_max_iters=5000, damping=0.85)
    tested = 0
    while tested < 20:
        corpus = random_entity_corpus(
            rng,
            n_passages=int(rng.integers(2, 12)),
            pool_size=int(rng.integers(3, 14)),
        )
        graph = build(corpus, CAPS_RUN)
        n = graph.n_passages + graph.n_entities
        if graph.n_entities == 0 or n > 50:
            continue
        tested += 1
        passage_seeds = rng.uniform(0.0, 1.0, size=graph.n_passages)
        entity_seeds = rng.uniform(0.0, 1.0, size=graph.n_entities)
        importance = ppr(graph, entity_seeds, passage_seeds, cfg)
        oracle = dense_ppr_oracle(graph, passage_seeds, entity_seeds, cfg.damping)
        assert np.max(np.abs(importance - oracle)) < 1e-8
    print(f"\n[PASS] criterion 5: power iteration matches dense fixed-point "
          f"solve within 1e-8 on {tested} random bipartite graphs (d=0.85)")


def test_criterion_6_seed_scale_ranking_invariance():
    rng = np.random.default_rng(88)
    trials = 0
    while trials < 50:
        corpus = random_entity_corpus(
            rng,
            n_passages=int(rng.integers(2, 10)),
            pool_size=int(rng.integers(3, 12)),
        )
        graph = build(corpus, CAPS_RUN)
        if graph.n_entities == 0:
            continue
        trials += 1
        cfg = RetrievalConfig(ppr_tol=1e-12, ppr_max_iters=2000)
        passage_seeds = rng.uniform(0.0, 1.0, size=graph.n_passages)
        entity_seeds = rng.uniform(0.0, 1.0, size=graph.n_entities)
        scale = float(rng.choice([1e-6, 1e-3, 0.5, 7.0, 1e3, 1e6]))
        base = ppr(graph, entity_seeds, passage_seeds, cfg)[: graph.n_passages]
        scaled = ppr(graph, entity_seeds * scale, passage_seeds * scale, cfg)[
            : graph.n_passages
        ]
        order = np.lexsort((np.arange(len(base)), -base))
        scaled_order = np.lexsort((np.arange(len(scaled)), -scaled))
        assert np.array_equal(order, scaled_order)
    print(f"\n[PASS] criterion 6: passage ranking invariant under positive "
          f"seed scaling across {trials} trials")


# Frozen when the committed suite was authored: every question is answered
# through the bridge under the full pipeline, exactly one leaks through
# dense cosine alone.
MULTIHOP_FULL_CONTAIN = 1.0
MULTIHOP_DENSE_CONTAIN = 1.0 / 12.0


def test_criterion_7_end_to_end_multi_hop_retrieval():
    corpus = ingest(DATA_DIR / "multihop" / "corpus.jsonl")
    examples = load_qa_examples(DATA_DIR / "multihop" / "qa.jsonl")
    assert len(examples) == 12
    graph = build(corpus, CAPS_RUN)
    store = build_store(graph, HashEncoder(**MULTIHOP_ENCODER))

    full = evaluate(graph, store, examples, RetrievalConfig(delta=0.01))
    dense_only = evaluate(
        graph,
        store,
        examples,
        RetrievalConfig(delta=0.01, entity_sim_threshold=math.inf),
    )
    assert full.contain_at_k == MULTIHOP_FULL_CONTAIN
    assert dense_only.contain_at_k == pytest.approx(MULTIHOP_DENSE_CONTAIN)
    assert dense_only.contain_at_k <= 0.75
    print(f"\n[PASS] criterion 7: 12-question suite contain@5 full="
          f"{full.contain_at_k:.3f}, dense-only={dense_only.contain_at_k:.3f}")


def test_criterion_8_zero_network_pipeline():
    corpus = ingest(DATA_DIR / "multihop" / "corpus.jsonl")
    examples = load_qa_examples(DATA_DIR / "multihop" / "qa.jsonl")
    with forbid_network() as attempts:
        graph = build(corpus, CAPS_RUN)
        store = build_store(graph, HashEncoder(**MULTIHOP_ENCODER))
        for example in examples[:3]:
            retrieve(example.question, graph, store, RetrievalConfig(delta=0.01))
        evaluate(graph, store, examples, RetrievalConfig(delta=0.01))
    assert attempts == []
    print("\n[PASS] criterion 8: zero outbound connections during "
          "index+query+eval")


def test_criterion_9_linear_scaling(tmp_path):
    started = time.perf_counter()
    report = bench_scaling(
        [500, 1000, 2000, 4000], seed=7, n_queries=10, work_dir=tmp_path
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"bench took {elapsed:.1f}s"
    for ratio in report.doubling_ratios:
        assert ratio <= 2.6, f"index-time doubling ratio {ratio:.2f}"
    for ratio in report.bytes_doubling_ratios:
        assert ratio <= 2.5, f"index-bytes doubling ratio {ratio:.2f}"
    assert report.network_attempts == 0
    ratios = ", ".join(f"{r:.2f}" for r in report.doubling_ratios)
    byte_ratios = ", ".join(f"{r:.2f}" for r in report.bytes_doubling_ratios)
    print(f"\n[PASS] criterion 9: doubling ratios time=[{ratios}] "
          f"bytes=[{byte_ratios}] in {elapsed:.1f}s")


def test_index_allocation_scales_linearly(tmp_path):
    """Beside criterion 9, on its corpora: each doubling of the corpus at
    most 2.5x (the bound of its bytes check) the index path's tracemalloc
    peak, the largest of its stages' peaks, which the host cannot move."""
    encoder = HashEncoder(seed=7)
    peaks = []
    for size in (500, 1000, 2000, 4000):
        corpus, _ = generate_synthetic_corpus(
            n_passages=size, avg_sentences=3, entity_pool=size // 4, seed=7
        )
        write_corpus_jsonl(corpus, tmp_path / f"{size}.jsonl")
        clock = StageClock({"index": INDEX_STAGES})
        clock.traced(index_pass(tmp_path / f"{size}.jsonl", tmp_path / str(size), encoder))
        peaks.append(clock.peak_kib["index"][0])
    ratios = [after / before for before, after in zip(peaks, peaks[1:])]
    for ratio in ratios:
        assert ratio <= 2.5, f"index-allocation doubling ratio {ratio:.2f}"
    print(f"\n[PASS] index allocation doubling ratios "
          f"[{', '.join(f'{r:.2f}' for r in ratios)}] of peaks {peaks} KiB")


def _masked_eval_report(path):
    report = json.loads(path.read_text())
    report["mean_retrieval_ms"] = "MASKED"
    return json.dumps(report, sort_keys=True)


def test_criterion_10_determinism_across_runs(tmp_path):
    runs = []
    for run in ("one", "two"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        config_path = run_dir / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "corpus_path": str(DATA_DIR / "multihop" / "corpus.jsonl"),
                    "index_dir": str(run_dir / "index"),
                    "encoder": {"id": "hash", **MULTIHOP_ENCODER},
                    "retrieval": {"delta": 0.01},
                }
            )
        )
        assert main(["index", "--config", str(config_path)]) == 0
        assert (
            main(
                [
                    "eval",
                    "--config",
                    str(config_path),
                    str(DATA_DIR / "multihop" / "qa.jsonl"),
                ]
            )
            == 0
        )
        runs.append(run_dir / "index")

    # Identical index bytes, file by file.
    names = sorted(p.name for p in runs[0].iterdir() if p.name != "eval_report.json")
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    # Identical reports once timing is masked.
    assert _masked_eval_report(runs[0] / "eval_report.json") == _masked_eval_report(
        runs[1] / "eval_report.json"
    )
    print("\n[PASS] criterion 10: two seeded index+eval runs byte-identical "
          "(timing masked)")

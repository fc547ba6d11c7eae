import gc
import hashlib
import socket

import pytest

from linearrag import evalbench
from linearrag.embedding import HashEncoder, build_store
from linearrag.errors import ConfigError
from linearrag.evalbench import (
    QaExample,
    Xorshift64Star,
    assemble_prompt,
    bench_scaling,
    evaluate,
    forbid_network,
    generate_synthetic_corpus,
    load_qa_examples,
    query_costs,
    write_corpus_jsonl,
    write_qa_examples,
)
from linearrag.retrieval import RetrievalConfig, retrieve
from linearrag.trigraph import build

from conftest import make_corpus


def tiny_index(texts, dim=64, seed=1):
    graph = build(make_corpus(texts))
    return graph, build_store(graph, HashEncoder(dim=dim, seed=seed))


class TestEvaluate:
    def test_gold_is_cosine_top1_gives_full_recall(self):
        graph, store = tiny_index(
        ["Karo met Lumen near the bay.", "Dorvo slept all day.", "Evrik sang loudly."]
        )
        example = QaExample(
            question="karo lumen bay",
            gold_answer="Lumen",
            gold_passage_keys=frozenset({"0"}),
        )
        cfg = RetrievalConfig(entity_sim_threshold=0.2, delta=0.01)
        report = evaluate(graph, store, [example], cfg)
        assert report.recall_at_k == 1.0
        assert report.contain_at_k == 1.0
        assert report.n_examples == 1

    def test_absent_answer_scores_zero_contain(self):
        graph, store = tiny_index(["Karo met Lumen.", "Dorvo slept."])
        example = QaExample(
            question="karo",
            gold_answer="Zanzibar",
            gold_passage_keys=frozenset({"0"}),
        )
        report = evaluate(graph, store, [example], RetrievalConfig(delta=0.01))
        assert report.contain_at_k == 0.0

    def test_empty_example_list_is_error(self):
        graph, store = tiny_index(["Karo met Lumen."])
        with pytest.raises(ValueError):
            evaluate(graph, store, [])

    def test_unresolved_keys_reported_not_dropped(self):
        graph, store = tiny_index(["Karo met Lumen."])
        example = QaExample(
            question="karo",
            gold_answer="Lumen",
            gold_passage_keys=frozenset({"0", "ghost-key"}),
        )
        report = evaluate(graph, store, [example], RetrievalConfig(delta=0.01))
        assert report.unresolved_keys == ("ghost-key",)
        assert report.recall_at_k == 0.5  # ghost key counts as a miss

    def test_aggregation_order_insensitive(self):
        graph, store = tiny_index(
            ["Karo met Lumen.", "Dorvo slept.", "Evrik sang. Karo left."]
        )
        examples = [
            QaExample("karo", "Lumen", frozenset({"0"})),
            QaExample("dorvo", "slept", frozenset({"1"})),
            QaExample("evrik", "sang", frozenset({"2"})),
        ]
        cfg = RetrievalConfig(delta=0.01)
        forward = evaluate(graph, store, examples, cfg)
        backward = evaluate(graph, store, list(reversed(examples)), cfg)
        assert forward.contain_at_k == backward.contain_at_k
        assert forward.recall_at_k == backward.recall_at_k
        assert forward.mean_hops == backward.mean_hops

    def test_recall_monotone_in_k(self):
        graph, store = tiny_index(
            ["Karo met Lumen.", "Lumen met Dorvo.", "Dorvo met Evrik.", "Evrik slept."]
        )
        example = QaExample("karo lumen dorvo", "x", frozenset({"0", "1", "2"}))
        previous = 0.0
        for k in (1, 2, 3, 4):
            cfg = RetrievalConfig(entity_sim_threshold=0.2, delta=0.01, top_k=k)
            report = evaluate(graph, store, [example], cfg)
            assert report.recall_at_k >= previous
            previous = report.recall_at_k

    def test_qa_file_round_trip(self, tmp_path):
        examples = [
            QaExample("who?", "that one", frozenset({"a", "b"})),
            QaExample("what?", "this", frozenset({"c"})),
        ]
        path = tmp_path / "qa.jsonl"
        write_qa_examples(examples, path)
        assert load_qa_examples(path) == examples

    def test_bad_qa_record(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"question": "q"}\n')
        with pytest.raises(ConfigError):
            load_qa_examples(path)


class TestXorshift:
    def test_reference_values(self):
        # First outputs for seed 1, frozen from the published recurrence
        # (shift triple 12/25/27, multiplier 0x2545F4914F6CDD1D).
        rng = Xorshift64Star(1)
        assert [rng.next_u64() for _ in range(4)] == [
            5180492295206395165,
            12380297144915551517,
            13389498078930870103,
            5599127315341312413,
        ]

    def test_zero_seed_replaced(self):
        assert Xorshift64Star(0).next_u64() == Xorshift64Star(
            0x9E3779B97F4A7C15
        ).next_u64()

    def test_randint_range(self):
        rng = Xorshift64Star(99)
        values = [rng.randint(7) for _ in range(200)]
        assert set(values) <= set(range(7))
        assert len(set(values)) > 1


class TestGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        a, qa_a = generate_synthetic_corpus(20, 2, 20, seed=4, n_chains=3)
        b, qa_b = generate_synthetic_corpus(20, 2, 20, seed=4, n_chains=3)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus_jsonl(a, pa)
        write_corpus_jsonl(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert qa_a == qa_b
        assert a.source_digest == b.source_digest

    def test_different_seed_differs(self):
        a, _ = generate_synthetic_corpus(20, 2, 20, seed=4, n_chains=3)
        b, _ = generate_synthetic_corpus(20, 2, 20, seed=5, n_chains=3)
        assert a.source_digest != b.source_digest

    def test_ten_passages_two_chains(self):
        corpus, examples = generate_synthetic_corpus(
            n_passages=10, avg_sentences=2, entity_pool=12, seed=8, n_chains=2
        )
        assert len(corpus.passages) == 10
        assert len(examples) == 2
        for example in examples:
            assert len(example.gold_passage_keys) == 2

    def test_pool_below_three_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(10, 2, 2, seed=1, n_chains=0)

    def test_pool_too_small_for_chains_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(10, 2, 7, seed=1, n_chains=2)

    def test_planted_chain_recoverable_by_graph_search(self):
        corpus, examples = generate_synthetic_corpus(
            n_passages=12, avg_sentences=2, entity_pool=16, seed=8, n_chains=2
        )
        graph = build(corpus)
        registry = {r.canonical: r.id for r in graph.entity_registry.records}
        from test_retrieval import bfs_entity_distance

        for chain in range(2):
            a_name = examples[chain].question.removeprefix("Who joined ").removesuffix(
                " on the expedition?"
            )
            a_id = registry[a_name.casefold()]
            c_id = registry[examples[chain].gold_answer.casefold()]
            distance = bfs_entity_distance(graph, {a_id})
            assert distance[c_id] == 2

    def test_chain_entities_only_in_chain_passages(self):
        corpus, examples = generate_synthetic_corpus(
            n_passages=12, avg_sentences=2, entity_pool=16, seed=8, n_chains=2
        )
        for example in examples:
            answer = example.gold_answer
            holders = [p.doc_key for p in corpus.passages if answer in p.text]
            assert set(holders) <= example.gold_passage_keys

    def test_names_below_8000_are_pinned(self):
        names = "\n".join(evalbench._entity_name(i) for i in range(8000))
        assert hashlib.sha256(names.encode()).hexdigest() == (
            "6548f8c64a03d59cd67c56fe94f802735eb7ea314a83dc8a9d8eca0bd33fa169"
        )

    def test_names_stay_distinct_past_16000_passages(self):
        """A pool of n/4 two-token names reaches name 8000 past 16,000
        passages; each name stays distinct there, so every chain entity
        still appears only in its chain passages."""
        n = 16400
        corpus, examples = generate_synthetic_corpus(n, 3, n // 4, seed=0, n_chains=40)
        names = [evalbench._two_token_name(i) for i in range(n // 4)]
        assert len(set(names)) == n // 4
        for chain, example in enumerate(examples):
            for name in names[3 * chain : 3 * chain + 3]:
                holders = {p.doc_key for p in corpus.passages if name in p.text}
                assert holders and holders <= example.gold_passage_keys


class TestNetworkGuard:
    def test_blocks_and_records_connections(self):
        with forbid_network() as attempts:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            with pytest.raises(OSError):
                sock.connect(("127.0.0.1", 9))
            sock.close()
        assert len(attempts) == 1

    def test_restores_after_exit(self):
        with forbid_network():
            pass
        assert socket.socket.connect.__name__ != "blocked"


class TestPrompt:
    def make_ranked(self, texts, question="who?"):
        graph, store = tiny_index(texts)
        cfg = RetrievalConfig(entity_sim_threshold=0.2, delta=0.01, top_k=2)
        return graph.corpus, retrieve(question, graph, store, cfg)

    def test_empty_context_block(self):
        corpus, ranked = self.make_ranked(["Karo met Lumen."])
        empty = ranked.__class__(items=(), query_echo="who?")
        prompt = assemble_prompt("who?", empty, corpus)
        assert "Context:\n\nQuestion: who?" in prompt

    def test_passages_in_rank_order_with_doc_keys(self):
        corpus, ranked = self.make_ranked(
            ["Karo met Lumen.", "Lumen met Dorvo."], question="karo lumen"
        )
        prompt = assemble_prompt("karo lumen", ranked, corpus)
        positions = []
        for item in ranked.items:
            key = corpus.passages[item.passage_id].doc_key
            positions.append(prompt.index(f"[{key}]"))
        assert positions == sorted(positions)

    def test_deterministic(self):
        corpus, ranked = self.make_ranked(["Karo met Lumen."], question="karo")
        first = assemble_prompt("karo", ranked, corpus)
        second = assemble_prompt("karo", ranked, corpus)
        assert first == second

    def test_unknown_template(self):
        corpus, ranked = self.make_ranked(["Karo met Lumen."])
        with pytest.raises(ConfigError):
            assemble_prompt("q", ranked, corpus, template_id="fancy")


class TestBenchScaling:
    def test_tiny_run_shape(self, tmp_path):
        report = bench_scaling(
            [24, 48], avg_sentences=2, seed=3, n_queries=4, work_dir=tmp_path
        )
        assert report.sizes == (24, 48)
        assert len(report.doubling_ratios) == 1
        assert len(report.bytes_doubling_ratios) == 1
        assert report.network_attempts == 0
        assert all(b > 0 for b in report.index_bytes)
        assert all(s > 0 for s in report.index_seconds)

    def test_every_question_takes_the_graph_path(self, tmp_path):
        """The batch's questions beyond the chain questions name a whole
        entity, so none of them falls back to dense ranking. ``query_costs``
        asks each distinct question once per round: with seed 7 the batch
        of 10 holds 8 distinct questions at 60 passages and 10 at 120."""
        report = bench_scaling([60, 120], seed=7, n_queries=10, work_dir=tmp_path)
        assert [q["graph_path"]["questions"] for q in report.query_costs] == [8, 10]
        assert [q["fallback"]["questions"] for q in report.query_costs] == [0, 0]
        assert report.mean_query_seconds == tuple(
            q["graph_path"]["median_ms"]["retrieve"] / 1e3 for q in report.query_costs
        )

    def test_query_costs_count_each_question_under_its_path(self):
        graph, store = tiny_index(
            ["Karo met Lumen near the bay.", "Lumen met Dorvo.", "Dorvo slept all day."]
        )
        costs = query_costs(
            graph,
            store,
            ["Karo Lumen", "unrelated query words", "Karo Lumen"],
            RetrievalConfig(delta=0.01),
            rounds=2,
        )
        assert costs["stages_as_expected"]
        assert costs["graph_path"]["questions"] == costs["fallback"]["questions"] == 1
        graph_stages = {f"retrieve.{stage}" for stage in evalbench.GRAPH_STAGES}
        fallback_stages = {f"retrieve.{stage}" for stage in evalbench.FALLBACK_STAGES}
        assert set(costs["graph_path"]["median_ms"]) == {"retrieve", *graph_stages}
        assert set(costs["fallback"]["median_ms"]) == {"retrieve", *fallback_stages}

    def test_stage_clock_counts_collections_by_generation(self):
        clock = evalbench.StageClock({"both": ("quiet", "churn")})

        def step(lap):
            lap("quiet")
            for generation in (0, 0, 2):
                gc.collect(generation)
            lap("churn")

        enabled = gc.isenabled()
        gc.disable()  # only the step's own collections
        try:
            for _ in range(3):
                clock.timed(step)
            clock.traced(step)
        finally:
            if enabled:
                gc.enable()
        assert clock.summary()["median_collections"] == {
            "quiet": [0, 0, 0],
            "churn": [2, 0, 1],
            "both": [2, 0, 1],
        }

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError):
            bench_scaling([100])

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            bench_scaling([100, 50])

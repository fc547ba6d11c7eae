"""The two workloads, the output check on every operation, and the metrics.

Every workload runs in one process with one client in a closed loop: the
next call starts only when the previous one has returned, as a RAG caller
that waits for its passages would. Each run first sets the index up
``SETUP_REPS`` times from the corpus JSONL on disk and keeps the last one.

* ``graph-query`` asks the chain questions and questions naming whole
  two-token entities: nearly all take activation, passage seeds and PPR.
* ``append-query`` alternates one append of a four-passage slice with one
  query naming an entity of that slice; a per-graph cache would pay its
  rebuild on every one of these queries. At the end the grown index must
  equal a rebuild of the concatenated corpus, in memory and on disk.

``graph-query`` appends too, in ``READ_ROUNDS`` batches between its bursts
of reads, so that every workload reports every end-to-end metric.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import shutil
import statistics
import sys
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator

import numpy as np

from linearrag import (
    HashEncoder,
    QaExample,
    RankedPassages,
    RetrievalConfig,
    add_passages,
    build,
    build_store,
    forbid_network,
    graph_equal,
    ingest,
    initial_activation,
    load,
    load_store,
    passage_seed_scores,
    ppr,
    propagate,
    retrieve,
    save,
    save_store,
)
from linearrag.corpus import PassageRecord, corpus_from_records
from linearrag.embedding import EmbeddingStore, extend_store
from linearrag.evalbench import write_corpus_jsonl
from linearrag.extraction import (
    ExtractorContract,
    build_entity_registry,
    extract_corpus_mentions,
)
from linearrag.retrieval import dense_ranking

from inputs import Inputs, Slice, make_slice
from tracer import NullTracer, Tracer

CFG = RetrievalConfig(delta=0.01)
ENCODER_DIM = 256
ENCODER_SEED = 0  # HashEncoder's default seed
SETUP_REPS = 3
# At least ten samples beyond each reported p90.
MIN_APPENDS = 150
MIN_QUERIES = 100
READ_ROUNDS = 30
# After a pause in the reads (appends, a collection, idle time), queries run
# up to twice as slow for about 150 ms before they settle, as measured on a
# shared 2-vCPU VM; a read burst is timed only after this warm-up.
WARMUP_NS = 250_000_000
VECTOR_FILES = frozenset({"entities.vec", "sentences.vec", "passages.vec"})
QUERY_STAGES = frozenset(
    {
        "retrieval.initial_activation",
        "retrieval.propagate",
        "retrieval.passage_seeds",
        "retrieval.ppr",
        "retrieval.dense_ranking",
    }
)
# Per-layer numbers taken beside the call they describe, not inside it.
MEASURED_OUTSIDE = (
    "extraction.extract_ms",
    "extraction.registry_ms",
    "embedding.encode_query_ms",
    "retrieval.ppr_residual_l1",
    "retrieval.ppr_converged_share",
    "trigraph.build_peak_mb",
    "retrieval.query_peak_mb",
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _p90(values: list[float]) -> float:
    """Nearest-rank p90: with 100 samples, 10 lie beyond it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def _same_rows(a: EmbeddingStore, b: EmbeddingStore) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in (
            (a.entity_vectors, b.entity_vectors),
            (a.sentence_vectors, b.sentence_vectors),
            (a.passage_vectors, b.passage_vectors),
        )
    )


def _index_bytes(directory: Path) -> tuple[int, int]:
    """(graph file bytes, vector file bytes) of a saved index."""
    graph_bytes = vector_bytes = 0
    for path in directory.iterdir():
        if path.name in VECTOR_FILES:
            vector_bytes += path.stat().st_size
        else:
            graph_bytes += path.stat().st_size
    return graph_bytes, vector_bytes


class Bench:
    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: int,
        trace: bool,
        inputs: Inputs,
        work_dir: Path,
    ):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inputs = inputs
        self.work_dir = work_dir
        self.tracer: Tracer | NullTracer = Tracer() if trace else NullTracer()
        self.encoder = HashEncoder(dim=ENCODER_DIM, seed=ENCODER_SEED)
        self.embedder = {"id": self.encoder.contract.id, "dim": ENCODER_DIM}
        self.corpus_path = work_dir / "corpus.jsonl"

        self.graph = None
        self.store: EmbeddingStore | None = None
        self.index_dir: Path | None = None
        self.slices: list[Slice] = []

        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.network_attempts = 0
        self.setup_s: list[float] = []
        self.append_ms: list[float] = []
        self.query_ms: list[float] = []
        self.after_append_ms: list[float] = []
        self.graph_path: list[bool] = []
        self.quality: dict[str, tuple[bool, float]] = {}
        self.counters: dict[str, list[float]] = defaultdict(list)
        self.setup_index: dict[str, int] = {}
        self.peak_rss_mb = 0.0
        self.n_queries = 0

    # -- bookkeeping ---------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @contextlib.contextmanager
    def operation(self, what: str, fatal: bool = False) -> Iterator[None]:
        """One counted operation; an exception or a failed check fails it.

        The run goes on after a failed operation unless ``fatal`` is set."""
        self.attempted += 1
        before = len(self.failures)
        try:
            yield
        except Exception as exc:
            self.failures.append(f"{what}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            if fatal:
                raise
        finally:
            if len(self.failures) > before:
                self.failed += 1

    # -- workload --------------------------------------------------------

    def run(self) -> None:
        with forbid_network() as attempts:
            self._run()
        self.network_attempts = len(attempts)
        with self.operation("network-guard"):
            self.check(not attempts, f"{len(attempts)} outbound connection attempt(s)")

    def _run(self) -> None:
        write_corpus_jsonl(self.inputs.corpus, self.corpus_path)
        for rep in range(SETUP_REPS):
            self.setup(rep)
        if self.tracer.enabled:
            self.trace_build_peak()

        if self.workload == "append-query":
            self.append_rounds()
        else:
            self.read_rounds()

        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.tracer.enabled:
            self.trace_query_peak()
        if self.workload == "append-query":
            self.verify_grown()

    def append_rounds(self) -> None:
        """Rounds of one append then one query about that slice, for at least
        ``MIN_APPENDS`` rounds and ``seconds`` seconds."""
        gc.collect()
        deadline = perf_counter_ns() + self.seconds * 1_000_000_000
        index = 0
        while index < MIN_APPENDS or perf_counter_ns() < deadline:
            piece = self.append(index)
            if piece is not None:
                self.ask(piece.question.question, piece.question, after_append=True)
            index += 1

    def read_rounds(self) -> None:
        """``READ_ROUNDS`` rounds of a batch of appends followed by a
        closed-loop burst of reads. A burst warms up untimed for
        ``WARMUP_NS``, then asks at least the next ``1 / READ_ROUNDS`` of the
        question list and lasts at least ``seconds / READ_ROUNDS``.

        Spreading the reads over the whole run, rather than timing them in
        one block, averages over the spells of a few seconds in which a
        shared machine runs fast or slow."""
        questions = self.inputs.graph_questions
        chains = {example.question: example for example in self.inputs.chains}
        appends = MIN_APPENDS // READ_ROUNDS
        per_burst = -(-max(MIN_QUERIES, len(questions)) // READ_ROUNDS)
        burst_ns = self.seconds * 1_000_000_000 // READ_ROUNDS
        asked = 0

        def ask_next(timed: bool, after_append: bool = False) -> None:
            nonlocal asked
            question = questions[asked % len(questions)]
            asked += 1
            self.ask(question, chains.get(question), timed=timed, after_append=after_append)

        for round_ in range(READ_ROUNDS):
            for k in range(appends):
                self.append(round_ * appends + k)
            gc.collect()
            started = perf_counter_ns()
            ask_next(timed=False, after_append=True)
            while perf_counter_ns() - started < WARMUP_NS:
                ask_next(timed=False)
            started, n = perf_counter_ns(), 0
            while n < per_burst or perf_counter_ns() - started < burst_ns:
                ask_next(timed=True)
                n += 1

    def setup(self, rep: int) -> None:
        """Corpus JSONL on disk to a queryable index in memory.

        A failure here leaves nothing to measure, so it ends the run."""
        t, tid = self.tracer, f"setup-{rep}"
        directory = self.work_dir / f"index-{rep}"
        self.graph = self.store = None
        gc.collect()
        with self.operation(tid, fatal=True):
            self._setup(tid, directory)
        if self.index_dir is not None:
            shutil.rmtree(self.index_dir)
        self.index_dir = directory
        graph = self.graph
        graph_bytes, vector_bytes = _index_bytes(directory)
        self.setup_index = {
            "passages": graph.n_passages,
            "sentences": graph.n_sentences,
            "entities": graph.n_entities,
            "contain_nnz": graph.contain.nnz,
            "mention_nnz": graph.mention.nnz,
            "graph_bytes": graph_bytes,
            "vector_bytes": vector_bytes,
        }

    def _setup(self, tid: str, directory: Path) -> None:
        t = self.tracer
        started = perf_counter_ns()
        with t.span("setup", tid):
            with t.span("corpus.ingest", tid):
                corpus = ingest(self.corpus_path)
            with t.span("trigraph.build", tid):
                built = build(corpus)
            with t.span("embedding.build_store", tid):
                built_store = build_store(built, self.encoder)
            with t.span("trigraph.save", tid):
                save(built, directory, embedder=self.embedder)
            with t.span("embedding.save_store", tid):
                save_store(built_store, directory)
            with t.span("trigraph.load", tid):
                graph = load(directory)
            with t.span("embedding.load_store", tid):
                store = load_store(directory, graph)
        self.setup_s.append((perf_counter_ns() - started) / 1e9)
        self.check(
            corpus.source_digest == self.inputs.corpus.source_digest,
            f"{tid}: ingested corpus digest differs from the generated corpus",
        )
        self.check(
            graph_equal(graph, built) and _same_rows(store, built_store),
            f"{tid}: loaded index differs from the one built",
        )
        if t.enabled:
            self.trace_extraction(corpus, tid)
        self.graph, self.store = graph, store

    def append(self, index: int) -> Slice | None:
        """What ``linearrag index --add`` does, for one four-passage slice."""
        piece = make_slice(self.seed, index, self.inputs.filler_names)
        t, tid = self.tracer, f"append-{index}"
        graph, store = self.graph, self.store
        with self.operation(tid):
            started = perf_counter_ns()
            with t.span("append", tid):
                with t.span("corpus.slice", tid):
                    delta = corpus_from_records(
                        piece.records,
                        passage_id_base=graph.n_passages,
                        sentence_id_base=graph.n_sentences,
                    )
                with t.span("trigraph.add_passages", tid):
                    grown = add_passages(graph, delta)
                with t.span("embedding.extend_store", tid):
                    extended = extend_store(store, grown)
                with t.span("trigraph.save", tid):
                    save(grown, self.index_dir, embedder=self.embedder)
                with t.span("embedding.save_store", tid):
                    save_store(extended, self.index_dir)
            self.append_ms.append((perf_counter_ns() - started) / 1e6)
            self.check(
                grown.n_passages == graph.n_passages + len(piece.records)
                and extended.matches(grown),
                f"{tid}: grown index has the wrong shape",
            )
            self.graph, self.store = grown, extended
            self.slices.append(piece)
            if t.enabled:
                graph_bytes, _ = _index_bytes(self.index_dir)
                self.counters["save_bytes_per_passage"].append(
                    graph_bytes / len(piece.records)
                )
            return piece
        return None

    def ask(
        self,
        question: str,
        gold: QaExample | None,
        timed: bool = True,
        after_append: bool = False,
    ) -> None:
        """One query with its output checks. Untimed (warm-up) queries go
        through ``retrieve`` and leave no spans or latency samples, except the
        time of a query right after an append."""
        tid = f"query-{self.n_queries}"
        self.n_queries += 1
        with self.operation(tid):
            if self.tracer.enabled and timed:
                ranked, ms, first_ms = self.staged_query(
                    question, tid, retrieve_first=self.n_queries % 2 == 0
                )
            else:
                started = perf_counter_ns()
                ranked = retrieve(question, self.graph, self.store, CFG)
                ms = first_ms = (perf_counter_ns() - started) / 1e6
            self.check_ranked(ranked, tid)
            if after_append:
                self.after_append_ms.append(first_ms)
            if timed:
                self.query_ms.append(ms)
                self.graph_path.append(not ranked.fallback_used)
            if gold is not None:
                passages = self.graph.corpus.passages
                answer = gold.gold_answer.casefold()
                ids = ranked.passage_ids()
                keys = {passages[i].doc_key for i in ids}
                self.quality[gold.question] = (
                    any(answer in passages[i].text.casefold() for i in ids),
                    len(gold.gold_passage_keys & keys) / len(gold.gold_passage_keys),
                )

    # -- output checks -----------------------------------------------------

    def check_ranked(self, ranked: RankedPassages, tid: str) -> None:
        ids = ranked.passage_ids()
        scores = [item.score for item in ranked.items]
        n = self.graph.n_passages
        self.check(
            len(ids) == min(CFG.top_k, n)
            and len(set(ids)) == len(ids)
            and all(0 <= i < n for i in ids)
            and all(np.isfinite(scores))
            and all(a >= b for a, b in zip(scores, scores[1:])),
            f"{tid}: ranked list is not {CFG.top_k} distinct in-range ids "
            "with non-increasing scores",
        )

    def verify_grown(self) -> None:
        """The appended index equals a rebuild, in memory and on disk."""
        with self.operation("verify-grown"):
            records = [
                PassageRecord(doc_key=p.doc_key, title=p.title, text=p.text)
                for p in self.inputs.corpus.passages
            ]
            records += [r for piece in self.slices for r in piece.records]
            rebuilt = build(corpus_from_records(records))
            self.check(
                graph_equal(self.graph, rebuilt),
                "grown graph differs from build() of the concatenated corpus",
            )
            self.check(
                _same_rows(self.store, build_store(rebuilt, self.encoder)),
                "grown store rows differ from a fresh build_store",
            )
            on_disk = load(self.index_dir)
            self.check(
                graph_equal(on_disk, self.graph)
                and _same_rows(load_store(self.index_dir, on_disk), self.store),
                "saved index differs from the grown index in memory",
            )

    # -- traced run only ---------------------------------------------------

    def staged_query(
        self, question: str, tid: str, retrieve_first: bool
    ) -> tuple[RankedPassages, float, float]:
        """Call ``retrieve``'s stages one by one under spans, and ``retrieve``
        itself untraced; their top-k must agree. Which goes first alternates
        from query to query, so neither always finds the caches warm.

        Returns retrieve's result, its time, and the time of whichever of the
        two ran first (what a query right after an append pays)."""
        t, graph, store = self.tracer, self.graph, self.store

        def plain() -> tuple[RankedPassages, float]:
            with t.span("retrieval.retrieve", tid) as span:
                ranked = retrieve(question, graph, store, CFG)
            return ranked, span.duration_ns / 1e6

        if retrieve_first:
            ranked, ms = plain()
        with t.span("query", tid) as root:
            with t.span("retrieval.initial_activation", tid):
                state = initial_activation(question, graph, store, CFG)
            seeds = len(state.frontier)
            while state.hop < CFG.max_hops and state.frontier:
                with t.span("retrieval.propagate", tid):
                    advanced = propagate(state, graph, CFG)
                if not advanced.frontier:
                    break
                state = advanced
            activated = state.activated_entities()
            if activated.size == 0:
                with t.span("retrieval.dense_ranking", tid):
                    top = dense_ranking(state.query_vec, store, CFG.top_k)
            else:
                with t.span("retrieval.passage_seeds", tid):
                    passage_seeds = passage_seed_scores(state, graph, store, None, CFG)
                with t.span("retrieval.ppr", tid):
                    importance = ppr(graph, state.a, passage_seeds, CFG)
                with t.span("bench.rank", tid):
                    scores = importance[: graph.n_passages]
                    order = np.lexsort((np.arange(len(scores)), -scores))[: CFG.top_k]
                    top = [(int(p), float(scores[p])) for p in order]
        if not retrieve_first:
            ranked, ms = plain()
        self.check(
            [(item.passage_id, item.score) for item in ranked.items] == top,
            f"{tid}: the stages called one by one disagree with retrieve",
        )

        with t.span("embedding.encode_query", tid):
            store.encode_query(question)
        if activated.size:
            mask = np.zeros(graph.n_entities, dtype=bool)
            mask[activated] = True
            touched = np.unique(graph.mention.row_ids[mask[graph.mention.col_ids]])
            one_more = replace(CFG, ppr_max_iters=CFG.ppr_max_iters + 1)
            residual = float(
                np.abs(ppr(graph, state.a, passage_seeds, one_more) - importance).sum()
            )
            for name, value in (
                ("hops", state.hop),
                ("seed_entities", seeds),
                ("activated_entities", activated.size),
                ("sentences_touched_share", touched.size / graph.n_sentences),
                ("ppr_residual_l1", residual),
                ("ppr_converged", residual < CFG.ppr_tol),
            ):
                self.counters[name].append(float(value))
        return ranked, ms, ms if retrieve_first else root.duration_ns / 1e6

    def trace_extraction(self, corpus, tid: str) -> None:
        """``build``'s first two steps, timed beside it on the same corpus."""
        t = self.tracer
        contract = ExtractorContract.make()
        with t.span("extraction.extract", tid):
            mentions = extract_corpus_mentions(corpus, contract)
        with t.span("extraction.registry", tid):
            registry, _ = build_entity_registry(mentions, corpus)
        self.counters["mentions"].append(len(mentions))
        self.counters["entities"].append(len(registry))

    def trace_build_peak(self) -> None:
        tracemalloc.start()
        try:
            build(self.graph.corpus)
            self.counters["build_peak_mb"].append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()

    def trace_query_peak(self) -> None:
        """Largest tracemalloc peak over the first few distinct questions."""
        if self.workload == "append-query":
            questions = [piece.question.question for piece in self.slices[-5:]]
        else:
            questions = list(self.inputs.graph_questions[:5])
        tracemalloc.start()
        try:
            for question in questions:
                tracemalloc.reset_peak()
                retrieve(question, self.graph, self.store, CFG)
                self.counters["query_peak_mb"].append(
                    tracemalloc.get_traced_memory()[1] / 2**20
                )
        finally:
            tracemalloc.stop()

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        contain = [hit for hit, _ in self.quality.values()]
        recall = [share for _, share in self.quality.values()]
        index = self.setup_index
        return {
            "setup_s": _median(self.setup_s),
            "query_p50_ms": _median(self.query_ms),
            "query_p90_ms": _p90(self.query_ms),
            "query_qps": 1000.0 * len(self.query_ms) / sum(self.query_ms)
            if self.query_ms
            else 0.0,
            "append_p50_ms": _median(self.append_ms),
            "append_p90_ms": _p90(self.append_ms),
            "index_bytes_per_passage": (index["graph_bytes"] + index["vector_bytes"])
            / index["passages"],
            "peak_rss_mb": self.peak_rss_mb,
            "contain_at_5": _mean(contain),
            "recall_at_5": _mean(recall),
        }

    def per_layer(self) -> dict[str, float]:
        spans = self.tracer.spans
        own = self.tracer.self_times_ms()
        stage_ms: dict[str, float] = defaultdict(float)
        for span in spans:
            if span.name in QUERY_STAGES:
                stage_ms[span.trace_id] += span.duration_ns / 1e6
        retrieve_spans = [s for s in spans if s.name == "retrieval.retrieve"]
        retrieve_self = [
            s.duration_ns / 1e6 - stage_ms[s.trace_id] for s in retrieve_spans
        ]
        untraced = _median([s.duration_ns / 1e6 for s in retrieve_spans])
        traced = _median([s.duration_ns / 1e6 for s in spans if s.name == "query"])
        c = self.counters

        def ms(name: str) -> float:
            return _median(own.get(name, []))

        return {
            "corpus.ingest_ms": ms("corpus.ingest"),
            "corpus.slice_ms": ms("corpus.slice"),
            "extraction.extract_ms": ms("extraction.extract"),
            "extraction.registry_ms": ms("extraction.registry"),
            "extraction.mentions": _mean(c["mentions"]),
            "extraction.entities": _mean(c["entities"]),
            "trigraph.build_ms": ms("trigraph.build"),
            "trigraph.add_passages_ms": ms("trigraph.add_passages"),
            "trigraph.save_ms": ms("trigraph.save"),
            "trigraph.load_ms": ms("trigraph.load"),
            "trigraph.bytes": float(self.setup_index["graph_bytes"]),
            "trigraph.save_bytes_per_appended_passage": _median(c["save_bytes_per_passage"]),
            "trigraph.build_peak_mb": _mean(c["build_peak_mb"]),
            "embedding.build_store_ms": ms("embedding.build_store"),
            "embedding.load_store_ms": ms("embedding.load_store"),
            "embedding.save_store_ms": ms("embedding.save_store"),
            "embedding.extend_store_ms": ms("embedding.extend_store"),
            "embedding.encode_query_ms": ms("embedding.encode_query"),
            "embedding.bytes": float(self.setup_index["vector_bytes"]),
            "retrieval.initial_activation_ms": ms("retrieval.initial_activation"),
            "retrieval.propagate_ms": ms("retrieval.propagate"),
            "retrieval.hops": _mean(c["hops"]),
            "retrieval.seed_entities": _mean(c["seed_entities"]),
            "retrieval.activated_entities": _mean(c["activated_entities"]),
            "retrieval.sentences_touched_share": _mean(c["sentences_touched_share"]),
            "retrieval.passage_seeds_ms": ms("retrieval.passage_seeds"),
            "retrieval.ppr_ms": ms("retrieval.ppr"),
            "retrieval.ppr_residual_l1": _median(c["ppr_residual_l1"]),
            "retrieval.ppr_converged_share": _mean(c["ppr_converged"]),
            "retrieval.dense_ranking_ms": ms("retrieval.dense_ranking"),
            "retrieval.retrieve_self_ms": _median(retrieve_self),
            "retrieval.first_query_after_append_ms": _median(self.after_append_ms),
            "retrieval.graph_path_share": self.graph_path_share(),
            "retrieval.query_peak_mb": max(c["query_peak_mb"], default=0.0),
            "tracing.overhead_pct": 100.0 * (traced / untraced - 1.0) if untraced else 0.0,
            "error_rate": self.error_rate(),
        }

    def graph_path_share(self) -> float:
        return _mean([float(x) for x in self.graph_path])

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

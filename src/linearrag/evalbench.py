"""Retrieval evaluation, synthetic corpora, the scaling benchmark, and one
stage harness with one driver for the index path and one for queries.

Evaluation is retrieval-level only: ``contain_at_k`` checks whether the
gold answer string appears (case-folded) in any of the top-k passage
texts, which upper-bounds what a downstream generator could do, and
``recall_at_k`` is the mean fraction of gold passage keys retrieved.

Synthetic corpora are produced by a portable xorshift64* generator (see
:class:`Xorshift64Star` for the exact constants) so fixtures reproduce
bit-for-bit everywhere. Each corpus plants bridge chains: entity A is
co-mentioned with B in one passage and B with C in another, and the paired
question names A while its answer appears only in the second passage, so
answering requires the bridge.

The stage harness (``StageClock``) measures every stage one way: the median
wall ms and the median ms the cyclic garbage collector ran within it, over
timed passes, and the ``tracemalloc`` peak of what it allocated, in KiB,
from separate untimed passes (tracing slows allocation). ``index_costs``
drives the index path (``index_pass``) over several corpora in turns, and
``query_costs`` asks a question list, graph-path and fallback questions
apart. ``bench_scaling`` (``linearrag bench``) and ``tools/stage_costs.py``
both measure through these two; the append driver is the tool's own.
"""

from __future__ import annotations

import gc
import json
import logging
import math
import shutil
import socket
import statistics
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Corpus, PassageRecord, corpus_from_records, ingest
from .embedding import (
    VECTOR_KINDS,
    EmbeddingStore,
    Encoder,
    HashEncoder,
    SparseRows,
    build_store,
    load_store,
    save_store,
)
from .errors import ConfigError, ConsistencyError
from .retrieval import (
    EntityLevel,
    RankedPassages,
    RetrievalConfig,
    _kind_scores,
    _query_terms,
    retrieve,
)
from .trigraph import (
    GRAPH_FILES,
    GRAPH_TAIL,
    MANIFEST,
    STORE_FILES,
    VECTOR_TAIL,
    TriGraph,
    build,
    graph_equal,
    load,
    save,
)

logger = logging.getLogger(__name__)

# ``bench_scaling`` indexes each size this many times, in turns over the
# sizes (``index_costs``), asks its question batch this many rounds
# (``query_costs``), and keeps the medians: a stall of the machine then lands
# in one round of several sizes, not in every round of one.
INDEX_BUILDS = 3
INDEX_STAGES = (
    "ingest", "build", "build_store", "save", "save_store", "load", "load_store"
)
# The stages whose time is ``BenchReport.index_seconds``.
BUILD_STAGES = INDEX_STAGES[1:5]
GRAPH_STAGES = ("initial_activation", "propagate", "passage_seed_scores", "ppr", "rank")
FALLBACK_STAGES = ("initial_activation", "propagate", "dense_ranking")


@dataclass(frozen=True)
class QaExample:
    question: str
    gold_answer: str
    gold_passage_keys: frozenset[str]

    def __post_init__(self):
        if not self.gold_answer:
            raise ValueError("gold_answer must be non-empty")
        if not self.gold_passage_keys:
            raise ValueError("gold_passage_keys must be non-empty")


@dataclass(frozen=True)
class EvalReport:
    n_examples: int
    top_k: int
    contain_at_k: float
    recall_at_k: float
    mean_hops: float
    mean_retrieval_ms: float
    unresolved_keys: tuple[str, ...] = ()


@dataclass(frozen=True)
class BenchReport:
    sizes: tuple[int, ...]
    index_seconds: tuple[float, ...]
    mean_query_seconds: tuple[float, ...]
    index_bytes: tuple[int, ...]
    doubling_ratios: tuple[float, ...]
    bytes_doubling_ratios: tuple[float, ...]
    network_attempts: int = 0
    # Per size, the index path's figures (``index_costs``).
    stage_costs: tuple[dict, ...] = ()
    # Per size, the question batch's figures (``query_costs``).
    query_costs: tuple[dict, ...] = ()


def evaluate(
    graph: TriGraph,
    store,
    examples: Sequence[QaExample],
    cfg: RetrievalConfig | None = None,
    levels: EntityLevel | None = None,
) -> EvalReport:
    """Run retrieval per example and aggregate metrics."""
    if not examples:
        raise ValueError("empty example list")
    cfg = cfg or RetrievalConfig()
    key_map = graph.corpus.key_to_passage_ids
    unresolved = sorted(
        {
            key
            for example in examples
            for key in example.gold_passage_keys
            if key not in key_map
        }
    )
    if unresolved:
        logger.warning(
            "%d gold key(s) do not resolve to any doc_key: %s",
            len(unresolved),
            ", ".join(unresolved[:10]),
        )

    contain_hits = 0
    recall_sum = 0.0
    hops = 0
    elapsed_ms = 0.0
    for example in examples:
        started = time.perf_counter()
        ranked = retrieve(example.question, graph, store, cfg, levels)
        elapsed_ms += (time.perf_counter() - started) * 1000.0
        texts = [graph.corpus.passages[i.passage_id].text for i in ranked.items]
        answer = example.gold_answer.casefold()
        if any(answer in text.casefold() for text in texts):
            contain_hits += 1
        retrieved_keys = {
            graph.corpus.passages[i.passage_id].doc_key for i in ranked.items
        }
        recall_sum += len(example.gold_passage_keys & retrieved_keys) / len(
            example.gold_passage_keys
        )
        hops += ranked.hops_used

    n = len(examples)
    return EvalReport(
        n_examples=n,
        top_k=cfg.top_k,
        contain_at_k=contain_hits / n,
        recall_at_k=recall_sum / n,
        mean_hops=hops / n,
        mean_retrieval_ms=elapsed_ms / n,
        unresolved_keys=tuple(unresolved),
    )


def load_qa_examples(path: str | Path) -> list[QaExample]:
    """QA fixture file: one {question, answer, gold_keys} record per line."""
    examples: list[QaExample] = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), 1
    ):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            examples.append(
                QaExample(
                    question=str(obj["question"]),
                    gold_answer=str(obj["answer"]),
                    gold_passage_keys=frozenset(str(k) for k in obj["gold_keys"]),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad QA record: {exc}") from exc
    return examples


def write_qa_examples(examples: Sequence[QaExample], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for example in examples:
            f.write(
                json.dumps(
                    {
                        "question": example.question,
                        "answer": example.gold_answer,
                        "gold_keys": sorted(example.gold_passage_keys),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def write_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for passage in corpus.passages:
            record = {"doc_key": passage.doc_key, "text": passage.text}
            f.write(json.dumps(record, ensure_ascii=False) + "\n")


_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """Portable xorshift64* PRNG.

    State update: ``x ^= x >> 12``; ``x ^= x << 25 (mod 2^64)``;
    ``x ^= x >> 27``; output is ``(x * 0x2545F4914F6CDD1D) mod 2^64``.
    A zero seed is replaced by 0x9E3779B97F4A7C15. The algorithm is pinned
    by these constants so generated fixtures are reproducible across
    platforms and implementations.
    """

    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self._state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * self.MULTIPLIER) & _MASK64

    def randint(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound); modulo bias is acceptable here."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def choice(self, seq: Sequence):
        return seq[self.randint(len(seq))]


_SYLLABLES = (
    "bar", "dol", "fen", "gor", "hul", "jin", "kel", "lum", "mor", "nev",
    "pol", "qua", "ril", "sag", "tor", "vex", "wyn", "yal", "zem", "bru",
)

_FILLER_TEMPLATES = (
    "{a} met {b} near the old {noun}.",
    "{a} traded maps with {b} at the {noun}.",
    "{a} argued with {b} about the {noun}.",
    "{a} sailed past the {noun} with {b}.",
    "{a} studied the {noun} before visiting {b}.",
)

_FILLER_NOUNS = (
    "harbor", "market", "archive", "garden", "bridge", "mill", "quarry",
    "lighthouse",
)

_CHAIN_FIRST = "{a} partnered with {b} during the long expedition. The journey lasted many weeks."
_CHAIN_SECOND = "{b} recruited {c} for the northern survey. The supplies ran low before winter."
_CHAIN_QUESTION = "Who joined {a} on the expedition?"


def _entity_name(index: int) -> str:
    """One syllable per base-20 digit of ``index``, least significant first,
    and at least three, so that every index past 7999 gets a longer name of
    its own."""
    syllables = [_SYLLABLES[index % 20]]
    while len(syllables) < 3 or index >= 20:
        index //= 20
        syllables.append(_SYLLABLES[index % 20])
    return "".join(syllables).capitalize()


def _two_token_name(index: int) -> str:
    return f"{_entity_name(2 * index)} {_entity_name(2 * index + 1)}"


def generate_synthetic_corpus(
    n_passages: int,
    avg_sentences: int,
    entity_pool: int,
    seed: int,
    n_chains: int = 2,
) -> tuple[Corpus, list[QaExample]]:
    """Deterministic templated corpus with planted 2-hop bridge chains.

    Entity names are two capitalized tokens so the query-entity similarity
    of the paired questions clears the default threshold under the hash
    encoder. Chain entities never appear outside their chain passages.
    """
    if entity_pool < 3:
        raise ValueError("entity_pool must be at least 3 to plant a 2-hop chain")
    if n_chains < 0:
        raise ValueError("n_chains must be >= 0")
    if entity_pool < 3 * n_chains + 2:
        raise ValueError(
            f"entity_pool={entity_pool} too small for {n_chains} chain(s); "
            f"need at least {3 * n_chains + 2}"
        )
    if n_passages < 2 * n_chains:
        raise ValueError(
            f"n_passages={n_passages} cannot hold {n_chains} chain(s)"
        )
    if avg_sentences < 1:
        raise ValueError("avg_sentences must be >= 1")

    rng = Xorshift64Star(seed)
    names = [_two_token_name(i) for i in range(entity_pool)]
    chain_names = names[: 3 * n_chains]
    filler_names = names[3 * n_chains :]

    n_fillers = n_passages - 2 * n_chains
    entries: list[tuple[str, tuple[int, int] | None]] = []
    for _ in range(n_fillers):
        n_sentences = max(1, avg_sentences - 1) + rng.randint(3) if avg_sentences > 1 else 1
        sentences = []
        for _ in range(n_sentences):
            template = rng.choice(_FILLER_TEMPLATES)
            a = rng.choice(filler_names)
            b = rng.choice(filler_names)
            noun = rng.choice(_FILLER_NOUNS)
            sentences.append(template.format(a=a, b=b, noun=noun))
        entries.append((" ".join(sentences), None))

    for chain in range(n_chains):
        a, b, c = chain_names[3 * chain : 3 * chain + 3]
        first = (_CHAIN_FIRST.format(a=a, b=b), (chain, 0))
        second = (_CHAIN_SECOND.format(b=b, c=c), (chain, 1))
        entries.insert(rng.randint(len(entries) + 1), first)
        entries.insert(rng.randint(len(entries) + 1), second)

    records = []
    chain_keys: dict[int, dict[int, str]] = {i: {} for i in range(n_chains)}
    for index, (text, tag) in enumerate(entries):
        doc_key = f"syn-{index:04d}"
        records.append(PassageRecord(doc_key=doc_key, title=None, text=text))
        if tag is not None:
            chain, role = tag
            chain_keys[chain][role] = doc_key

    corpus = corpus_from_records(records)
    examples = [
        QaExample(
            question=_CHAIN_QUESTION.format(a=chain_names[3 * chain]),
            gold_answer=chain_names[3 * chain + 2],
            gold_passage_keys=frozenset(chain_keys[chain].values()),
        )
        for chain in range(n_chains)
    ]
    return corpus, examples


@contextmanager
def forbid_network() -> Iterator[list]:
    """Block outbound socket connections for the duration.

    Yields a list that records any attempted connection addresses; the
    pipeline is expected to leave it empty.
    """
    attempts: list = []
    real_connect = socket.socket.connect
    real_connect_ex = socket.socket.connect_ex

    def blocked(self, address, *args, **kwargs):
        attempts.append(address)
        raise OSError("outbound network access blocked by linearrag guard")

    socket.socket.connect = blocked  # type: ignore[method-assign]
    socket.socket.connect_ex = blocked  # type: ignore[method-assign]
    try:
        yield attempts
    finally:
        socket.socket.connect = real_connect  # type: ignore[method-assign]
        socket.socket.connect_ex = real_connect_ex  # type: ignore[method-assign]


def bench_scaling(
    sizes: Sequence[int],
    cfg: RetrievalConfig | None = None,
    avg_sentences: int = 3,
    entity_pool: int | None = None,
    seed: int = 7,
    n_chains: int = 2,
    n_queries: int = 10,
    encoder: Encoder | None = None,
    work_dir: str | Path | None = None,
) -> BenchReport:
    """Index synthetic corpora of increasing size and time each stage.

    Each size's corpus is written as JSONL and indexed by ``index_costs``
    (the report's ``stage_costs``), ``INDEX_BUILDS`` timed passes in turns
    over the sizes. Index time is the median time of ``BUILD_STAGES``
    (graph construction, encoding and the persistence flush). A fixed
    question batch then goes through ``query_costs`` (the report's
    ``query_costs``), ``INDEX_BUILDS`` rounds on each size's loaded index.
    Query time (``mean_query_seconds``) is the median wall time of one
    graph-path ``retrieve`` call, in seconds, or NaN when no question takes
    the graph path. An index that loads back unequal to the one built
    raises ConsistencyError. Nothing runs concurrently, to keep timings
    honest.
    """
    if len(sizes) < 2:
        raise ValueError("need at least 2 sizes")
    if sorted(sizes) != list(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly increasing")
    cfg = cfg or RetrievalConfig(delta=0.01)
    encoder = encoder or HashEncoder(seed=seed)

    with forbid_network() as attempts, tempfile.TemporaryDirectory(
        dir=str(work_dir) if work_dir else None
    ) as work:
        corpora, batches = [], []
        for size in sizes:
            pool = entity_pool if entity_pool is not None else max(12, size // 4)
            corpus, examples = generate_synthetic_corpus(
                n_passages=size,
                avg_sentences=avg_sentences,
                entity_pool=pool,
                seed=seed,
                n_chains=n_chains,
            )
            path = Path(work) / f"corpus-{size}.jsonl"
            write_corpus_jsonl(corpus, path)
            corpora.append((path, Path(work) / f"index-{size}"))
            batches.append(_query_batch(examples, corpus, n_queries, seed))
        indexed = index_costs(corpora, encoder, INDEX_BUILDS)
        for size, (costs, _, _) in zip(sizes, indexed):
            if not costs["loaded_equals_built"]:
                raise ConsistencyError(
                    f"{size} passages: the index loaded back differs from the one built"
                )
        queries = [
            query_costs(graph, store, batch, cfg, INDEX_BUILDS)
            for (_, graph, store), batch in zip(indexed, batches)
        ]
    index = [costs for costs, _, _ in indexed]
    index_seconds = [costs["median_ms"]["build_and_save"] / 1e3 for costs in index]
    disk_bytes = [sum(costs["bytes"].values()) for costs in index]
    return BenchReport(
        sizes=tuple(sizes),
        index_seconds=tuple(index_seconds),
        mean_query_seconds=tuple(
            q["graph_path"]["median_ms"].get("retrieve", math.nan) / 1e3
            for q in queries
        ),
        index_bytes=tuple(disk_bytes),
        doubling_ratios=tuple(b / a for a, b in zip(index_seconds, index_seconds[1:])),
        bytes_doubling_ratios=tuple(b / a for a, b in zip(disk_bytes, disk_bytes[1:])),
        network_attempts=len(attempts),
        stage_costs=tuple(index),
        query_costs=tuple(queries),
    )


class StageClock:
    """Per stage, the wall ms and collector ms of timed passes and the
    ``tracemalloc`` peak of traced ones.

    A pass is a call ``step(lap)``: the step runs its stages in order and
    calls ``lap(stage)`` as each ends, so that a stage runs from the
    previous ``lap`` (or the pass's start) to its own. ``lap(stage, parts)``
    also records ``parts``, times the stage measured within itself (a
    ``retrieve`` call's ``QueryStats.stage_ms``), as ``stage.part``, wall
    time only. Each of ``totals`` names stages whose sum (wall and
    collector) is recorded per pass under the total's name, and whose
    highest peak is its peak.

    Each pass starts after a full collection. A timed pass reads the
    collector's time from ``gc.callbacks``: a collection is paid by
    whichever stage allocates past the threshold, not only by the one that
    made the garbage. A traced pass starts ``tracemalloc`` anew for each
    stage, so that its peak is the most that what the stage allocated and
    had not yet freed came to; numpy reports its buffers to ``tracemalloc``,
    so array copies count. Wall time moves with the host; the peaks do not,
    and most repeat exactly from run to run. Those of stages that parse
    text (``ingest``, ``build``, a query after an append) have differed
    between runs by up to 1%: CPython's regular-expression matching leaves
    a number of traces that depends on the process's memory layout.
    """

    def __init__(self, totals: Mapping[str, Sequence[str]] = {}):
        self.totals = totals
        self.wall_ms: dict[str, list[float]] = {}
        self.gc_ms: dict[str, list[float]] = {}
        self.peak_kib: dict[str, list[float]] = {}
        self._collector_ms = 0.0
        self._collector_start = 0.0

    def _on_collect(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._collector_start = time.perf_counter()
        else:
            self._collector_ms += (time.perf_counter() - self._collector_start) * 1e3

    def timed(self, step: Callable[[Callable[..., None]], Any]) -> Any:
        """Run one timed pass of ``step`` and return what it returns."""
        laps: dict[str, tuple[float, float]] = {}
        parts_ms: dict[str, float] = {}
        gc.collect()
        gc.callbacks.append(self._on_collect)
        tick, collector_tick = time.perf_counter(), self._collector_ms

        def lap(stage: str, parts: Mapping[str, float] = {}) -> None:
            nonlocal tick, collector_tick
            now = time.perf_counter()
            laps[stage] = ((now - tick) * 1e3, self._collector_ms - collector_tick)
            parts_ms.update((f"{stage}.{part}", ms) for part, ms in parts.items())
            tick, collector_tick = now, self._collector_ms

        try:
            result = step(lap)
        finally:
            gc.callbacks.remove(self._on_collect)
        for total, stages in self.totals.items():
            laps[total] = tuple(sum(laps[stage][k] for stage in stages) for k in (0, 1))
        for stage, (wall, collector) in laps.items():
            self.wall_ms.setdefault(stage, []).append(wall)
            self.gc_ms.setdefault(stage, []).append(collector)
        for part, ms in parts_ms.items():
            self.wall_ms.setdefault(part, []).append(ms)
        return result

    def traced(self, step: Callable[[Callable[..., None]], Any]) -> Any:
        """Run one untimed pass of ``step`` under ``tracemalloc`` and return
        what it returns."""
        peaks: dict[str, float] = {}
        gc.collect()

        def lap(stage: str, parts: Mapping[str, float] = {}) -> None:
            peaks[stage] = tracemalloc.get_traced_memory()[1] / 1024
            tracemalloc.stop()
            tracemalloc.start()

        tracemalloc.start()
        try:
            result = step(lap)
        finally:
            tracemalloc.stop()
        for total, stages in self.totals.items():
            peaks[total] = max(peaks[stage] for stage in stages)
        for stage, kib in peaks.items():
            self.peak_kib.setdefault(stage, []).append(kib)
        return result

    def summary(self) -> dict[str, dict[str, float]]:
        """Per stage, the median over the passes of its wall ms, its
        collector ms and its peak KiB."""

        def medians(table: dict[str, list[float]], digits: int) -> dict[str, float]:
            return {
                stage: round(statistics.median(values), digits)
                for stage, values in table.items()
            }

        return {
            "median_ms": medians(self.wall_ms, 3),
            "median_gc_ms": medians(self.gc_ms, 3),
            "peak_kib": medians(self.peak_kib, 1),
        }


def index_pass(
    corpus_path: str | Path, directory: str | Path, encoder: Encoder
) -> Callable[[Callable[..., None]], tuple[TriGraph, EmbeddingStore, bool]]:
    """A pass of the index path (``INDEX_STAGES``) over a JSONL corpus,
    writing the index to ``directory``, which must hold none. The pass
    returns the graph and store built, and whether those loaded back
    equal them."""
    embedder = {"id": encoder.contract.id, "dim": encoder.contract.dim}

    def step(lap):
        corpus = ingest(corpus_path)
        lap("ingest")
        graph = build(corpus)
        lap("build")
        store = build_store(graph, encoder)
        lap("build_store")
        save(graph, directory, embedder=embedder)
        lap("save")
        save_store(store, directory)
        lap("save_store")
        loaded = load(directory)
        lap("load")
        loaded_store = load_store(directory, loaded)
        lap("load_store")
        return graph, store, graph_equal(loaded, graph) and same_vectors(
            loaded_store, store
        )

    return step


# The files of an index directory, by the part of the index they hold.
INDEX_PARTS = {
    "graph": (*GRAPH_FILES, MANIFEST, GRAPH_TAIL),
    "vectors": (*STORE_FILES, VECTOR_TAIL),
}


def index_bytes(directory: str | Path) -> dict[str, int]:
    """The bytes of an index directory's graph files and vector files, each
    with its tail, apart. A missing file counts 0."""
    directory = Path(directory)
    sizes = {}
    for part, names in INDEX_PARTS.items():
        sizes[part] = 0
        for name in names:
            try:
                sizes[part] += (directory / name).stat().st_size
            except FileNotFoundError:
                pass
    return sizes


def same_vectors(a: EmbeddingStore, b: EmbeddingStore) -> bool:
    """Whether two stores hold the same rows: each kind's sparse rows
    compared as they are held, and any kind that either store holds dense
    compared as dense rows."""
    return all(
        x == y
        if isinstance(x, SparseRows) and isinstance(y, SparseRows)
        else np.array_equal(getattr(a, kind), getattr(b, kind))
        for kind, x, y in zip(VECTOR_KINDS, a.kinds.values(), b.kinds.values())
    )


def index_costs(
    corpora: Sequence[tuple[str | Path, str | Path]], encoder: Encoder, rounds: int
) -> list[tuple[dict, TriGraph, EmbeddingStore]]:
    """The index path's costs for each of ``corpora``, each a JSONL corpus
    and the directory its index goes to: ``rounds`` timed passes and one
    traced pass, in turns over the corpora, so that a stall of the machine
    lands in one round of several corpora. Each pass removes the corpus's
    directory and writes the index there.

    Per corpus, in order: the stage costs (``StageClock.summary``), with
    the totals ``index`` (every stage of ``INDEX_STAGES``) and
    ``build_and_save`` (``BUILD_STAGES``); ``loaded_equals_built``, whether
    every pass loaded back the index it built; ``bytes``, the index's bytes
    by part (``index_bytes``); and the graph and store loaded from the
    index the last pass left."""
    clocks = [
        StageClock({"index": INDEX_STAGES, "build_and_save": BUILD_STAGES})
        for _ in corpora
    ]
    equal = [True] * len(corpora)
    for run in [StageClock.timed] * rounds + [StageClock.traced]:
        for i, (corpus_path, directory) in enumerate(corpora):
            shutil.rmtree(directory, ignore_errors=True)
            *_, same = run(clocks[i], index_pass(corpus_path, directory, encoder))
            equal[i] = equal[i] and same
    costs = []
    for clock, same, (_, directory) in zip(clocks, equal, corpora):
        graph = load(directory)
        figures = {
            **clock.summary(),
            "loaded_equals_built": same,
            "bytes": index_bytes(directory),
        }
        costs.append((figures, graph, load_store(directory, graph)))
    return costs


def query_costs(
    graph: TriGraph,
    store: EmbeddingStore,
    questions: Sequence[str],
    cfg: RetrievalConfig,
    rounds: int,
) -> dict:
    """Query cost by stage, graph-path and fallback questions apart.

    A warm-up pass over ``questions`` makes the graph's query operators and
    the store's column views, and sorts the questions by path. Then
    ``rounds`` timed passes ask each question in turn, and one traced pass
    asks each once. Per path: the number of questions, the median share of
    the store's rows whose query similarity a question scored by float64
    dot products over whole rows (``QueryStats.dense_rows``), and the
    harness's figures for ``retrieve`` and, wall time only, for each stage
    of its ``QueryStats`` (``retrieve.<stage>``). ``stages_as_expected``
    says whether every answer listed exactly its path's stages
    (``GRAPH_STAGES`` or ``FALLBACK_STAGES``), and every question's entity,
    sentence and passage similarities, as retrieval scores them, held the
    bits of the whole float64 product's, for its query vector and for that
    vector with random values on the same entries (``_scored_as_scanned``)."""
    expected = {"graph_path": GRAPH_STAGES, "fallback": FALLBACK_STAGES}
    asked = {path: [] for path in expected}
    shares = {path: [] for path in expected}
    n_rows = sum(store.row_counts)
    as_expected = True
    rng = np.random.default_rng(0)
    dense = {kind: getattr(store, kind) for kind in VECTOR_KINDS}
    for question in dict.fromkeys(questions):
        ranked = retrieve(question, graph, store, cfg)
        path = "fallback" if ranked.fallback_used else "graph_path"
        asked[path].append(question)
        shares[path].append(ranked.stats.dense_rows / max(n_rows, 1))
        query_vec = store.encode_query(question)
        as_expected &= _scored_as_scanned(store, dense, query_vec, rng)
    clocks = {path: StageClock() for path in expected}

    def ask(question: str, path: str) -> Callable:
        def step(lap):
            nonlocal as_expected
            stats = retrieve(question, graph, store, cfg).stats
            lap("retrieve", stats.stage_ms)
            as_expected &= tuple(stats.stage_ms) == expected[path]

        return step

    for run in [StageClock.timed] * rounds + [StageClock.traced]:
        for path, on_path in asked.items():
            for question in on_path:
                run(clocks[path], ask(question, path))
    return {
        "rounds": rounds,
        "stages_as_expected": as_expected,
        **{
            path: {
                "questions": len(on_path),
                "median_dense_row_share": round(statistics.median(shares[path]), 5)
                if on_path
                else None,
                **clocks[path].summary(),
            }
            for path, on_path in asked.items()
        },
    }


def _scored_as_scanned(
    store: EmbeddingStore, dense: dict, query_vec: np.ndarray, rng: np.random.Generator
) -> bool:
    """Whether each kind's query similarities, as retrieval scores them
    from the store, equal the bits of the whole float64 product of its
    ``dense`` rows on one BLAS thread (``tools/stage_costs.py`` pins it;
    ``bench_scaling`` leaves the thread count to the host): for
    ``query_vec``, and for it with its nonzero entries replaced by random
    float32 values from ``rng``. The hash encoder's values sum alike in any
    order, so only the second shows a row that the sparse rows' view sums
    but should have gathered."""
    perturbed = query_vec.copy()
    support = perturbed != 0.0
    perturbed[support] = rng.standard_normal(support.sum()).astype(np.float32)
    return all(
        _kind_scores(store, kind, q, _query_terms(q))[0].tobytes()
        == (dense[kind].astype(np.float64) @ q).tobytes()
        for q in (query_vec, perturbed)
        for kind in VECTOR_KINDS
    )


def _query_batch(
    examples: Sequence[QaExample], corpus: Corpus, n_queries: int, seed: int
) -> list[str]:
    queries = [example.question for example in examples][:n_queries]
    rng = Xorshift64Star(seed ^ 0xBADC0FFEE)
    while len(queries) < n_queries:
        passage = corpus.passages[rng.randint(len(corpus.passages))]
        # Every passage opens with a two-token entity name; naming one token
        # alone leaves the query below the activation threshold.
        name = " ".join(passage.text.split()[:2])
        queries.append(f"Where did {name} trade maps?")
    return queries


PROMPT_TEMPLATES = {
    "qa": (
        "Answer the question using only the context passages.\n"
        "\n"
        "Context:\n"
        "{context}"
        "\n"
        "Question: {query}\n"
        "Answer:"
    ),
    "context-only": "{context}",
}


def assemble_prompt(
    query: str,
    ranked: RankedPassages,
    corpus: Corpus,
    template_id: str = "qa",
) -> str:
    """Interpolate the query and ranked passages into a named template.

    Passages appear in rank order, each prefixed by its doc_key. Purely
    local string formatting; generation itself is out of scope.
    """
    template = PROMPT_TEMPLATES.get(template_id)
    if template is None:
        raise ConfigError(f"unknown prompt template: {template_id!r}")
    lines = []
    for item in ranked.items:
        passage = corpus.passages[item.passage_id]
        lines.append(f"[{passage.doc_key}] {passage.text}\n")
    return template.format(context="".join(lines), query=query)


def eval_report_dict(report: EvalReport) -> dict:
    return {
        "n_examples": report.n_examples,
        "top_k": report.top_k,
        f"contain_at_{report.top_k}": report.contain_at_k,
        f"recall_at_{report.top_k}": report.recall_at_k,
        "mean_hops": report.mean_hops,
        "mean_retrieval_ms": report.mean_retrieval_ms,
        "unresolved_keys": list(report.unresolved_keys),
    }


def write_eval_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(eval_report_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def bench_report_dict(report: BenchReport) -> dict:
    return {
        "sizes": list(report.sizes),
        "index_seconds": list(report.index_seconds),
        "mean_query_seconds": list(report.mean_query_seconds),
        "index_bytes": list(report.index_bytes),
        "doubling_ratios": list(report.doubling_ratios),
        "bytes_doubling_ratios": list(report.bytes_doubling_ratios),
        "network_attempts": report.network_attempts,
        "stage_costs": list(report.stage_costs),
        "query_costs": list(report.query_costs),
    }


def write_bench_report(
    report: BenchReport, path: str | Path, table_path: str | Path | None = None
) -> None:
    Path(path).write_text(
        json.dumps(bench_report_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if table_path is not None:
        lines = ["size\tindex_seconds\tmean_query_seconds\tindex_bytes"]
        for i, size in enumerate(report.sizes):
            lines.append(
                f"{size}\t{report.index_seconds[i]:.6f}"
                f"\t{report.mean_query_seconds[i]:.6f}\t{report.index_bytes[i]}"
            )
        Path(table_path).write_text("\n".join(lines) + "\n", encoding="utf-8")

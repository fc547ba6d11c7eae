"""Retrieval evaluation, synthetic corpora, and the scaling benchmark.

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
"""

from __future__ import annotations

import json
import logging
import socket
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import Corpus, PassageRecord, corpus_from_records
from .embedding import Encoder, HashEncoder, build_store, save_store
from .errors import ConfigError
from .extraction import ExtractorContract
from .retrieval import EntityLevel, RankedPassages, RetrievalConfig, retrieve
from .trigraph import TriGraph, build, save

logger = logging.getLogger(__name__)

# ``bench_scaling`` indexes and queries each size this many times, in turns
# over the sizes, and keeps the medians: a stall of the machine then lands in
# one round of several sizes, not in every round of one.
INDEX_BUILDS = 3


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
    name = (
        _SYLLABLES[index % 20]
        + _SYLLABLES[(index // 20) % 20]
        + _SYLLABLES[(index // 400) % 20]
    )
    return name.capitalize()


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

    Index timing covers graph construction, encoding, and the persistence
    flush; corpus generation is excluded. Query timing is the mean over a
    fixed batch. Each size is indexed and queried ``INDEX_BUILDS`` times, in
    turns over the sizes, and both timings are medians of those rounds.
    Nothing runs concurrently, to keep timings honest.
    """
    if len(sizes) < 2:
        raise ValueError("need at least 2 sizes")
    if sorted(sizes) != list(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly increasing")
    cfg = cfg or RetrievalConfig(delta=0.01)
    encoder = encoder or HashEncoder(seed=seed)
    contract = ExtractorContract.make()

    index_bytes = [0] * len(sizes)
    index_times: list[list[float]] = [[] for _ in sizes]
    query_times: list[list[float]] = [[] for _ in sizes]

    with forbid_network() as attempts:
        corpora = []
        for size in sizes:
            pool = entity_pool if entity_pool is not None else max(12, size // 4)
            corpus, examples = generate_synthetic_corpus(
                n_passages=size,
                avg_sentences=avg_sentences,
                entity_pool=pool,
                seed=seed,
                n_chains=n_chains,
            )
            corpora.append((corpus, _query_batch(examples, corpus, n_queries, seed)))

        for _ in range(INDEX_BUILDS):
            for i, (corpus, queries) in enumerate(corpora):
                with tempfile.TemporaryDirectory(
                    dir=str(work_dir) if work_dir else None
                ) as tmp:
                    started = time.perf_counter()
                    graph = build(corpus, contract)
                    store = build_store(graph, encoder)
                    save(graph, tmp, embedder={"id": encoder.contract.id, "dim": encoder.contract.dim})
                    save_store(store, tmp)
                    index_times[i].append(time.perf_counter() - started)
                    index_bytes[i] = sum(
                        f.stat().st_size for f in Path(tmp).rglob("*") if f.is_file()
                    )
                started = time.perf_counter()
                for query in queries:
                    retrieve(query, graph, store, cfg)
                query_times[i].append((time.perf_counter() - started) / len(queries))
                logger.info(
                    "bench size=%d index=%.3fs query=%.5fs bytes=%d",
                    sizes[i],
                    index_times[i][-1],
                    query_times[i][-1],
                    index_bytes[i],
                )
    index_seconds = [statistics.median(times) for times in index_times]
    query_seconds = [statistics.median(times) for times in query_times]

    ratios = tuple(
        index_seconds[i + 1] / index_seconds[i] for i in range(len(sizes) - 1)
    )
    byte_ratios = tuple(
        index_bytes[i + 1] / index_bytes[i] for i in range(len(sizes) - 1)
    )
    return BenchReport(
        sizes=tuple(sizes),
        index_seconds=tuple(index_seconds),
        mean_query_seconds=tuple(query_seconds),
        index_bytes=tuple(index_bytes),
        doubling_ratios=ratios,
        bytes_doubling_ratios=byte_ratios,
        network_attempts=len(attempts),
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

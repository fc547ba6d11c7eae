"""Append cost by stage, at several corpus sizes.

For each ``--passages`` size, this builds and saves the index of
``benchmark.inputs.make_inputs(SEED, n)``, loads it back as the benchmark
does, then runs ``APPENDS`` appends of the benchmark's four-passage slices
(``benchmark.inputs.make_slice``), each followed by one query naming the
slice's new entity. It reports the median time of each stage of an append -
``corpus_from_records``, ``add_passages``, ``extend_store``, ``save``,
``save_store`` - of the whole append, and of three ``retrieve`` calls of
the same query after it: the first derives the grown graph's query
operators from its parent's, with tails; the second folds the tails
(``TriGraph.settle_operators``); the third (``retrieve_again``) reads the
operators as they stay. With each it reports the median time of each of
the query's stages as ``retrieve``'s ``QueryStats`` reports them, so that
the stage paying for the operators shows. A second pass, untimed, runs
``PEAK_APPENDS`` more appends in memory and reports the median
``tracemalloc`` peak of each of the three calls, in KiB: the most that
what the call allocated and had not yet freed came to. ``first_query``
sets the first call against the third: the median over the appends of its
extra time, and the ratio of their peaks, each beside the bound the
roadmap asks of it at 12000 passages. It checks that the grown index equals a rebuild of the
concatenated corpus, in memory and on disk, and exits 1 if not. Run from
the root of a checkout:

    python3 tools/append_scaling.py --passages 3000 12000 --out result.json

The first append after a load copies the loaded arrays into growth buffers;
the medians leave that one-off copy out, and ``first_append_ms`` reports it.
OpenBLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402

from inputs import make_inputs, make_slice  # noqa: E402
from linearrag.corpus import PassageRecord, corpus_from_records  # noqa: E402
from linearrag.embedding import (  # noqa: E402
    HashEncoder,
    build_store,
    extend_store,
    load_store,
    save_store,
)
from linearrag.retrieval import retrieve  # noqa: E402
from linearrag.trigraph import add_passages, build, graph_equal, load, save  # noqa: E402
from workloads import CFG, ENCODER_DIM, ENCODER_SEED  # noqa: E402

SEED = 0
APPENDS = 60
APPEND_STAGES = ("corpus_from_records", "add_passages", "extend_store", "save", "save_store")
QUERY_CALLS = ("first_retrieve", "second_retrieve", "retrieve_again")
PEAK_APPENDS = 5
# What the first query after an append may cost over the same query asked
# again, at 12000 passages: less time than this, in ms, and a tracemalloc
# peak at most this multiple of the repeat's.
FIRST_QUERY_BOUNDS = {"overhead_ms": 1.0, "peak_ratio": 1.3}


def same_rows(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, kind), getattr(b, kind))
        for kind in ("entity_vectors", "sentence_vectors", "passage_vectors")
    )


def stage_medians(stage_ms) -> dict:
    """Per stage, the median of its times over the queries that ran it."""
    times = {}
    for ms in stage_ms:
        for stage, value in ms.items():
            times.setdefault(stage, []).append(value)
    return {stage: round(statistics.median(t), 3) for stage, t in times.items()}


def allocation_peaks(graph, store, pieces) -> dict:
    """Per query call, the median over one append (not saved) of each of
    ``pieces`` of its tracemalloc peak, in KiB: the most that the memory it
    allocated and had not yet freed came to."""
    peaks = {call: [] for call in QUERY_CALLS}
    for piece in pieces:
        delta = corpus_from_records(
            piece.records,
            passage_id_base=graph.n_passages,
            sentence_id_base=graph.n_sentences,
        )
        graph = add_passages(graph, delta)
        store = extend_store(store, graph)
        for call in QUERY_CALLS:
            # Started anew for each call, so that no free of what an
            # earlier call allocated lowers this one's peak.
            tracemalloc.start()
            retrieve(piece.question.question, graph, store, CFG)
            peaks[call].append(tracemalloc.get_traced_memory()[1] / 1024)
            tracemalloc.stop()
    return {call: round(statistics.median(kib), 1) for call, kib in peaks.items()}


def measure(n_passages: int, directory: Path) -> dict:
    inputs = make_inputs(SEED, n_passages)
    encoder = HashEncoder(dim=ENCODER_DIM, seed=ENCODER_SEED)
    embedder = {"id": encoder.contract.id, "dim": ENCODER_DIM}
    built = build(inputs.corpus)
    save(built, directory, embedder=embedder)
    save_store(build_store(built, encoder), directory)
    graph = load(directory)
    store = load_store(directory, graph)
    del built
    records = [
        PassageRecord(doc_key=p.doc_key, title=p.title, text=p.text)
        for p in inputs.corpus.passages
    ]
    rows = []
    gc.collect()
    for index in range(APPENDS + 1):
        piece = make_slice(SEED, index, inputs.filler_names)
        ms = {}
        tick = time.perf_counter()

        def lap(stage: str) -> None:
            nonlocal tick
            now = time.perf_counter()
            ms[stage] = (now - tick) * 1e3
            tick = now

        delta = corpus_from_records(
            piece.records,
            passage_id_base=graph.n_passages,
            sentence_id_base=graph.n_sentences,
        )
        lap("corpus_from_records")
        graph = add_passages(graph, delta)
        lap("add_passages")
        store = extend_store(store, graph)
        lap("extend_store")
        save(graph, directory, embedder=embedder)
        lap("save")
        save_store(store, directory)
        lap("save_store")
        ms["append"] = sum(ms[stage] for stage in APPEND_STAGES)
        for call in QUERY_CALLS:
            ranked = retrieve(piece.question.question, graph, store, CFG)
            lap(call)
            ms[f"{call}_stages"] = ranked.stats.stage_ms
        rows.append(ms)
        records += piece.records
    pieces = [
        make_slice(SEED, index, inputs.filler_names)
        for index in range(APPENDS + 1, APPENDS + 1 + PEAK_APPENDS)
    ]
    peak_kib = allocation_peaks(graph, store, pieces)
    rebuilt = build(corpus_from_records(records))
    on_disk = load(directory)
    equal = (
        graph_equal(graph, rebuilt)
        and same_rows(store, build_store(rebuilt, encoder))
        and graph_equal(on_disk, graph)
        and same_rows(load_store(directory, on_disk), store)
    )
    timed = rows[1:]
    overhead = statistics.median(
        row["first_retrieve"] - row["retrieve_again"] for row in timed
    )
    first_query = {
        "overhead_ms": round(overhead, 3),
        "peak_ratio": round(peak_kib["first_retrieve"] / peak_kib["retrieve_again"], 2),
    }
    return {
        "seed": SEED,
        "passages": n_passages,
        "appends": len(timed),
        "equals_rebuild": equal,
        "first_append_ms": round(rows[0]["append"], 3),
        "median_ms": {
            stage: round(statistics.median(row[stage] for row in timed), 3)
            for stage in (*APPEND_STAGES, "append", *QUERY_CALLS)
        },
        **{
            f"{call}_stage_ms": stage_medians(r[f"{call}_stages"] for r in timed)
            for call in QUERY_CALLS
        },
        "peak_kib": peak_kib,
        "first_query": {**first_query, "bounds": FIRST_QUERY_BOUNDS},
        "per_append_ms": timed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passages", type=int, nargs="+", default=[3000])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    results = []
    for n in args.passages:
        with tempfile.TemporaryDirectory() as directory:
            results.append(measure(n, Path(directory)))
    for result in results:
        summary = {k: v for k, v in result.items() if k != "per_append_ms"}
        print(json.dumps(summary))
    if len(results) > 1:
        first, last = results[0]["median_ms"], results[-1]["median_ms"]
        growth = {stage: round(last[stage] / first[stage], 2) for stage in first}
        print(json.dumps({"median_growth": growth}))
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if all(result["equals_rebuild"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

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
the stage paying for the operators shows. It checks that the grown index
equals a rebuild of the concatenated corpus, in memory and on disk. Run
from the root of a checkout:

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
    rebuilt = build(corpus_from_records(records))
    on_disk = load(directory)
    equal = (
        graph_equal(graph, rebuilt)
        and same_rows(store, build_store(rebuilt, encoder))
        and graph_equal(on_disk, graph)
        and same_rows(load_store(directory, on_disk), store)
    )
    timed = rows[1:]
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

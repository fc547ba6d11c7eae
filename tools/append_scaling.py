"""Append cost by stage, at several corpus sizes.

For each ``--passages`` size, this builds and saves the index of
``benchmark.inputs.make_inputs(SEED, n)``, loads it back as the benchmark
does, then runs ``APPENDS`` appends of the benchmark's four-passage slices
(``benchmark.inputs.make_slice``), each followed by one query naming the
slice's new entity. It reports the median time of each stage of an append -
``corpus_from_records``, ``add_passages``, ``extend_store``, ``save``,
``save_store`` - of the whole append, of the first ``retrieve`` after it
(which builds the grown graph's query operators) and of the same query
asked again (operators cached), with the median time of each of those two
queries' stages as ``retrieve``'s ``QueryStats`` reports them, so that the
stage paying the operator rebuild shows. It checks that the grown index
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
        first = retrieve(piece.question.question, graph, store, CFG)
        lap("first_retrieve")
        again = retrieve(piece.question.question, graph, store, CFG)
        lap("retrieve_again")
        ms["first_retrieve_stages"] = first.stats.stage_ms
        ms["retrieve_again_stages"] = again.stats.stage_ms
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
            for stage in (*APPEND_STAGES, "append", "first_retrieve", "retrieve_again")
        },
        "first_retrieve_stage_ms": stage_medians(r["first_retrieve_stages"] for r in timed),
        "retrieve_again_stage_ms": stage_medians(r["retrieve_again_stages"] for r in timed),
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

"""Index build cost by stage, at several corpus sizes.

For each ``--passages`` size, this writes the corpus of
``benchmark.inputs.make_inputs(SEED, n)`` as JSONL, then indexes it
``REPS`` times, the way the benchmark's setup does: ``ingest``, ``build``,
``build_store``, ``save``, ``save_store``, ``load``, ``load_store``.
``build``'s first two steps, ``extract_corpus_mentions`` and
``build_entity_registry``, are timed beside it on the same corpus. It
reports the median time of each stage, of the whole index path (every stage
but the two timed beside ``build``), and each of those per passage, so that
linear growth reads as a flat per-passage cost. Beside each stage's time it
reports the median time the cyclic garbage collector ran within that stage
(``median_gc_ms``, from ``gc.callbacks``): a collection is paid by whichever
stage allocates past the threshold, not only by the one that made the
garbage. It checks that the loaded index equals the built one. Run from the
root of a checkout:

    python3 tools/build_scaling.py --passages 3000 12000 --out result.json

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

from inputs import make_inputs  # noqa: E402
from linearrag.corpus import ingest  # noqa: E402
from linearrag.embedding import (  # noqa: E402
    HashEncoder,
    build_store,
    load_store,
    save_store,
)
from linearrag.evalbench import write_corpus_jsonl  # noqa: E402
from linearrag.extraction import (  # noqa: E402
    ExtractorContract,
    build_entity_registry,
    extract_corpus_mentions,
)
from linearrag.trigraph import build, graph_equal, load, save  # noqa: E402
from workloads import ENCODER_DIM, ENCODER_SEED  # noqa: E402

SEED = 0
REPS = 5
BESIDE_BUILD = ("extract_corpus_mentions", "build_entity_registry")
INDEX_STAGES = (
    "ingest", "build", "build_store", "save", "save_store", "load", "load_store"
)


def same_rows(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, kind), getattr(b, kind))
        for kind in ("entity_vectors", "sentence_vectors", "passage_vectors")
    )


class CollectorClock:
    """Total time spent in the cyclic garbage collector, in ms, while
    installed in ``gc.callbacks``."""

    def __init__(self) -> None:
        self.ms = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.ms += (time.perf_counter() - self._start) * 1e3


def measure(n_passages: int, directory: Path) -> dict:
    inputs = make_inputs(SEED, n_passages)
    corpus_path = directory / "corpus.jsonl"
    write_corpus_jsonl(inputs.corpus, corpus_path)
    encoder = HashEncoder(dim=ENCODER_DIM, seed=ENCODER_SEED)
    embedder = {"id": encoder.contract.id, "dim": ENCODER_DIM}
    contract = ExtractorContract.make()
    rows = []
    gc_rows = []
    equal = True
    clock = CollectorClock()
    gc.callbacks.append(clock)
    for rep in range(REPS):
        index_dir = directory / f"index-{rep}"
        ms = {}
        gc_ms = {}
        gc.collect()
        tick, gc_tick = time.perf_counter(), clock.ms

        def lap(stage: str) -> None:
            nonlocal tick, gc_tick
            now = time.perf_counter()
            ms[stage] = (now - tick) * 1e3
            gc_ms[stage] = clock.ms - gc_tick
            tick, gc_tick = now, clock.ms

        corpus = ingest(corpus_path)
        lap("ingest")
        mentions = extract_corpus_mentions(corpus, contract)
        lap("extract_corpus_mentions")
        build_entity_registry(mentions, corpus)
        lap("build_entity_registry")
        built = build(corpus)
        lap("build")
        built_store = build_store(built, encoder)
        lap("build_store")
        save(built, index_dir, embedder=embedder)
        lap("save")
        save_store(built_store, index_dir)
        lap("save_store")
        graph = load(index_dir)
        lap("load")
        store = load_store(index_dir, graph)
        lap("load_store")
        for row in (ms, gc_ms):
            row["index"] = sum(row[stage] for stage in INDEX_STAGES)
        rows.append(ms)
        gc_rows.append(gc_ms)
        equal = equal and (
            corpus.source_digest == inputs.corpus.source_digest
            and graph_equal(graph, built)
            and same_rows(store, built_store)
        )
    gc.callbacks.remove(clock)
    stages = (*INDEX_STAGES[:1], *BESIDE_BUILD, *INDEX_STAGES[1:], "index")

    def medians(table: list[dict]) -> dict:
        return {
            stage: round(statistics.median(row[stage] for row in table), 3)
            for stage in stages
        }

    median_ms = medians(rows)
    return {
        "seed": SEED,
        "passages": n_passages,
        "reps": REPS,
        "loaded_equals_built": equal,
        "median_ms": median_ms,
        "median_gc_ms": medians(gc_rows),
        "per_passage_ms": {
            stage: round(value / n_passages, 5) for stage, value in median_ms.items()
        },
        "per_rep_ms": rows,
        "per_rep_gc_ms": gc_rows,
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
        summary = {k: v for k, v in result.items() if not k.startswith("per_rep")}
        print(json.dumps(summary))
    if len(results) > 1:
        # 1.0 means the stage's cost per passage did not change with size.
        first, last = results[0]["per_passage_ms"], results[-1]["per_passage_ms"]
        growth = {stage: round(last[stage] / first[stage], 2) for stage in first}
        print(json.dumps({"per_passage_growth": growth}))
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if all(result["loaded_equals_built"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

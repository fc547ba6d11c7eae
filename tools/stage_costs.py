"""Stage costs of the index, query and append paths, at several corpus sizes.

For each ``--passages`` size, this writes the corpus of
``benchmark.inputs.make_inputs(SEED, n)`` as JSONL and runs it through the
stage harness of ``linearrag.evalbench``, which gives every stage its median
wall ms (``median_ms``), the median ms the garbage collector ran within it
(``median_gc_ms``) and its ``tracemalloc`` peak in KiB from a separate
untimed pass (``peak_kib``):

* ``index`` (``evalbench.index_costs``), with each time per passage;
* ``query`` (``evalbench.query_costs``): the graph questions, and the
  questions of the first ``FALLBACK_PROBES`` append slices of
  ``benchmark.inputs.make_slice`` with the slices not appended, so that
  most fall back to dense ranking;
* ``append`` (``evalbench.append_costs``): the benchmark's four-passage
  slices appended to the saved index, each followed by its question three
  times, with ``first_query`` beside the bounds it should meet at
  12000 passages.

It exits 1 if the loaded index differs from the built one, the grown index
from a rebuild, or an answer's stages from its path's. With several sizes
it also prints each stage's growth from the first size to the last, per
passage for the index path (``per_passage_growth``, 1.0 meaning linear) and
per append (``append_growth``). Run from the root of a checkout:

    python3 tools/stage_costs.py --passages 3000 12000 --out result.json

OpenBLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from inputs import make_inputs, make_slice  # noqa: E402
from linearrag import evalbench  # noqa: E402
from linearrag.embedding import HashEncoder  # noqa: E402
from workloads import CFG, ENCODER_DIM, ENCODER_SEED  # noqa: E402

SEED = 0
INDEX_REPS = 5
QUERY_ROUNDS = 3
FALLBACK_PROBES = 40
APPENDS = 60
# What the first query after an append may cost over the same query asked
# again, at 12000 passages: less time than this, in ms, and a tracemalloc
# peak at most this multiple of the repeat's.
FIRST_QUERY_BOUNDS = {"overhead_ms": 1.0, "peak_ratio": 1.3}
CHECKS = {
    "index": "loaded_equals_built",
    "query": "stages_as_expected",
    "append": "equals_rebuild",
}


def measure(n_passages: int, directory: Path) -> dict:
    inputs = make_inputs(SEED, n_passages)
    corpus_path = directory / "corpus.jsonl"
    evalbench.write_corpus_jsonl(inputs.corpus, corpus_path)
    encoder = HashEncoder(dim=ENCODER_DIM, seed=ENCODER_SEED)
    index_dir = directory / "index"
    index, graph, store = evalbench.index_costs(
        corpus_path, index_dir, encoder, INDEX_REPS
    )
    index["loaded_equals_built"] &= graph.corpus_digest == inputs.corpus.source_digest
    index["per_passage_ms"] = {
        stage: round(ms / n_passages, 5) for stage, ms in index["median_ms"].items()
    }
    pieces = (make_slice(SEED, i, inputs.filler_names) for i in itertools.count())
    probes = [next(pieces).question.question for _ in range(FALLBACK_PROBES)]
    query = evalbench.query_costs(
        graph, store, [*inputs.graph_questions, *probes], CFG, QUERY_ROUNDS
    )
    pieces = (make_slice(SEED, i, inputs.filler_names) for i in itertools.count())
    append = evalbench.append_costs(
        graph,
        store,
        index_dir,
        ((piece.records, piece.question.question) for piece in pieces),
        CFG,
        APPENDS,
    )
    append["first_query"]["bounds"] = FIRST_QUERY_BOUNDS
    return {
        "seed": SEED,
        "passages": n_passages,
        "index": index,
        "query": query,
        "append": append,
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
        print(json.dumps(results[-1]))
    if len(results) > 1:
        first, last = results[0], results[-1]

        def growth(path: str, table: str) -> dict:
            old, new = first[path][table], last[path][table]
            return {
                stage: round(new[stage] / old[stage], 2)
                for stage in old
                if old[stage] and stage in new
            }

        print(json.dumps({"per_passage_growth": growth("index", "per_passage_ms")}))
        print(json.dumps({"append_growth": growth("append", "median_ms")}))
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    passed = all(r[path][check] for r in results for path, check in CHECKS.items())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Query cost by stage, at several corpus sizes.

For each ``--passages`` size, this builds the index of
``benchmark.inputs.make_inputs(SEED, n)`` in memory and asks its graph
questions, plus the questions of the benchmark's first ``FALLBACK_PROBES``
append slices (``benchmark.inputs.make_slice``) with the slices not
appended, so that the entity each names is missing and most fall back to
dense ranking; ``ROUNDS`` times each. It reports the median over questions
of each stage's time as ``retrieve``'s stats give it, and of the whole
``retrieve`` call (a question's time is its median over the rounds), and
the median share of the sentences whose query similarity a question scored
(``QueryStats.sentences_scored``), with graph-path and fallback questions
reported apart. It exits 1 if any answer's stages are not exactly
``GRAPH_STAGES`` or ``FALLBACK_STAGES``.
Run from the root of a checkout:

    python3 tools/query_stages.py --passages 3000 12000 --out result.json

Each graph's query operators are built by a warm-up pass over the
questions before any timing. OpenBLAS is pinned to one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from inputs import make_inputs, make_slice  # noqa: E402
from linearrag.embedding import HashEncoder, build_store  # noqa: E402
from linearrag.retrieval import retrieve  # noqa: E402
from linearrag.trigraph import build  # noqa: E402
from workloads import CFG, ENCODER_DIM, ENCODER_SEED  # noqa: E402

SEED = 0
ROUNDS = 3
FALLBACK_PROBES = 40
GRAPH_STAGES = ("initial_activation", "propagate", "passage_seed_scores", "ppr", "rank")
FALLBACK_STAGES = ("initial_activation", "propagate", "dense_ranking")


def measure(n_passages: int) -> dict:
    inputs = make_inputs(SEED, n_passages)
    graph = build(inputs.corpus)
    store = build_store(graph, HashEncoder(dim=ENCODER_DIM, seed=ENCODER_SEED))
    probes = [
        make_slice(SEED, index, inputs.filler_names).question.question
        for index in range(FALLBACK_PROBES)
    ]
    questions = list(dict.fromkeys([*inputs.graph_questions, *probes]))
    for question in questions:
        retrieve(question, graph, store, CFG)

    times = {question: [] for question in questions}
    graph_path, scored_share = {}, {}
    stages_as_expected = True
    for _ in range(ROUNDS):
        for question in questions:
            tick = time.perf_counter()
            ranked = retrieve(question, graph, store, CFG)
            elapsed = (time.perf_counter() - tick) * 1e3
            graph_path[question] = not ranked.fallback_used
            scored_share[question] = ranked.stats.sentences_scored / graph.n_sentences
            ms = ranked.stats.stage_ms
            expected = GRAPH_STAGES if graph_path[question] else FALLBACK_STAGES
            stages_as_expected &= tuple(ms) == expected
            row = {stage: ms.get(stage, math.nan) for stage in expected}
            times[question].append({**row, "retrieve": elapsed})

    def medians(on_graph_path: bool, stages: tuple[str, ...]) -> dict:
        asked = [q for q in questions if graph_path[q] == on_graph_path]
        return {
            "questions": len(asked),
            "median_scored_share": round(
                statistics.median(scored_share[q] for q in asked), 5
            )
            if asked
            else None,
            "median_ms": {
                stage: round(
                    statistics.median(
                        statistics.median(row[stage] for row in times[q])
                        for q in asked
                    ),
                    3,
                )
                if asked
                else None
                for stage in (*stages, "retrieve")
            },
        }

    return {
        "seed": SEED,
        "passages": n_passages,
        "rounds": ROUNDS,
        "stages_as_expected": stages_as_expected,
        "graph_path": medians(True, GRAPH_STAGES),
        "fallback": medians(False, FALLBACK_STAGES),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passages", type=int, nargs="+", default=[3000])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    results = [measure(n) for n in args.passages]
    for result in results:
        print(json.dumps(result))
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if all(result["stages_as_expected"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Query cost by stage, at several corpus sizes.

For each ``--passages`` size, this builds the index of
``benchmark.inputs.make_inputs(SEED, n)`` in memory and asks its graph
questions, plus the questions of the benchmark's first ``FALLBACK_PROBES``
append slices (``benchmark.inputs.make_slice``) with the slices not
appended, so that the entity each names is missing and most fall back to
dense ranking; ``ROUNDS`` times each. Every question is answered twice per
round: once by ``retrieve``'s stages called one by one -
``initial_activation``, every ``propagate`` hop, then
``passage_seed_scores`` and ``ppr``, or ``dense_ranking`` when nothing is
activated - and once by ``retrieve`` itself. It reports the median over
questions of each stage's per-question time (a question's time is its
median over the rounds), with graph-path and fallback questions reported
apart, and checks that the stages called one by one give ``retrieve``'s
top-k, ids and scores (exit 1 if not). Run from the root of a checkout:

    python3 tools/query_stages.py --passages 3000 12000 --out result.json

Each graph's query operators are built by a warm-up pass over the
questions before any timing. OpenBLAS is pinned to one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402

from inputs import make_inputs, make_slice  # noqa: E402
from linearrag.embedding import HashEncoder, build_store  # noqa: E402
from linearrag.retrieval import (  # noqa: E402
    RetrievalConfig,
    dense_ranking,
    initial_activation,
    passage_seed_scores,
    ppr,
    propagate,
    retrieve,
)
from linearrag.trigraph import build  # noqa: E402

CFG = RetrievalConfig(delta=0.01)  # the benchmark's configuration
ENCODER = {"dim": 256, "seed": 0}
SEED = 0
ROUNDS = 3
FALLBACK_PROBES = 40
GRAPH_STAGES = ("initial_activation", "propagate", "passage_seed_scores", "ppr", "retrieve")
FALLBACK_STAGES = ("initial_activation", "propagate", "dense_ranking", "retrieve")


def staged(question: str, graph, store) -> tuple[dict, list, bool]:
    """``retrieve``'s stages called one by one: their times in ms, the
    top-k as (id, score) pairs, and whether the graph path was taken."""
    ms = {}
    tick = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal tick
        now = time.perf_counter()
        ms[stage] = ms.get(stage, 0.0) + (now - tick) * 1e3
        tick = now

    state = initial_activation(question, graph, store, CFG)
    lap("initial_activation")
    ms["propagate"] = 0.0
    while state.hop < CFG.max_hops and state.frontier:
        advanced = propagate(state, graph, CFG)
        lap("propagate")
        if not advanced.frontier:
            break
        state = advanced
    activated = state.activated_entities()
    tick = time.perf_counter()
    if activated.size == 0:
        top = dense_ranking(state.query_vec, store, CFG.top_k)
        lap("dense_ranking")
        return ms, top, False
    seeds = passage_seed_scores(state, graph, store, None, CFG)
    lap("passage_seed_scores")
    importance = ppr(graph, state.a, seeds, CFG)
    lap("ppr")
    scores = importance[: graph.n_passages]
    order = np.lexsort((np.arange(len(scores)), -scores))[: CFG.top_k]
    return ms, [(int(p), float(scores[p])) for p in order], True


def measure(n_passages: int) -> dict:
    inputs = make_inputs(SEED, n_passages)
    graph = build(inputs.corpus)
    store = build_store(graph, HashEncoder(**ENCODER))
    probes = [
        make_slice(SEED, index, inputs.filler_names).question.question
        for index in range(FALLBACK_PROBES)
    ]
    questions = list(dict.fromkeys([*inputs.graph_questions, *probes]))
    for question in questions:
        retrieve(question, graph, store, CFG)

    times = {question: [] for question in questions}
    graph_path = {}
    agree = True
    for _ in range(ROUNDS):
        for question in questions:
            ms, top, graph_path[question] = staged(question, graph, store)
            tick = time.perf_counter()
            ranked = retrieve(question, graph, store, CFG)
            ms["retrieve"] = (time.perf_counter() - tick) * 1e3
            agree &= [(i.passage_id, i.score) for i in ranked.items] == top
            times[question].append(ms)

    def medians(on_graph_path: bool, stages: tuple[str, ...]) -> dict:
        asked = [q for q in questions if graph_path[q] == on_graph_path]
        return {
            "questions": len(asked),
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
                for stage in stages
            },
        }

    return {
        "seed": SEED,
        "passages": n_passages,
        "rounds": ROUNDS,
        "stages_equal_retrieve": agree,
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
    return 0 if all(result["stages_equal_retrieve"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""PPR convergence on the benchmark's graph questions.

For each of the first ``--questions`` graph questions of
``benchmark.inputs.make_inputs(--seed, n)`` that take the graph path, this
reports how many conjugate-gradient steps ``retrieval.ppr`` takes to reach
``ppr_tol``, the true L1 residual of its result, its L1 distance from a
power-iteration reference run to an L1 step below 1e-15, its time, and
whether its top-k ids and contributing entities equal those ranked with the
reference. Run from the root of a checkout:

    python3 tools/ppr_convergence.py --passages 3000 12000 --out result.json

The steps (None if unconverged), the time and the solver's own residual are
``retrieve``'s stats; ``residual_gap_max`` is their largest relative gap from
the true residual. OpenBLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from unittest import mock

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402
from scipy import sparse as sp  # noqa: E402

from inputs import make_inputs  # noqa: E402
from linearrag import retrieval  # noqa: E402
from linearrag.embedding import HashEncoder, build_store  # noqa: E402
from linearrag.retrieval import (  # noqa: E402
    activate,
    passage_seed_scores,
    ppr,
    retrieve,
)
from linearrag.trigraph import build  # noqa: E402
from workloads import CFG, ENCODER_DIM, ENCODER_SEED  # noqa: E402

REFERENCE_TOL = 1e-15
REFERENCE_MAX_ITERS = 5000


def transition(graph) -> sp.csr_matrix:
    """W^T for the row-normalized adjacency W of the passage-entity graph."""
    n_p = graph.n_passages
    n = n_p + graph.n_entities
    rows, cols = graph.contain.row_ids, graph.contain.col_ids + n_p
    src, dst = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    deg = np.bincount(src, minlength=n).astype(np.float64)
    return sp.csr_matrix((1.0 / deg[src], (dst, src)), shape=(n, n))


def reset(entity_seeds, passage_seeds) -> np.ndarray:
    r = np.concatenate([passage_seeds, entity_seeds]).astype(np.float64)
    return r / r.sum()


def power_reference(matrix, r, damping) -> np.ndarray:
    base = (1.0 - damping) * r
    x = r
    for _ in range(REFERENCE_MAX_ITERS):
        updated = damping * (matrix @ x) + base
        step = np.abs(updated - x).sum()
        x = updated
        if step < REFERENCE_TOL:
            break
    return x


def ranking(ranked):
    return [(item.passage_id, item.contributing_entities) for item in ranked.items]


def measure(seed: int, n_passages: int, n_questions: int) -> dict:
    inputs = make_inputs(seed, n_passages)
    graph = build(inputs.corpus)
    store = build_store(graph, HashEncoder(dim=ENCODER_DIM, seed=ENCODER_SEED))
    matrix = transition(graph)
    d = CFG.damping
    rows = []
    for question in inputs.graph_questions[:n_questions]:
        ranked = retrieve(question, graph, store, CFG)
        if ranked.fallback_used:
            continue
        stats = ranked.stats
        # retrieve returns no importance vector, so it is solved again here
        # for the two checks below that do not trust the solver.
        state = activate(question, graph, store, CFG)
        seeds = passage_seed_scores(state, graph, store, None, CFG)
        x = ppr(graph, state.a, seeds, CFG)
        r = reset(state.a, seeds)
        reference = power_reference(matrix, r, d)
        with mock.patch.object(
            retrieval,
            "_solve_ppr",
            lambda g, e, p, cfg: (
                power_reference(matrix, reset(e, p), d)[: g.n_passages],
                0,
                0.0,
                None,
            ),
        ):
            expected = ranking(retrieve(question, graph, store, CFG))
        residual = float(np.abs(x - d * (matrix @ x) - (1 - d) * r).sum())
        rows.append(
            {
                "steps": stats.ppr_steps if stats.ppr_converged else None,
                "residual_l1": residual,
                "residual_gap": abs(stats.ppr_residual_l1 - residual) / residual,
                "error_l1": float(np.abs(x - reference).sum()),
                "ppr_ms": stats.stage_ms["ppr"],
                "top_k_equal": ranking(ranked) == expected,
            }
        )
    steps = [row["steps"] for row in rows]
    return {
        "seed": seed,
        "passages": n_passages,
        "graph_path_questions": len(rows),
        "converged": sum(s is not None for s in steps),
        "steps_median": statistics.median(s for s in steps if s is not None),
        "steps_max": max(s for s in steps if s is not None),
        "residual_l1_max": max(row["residual_l1"] for row in rows),
        "residual_gap_max": max(row["residual_gap"] for row in rows),
        "error_l1_max": max(row["error_l1"] for row in rows),
        "ppr_ms_median": round(statistics.median(row["ppr_ms"] for row in rows), 3),
        "top_k_equal": sum(row["top_k_equal"] for row in rows),
        "per_question": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passages", type=int, nargs="+", default=[3000])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--questions", type=int, default=60)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    results = [measure(args.seed, n, args.questions) for n in args.passages]
    for result in results:
        summary = {k: v for k, v in result.items() if k != "per_question"}
        print(json.dumps(summary))
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

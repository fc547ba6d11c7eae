"""Stage costs of the index, query and append paths, at several corpus sizes.

For each ``--passages`` size, this writes the corpus of
``benchmark.inputs.make_inputs(SEED, n)`` as JSONL and runs it through the
stage harness of ``linearrag.evalbench``, which gives every stage its median
wall ms (``median_ms``), the median ms the garbage collector ran within it
(``median_gc_ms``) and its ``tracemalloc`` peak in KiB from a separate
untimed pass (``peak_kib``):

* ``index`` (``evalbench.index_costs``), with each time per passage and
  the index's bytes per passage, graph and vectors apart
  (``bytes_per_passage``);
* ``query`` (``evalbench.query_costs``): the graph questions, and the
  questions of the first ``FALLBACK_PROBES`` append slices of
  ``benchmark.inputs.make_slice`` with the slices not appended, so that
  most fall back to dense ranking; with each path's median share of the
  store's rows whose similarity a question scored from the dense rows
  rather than the sparse index (``median_dense_row_share``);
* ``append`` (``evalbench.append_costs``): the benchmark's four-passage
  slices appended to the saved index, each followed by its question three
  times, with ``first_query`` beside the bounds it should meet at
  12000 passages, and ``folds`` and ``save_ms``: how many timed appends
  folded the index's tails into its base files, the median ``save``
  and ``save_store`` ms of the appends that folded and of those that did
  not, and ``median_bytes_added``: the median bytes a timed append added
  to the graph files and to the vector files, apart, from their sizes
  before and after it;
* ``answers_sha256``: one SHA-256 digest of the answers to every graph
  question on the loaded index and to the questions of ``APPENDS`` slices
  appended to it in memory one at a time, each asked twice (the second ask
  folds the grown graph's operator tails). It covers each answer's ranked
  ids and the bits of their scores, contributing entities, hops, fallback
  flag, PPR steps and residual, and the query's entity activations,
  sentence similarities, trace rows, passage seeds and PPR vector. Two source trees that answer alike give
  the same digest: run this script from a checkout whose ``src`` is the
  other tree to compare them.

It exits 1 if the loaded index differs from the built one, the grown index
from a rebuild, an answer's stages from its path's, or a question's entity,
sentence or passage similarities from the bits of the whole float64
product. With several sizes it also prints each stage's growth from the
first size to the last, per passage for the index path
(``per_passage_growth``, 1.0 meaning linear) and per append
(``append_growth``). Run from the root of a checkout:

    python3 tools/stage_costs.py --passages 3000 12000 --out result.json

``--encoder`` names the encoder by its contract id, ``hash:256:0`` (the
benchmark's) by default; ``rotated:256:0`` is the dense stand-in
(``embedding.RotatedEncoder``), whose kinds keep no sparse index and are
scanned whole.

OpenBLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402
from inputs import make_inputs, make_slice  # noqa: E402
from linearrag import evalbench  # noqa: E402
from linearrag.corpus import corpus_from_records  # noqa: E402
from linearrag.embedding import extend_store, resolve_encoder  # noqa: E402
from linearrag.retrieval import (  # noqa: E402
    activate,
    passage_seed_scores,
    ppr,
    retrieve,
)
from linearrag.trigraph import add_passages  # noqa: E402
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


def answers_sha256(graph, store, questions, slices) -> str:
    """The digest of the answers to ``questions`` on ``graph`` and ``store``,
    then to each slice's question, asked twice, after the slice's records
    are appended in memory (see the module docstring)."""
    digest = hashlib.sha256()

    def ask(question: str, graph, store) -> None:
        ranked = retrieve(question, graph, store, CFG)
        stats = ranked.stats
        digest.update(
            repr(
                (
                    ranked.passage_ids(),
                    [item.contributing_entities for item in ranked.items],
                    ranked.hops_used,
                    ranked.fallback_used,
                    stats.ppr_steps,
                    stats.ppr_residual_l1,
                )
            ).encode()
        )
        state = activate(question, graph, store, CFG)
        scores = np.array([item.score for item in ranked.items])
        arrays = [scores, state.a, state.sigma, state.trace]
        if not ranked.fallback_used:
            seeds = passage_seed_scores(state, graph, store, None, CFG)
            arrays += [seeds, ppr(graph, state.a, seeds, CFG)]
        for array in arrays:
            digest.update(array.tobytes())

    for question in questions:
        ask(question, graph, store)
    for records, question in slices:
        delta = corpus_from_records(
            records,
            passage_id_base=graph.n_passages,
            sentence_id_base=graph.n_sentences,
        )
        graph = add_passages(graph, delta)
        store = extend_store(store, graph)
        ask(question, graph, store)
        ask(question, graph, store)
    return digest.hexdigest()


def measure(n_passages: int, directory: Path, encoder) -> dict:
    inputs = make_inputs(SEED, n_passages)
    corpus_path = directory / "corpus.jsonl"
    evalbench.write_corpus_jsonl(inputs.corpus, corpus_path)
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
    pieces = (make_slice(SEED, i, inputs.filler_names) for i in range(APPENDS))
    digest = answers_sha256(
        graph,
        store,
        inputs.graph_questions,
        ((piece.records, piece.question.question) for piece in pieces),
    )
    return {
        "seed": SEED,
        "encoder": encoder.contract.id,
        "passages": n_passages,
        "index": index,
        "query": query,
        "append": append,
        "answers_sha256": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passages", type=int, nargs="+", default=[3000])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--encoder", default=f"hash:{ENCODER_DIM}:{ENCODER_SEED}")
    args = parser.parse_args(argv)
    encoder = resolve_encoder(args.encoder)
    if encoder is None:
        parser.error(f"no registered encoder builds {args.encoder!r}")
    results = []
    for n in args.passages:
        with tempfile.TemporaryDirectory() as directory:
            results.append(measure(n, Path(directory), encoder))
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

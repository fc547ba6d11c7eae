"""Stage costs of the index, query and append paths, at several corpus sizes.

For each ``--passages`` size, this writes the corpus of
``benchmark.inputs.make_inputs(SEED, n)`` as JSONL and runs it through the
stage harness of ``linearrag.evalbench`` (``StageClock``), which gives every
stage its median wall ms (``median_ms``), the median ms the garbage
collector ran within it (``median_gc_ms``) and its ``tracemalloc`` peak in
KiB from a separate untimed pass (``peak_kib``). It measures one size at a
time, so that no other index is alive while the collector is timed:

* ``index`` (``evalbench.index_costs``), with each time per passage and
  the index's bytes per passage, graph and vectors apart
  (``bytes_per_passage``);
* ``query`` (``evalbench.query_costs``): the graph questions, and the
  questions of the first ``FALLBACK_PROBES`` append slices of
  ``benchmark.inputs.make_slice`` with the slices not appended, so that
  most fall back to dense ranking; with each path's median share of the
  store's rows whose similarity a question scored over whole rows
  rather than term at a time (``median_dense_row_share``);
* ``append`` (``append_costs``): the benchmark's four-passage
  slices appended to the saved index, each followed by its question three
  times, with ``first_query`` beside the bounds it should meet at
  12000 passages, and ``folds`` and ``save_ms``: how many timed appends
  folded the index's tails into its base files, the median ``save``
  and ``save_store`` ms of the appends that folded and of those that did
  not, and ``median_bytes_added``: the median bytes a timed append added
  to the graph files and to the vector files, apart, from their sizes
  before and after it;
* ``store``: the bytes of the arrays the loaded store holds, and of those
  the store holds after the ``APPENDS`` appends of ``answers_sha256``,
  each per passage and with each growth buffer's whole capacity counted
  (``bytes_per_passage``), column-major views left out; and
  ``one_representation``, whether each holds every kind one way: no array
  of rows beside a kind's sparse rows, and no kind held dense whose marked
  entries are within ``embedding.DENSITY_CUT`` of its entries;
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
from a rebuild, an answer's stages from its path's, a question's entity,
sentence or passage similarities from the bits of the whole float64
product, or a store holds a kind more than one way. With several sizes it also prints each stage's growth from the
first size to the last, per passage for the index path
(``per_passage_growth``, 1.0 meaning linear) and per append
(``append_growth``). Run from the root of a checkout:

    python3 tools/stage_costs.py --passages 3000 12000 --out result.json

``--encoder`` names the encoder by its contract id, ``hash:256:0`` (the
benchmark's) by default; ``rotated:256:0`` is the dense stand-in
(``embedding.RotatedEncoder``), whose kinds are held dense and are
scanned whole.

OpenBLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402
from inputs import make_inputs, make_slice  # noqa: E402
from linearrag import evalbench  # noqa: E402
from linearrag.corpus import PassageRecord, corpus_from_records  # noqa: E402
from linearrag.embedding import (  # noqa: E402
    DENSITY_CUT,
    SparseRows,
    build_store,
    extend_store,
    load_store,
    resolve_encoder,
    save_store,
)
from linearrag.retrieval import (  # noqa: E402
    activate,
    passage_seed_scores,
    ppr,
    retrieve,
)
from linearrag.trigraph import (  # noqa: E402
    add_passages,
    build,
    graph_equal,
    load,
    read_manifest,
    save,
)
from workloads import CFG, ENCODER_DIM, ENCODER_SEED  # noqa: E402

SEED = 0
INDEX_REPS = 5
QUERY_ROUNDS = 3
FALLBACK_PROBES = 40
APPENDS = 60
APPEND_STAGES = (
    "corpus_from_records", "add_passages", "extend_store", "save", "save_store"
)
# The three calls of one query after an append: the first derives the grown
# graph's query operators from its parent's, with tails; the second folds the
# tails (``TriGraph.settle_operators``); the third reads them as they stay.
QUERY_CALLS = ("first_retrieve", "second_retrieve", "retrieve_again")
# The appends of ``append_costs``' traced passes.
PEAK_APPENDS = 5
# What the first query after an append may cost over the same query asked
# again, at 12000 passages: less time than this, in ms, and a tracemalloc
# peak at most this multiple of the repeat's.
FIRST_QUERY_BOUNDS = {"overhead_ms": 1.0, "peak_ratio": 1.3}
CHECKS = {
    "index": "loaded_equals_built",
    "query": "stages_as_expected",
    "append": "equals_rebuild",
    "store": "one_representation",
}


def store_memory(store) -> tuple[int, bool]:
    """The bytes of the arrays ``store`` holds outside its encoder, each
    array that is a view of a growth buffer counted as the whole buffer,
    each buffer once; and whether it holds each kind one way: every array
    of rows it holds is the dense rows of a kind whose marked entries pass
    ``DENSITY_CUT`` of its entries. Column-major views are not counted."""
    arrays = []

    def walk(value) -> None:
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, SparseRows):
            arrays.extend((value.col_ids, value.indptr, value.values))
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    for name, value in vars(store).items():
        if name != "encoder":
            walk(value)
    owners = {}
    for array in arrays:
        owner = array.base if isinstance(array.base, np.ndarray) else array
        owners[id(owner)] = owner.nbytes
    dense_kinds = {
        id(held)
        for held in store.kinds.values()
        if isinstance(held, np.ndarray)
        and np.count_nonzero(held.view(np.uint32)) > DENSITY_CUT * held.size
    }
    one_way = all(a.ndim < 2 or id(a) in dense_kinds for a in arrays)
    return sum(owners.values()), one_way


def answers_sha256(graph, store, questions, slices) -> tuple[str, object]:
    """The digest of the answers to ``questions`` on ``graph`` and ``store``,
    then to each slice's question, asked twice, after the slice's records
    are appended in memory (see the module docstring); and the store grown
    by the last slice."""
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
    for piece in slices:
        delta = corpus_from_records(
            piece.records,
            passage_id_base=graph.n_passages,
            sentence_id_base=graph.n_sentences,
        )
        graph = add_passages(graph, delta)
        store = extend_store(store, graph)
        ask(piece.question.question, graph, store)
        ask(piece.question.question, graph, store)
    return digest.hexdigest(), store


def append_costs(graph, store, directory: Path, slices: Iterator) -> dict:
    """Append cost by stage (``APPEND_STAGES``, then the three ``retrieve``
    calls of ``QUERY_CALLS``, each with its ``QueryStats`` stages), from
    appending ``slices`` (``benchmark.inputs.Slice``: the records of one
    append and the question asked after it) to the index of ``graph`` and
    ``store`` in ``directory``.

    The first append copies the loaded arrays into growth buffers once
    (``first_append_ms``) and is left out; ``APPENDS`` timed appends follow,
    then ``PEAK_APPENDS`` more, each a traced pass. ``first_query`` sets the
    first call after an append against the third: the median over the timed
    appends of its extra time, and the ratio of their peaks, beside
    ``FIRST_QUERY_BOUNDS``. ``folds``
    counts the timed appends whose ``save`` folded the tails into the base
    files, seen as a change of the manifest, which an append that does not
    fold leaves alone; ``save_ms`` gives the median ``save`` and
    ``save_store`` ms of the appends that folded (``fold``, None without
    one) and of those that did not (``tail``). ``median_bytes_added`` is
    the median over the timed appends of what each added to the index's
    graph files and to its vector files, apart (``index_bytes`` after the
    append less before it). The grown index must equal a rebuild of the
    concatenated corpus, in memory and on disk (``equals_rebuild``)."""
    encoder = store.encoder
    embedder = {"id": encoder.contract.id, "dim": encoder.contract.dim}
    records = [  # a passage's text already holds its title
        PassageRecord(doc_key=p.doc_key, title=None, text=p.text)
        for p in graph.corpus.passages
    ]
    state = [graph, store, read_manifest(directory)]
    clock = evalbench.StageClock({"append": APPEND_STAGES})

    def append(piece) -> Callable:
        new_records, question = piece.records, piece.question.question

        def step(lap):
            graph, store, manifest = state
            delta = corpus_from_records(
                new_records,
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
            for call in QUERY_CALLS:
                ranked = retrieve(question, graph, store, CFG)
                lap(call, ranked.stats.stage_ms)
            state[:] = graph, store, read_manifest(directory)
            records.extend(new_records)
            return state[2] != manifest

        return step

    first = evalbench.StageClock({"append": APPEND_STAGES})
    first.timed(append(next(slices)))
    folded, added = [], []
    for _ in range(APPENDS):
        before = evalbench.index_bytes(directory)
        folded.append(clock.timed(append(next(slices))))
        after = evalbench.index_bytes(directory)
        added.append({part: after[part] - before[part] for part in after})
    for _ in range(PEAK_APPENDS):
        clock.traced(append(next(slices)))

    graph, store, _ = state
    rebuilt = build(corpus_from_records(records), graph.extractor)
    on_disk = load(directory)
    equal = (
        graph_equal(graph, rebuilt)
        and evalbench.same_vectors(store, build_store(rebuilt, encoder))
        and graph_equal(on_disk, graph)
        and evalbench.same_vectors(load_store(directory, on_disk), store)
    )
    summary = clock.summary()
    first_ms = clock.wall_ms["first_retrieve"]
    again_ms = clock.wall_ms["retrieve_again"]
    peaks = summary["peak_kib"]

    def save_ms(fold: bool) -> dict[str, float | None]:
        medians = {}
        for stage in ("save", "save_store"):
            ms = [t for t, f in zip(clock.wall_ms[stage], folded) if f == fold]
            medians[stage] = round(statistics.median(ms), 3) if ms else None
        return medians

    return {
        "appends": APPENDS,
        "equals_rebuild": equal,
        "first_append_ms": round(first.wall_ms["append"][0], 3),
        "folds": sum(folded),
        "save_ms": {"tail": save_ms(False), "fold": save_ms(True)},
        "median_bytes_added": {
            part: statistics.median(sizes[part] for sizes in added)
            for part in evalbench.INDEX_PARTS
        },
        **summary,
        "first_query": {
            "overhead_ms": round(
                statistics.median(a - b for a, b in zip(first_ms, again_ms)), 3
            ),
            "peak_ratio": round(peaks["first_retrieve"] / peaks["retrieve_again"], 2),
            "bounds": FIRST_QUERY_BOUNDS,
        },
    }


def append_slices(inputs, count: int | None = None) -> Iterator:
    """The benchmark's first ``count`` append slices, or all of them."""
    indices = itertools.count() if count is None else range(count)
    return (make_slice(SEED, i, inputs.filler_names) for i in indices)


def measure(n_passages: int, directory: Path, encoder) -> dict:
    inputs = make_inputs(SEED, n_passages)
    corpus_path = directory / "corpus.jsonl"
    evalbench.write_corpus_jsonl(inputs.corpus, corpus_path)
    index_dir = directory / "index"
    [(index, graph, store)] = evalbench.index_costs(
        [(corpus_path, index_dir)], encoder, INDEX_REPS
    )
    index["loaded_equals_built"] &= graph.corpus_digest == inputs.corpus.source_digest
    index["bytes_per_passage"] = {
        part: round(size / n_passages, 3) for part, size in index.pop("bytes").items()
    }
    index["per_passage_ms"] = {
        stage: round(ms / n_passages, 5) for stage, ms in index["median_ms"].items()
    }
    probes = [p.question.question for p in append_slices(inputs, FALLBACK_PROBES)]
    query = evalbench.query_costs(
        graph, store, [*inputs.graph_questions, *probes], CFG, QUERY_ROUNDS
    )
    append = append_costs(graph, store, index_dir, append_slices(inputs))
    pieces = list(append_slices(inputs, APPENDS))
    digest, grown = answers_sha256(graph, store, inputs.graph_questions, pieces)
    memory = {"loaded": store_memory(store), "grown": store_memory(grown)}
    grown_passages = n_passages + sum(len(piece.records) for piece in pieces)
    return {
        "seed": SEED,
        "encoder": encoder.contract.id,
        "passages": n_passages,
        "index": index,
        "query": query,
        "append": append,
        "store": {
            "bytes_per_passage": {
                "loaded": round(memory["loaded"][0] / n_passages, 1),
                "grown": round(memory["grown"][0] / grown_passages, 1),
            },
            "one_representation": all(ok for _, ok in memory.values()),
        },
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

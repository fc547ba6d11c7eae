"""Paired query timing of two source trees in one process.

Benchmark pairs run two trees in two processes, minutes apart, and on a
shared machine they cannot resolve a few percent. This script imports both
trees into one process and times them question by question, each call of
one tree next to the same call of the other, so that both see the same
machine:

* ``questions``: the graph questions of ``benchmark.inputs.make_inputs(
  --seed, n)``, asked on the index each tree built, saved and loaded, as
  the benchmark's graph-query does. After one untimed pass, ``--reps``
  timed passes each start at another question (the order is rotated), and
  each question is asked of the two trees back to back, the first tree
  alternating. A question's time is its minimum over the passes. For each
  tree the result gives the total and the median of those minimums, the
  total of each ``QueryStats`` stage's minimums, and the number of
  questions on which it was the faster.
* ``append``: the benchmark's append-query pattern in memory. Both trees
  append the same ``--appends`` four-passage slices of
  ``benchmark.inputs.make_slice``, one at a time, to their loaded index,
  and each grown graph is asked its slice's question once, the first tree
  alternating from slice to slice. The questions are timed as above, and
  each append's ``add_passages`` and ``extend_store`` together: ``appends``
  gives each tree's median append ms and ``change_pct``, the head's median
  against the base's. An append is timed once, so the median, not a
  minimum, stands for it; the first append to the loaded index copies its
  arrays into growth buffers, and the rest write in place.

Every answer of one tree is compared with the other's: the ranked passage
ids, the bits of their scores, their contributing entities, the hops used
and the fallback flag. ``answers_sha256`` digests each tree's first
answer to each question, in the order asked. The script exits 1 if any
answer differs.

``--base`` is the root of the other checkout; its ``src/linearrag`` is
copied under the package name ``linearrag_base`` (the package imports
itself only relatively) and imported beside this checkout's
``linearrag``, the ``head``. Run from the root of a checkout:

    python3 tools/ab_queries.py --base ../parent --passages 3000 12000

With ``--base .`` both trees are this one, an A/A control: the answers
must agree, and the times show the method's noise. ``change_pct`` is the
head's total against the base's, in percent.

OpenBLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from inputs import make_inputs, make_slice  # noqa: E402
from linearrag import evalbench  # noqa: E402
from workloads import CFG, ENCODER_DIM, ENCODER_SEED  # noqa: E402

TREES = ("base", "head")
BASE_PACKAGE = "linearrag_base"


class Tree:
    """One source tree's package, its index and its retrieval config."""

    def __init__(self, package: str):
        def module(name: str):
            return importlib.import_module(f"{package}.{name}")

        self.corpus = module("corpus")
        self.embedding = module("embedding")
        self.trigraph = module("trigraph")
        self.retrieval = module("retrieval")
        self.cfg = self.retrieval.RetrievalConfig(**dataclasses.asdict(CFG))
        self.graph = self.store = None

    def load_index(self, corpus_path: Path, directory: Path) -> None:
        """Build, save and load the index of the corpus at ``corpus_path``."""
        encoder_id = f"hash:{ENCODER_DIM}:{ENCODER_SEED}"
        encoder = self.embedding.resolve_encoder(encoder_id)
        graph = self.trigraph.build(self.corpus.ingest(corpus_path))
        store = self.embedding.build_store(graph, encoder)
        embedder = {"id": encoder_id, "dim": ENCODER_DIM}
        self.trigraph.save(graph, directory, embedder=embedder)
        self.embedding.save_store(store, directory)
        self.graph = self.trigraph.load(directory)
        self.store = self.embedding.load_store(directory, self.graph)

    def append(self, records) -> float:
        """Grow the index in memory by ``records`` (this checkout's
        ``PassageRecord``s, rebuilt as this tree's), and return the wall ms
        of its ``add_passages`` and ``extend_store``."""
        delta = self.corpus.corpus_from_records(
            [self.corpus.PassageRecord(r.doc_key, r.title, r.text) for r in records],
            passage_id_base=self.graph.n_passages,
            sentence_id_base=self.graph.n_sentences,
        )
        started = time.perf_counter_ns()
        self.graph = self.trigraph.add_passages(self.graph, delta)
        self.store = self.embedding.extend_store(self.store, self.graph)
        return (time.perf_counter_ns() - started) / 1e6

    def ask(self, question: str):
        """The answer to ``question`` and its wall ms."""
        started = time.perf_counter_ns()
        ranked = self.retrieval.retrieve(question, self.graph, self.store, self.cfg)
        return ranked, (time.perf_counter_ns() - started) / 1e6


def answer(ranked) -> tuple:
    """What two trees must agree on (see the module docstring)."""
    return (
        tuple(item.passage_id for item in ranked.items),
        tuple(float(item.score).hex() for item in ranked.items),
        tuple(item.contributing_entities for item in ranked.items),
        ranked.hops_used,
        ranked.fallback_used,
    )


class Pairing:
    """The paired calls of one mode: per question and tree, the minimum
    wall ms and stage ms, and the answers seen."""

    def __init__(self, trees: dict[str, Tree]):
        self.trees = trees
        self.ms: dict[str, dict[int, float]] = {name: {} for name in TREES}
        self.stage_ms: dict[str, dict[int, dict[str, float]]] = {
            name: {} for name in TREES
        }
        self.digests = {name: hashlib.sha256() for name in TREES}
        self.asked: set[int] = set()
        self.differing: list[str] = []

    def ask(self, key: int, question: str, first: int, timed: bool) -> None:
        """Ask ``question`` of both trees, tree ``first`` (0 or 1) first."""
        answers = {}
        for name in TREES[first:] + TREES[:first]:
            ranked, ms = self.trees[name].ask(question)
            answers[name] = answer(ranked)
            if key not in self.asked:
                self.digests[name].update(repr(answers[name]).encode())
            if timed:
                self.ms[name][key] = min(ms, self.ms[name].get(key, ms))
                kept = self.stage_ms[name].setdefault(key, {})
                for stage, stage_time in ranked.stats.stage_ms.items():
                    kept[stage] = min(stage_time, kept.get(stage, stage_time))
        self.asked.add(key)
        if answers["base"] != answers["head"]:
            self.differing.append(question)

    def summary(self) -> dict:
        keys = sorted(self.ms["head"])
        result: dict = {"questions": len(keys)}
        for name, other in zip(TREES, reversed(TREES)):
            times = [self.ms[name][k] for k in keys]
            stages: dict[str, float] = {}
            for k in keys:
                for stage, stage_time in self.stage_ms[name][k].items():
                    stages[stage] = stages.get(stage, 0.0) + stage_time
            result[name] = {
                "total_ms": round(sum(times), 3),
                "median_ms": round(statistics.median(times), 4) if times else None,
                "stage_total_ms": {s: round(t, 3) for s, t in stages.items()},
                "faster": sum(self.ms[name][k] < self.ms[other][k] for k in keys),
                "answers_sha256": self.digests[name].hexdigest(),
            }
        base, head = result["base"]["total_ms"], result["head"]["total_ms"]
        result["change_pct"] = round(100.0 * (head / base - 1.0), 2) if base else None
        result["answers_equal"] = not self.differing
        result["differing"] = self.differing[:5]
        return result


def questions_mode(trees: dict[str, Tree], questions, reps: int) -> dict:
    pairing = Pairing(trees)
    for key, question in enumerate(questions):
        pairing.ask(key, question, key % 2, timed=False)
    gc.collect()
    n = len(questions)
    for rep in range(reps):
        start = rep * n // reps
        for offset in range(n):
            key = (start + offset) % n
            pairing.ask(key, questions[key], (rep + offset) % 2, timed=True)
    return pairing.summary()


def append_mode(trees: dict[str, Tree], seed: int, filler_names, appends: int) -> dict:
    pairing = Pairing(trees)
    append_ms: dict[str, list[float]] = {name: [] for name in TREES}
    gc.collect()
    for index in range(appends):
        piece = make_slice(seed, index, filler_names)
        first = index % 2
        for name in TREES[first:] + TREES[:first]:
            append_ms[name].append(trees[name].append(piece.records))
        pairing.ask(index, piece.question.question, first, timed=True)
    result = pairing.summary()
    medians = {name: statistics.median(append_ms[name]) for name in TREES}
    result["appends"] = {
        **{name: {"median_ms": round(medians[name], 4)} for name in TREES},
        "change_pct": round(100.0 * (medians["head"] / medians["base"] - 1.0), 2),
    }
    return result


def import_base(base_root: Path, directory: Path) -> None:
    """Copy the base tree's package under ``BASE_PACKAGE`` and import it."""
    shutil.copytree(
        base_root / "src" / "linearrag",
        directory / BASE_PACKAGE,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    sys.path.insert(0, str(directory))
    importlib.import_module(BASE_PACKAGE)


def measure(args, n_passages: int, directory: Path) -> dict:
    inputs = make_inputs(args.seed, n_passages)
    corpus_path = directory / "corpus.jsonl"
    evalbench.write_corpus_jsonl(inputs.corpus, corpus_path)
    trees = {"base": Tree(BASE_PACKAGE), "head": Tree("linearrag")}
    result: dict = {"seed": args.seed, "passages": n_passages}
    for name, tree in trees.items():
        tree.load_index(corpus_path, directory / f"index-{name}")
    if "questions" in args.modes:
        questions = list(inputs.graph_questions)
        result["questions"] = questions_mode(trees, questions, args.reps)
    if "append" in args.modes:
        result["append"] = append_mode(
            trees, args.seed, inputs.filler_names, args.appends
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--passages", type=int, nargs="+", default=[3000])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--modes", nargs="+", choices=("questions", "append"),
        default=["questions", "append"],
    )
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--appends", type=int, default=150)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory() as directory:
        import_base(args.base.resolve(), Path(directory))
        for n in args.passages:
            work = Path(directory) / str(n)
            work.mkdir()
            results.append(measure(args, n, work))
            print(json.dumps(results[-1]))
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    equal = all(r[mode]["answers_equal"] for r in results for mode in args.modes)
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())

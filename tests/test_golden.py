"""Golden rankings: ``retrieve``'s top-k on the committed QA suites.

``tests/data/retrieve_golden.json`` holds, for every question of the
multihop and chain suites under the acceptance suite's configurations, the
top-k ``(passage_id, repr(score), contributing_entities)``.

The ``*/dense_only`` entries never reach ``ppr``; they must match exactly,
so any change to the dense path's floating-point operation order shows up
as a mismatch in the last digit of a score. The ``*/full`` entries hold the
PageRank fixed point, recorded by a power iteration (``power_ppr``) run to
an L1 step below 1e-15: ``retrieve`` must return the same ids and
contributing entities, with scores within ``FULL_SCORE_TOLERANCE``.

Regenerate (only when a ranking change is intended) with::

    PYTHONPATH=src python tests/test_golden.py

which computes the ``*/full`` entries with ``power_ppr`` in place of
``ppr``, so the golden stays an oracle independent of the solver.
"""

import json
import logging
import math
from unittest import mock

import numpy as np
from scipy import sparse as sp

from linearrag import retrieval
from linearrag.corpus import ingest
from linearrag.embedding import HashEncoder, build_store
from linearrag.evalbench import load_qa_examples
from linearrag.retrieval import RetrievalConfig, retrieve
from linearrag.trigraph import build

from conftest import CHAIN_ENCODER, DATA_DIR, MULTIHOP_ENCODER
from test_retrieval import dense_transition

GOLDEN_PATH = DATA_DIR / "retrieve_golden.json"

SUITES = {"multihop": MULTIHOP_ENCODER, "chain": CHAIN_ENCODER}
CONFIGS = {
    "full": RetrievalConfig(delta=0.01),
    "dense_only": RetrievalConfig(delta=0.01, entity_sim_threshold=math.inf),
}
FULL_SCORE_TOLERANCE = 1e-8
REFERENCE_TOL = 1e-15
REFERENCE_MAX_ITERS = 5000


def power_ppr(graph, entity_seeds, passage_seeds, cfg):
    """PageRank by the power iteration x <- d W^T x + (1 - d) r, until the L1
    step falls below ``REFERENCE_TOL`` (``cfg``'s tolerance and cap are not
    used)."""
    transition = sp.csr_matrix(dense_transition(graph))
    r = np.concatenate([passage_seeds, entity_seeds]).astype(np.float64)
    r = r / r.sum()
    base = (1.0 - cfg.damping) * r
    importance = r
    for _ in range(REFERENCE_MAX_ITERS):
        updated = transition @ importance
        updated *= cfg.damping
        updated += base
        step = np.abs(updated - importance).sum()
        importance = updated
        if step < REFERENCE_TOL:
            break
    return importance


def current_rankings() -> dict:
    out: dict = {}
    for suite, encoder in SUITES.items():
        graph = build(ingest(DATA_DIR / suite / "corpus.jsonl"))
        store = build_store(graph, HashEncoder(**encoder))
        examples = load_qa_examples(DATA_DIR / suite / "qa.jsonl")
        for config_name, cfg in CONFIGS.items():
            out[f"{suite}/{config_name}"] = [
                [
                    [item.passage_id, repr(item.score), list(item.contributing_entities)]
                    for item in retrieve(example.question, graph, store, cfg).items
                ]
                for example in examples
            ]
    return out


def test_rankings_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    current = current_rankings()
    assert sorted(current) == sorted(golden)
    for key in golden:
        assert len(current[key]) == len(golden[key]), key
        for i, (got, want) in enumerate(zip(current[key], golden[key])):
            if key.endswith("/dense_only"):
                assert got == want, f"{key} question {i}"
                continue
            assert [[pid, entities] for pid, _, entities in got] == [
                [pid, entities] for pid, _, entities in want
            ], f"{key} question {i}"
            for (_, score, _), (_, expected, _) in zip(got, want):
                assert abs(float(score) - float(expected)) <= FULL_SCORE_TOLERANCE, (
                    f"{key} question {i}"
                )


def test_ppr_converges_on_every_golden_question(caplog):
    with caplog.at_level(logging.WARNING, logger="linearrag.retrieval"):
        current_rankings()
    assert not [r for r in caplog.records if r.name == "linearrag.retrieval"]


if __name__ == "__main__":
    with mock.patch.object(retrieval, "ppr", power_ppr):
        rankings = current_rankings()
    GOLDEN_PATH.write_text(json.dumps(rankings, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")

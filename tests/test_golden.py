"""Golden rankings: ``retrieve``'s top-k on the committed QA suites, exactly.

``tests/data/retrieve_golden.json`` holds, for every question of the
multihop and chain suites under the acceptance suite's configurations, the
top-k ``(passage_id, repr(score), contributing_entities)``. Any change to
the query path's floating-point operation order shows up here as a
mismatch in the last digit of a score.

Regenerate (only when a ranking change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math

from linearrag.corpus import ingest
from linearrag.embedding import HashEncoder, build_store
from linearrag.evalbench import load_qa_examples
from linearrag.retrieval import RetrievalConfig, retrieve
from linearrag.trigraph import build

from conftest import CHAIN_ENCODER, DATA_DIR, MULTIHOP_ENCODER

GOLDEN_PATH = DATA_DIR / "retrieve_golden.json"

SUITES = {"multihop": MULTIHOP_ENCODER, "chain": CHAIN_ENCODER}
CONFIGS = {
    "full": RetrievalConfig(delta=0.01),
    "dense_only": RetrievalConfig(delta=0.01, entity_sim_threshold=math.inf),
}


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


def test_rankings_equal_golden_exactly():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    current = current_rankings()
    assert sorted(current) == sorted(golden)
    for key in golden:
        assert len(current[key]) == len(golden[key]), key
        for i, (got, want) in enumerate(zip(current[key], golden[key])):
            assert got == want, f"{key} question {i}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(current_rankings(), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")

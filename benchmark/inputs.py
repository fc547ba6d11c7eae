"""Seeded benchmark inputs: the corpus, the question lists and the append slices.

Everything here is a pure function of the seed, so the same seed gives the
same inputs. Questions are generated here rather than taken from
``evalbench._query_batch``, which names only the first token of a two-token
entity and so sends most of its questions down the dense fallback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from linearrag import Corpus, QaExample, generate_synthetic_corpus
from linearrag.corpus import PassageRecord

AVG_SENTENCES = 3
MAX_CHAINS = 40
SLICE_PASSAGES = 4

_NOUNS = ("harbor", "market", "archive", "garden", "bridge", "mill", "quarry", "lighthouse")

# Graph-path templates stay at or below 7 tokens: a two-token name then has
# hash-encoder cosine 2 / sqrt(2 * tokens) > 0.5, the activation threshold.
_GRAPH_TEMPLATES = (
    "Where did {name} trade maps?",
    "Whom did {name} meet?",
    "What did {name} study?",
    "Who argued with {name}?",
)

# Syllables disjoint from the corpus generator's, so appended names never
# collide with an existing canonical key.
_NEW_SYLLABLES = (
    "ash", "bel", "cor", "dun", "elm", "fir", "gal", "hap", "ith", "jor",
    "kip", "lod", "mab", "nim", "orm", "pex", "quo", "rud", "sil", "tam",
)


@dataclass(frozen=True)
class Slice:
    """Four passages for one append, and the question asked right after it."""

    records: tuple[PassageRecord, ...]
    question: QaExample


@dataclass(frozen=True)
class Inputs:
    corpus: Corpus
    chains: tuple[QaExample, ...]
    graph_questions: tuple[str, ...]
    filler_names: tuple[str, ...]


def make_inputs(seed: int, n_passages: int) -> Inputs:
    n_chains = min(MAX_CHAINS, n_passages // 20)
    corpus, chains = generate_synthetic_corpus(
        n_passages=n_passages,
        avg_sentences=AVG_SENTENCES,
        entity_pool=n_passages // 4,
        seed=seed,
        n_chains=n_chains,
    )
    chain_keys = {key for example in chains for key in example.gold_passage_keys}
    # Every generator template starts with its first two-token entity.
    filler_names = tuple(
        sorted(
            {
                " ".join(p.text.split()[:2])
                for p in corpus.passages
                if p.doc_key not in chain_keys
            }
        )
    )
    rng = random.Random(seed)
    return Inputs(
        corpus=corpus,
        chains=tuple(chains),
        graph_questions=_graph_questions(chains, filler_names, rng),
        filler_names=filler_names,
    )


def _graph_questions(
    chains: list[QaExample], names: tuple[str, ...], rng: random.Random
) -> tuple[str, ...]:
    """Each chain question followed by two questions naming a filler entity."""
    out: list[str] = []
    for example in chains:
        out.append(example.question)
        for _ in range(2):
            template = rng.choice(_GRAPH_TEMPLATES)
            out.append(template.format(name=rng.choice(names)))
    return tuple(out)


def _new_name(index: int, rng: random.Random) -> str:
    first = "".join(_NEW_SYLLABLES[(index // 20**k) % 20] for k in range(4))
    second = rng.choice(_NEW_SYLLABLES) + rng.choice(_NEW_SYLLABLES)
    return f"{first.capitalize()} {second.capitalize()}"


def make_slice(seed: int, index: int, filler_names: tuple[str, ...]) -> Slice:
    """Append slice ``index``: a two-passage bridge chain among new entities
    plus two passages that reuse existing ones.

    Half of the slice's mentions name new entities (the registry's append
    path) and half name existing ones (its merge path). The question names
    the chain's first entity and is answered only by the second passage.
    """
    rng = random.Random(seed * 1_000_003 + index)
    n1, n2, n3, n4, n5 = (_new_name(5 * index + j, rng) for j in range(5))
    o1, o2, o3, o4, o5, o6 = (rng.choice(filler_names) for _ in range(6))
    noun1, noun2 = rng.sample(_NOUNS, 2)
    texts = (
        f"{n1} partnered with {n2} during the long expedition. The journey lasted many weeks.",
        f"{n2} recruited {n3} for the northern survey. The supplies ran low before winter.",
        f"{o1} met {o2} near the old {noun1}. {o3} traded maps with {o4} at the {noun2}.",
        f"{n4} argued with {o5} about the {noun1}. {o6} studied the {noun2} before visiting {n5}.",
    )
    keys = tuple(f"append-{index:05d}-{j}" for j in range(SLICE_PASSAGES))
    records = tuple(
        PassageRecord(doc_key=key, title=None, text=text)
        for key, text in zip(keys, texts)
    )
    question = QaExample(
        question=f"Who joined {n1} on the expedition?",
        gold_answer=n3,
        gold_passage_keys=frozenset(keys[:2]),
    )
    return Slice(records=records, question=question)

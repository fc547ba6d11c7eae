"""Two-stage query pipeline over the tri-graph.

Stage 1 activates entities: query-entity similarities above a threshold
seed an activation vector, which then spreads hop by hop through
query-relevant sentences. Each hop gates sentences by the highest
activation among frontier entities they mention, aggregates the gated
sentence mass back onto entities, keeps only candidates whose new mass
exceeds the pruning threshold, and folds them in with an elementwise MAX,
so activations only ever grow. Propagation stops when no candidate
survives pruning or the hop cap is reached.

Stage 2 ranks passages: activated entities and a hybrid passage seed (a
small query-similarity term plus a log-damped sum of activated-entity
occurrence statistics) form the reset distribution of a personalized
PageRank power iteration on the undirected passage-entity bipartite graph.
Passages are returned in descending importance, ties broken by id.

Nothing in this module performs network I/O or calls a text generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .embedding import EmbeddingStore
from .errors import ConfigError, EmptySeedError
from .trigraph import TriGraph

VALID_FALLBACKS = ("dense", "empty")

# Rows cast to float64 at a time when scoring a float32 vector matrix.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class RetrievalConfig:
    entity_sim_threshold: float = 0.5
    delta: float = 4.0
    max_hops: int = 4
    damping: float = 0.85
    lambda_: float = 0.05
    passage_weight: float = 1.0
    top_k: int = 5
    ppr_tol: float = 1e-8
    ppr_max_iters: int = 100
    fallback: str = "dense"

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise ConfigError(f"damping must be in (0, 1), got {self.damping}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.delta < 0:
            raise ConfigError(f"delta must be >= 0, got {self.delta}")
        if self.max_hops < 0:
            raise ConfigError(f"max_hops must be >= 0, got {self.max_hops}")
        if self.lambda_ < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lambda_}")
        if self.ppr_max_iters < 1:
            raise ConfigError("ppr_max_iters must be >= 1")
        if self.ppr_tol <= 0:
            raise ConfigError("ppr_tol must be positive")
        if self.fallback not in VALID_FALLBACKS:
            raise ConfigError(f"fallback must be one of {VALID_FALLBACKS}")


@dataclass(frozen=True)
class EntityLevel:
    """Per-entity positive divisor used in passage seeding; neutral by default."""

    overrides: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for eid, level in self.overrides.items():
            if level < 1.0:
                raise ConfigError(f"entity level for {eid} must be >= 1, got {level}")

    def as_array(self, n_entities: int) -> np.ndarray:
        levels = np.ones(n_entities, dtype=np.float64)
        for eid, level in self.overrides.items():
            if 0 <= eid < n_entities:
                levels[eid] = level
        return levels


@dataclass(frozen=True)
class ActivationState:
    """Per-query stage-1 state.

    ``a`` holds entity activations (monotone non-decreasing across hops),
    ``sigma`` the query-sentence similarities, ``frontier`` the entities
    newly activated in the latest hop, and ``trace`` maps each activated
    entity to its first activation hop and best supporting sentence (None
    for hop-0 seeds, which come straight from the query).
    """

    a: np.ndarray
    sigma: np.ndarray
    hop: int
    frontier: frozenset[int]
    trace: dict[int, tuple[int, int | None]]
    query_vec: np.ndarray

    def activated_entities(self) -> np.ndarray:
        return np.nonzero(self.a > 0.0)[0]


@dataclass(frozen=True)
class RankedPassage:
    passage_id: int
    score: float
    contributing_entities: tuple[int, ...]


@dataclass(frozen=True)
class RankedPassages:
    items: tuple[RankedPassage, ...]
    query_echo: str
    hops_used: int = 0
    fallback_used: bool = False

    def passage_ids(self) -> list[int]:
        return [item.passage_id for item in self.items]


def _similarities(vectors: np.ndarray, query_vec: np.ndarray) -> np.ndarray:
    """``vectors.astype(np.float64) @ query_vec`` without a float64 copy of
    the whole matrix: rows are cast a block at a time into one reused buffer.

    Blocks start every 512 rows, a multiple of the row grouping of
    OpenBLAS's matrix-vector kernel, so on one BLAS thread each row is summed
    exactly as in the whole-matrix product (a threaded whole-matrix product
    splits rows by thread count, so it is not reproducible itself). A
    one-row tail joins the block before it, because numpy scores a lone row
    with a dot product that sums in another order.
    """
    n_rows = vectors.shape[0]
    out = np.empty(n_rows, dtype=np.float64)
    buffer = np.empty(
        (min(n_rows, _BLOCK_ROWS + 1), vectors.shape[1]), dtype=np.float64
    )
    start = 0
    for stop in [*range(_BLOCK_ROWS, n_rows - 1, _BLOCK_ROWS), n_rows]:
        cast = buffer[: stop - start]
        cast[...] = vectors[start:stop]
        np.matmul(cast, query_vec, out=out[start:stop])
        start = stop
    return out


def initial_activation(
    query: str, graph: TriGraph, store: EmbeddingStore, cfg: RetrievalConfig
) -> ActivationState:
    """Hop 0: thresholded query-entity similarity plus the sentence
    relevance distribution."""
    q = store.encode_query(query)
    entity_sims = _similarities(store.entity_vectors, q)
    a = np.where(entity_sims > cfg.entity_sim_threshold, entity_sims, 0.0)
    sigma = _similarities(store.sentence_vectors, q)
    frontier = frozenset(int(e) for e in np.nonzero(a > 0.0)[0])
    trace = {e: (0, None) for e in frontier}
    return ActivationState(
        a=a, sigma=sigma, hop=0, frontier=frontier, trace=trace, query_vec=q
    )


def propagate(
    state: ActivationState, graph: TriGraph, cfg: RetrievalConfig
) -> ActivationState:
    """One bridging hop; a no-op when the frontier is empty.

    Candidate mass below the pruning threshold is discarded entirely, so
    with delta = +inf the state's activations never change.
    """
    if not state.frontier:
        return state
    u = state.sigma * _frontier_gate(graph, state.a, state.frontier)
    candidates = graph.mention_transposed @ u

    retained = candidates > cfg.delta
    a_new = np.where(retained, np.maximum(candidates, state.a), state.a)
    changed = a_new > state.a
    new_frontier = frozenset(int(e) for e in np.nonzero(changed)[0])
    hop = state.hop + 1

    trace = dict(state.trace)
    if new_frontier:
        best = _best_supporting_sentence(
            graph.mention.row_ids, graph.mention.col_ids, u, changed
        )
        for e in new_frontier:
            if e not in trace:
                trace[e] = (hop, best.get(e))
    return ActivationState(
        a=a_new,
        sigma=state.sigma,
        hop=hop,
        frontier=new_frontier,
        trace=trace,
        query_vec=state.query_vec,
    )


def _frontier_gate(
    graph: TriGraph, a: np.ndarray, frontier: frozenset[int]
) -> np.ndarray:
    """Per sentence, the highest activation (floored at 0) among the
    frontier entities it mentions; 0 where it mentions none."""
    rows, cols = graph.mention.row_ids, graph.mention.col_ids
    in_frontier = np.zeros(graph.n_entities, dtype=bool)
    in_frontier[list(frontier)] = True
    selected = in_frontier[cols]
    gate = np.zeros(graph.n_sentences, dtype=np.float64)
    gated_rows = rows[selected]
    if gated_rows.size:
        # Entries are row-sorted, so each sentence's entries form one run.
        starts = np.flatnonzero(np.diff(gated_rows, prepend=-1))
        runs = np.maximum.reduceat(a[cols[selected]], starts)
        gate[gated_rows[starts]] = np.maximum(0.0, runs)
    return gate


def _best_supporting_sentence(
    rows: np.ndarray, cols: np.ndarray, u: np.ndarray, changed: np.ndarray
) -> dict[int, int]:
    """For each changed entity, the mentioning sentence with the highest
    mass ``u``; ties go to the lowest sentence id."""
    selected = changed[cols]
    entities, sentences = cols[selected], rows[selected]
    order = np.lexsort((sentences, -u[sentences], entities))
    entities, sentences = entities[order], sentences[order]
    first = np.flatnonzero(np.diff(entities, prepend=-1))
    return dict(zip(entities[first].tolist(), sentences[first].tolist()))


def activate(
    query: str, graph: TriGraph, store: EmbeddingStore, cfg: RetrievalConfig
) -> ActivationState:
    """Stage-1 driver: propagate until pruning exhausts the frontier or the
    hop cap is reached. A hop that activates nothing is not counted."""
    state = initial_activation(query, graph, store, cfg)
    while state.hop < cfg.max_hops and state.frontier:
        advanced = propagate(state, graph, cfg)
        if not advanced.frontier:
            return state
        state = advanced
    return state


def passage_seed_scores(
    state: ActivationState,
    graph: TriGraph,
    store: EmbeddingStore,
    levels: EntityLevel | None,
    cfg: RetrievalConfig,
) -> np.ndarray:
    """Hybrid passage seeds: clamped query similarity mixed with log-damped
    activated-entity occurrence mass."""
    psim = _similarities(store.passage_vectors, state.query_vec)
    psim = np.maximum(psim, 0.0)

    level_arr = (levels or EntityLevel()).as_array(graph.n_entities)
    rows = graph.contain.row_ids
    cols = graph.contain.col_ids
    active = state.a[cols] > 0.0
    active_cols = cols[active]
    contributions = (
        state.a[active_cols]
        * graph.log_occurrence[active]
        / level_arr[active_cols]
    )
    inner = np.bincount(
        rows[active], weights=contributions, minlength=graph.n_passages
    )
    return (cfg.lambda_ * psim + np.log1p(inner)) * cfg.passage_weight


def ppr(
    graph: TriGraph,
    entity_seeds: np.ndarray,
    passage_seeds: np.ndarray,
    cfg: RetrievalConfig,
) -> np.ndarray:
    """Personalized PageRank power iteration on the passage-entity graph.

    The reset vector is the L1-normalized concatenation (passages first,
    then entities). Returns importance for all n_passages + n_entities
    nodes. Degree-0 nodes end up with (1-d) times their reset mass.
    """
    n_p, n_e = graph.n_passages, graph.n_entities
    r = np.concatenate(
        [
            np.asarray(passage_seeds, dtype=np.float64),
            np.asarray(entity_seeds, dtype=np.float64),
        ]
    )
    if r.shape[0] != n_p + n_e:
        raise ValueError("seed vectors do not match graph node counts")
    total = r.sum()
    if not np.any(r > 0.0):
        raise EmptySeedError("all-zero seed vector")
    r = r / total

    transition = graph.ppr_transition
    d = cfg.damping
    base = (1.0 - d) * r
    importance = r
    step = np.empty_like(r)
    for _ in range(cfg.ppr_max_iters):
        updated = transition @ importance
        updated *= d
        updated += base
        np.subtract(updated, importance, out=step)
        diff = np.abs(step, out=step).sum()
        importance = updated
        if diff < cfg.ppr_tol:
            break
    return importance


def dense_ranking(
    query_vec: np.ndarray, store: EmbeddingStore, top_k: int
) -> list[tuple[int, float]]:
    """Cosine-only passage ranking (the dense fallback)."""
    scores = _similarities(store.passage_vectors, query_vec)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [(int(i), float(scores[i])) for i in order[:top_k]]


def retrieve(
    query: str,
    graph: TriGraph,
    store: EmbeddingStore,
    cfg: RetrievalConfig | None = None,
    levels: EntityLevel | None = None,
) -> RankedPassages:
    """Full pipeline: activate, seed, aggregate importance, rank top-k."""
    cfg = cfg or RetrievalConfig()
    if not store.matches(graph):
        raise ConfigError("embedding store row counts do not match the graph")

    state = activate(query, graph, store, cfg)
    activated = state.activated_entities()

    if activated.size == 0:
        if cfg.fallback == "empty":
            return RankedPassages(
                items=(), query_echo=query, hops_used=state.hop, fallback_used=True
            )
        items = tuple(
            RankedPassage(passage_id=pid, score=score, contributing_entities=())
            for pid, score in dense_ranking(state.query_vec, store, cfg.top_k)
        )
        return RankedPassages(
            items=items, query_echo=query, hops_used=state.hop, fallback_used=True
        )

    passage_seeds = passage_seed_scores(state, graph, store, levels, cfg)
    importance = ppr(graph, state.a, passage_seeds, cfg)
    scores = importance[: graph.n_passages]
    order = np.lexsort((np.arange(len(scores)), -scores))[: cfg.top_k]

    active_mask = np.zeros(graph.n_entities, dtype=bool)
    active_mask[activated] = True
    items = []
    for pid in order:
        entity_cols = graph.contain.cols_of(int(pid))
        contributing = tuple(
            int(e) for e in entity_cols if active_mask[e]
        )
        items.append(
            RankedPassage(
                passage_id=int(pid),
                score=float(scores[pid]),
                contributing_entities=contributing,
            )
        )
    return RankedPassages(
        items=tuple(items),
        query_echo=query,
        hops_used=state.hop,
        fallback_used=False,
    )

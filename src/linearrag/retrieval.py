"""Two-stage query pipeline over the tri-graph.

Stage 1 activates entities: query-entity similarities above a threshold
seed an activation vector, which then spreads hop by hop through
query-relevant sentences. Each hop gates sentences by the highest
activation among frontier entities they mention, aggregates the gated
sentence mass back onto entities, keeps only candidates whose new mass
exceeds the pruning threshold, and folds them in with an elementwise MAX,
so activations only ever grow. Propagation stops when no candidate
survives pruning or the hop cap is reached. One entity-major view of the
mention incidence (``TriGraph.mention_by_entity``) serves all three steps:
the gate is a max over the frontier entities' entries
(``EntityMajor.row_max``), the candidate mass is the view's product with
the gated sentence mass, and the trace (one row per entity) records, for
each entity a hop first activates, the sentence of its entries holding the
most mass (``EntityMajor.best_rows``, with no sort). How the view is laid
out is ``trigraph``'s concern alone. A hop scores the query similarity of
only the sentences it gates, each the first time it is gated, until the
sentences scored, weighted by the hops that may follow, would pass a share
``SIGMA_CROSSOVER`` of all sentences; then it scores them all in one scan.

Stage 2 ranks passages: activated entities and a hybrid passage seed (a
small query-similarity term plus a log-damped sum of activated-entity
occurrence statistics, read from the entity-major contain view that PPR's
products with C and C^T use too, ``TriGraph.contain_by_entity``) form the
reset distribution of a personalized PageRank on the undirected
passage-entity bipartite graph. ``ppr`` solves its fixed point as a linear
system, by conjugate gradient on the passage block, to an L1 residual below
``ppr_tol`` in at most ``ppr_max_iters`` steps. Passages are returned in
descending importance, ties broken by id; the top k are selected by
partition, so only the k highest scores and those tied with the k-th are
sorted.

The entity and passage similarity scans cover every row: every entity can
seed, and the hybrid seed's query term is dense. The sentence scan covers
only the sentences a query's hops gate, while they stay few.

``retrieve`` is the one place these stages run in sequence; each result it
returns carries their times and the PPR solve's outcome (``QueryStats``).

Nothing in this module performs network I/O or calls a text generator.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from .embedding import EmbeddingStore
from .errors import ConfigError, EmptySeedError
from .trigraph import TriGraph

logger = logging.getLogger(__name__)

VALID_FALLBACKS = ("dense", "empty")

# What a RetrievalConfig field of each numeric annotation accepts; a bool is
# an int to Python but never a valid count or weight.
_NUMBER_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
}

# Rows cast to float64 at a time when scoring a float32 vector matrix.
_BLOCK_ROWS = 512

# A query scores the sentences its hops gate, row by row, until a hop finds
# that the rows scored so far, its own included, times one more than the
# hops that may follow it, pass SIGMA_CROSSOVER of the sentences; then it
# scores all of them in one scan, which costs less per row than a gather
# (about half, one BLAS thread on a shared 2-vCPU VM). A query's gated set
# grows about geometrically from hop to hop (3000 passages: under 1%, then
# 5-15%, then 20-60% of the sentences), so rows gathered while hops remain
# are likely to be scanned again; the factor scans those early, and a last
# hop gathers unless it gates a fifth of the sentences. In a sweep of the
# graph-path initial_activation + propagate time (benchmark corpus, each
# question asked at each value in turn), 0.075 to 0.2 read alike at 3000
# passages and 0.3 had a 10% higher p90; at 12000, 0.075 and 0.1 scanned
# for the median question (8.8-9.1 ms), 0.2 did not (4.0 ms).
SIGMA_CROSSOVER = 0.2


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
        for f in fields(self):
            value = getattr(self, f.name)
            kind = _NUMBER_KINDS.get(f.type)
            if kind and (isinstance(value, bool) or not isinstance(value, kind[0])):
                raise ConfigError(f"{f.name} must be {kind[1]}, got {value!r}")
        # NaN slips through a check such as ``delta < 0``, so every float
        # field is checked for it first, with a message naming it. +inf stays
        # legal for delta and entity_sim_threshold, where it turns
        # propagation or seeding off; in lambda_, passage_weight or ppr_tol
        # it would zero every score.
        for name in (
            "entity_sim_threshold",
            "delta",
            "damping",
            "lambda_",
            "passage_weight",
            "ppr_tol",
        ):
            if math.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must not be NaN")
        if not 0.0 < self.damping < 1.0:
            raise ConfigError(f"damping must be in (0, 1), got {self.damping}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.delta < 0:
            raise ConfigError(f"delta must be >= 0, got {self.delta}")
        if self.max_hops < 0:
            raise ConfigError(f"max_hops must be >= 0, got {self.max_hops}")
        if not 0 <= self.lambda_ < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lambda_}")
        if self.ppr_max_iters < 1:
            raise ConfigError("ppr_max_iters must be >= 1")
        if not 0 <= self.passage_weight < math.inf:
            raise ConfigError(
                f"passage_weight must be finite and >= 0, got {self.passage_weight}"
            )
        if not 0 < self.ppr_tol < math.inf:
            raise ConfigError(f"ppr_tol must be finite and > 0, got {self.ppr_tol}")
        if self.fallback not in VALID_FALLBACKS:
            raise ConfigError(f"fallback must be one of {VALID_FALLBACKS}")


@dataclass(frozen=True)
class EntityLevel:
    """Per-entity positive divisor used in passage seeding; neutral by default.

    Keys are integer entity ids and levels real numbers >= 1 (not bools, not
    NaN), checked as ``RetrievalConfig`` checks its fields."""

    overrides: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for eid, level in self.overrides.items():
            if isinstance(eid, bool) or not isinstance(eid, numbers.Integral):
                raise ConfigError(f"entity id must be an integer, got {eid!r}")
            if isinstance(level, bool) or not isinstance(level, numbers.Real):
                raise ConfigError(
                    f"entity level for {eid} must be a number, got {level!r}"
                )
            if not level >= 1.0:
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
    newly activated in the latest hop, and ``trace`` (int64, n_entities x 2)
    each entity's first activation hop and best supporting sentence; -1 in
    both for an entity never activated, and sentence -1 for a hop-0 seed.

    ``sigma`` has one row per sentence, and only the rows ``scored`` marks
    hold their similarity; the others hold 0.0 and are never read.
    ``initial_activation`` scores no row. Each hop scores the sentences it
    gates that are not scored yet, from ``sentence_vectors``, and writes
    them into ``sigma`` and ``scored`` in place; so the states of one query
    share the two arrays, and a row, once written, never changes. A state
    whose ``scored`` marks every row needs no ``sentence_vectors``.

    An entity's best supporting sentence is, among the sentences that
    mention it, the one whose gated mass (sigma times the frontier gate)
    was highest in the hop that first activated it; ties go to the lowest
    sentence id. A later hop that raises the entity again leaves its trace
    row as it is.
    """

    a: np.ndarray
    sigma: np.ndarray
    hop: int
    frontier: frozenset[int]
    trace: np.ndarray
    query_vec: np.ndarray
    scored: np.ndarray
    sentence_vectors: np.ndarray | None = None

    def activated_entities(self) -> np.ndarray:
        return np.nonzero(self.a > 0.0)[0]


@dataclass(frozen=True)
class RankedPassage:
    passage_id: int
    score: float
    contributing_entities: tuple[int, ...]


@dataclass(frozen=True)
class QueryStats:
    """What one ``retrieve`` call cost.

    ``stage_ms`` maps each stage, in call order, to its wall time in ms:
    ``initial_activation``, ``propagate`` (all hops), then
    ``passage_seed_scores``, ``ppr`` and ``rank``, or ``dense_ranking`` when
    nothing is activated (with either fallback). The PPR fields are the
    conjugate-gradient steps, the L1 residual they stopped at and whether
    it is below ``ppr_tol``; they are None on the fallback.
    ``sentences_scored`` counts the sentence similarities the query scored:
    the sentences its hops gated, or all of them after a full scan, and 0 on
    the fallback, which takes no hop.
    """

    stage_ms: dict[str, float]
    ppr_steps: int | None = None
    ppr_residual_l1: float | None = None
    ppr_converged: bool | None = None
    sentences_scored: int = 0


@dataclass(frozen=True)
class RankedPassages:
    items: tuple[RankedPassage, ...]
    query_echo: str
    hops_used: int = 0
    fallback_used: bool = False
    # Timings vary from call to call; two answers compare without them.
    stats: QueryStats | None = field(default=None, compare=False)

    def passage_ids(self) -> list[int]:
        return [item.passage_id for item in self.items]


def _similarities(
    vectors: np.ndarray, query_vec: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``vectors.astype(np.float64) @ query_vec`` without a float64 copy of
    the whole matrix: rows are cast a block at a time into one reused buffer.

    OpenBLAS's matrix-vector kernel sums rows in groups of 4, and the last
    ``n % 4`` rows of a matrix take a remainder path that may round
    differently. Blocks start every 512 rows, a multiple of 4, so on one
    BLAS thread each row is summed exactly as in the whole-matrix product,
    and the last ``n % 4`` rows of the whole matrix are the ones that take
    the remainder path (a threaded whole-matrix product splits rows by
    thread count, so it is not reproducible itself). A one-row tail joins
    the block before it, because numpy scores a lone row with a dot product
    that sums in another order.
    """
    n_rows = vectors.shape[0]
    if out is None:
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


def _row_similarities(
    vectors: np.ndarray, query_vec: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """``_similarities(vectors, query_vec)[rows]`` for ascending, distinct
    ``rows``, with the same bits, scoring only those rows.

    The rows are gathered into blocks in which each takes the path it takes
    in the full scan (see ``_similarities``): the rows before the last
    ``n % 4``, padded to a multiple of 4 by repeating a row and cast
    ``_BLOCK_ROWS`` at a time, then, if any of the last ``n % 4`` is asked
    for, a block of 4 filler rows and the matrix's last ``n % 4`` rows,
    which so fall in its remainder. A one-row matrix is scored whole, as
    the full scan scores it.
    """
    n = len(vectors)
    if n < 2:
        return _similarities(vectors, query_vec)[rows]
    first_last = n - n % 4
    cut = int(np.searchsorted(rows, first_last))
    head = np.concatenate([rows[:cut], np.repeat(rows[:1], -cut % 4)])
    scores = np.empty(len(head))
    for start in range(0, len(head), _BLOCK_ROWS):
        block = head[start : start + _BLOCK_ROWS]
        np.matmul(
            vectors[block].astype(np.float64),
            query_vec,
            out=scores[start : start + len(block)],
        )
    if cut == len(rows):
        return scores[:cut]
    last = np.concatenate([np.repeat(rows[:1], 4), np.arange(first_last, n)])
    last_scores = vectors[last].astype(np.float64) @ query_vec
    return np.concatenate([scores[:cut], last_scores[rows[cut:] - n]])


def _score_sentences(
    state: ActivationState, rows: np.ndarray, hops_after: int
) -> None:
    """Score the sentences of the mask ``rows`` that ``state`` has not
    scored yet, for a hop that up to ``hops_after`` more may follow (see
    ``ActivationState`` and ``SIGMA_CROSSOVER``)."""
    scored = state.scored
    missing = rows & ~scored
    n_missing, n_scored = np.count_nonzero(missing), np.count_nonzero(scored)
    if not n_missing:
        return
    if (n_scored + n_missing) * (1 + hops_after) > SIGMA_CROSSOVER * len(scored):
        _similarities(state.sentence_vectors, state.query_vec, out=state.sigma)
        scored[:] = True
    else:
        missing = np.flatnonzero(missing)
        state.sigma[missing] = _row_similarities(
            state.sentence_vectors, state.query_vec, missing
        )
        scored[missing] = True


def initial_activation(
    query: str, graph: TriGraph, store: EmbeddingStore, cfg: RetrievalConfig
) -> ActivationState:
    """Hop 0: query-entity similarities above both the threshold and 0, and
    the seeds' trace rows (hop 0). No sentence similarity is scored yet."""
    q = store.encode_query(query)
    entity_sims = _similarities(store.entity_vectors, q)
    a = np.where(entity_sims > max(cfg.entity_sim_threshold, 0.0), entity_sims, 0.0)
    n_sentences = len(store.sentence_vectors)
    frontier = frozenset(np.flatnonzero(a > 0.0).tolist())
    trace = np.where(a[:, None] > 0.0, np.int64([0, -1]), -1)
    return ActivationState(
        a=a,
        sigma=np.zeros(n_sentences),
        hop=0,
        frontier=frontier,
        trace=trace,
        query_vec=q,
        scored=np.zeros(n_sentences, dtype=bool),
        sentence_vectors=store.sentence_vectors,
    )


def propagate(
    state: ActivationState, graph: TriGraph, cfg: RetrievalConfig
) -> ActivationState:
    """One bridging hop; a no-op when the frontier is empty.

    Candidate mass below the pruning threshold is discarded entirely, so
    with delta = +inf the state's activations never change.

    The hop scores the sentences it gates before it reads them. Any other
    sentence's mass is its sigma row, scored or still 0.0, times a zero
    gate: +-0.0, which leaves a sum started at +0.0 unchanged.
    """
    if not state.frontier:
        return state
    op = graph.mention_by_entity
    gate = _frontier_gate(graph, state.a, state.frontier)
    _score_sentences(state, gate > 0.0, cfg.max_hops - state.hop - 1)
    u = state.sigma * gate
    candidates = op.dot(u)

    retained = candidates > cfg.delta
    a_new = np.where(retained, np.maximum(candidates, state.a), state.a)
    changed = np.flatnonzero(a_new > state.a)
    hop = state.hop + 1

    trace = state.trace.copy()
    entering = changed[trace[changed, 0] < 0]
    if len(entering):
        trace[entering, 0] = hop
        trace[entering, 1] = op.best_rows(u, entering)
    return ActivationState(
        a=a_new,
        sigma=state.sigma,
        hop=hop,
        frontier=frozenset(changed.tolist()),
        trace=trace,
        query_vec=state.query_vec,
        scored=state.scored,
        sentence_vectors=state.sentence_vectors,
    )


def _frontier_gate(
    graph: TriGraph, a: np.ndarray, frontier: frozenset[int]
) -> np.ndarray:
    """Per sentence, the highest activation (floored at 0) among the
    frontier entities it mentions; 0 where it mentions none."""
    entities = np.fromiter(frontier, dtype=np.intp, count=len(frontier))
    return graph.mention_by_entity.row_max(entities, np.maximum(a[entities], 0.0))


def activate(
    query: str, graph: TriGraph, store: EmbeddingStore, cfg: RetrievalConfig
) -> ActivationState:
    """Stage-1 driver: propagate until pruning exhausts the frontier or the
    hop cap is reached. A hop that activates nothing is not counted."""
    return _spread(initial_activation(query, graph, store, cfg), graph, cfg)


def _spread(
    state: ActivationState, graph: TriGraph, cfg: RetrievalConfig
) -> ActivationState:
    """``activate``'s hops after hop 0."""
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
    activated-entity occurrence mass, summed per passage in entity order."""
    psim = _similarities(store.passage_vectors, state.query_vec)
    psim = np.maximum(psim, 0.0)

    level_arr = (levels or EntityLevel()).as_array(graph.n_entities)
    # Each passage's entries lie in one part of the entity-major view, so
    # each passage sums its terms in ascending entity id.
    entities, passages, positions = graph.contain_by_entity.entries(
        state.activated_entities()
    )
    log_counts = np.log1p(graph.occurrence_counts[positions])
    contributions = state.a[entities] * log_counts / level_arr[entities]
    inner = np.bincount(passages, weights=contributions, minlength=graph.n_passages)
    return (cfg.lambda_ * psim + np.log1p(inner)) * cfg.passage_weight


def ppr(
    graph: TriGraph,
    entity_seeds: np.ndarray,
    passage_seeds: np.ndarray,
    cfg: RetrievalConfig,
) -> np.ndarray:
    """Personalized PageRank on the passage-entity graph, by conjugate
    gradient on the passage block.

    The reset vector r is the L1-normalized concatenation (passages first,
    then entities). Returns the importance x of all n_passages + n_entities
    nodes, the fixed point of x = d A D^-1 x + (1 - d) r for the bipartite
    adjacency A, its degrees D and the damping d. Degree-0 nodes get
    (1 - d) times their reset mass.

    With x = D^1/2 z the system is symmetric: for B = D_p^-1/2 C D_e^-1/2
    and b = (1 - d) D^-1/2 r,

        (I - d^2 B B^T) z_p = b_p + d B b_e,    z_e = b_e + d B^T z_p.

    The passage system is positive definite with eigenvalues in
    [1 - d^2, 1], so conjugate gradient needs a number of steps set by d,
    not by the size of the graph; each step is one product with B and one
    with B^T. B is never stored: each product scales by the inverse degree
    roots (``TriGraph.degree_roots``) around a product with the binary C,
    B v = D_p^-1/2 (C (D_e^-1/2 v)) and B^T w = D_e^-1/2 (C^T (D_p^-1/2 w)).
    Both products read the entity-major contain view
    (``TriGraph.contain_by_entity``): C's through the transpose of its base,
    with the bits of a CSR product of C (``EntityMajor.row_major_dot``), and
    C^T's directly (``EntityMajor.dot``). With z_e computed from z_p as above
    the entity rows are exact, so the L1 residual of the original equation is
    ``|D_p^1/2 (CG residual)|_1``. The solve stops once that is below
    ``cfg.ppr_tol``, or after ``cfg.ppr_max_iters`` steps, with a logged
    warning. ``retrieve`` reports the step count and that residual in its
    result's ``QueryStats``.
    """
    return _solve_ppr(graph, entity_seeds, passage_seeds, cfg)[0]


def _solve_ppr(
    graph: TriGraph, entity_seeds, passage_seeds, cfg: RetrievalConfig
) -> tuple[np.ndarray, int, float]:
    """``ppr``'s result, with its step count and final L1 residual."""
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
    # A NaN or infinite seed makes the sum non-finite, and so does overflow.
    if not np.isfinite(total):
        raise ValueError(f"seed vectors must be finite, with a finite sum: {total}")
    if not np.any(r > 0.0):
        raise EmptySeedError("all-zero seed vector")
    if total == 0.0:
        raise ValueError("seed vectors sum to 0, so they cannot be normalized")
    r = r / total

    sqrt_deg, inverse = graph.degree_roots
    sqrt_dp, inv_dp, inv_de = sqrt_deg[:n_p], inverse[:n_p], inverse[n_p:]
    contain = graph.contain_by_entity

    def b_mat(v: np.ndarray) -> np.ndarray:
        product = contain.row_major_dot(inv_de * v)
        product *= inv_dp
        return product

    def b_t(w: np.ndarray) -> np.ndarray:
        product = contain.dot(inv_dp * w)
        product *= inv_de
        return product

    d = cfg.damping
    base = (1.0 - d) * r
    b = base * inverse  # 0 for a node of degree 0
    b_p, b_e = b[:n_p], b[n_p:]

    z_p = np.zeros(n_p)
    residual = b_p + d * b_mat(b_e)
    direction = residual.copy()
    rr = residual @ residual
    residual_l1 = np.abs(residual) @ sqrt_dp
    steps = 0
    while residual_l1 >= cfg.ppr_tol and steps < cfg.ppr_max_iters:
        product = b_mat(b_t(direction))
        product *= -d * d
        product += direction
        alpha = rr / (direction @ product)
        z_p += alpha * direction
        residual -= alpha * product
        rr, rr_old = residual @ residual, rr
        residual_l1 = np.abs(residual) @ sqrt_dp
        direction *= rr / rr_old
        direction += residual
        steps += 1
    if residual_l1 >= cfg.ppr_tol:
        logger.warning(
            "ppr stopped after %d conjugate-gradient steps (ppr_max_iters) "
            "with L1 residual %.3g, not below ppr_tol=%.3g",
            steps,
            residual_l1,
            cfg.ppr_tol,
        )

    z_e = b_e + d * b_t(z_p)
    z = np.concatenate([z_p, z_e])
    return np.where(sqrt_deg > 0.0, sqrt_deg * z, base), steps, float(residual_l1)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The indices of the ``k`` highest scores, descending, ties by index.

    ``np.partition`` finds the k-th highest score in linear time (Blum et
    al., JCSS 1973); only the scores not below it, ties included, are
    sorted. NaN sorts after every number, as in a full sort."""
    negated = -scores
    if k < len(scores):
        kth = np.partition(negated, k - 1)[k - 1]
        (kept,) = np.nonzero(~(negated > kth))
    else:
        kept = np.arange(len(scores))
    return kept[np.lexsort((kept, negated[kept]))][:k]


def dense_ranking(
    query_vec: np.ndarray, store: EmbeddingStore, top_k: int
) -> list[tuple[int, float]]:
    """Cosine-only passage ranking (the dense fallback)."""
    scores = _similarities(store.passage_vectors, query_vec)
    return [(int(i), float(scores[i])) for i in _top_k(scores, top_k)]


def retrieve(
    query: str,
    graph: TriGraph,
    store: EmbeddingStore,
    cfg: RetrievalConfig | None = None,
    levels: EntityLevel | None = None,
) -> RankedPassages:
    """Full pipeline: activate, seed, aggregate importance, rank top-k;
    the result's ``stats`` says what each stage cost."""
    cfg = cfg or RetrievalConfig()
    if not store.matches(graph):
        raise ConfigError("embedding store row counts do not match the graph")
    graph.settle_operators()

    stage_ms: dict[str, float] = {}
    tick = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal tick
        now = time.perf_counter()
        stage_ms[stage] = (now - tick) * 1e3
        tick = now

    state = initial_activation(query, graph, store, cfg)
    lap("initial_activation")
    state = _spread(state, graph, cfg)
    lap("propagate")
    active = state.a > 0.0
    fallback = not active.any()

    if fallback:
        top = []
        if cfg.fallback == "dense":
            top = dense_ranking(state.query_vec, store, cfg.top_k)
        items = [
            RankedPassage(passage_id=pid, score=score, contributing_entities=())
            for pid, score in top
        ]
        lap("dense_ranking")
        stats = QueryStats(stage_ms, sentences_scored=0)
    else:
        passage_seeds = passage_seed_scores(state, graph, store, levels, cfg)
        lap("passage_seed_scores")
        importance, steps, residual_l1 = _solve_ppr(graph, state.a, passage_seeds, cfg)
        lap("ppr")
        scores = importance[: graph.n_passages]
        items = [
            RankedPassage(
                passage_id=int(pid),
                score=float(scores[pid]),
                contributing_entities=tuple(
                    int(e) for e in graph.contain.cols_of(int(pid)) if active[e]
                ),
            )
            for pid in _top_k(scores, cfg.top_k)
        ]
        lap("rank")
        stats = QueryStats(
            stage_ms,
            steps,
            residual_l1,
            residual_l1 < cfg.ppr_tol,
            int(np.count_nonzero(state.scored)),
        )
    return RankedPassages(
        items=tuple(items),
        query_echo=query,
        hops_used=state.hop,
        fallback_used=fallback,
        stats=stats,
    )

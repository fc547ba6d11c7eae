"""Two-stage query pipeline over the tri-graph.

Stage 1 activates entities: query-entity similarities above a threshold
seed an activation vector, which then spreads hop by hop through
query-relevant sentences. Each hop gates sentences by the highest
activation among frontier entities they mention, aggregates the gated
sentence mass back onto entities, keeps only candidates whose new mass
exceeds the pruning threshold, and folds them in with an elementwise MAX,
so activations only ever grow. Propagation stops when no candidate
survives pruning or the hop cap is reached. One array core (``_hop``)
does a hop's arithmetic, and one loop (``_hops``) holds the stopping rule,
for every caller. One entity-major view of the mention incidence
(``TriGraph.mention_by_entity``) serves the hop: the gate is a max over the
frontier entities' entries (``ColumnMajor.row_max``), and the candidate
mass is the view's product with the gated sentence mass. Hop 0 scores the
query similarity of every sentence, once, when any entity seeds.

The activation trace (one row per entity) records, for each entity a hop
first activates, that hop and the sentence of its entries holding the most
mass (``ColumnMajor.best_rows``, with no sort). The public stages build it:
``initial_activation`` its seed rows, ``propagate`` and ``activate`` a row
for each entity a hop first activates. ``retrieve`` ranks passages alone,
so it builds no trace, no per-hop state and no frontier set, and PPR's
entity block is left out of its solve. How the view is laid out is
``trigraph``'s concern alone.

Stage 2 ranks passages: activated entities and a hybrid passage seed (a
small query-similarity term plus a log-damped sum of activated-entity
occurrence statistics, read from the entity-major contain view that PPR's
products with C and C^T use too, ``TriGraph.contain_by_entity``) form the
reset distribution of a personalized PageRank on the undirected
passage-entity bipartite graph. ``ppr`` solves its fixed point as a linear
system, by conjugate gradient on the passage block, to an L1 residual below
``ppr_tol`` in at most ``ppr_max_iters`` steps, and derives the entity
block from the passage block. Passages are returned in
descending importance, ties broken by id; the top k are selected by
partition, so only the k highest scores and those tied with the k-th are
sorted.

Every query similarity, of entities, sentences and passages, is scored
for every row with the bits of a float64 matrix-vector product, but not by
one (``_similarities``): a kind held as sparse rows, read column-major,
sums the entries of the query's nonzero buckets alone, term at a time,
which scores exactly each row sharing at most two of them; only the others
are scored whole, scattered a block at a time along each row's path
through the whole product (``_row_similarities``), as a dense kind is cast.
So a query's similarity cost follows the entries of its buckets, not the kind's.

``retrieve`` is the one place these stages run in sequence, through the
same private cores as the public stages, computing only what it returns;
each result it returns carries their times and the PPR solve's outcome
(``QueryStats``). Its answers keep the bits of ``activate``,
``passage_seed_scores``, the passage block of ``ppr`` and a sort.

Nothing in this module performs network I/O or calls a text generator.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Mapping

import numpy as np

from .embedding import EmbeddingStore, HeldRows, SparseRows
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
# A kind's similarities are scanned whole, rather than read from its sparse
# index, once the rows whose score the index cannot give pass this share of
# its rows: a gathered row costs about twice a scanned one. See CHANGES.md
# for the sweep it was picked from.
GATHER_SHARE = 0.5


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

    ``initial_activation`` scores ``sigma`` whole, one row per sentence,
    when its frontier is not empty; otherwise no hop reads it, and it holds
    zeros. ``dense_rows`` counts the entity and sentence rows it scored by
    float64 dot products over whole rows (see ``_scored``).

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
    dense_rows: int = 0

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
    ``dense_rows`` counts, over the entity, sentence and passage vectors,
    the rows whose query similarity the query scored by float64 dot
    products over whole rows rather than term at a time: the rows gathered
    for sharing 3 or more nonzero entries with the query, or every row of a
    kind scanned whole (see ``_similarities``).
    """

    stage_ms: dict[str, float]
    ppr_steps: int | None = None
    ppr_residual_l1: float | None = None
    ppr_converged: bool | None = None
    dense_rows: int = 0


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


def _similarities(vectors: HeldRows, query_vec: np.ndarray) -> np.ndarray:
    """``vectors.astype(np.float64) @ query_vec`` as OpenBLAS sums it on one
    thread, bit for bit, for a kind as a store holds it: dense rows, or
    sparse rows (``SparseRows``), read term at a time where that serves,
    and else by ``_row_similarities`` over every row.

    A float32 value is exact in float64, and so is the product of two: 24
    + 24 significand bits fit in 53 (the error-free product of Ogita, Rump
    and Oishi, *Accurate Sum and Dot Product*, SIAM J. Sci. Comput. 2005).
    So for a query vector of finite float32 values, a row that shares at
    most two nonzero entries with it is the one rounding of the sum of two
    exact products, in every summation order, with or without FMA, and
    every zero product leaves a sum begun at +0.0 as it was. The sparse
    rows' column-major view gathers the entries of the query's nonzero
    columns and gives every row that sum and its count of them
    (``ColumnMajor.row_major_terms``); the rows that count 3 or more are
    scored again by ``_row_similarities``. It scores every row instead
    when those pass ``GATHER_SHARE`` of them, when the rows are dense, or
    when the query vector is not finite float32.
    """
    return _scored(vectors, query_vec, _query_terms(query_vec))[0]


def _query_terms(query_vec: np.ndarray) -> np.ndarray | None:
    """The nonzero columns of ``query_vec``, which sparse rows' view reads
    to score it, or None when it is not finite float32 and every row must
    be scanned. A query's kinds share them, so it finds them once."""
    return np.flatnonzero(query_vec) if _float32_valued(query_vec) else None


def _scored(
    vectors: HeldRows, query_vec: np.ndarray, terms: np.ndarray | None
) -> tuple[np.ndarray, int]:
    """``_similarities``, given the query's ``_query_terms``, and how many
    rows it scored by float64 dot products: those it gathered, or all of
    them."""
    n_rows = vectors.shape[0]
    if not isinstance(vectors, SparseRows) or terms is None:
        return _row_similarities(vectors, query_vec), n_rows
    scores, counts = vectors.by_column.row_major_terms(query_vec, terms)
    rows = np.flatnonzero(counts >= 3)
    if len(rows) > GATHER_SHARE * n_rows:
        return _row_similarities(vectors, query_vec), n_rows
    if len(rows):
        scores[rows] = _row_similarities(vectors, query_vec, rows)
    return scores, len(rows)


def _float32_valued(query_vec: np.ndarray) -> bool:
    """Whether every entry of ``query_vec`` is a finite float32 value."""
    with np.errstate(over="ignore"):
        narrowed = query_vec.astype(np.float32)
    return bool(np.isfinite(narrowed).all() and np.array_equal(narrowed, query_vec))


def _row_similarities(
    vectors: HeldRows, query_vec: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """``(vectors.astype(np.float64) @ query_vec)[rows]`` for ascending,
    distinct ``rows`` (None: every row), as OpenBLAS sums the whole product
    on one thread, bit for bit, without a float64 copy of the matrix.

    OpenBLAS's matrix-vector kernel sums rows in groups of 4; the last
    ``n % 4`` rows take a remainder path whose rounding depends on how many
    rows it holds. So the asked rows before those are scored
    ``_BLOCK_ROWS`` (a multiple of 4) at a time, the last block padded to a
    multiple of 4 with copies of its first row; and, if any of the last
    ``n % 4`` is asked, all of them are scored after 4 copies of the first,
    as that block's remainder. Each block is filled in one reused float64
    buffer, cast from dense rows (a slice in a full scan, else a gather) or
    scattered from sparse rows into zeros (``SparseRows.scatter``): a
    float32 value is exact in float64 and an unmarked entry is +0.0 in
    both, so either way it holds the same values. numpy scores a one-row
    matrix by a dot product, which sums in another order, and so does this.
    (A threaded product splits rows by thread count, so it is not
    reproducible itself.)
    """
    n, dim = vectors.shape
    sparse = isinstance(vectors, SparseRows)

    def fill(into: np.ndarray, picked: slice | np.ndarray, used: bool) -> None:
        # Sparse rows go into zeros: calloc's (faster than numpy's fill)
        # until a block has used them.
        if sparse:
            if used:
                into[...] = 0.0
            vectors.scatter(picked, into)
        else:
            into[...] = vectors[picked]

    if n < 2:
        block = np.zeros((n, dim))
        fill(block, slice(0, n), False)
        return block @ query_vec if rows is None else (block @ query_vec)[rows]
    first_last = n - n % 4
    asked = n if rows is None else len(rows)
    head = first_last if rows is None else int(np.searchsorted(rows, first_last))
    # A padded block's filler scores spill into up to 3 slots past its rows:
    # the last rows' slots, written after it, or 3 spare ones.
    out = np.empty(asked + 3)
    # Room for a block of head rows padded to a multiple of 4, and for the
    # last rows after their 4 copies, from a 64-byte boundary: the kernel
    # reads it about 10% slower from 16 or 48 bytes past one.
    size = (min(head + 3, _BLOCK_ROWS) + 4) * dim
    raw = np.zeros(size + 7) if sparse else np.empty(size + 7)
    buffer = raw[-raw.ctypes.data % 64 // 8 :][:size].reshape(-1, dim)
    for lo in range(0, head, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, head)
        size = hi - lo
        cast = buffer[: size + -size % 4]
        fill(cast[:size], slice(lo, hi) if rows is None else rows[lo:hi], lo > 0)
        if size % 4:
            cast[size:] = cast[0]
        np.matmul(cast, query_vec, out=out[lo : lo + len(cast)])
    if head < asked:
        cast = buffer[: 4 + n % 4]
        fill(cast[4:], slice(first_last, n), head > 0)
        cast[:4] = cast[4]
        last = (cast @ query_vec)[4:]
        out[head:asked] = last if rows is None else last[rows[head:] - first_last]
    return out[:asked]


def initial_activation(
    query: str, graph: TriGraph, store: EmbeddingStore, cfg: RetrievalConfig
) -> ActivationState:
    """Hop 0: query-entity similarities above both the threshold and 0, and
    the seeds' trace rows (hop 0). The query-sentence similarities are
    scored whole if any entity seeds, for the hops that may follow."""
    q = store.encode_query(query)
    a, sigma, dense_rows = _hop_zero(store, q, _query_terms(q), cfg)
    return ActivationState(
        a=a,
        sigma=sigma,
        hop=0,
        frontier=frozenset(np.flatnonzero(a > 0.0).tolist()),
        trace=np.where(a[:, None] > 0.0, np.int64([0, -1]), -1),
        query_vec=q,
        dense_rows=dense_rows,
    )


def _hop_zero(
    store: EmbeddingStore,
    query_vec: np.ndarray,
    terms: np.ndarray | None,
    cfg: RetrievalConfig,
) -> tuple[np.ndarray, np.ndarray, int]:
    """``initial_activation``'s activations and sentence similarities, and
    the rows it scored by dot products, given the query's terms."""
    entity_sims, dense_rows = _kind_scores(store, "entity_vectors", query_vec, terms)
    a = np.where(entity_sims > max(cfg.entity_sim_threshold, 0.0), entity_sims, 0.0)
    if np.any(a > 0.0):
        sigma, sentence_rows = _kind_scores(store, "sentence_vectors", query_vec, terms)
        dense_rows += sentence_rows
    else:
        sigma = np.zeros(store.kinds["sentence_vectors"].shape[0])
    return a, sigma, dense_rows


def _kind_scores(
    store: EmbeddingStore, kind: str, query_vec: np.ndarray, terms: np.ndarray | None
) -> tuple[np.ndarray, int]:
    """``_scored`` for the store's vectors of ``kind``, as it holds them."""
    return _scored(store.kinds[kind], query_vec, terms)


def propagate(
    state: ActivationState, graph: TriGraph, cfg: RetrievalConfig
) -> ActivationState:
    """One bridging hop (``_hop``, as ``activate`` and ``retrieve`` take
    it), with a trace row for each entity it activates first; a no-op when
    the frontier is empty.

    Candidate mass below the pruning threshold is discarded entirely, so
    with delta = +inf the state's activations never change.
    """
    if not state.frontier:
        return state
    frontier = np.fromiter(state.frontier, dtype=np.intp, count=len(state.frontier))
    return _traced(state, graph, *_hop(graph, state.a, state.sigma, frontier, cfg))


def _hop(
    graph: TriGraph,
    a: np.ndarray,
    sigma: np.ndarray,
    frontier: np.ndarray,
    cfg: RetrievalConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bridging hop from the activations ``a`` and the ``frontier``
    entities (distinct, in any order): the new activations, the entities
    whose activation rose (ascending), and the gated sentence mass ``u``
    they were drawn from. ``propagate``, ``activate`` and ``retrieve`` all
    hop through it."""
    u = sigma * _frontier_gate(graph, a, frontier)
    candidates = graph.mention_by_entity.dot(u)
    retained = candidates > cfg.delta
    a_new = np.where(retained, np.maximum(candidates, a), a)
    return a_new, np.flatnonzero(a_new > a), u


def _frontier_gate(graph: TriGraph, a: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Per sentence, the highest activation (floored at 0) among the
    ``frontier`` entities it mentions; 0 where it mentions none."""
    return graph.mention_by_entity.row_max(frontier, np.maximum(a[frontier], 0.0))


def _traced(
    state: ActivationState,
    graph: TriGraph,
    a: np.ndarray,
    changed: np.ndarray,
    u: np.ndarray,
) -> ActivationState:
    """The state after ``state`` by a hop that gave ``_hop``'s ``a``,
    ``changed`` and ``u``, with a trace row for each entity it activates
    first."""
    hop = state.hop + 1
    trace = state.trace.copy()
    entering = changed[trace[changed, 0] < 0]
    if len(entering):
        trace[entering, 0] = hop
        trace[entering, 1] = graph.mention_by_entity.best_rows(u, entering)
    return ActivationState(
        a=a,
        sigma=state.sigma,
        hop=hop,
        frontier=frozenset(changed.tolist()),
        trace=trace,
        query_vec=state.query_vec,
        dense_rows=state.dense_rows,
    )


def _hops(
    graph: TriGraph, a: np.ndarray, sigma: np.ndarray, cfg: RetrievalConfig
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``_hop`` after hop 0, whose activations are ``a``, one counted hop
    at a time: until a hop activates nothing, which is not counted, or the
    hop cap is reached."""
    frontier = np.flatnonzero(a > 0.0)
    for _ in range(cfg.max_hops):
        if not len(frontier):
            return
        a, frontier, u = _hop(graph, a, sigma, frontier, cfg)
        if len(frontier):
            yield a, frontier, u


def activate(
    query: str, graph: TriGraph, store: EmbeddingStore, cfg: RetrievalConfig
) -> ActivationState:
    """Stage-1 driver: propagate until pruning exhausts the frontier or the
    hop cap is reached. A hop that activates nothing is not counted. Its
    hops are ``retrieve``'s (``_hops``), each recorded in the returned
    state's trace, as ``propagate`` records one."""
    state = initial_activation(query, graph, store, cfg)
    for hop in _hops(graph, state.a, state.sigma, cfg):
        state = _traced(state, graph, *hop)
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
    q = state.query_vec
    psim = _kind_scores(store, "passage_vectors", q, _query_terms(q))[0]
    return _seeds(psim, state.a, graph, levels, cfg)


def _seeds(
    psim: np.ndarray,
    a: np.ndarray,
    graph: TriGraph,
    levels: EntityLevel | None,
    cfg: RetrievalConfig,
) -> np.ndarray:
    """``passage_seed_scores`` given the passages' query similarities and
    the activations ``a``."""
    # Each passage's entries lie in one part of the entity-major view, so
    # each passage sums its terms in ascending entity id.
    entities, passages, positions = graph.contain_by_entity.entries(
        np.flatnonzero(a > 0.0)
    )
    log_counts = np.log1p(graph.occurrence_counts[positions])
    contributions = a[entities] * log_counts
    if levels is not None:  # x / 1.0 == x, so no levels divide by nothing
        contributions /= levels.as_array(graph.n_entities)[entities]
    inner = np.bincount(passages, weights=contributions, minlength=graph.n_passages)
    return (cfg.lambda_ * np.maximum(psim, 0.0) + np.log1p(inner)) * cfg.passage_weight


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
    with the bits of a CSR product of C (``ColumnMajor.row_major_dot``), and
    C^T's directly (``ColumnMajor.dot``). With z_e computed from z_p as above
    the entity rows are exact, so the L1 residual of the original equation is
    ``|D_p^1/2 (CG residual)|_1``. The solve stops once that is below
    ``cfg.ppr_tol``, or after ``cfg.ppr_max_iters`` steps, with a logged
    warning. ``retrieve`` reports the step count and that residual in its
    result's ``QueryStats``.

    The solve gives the passage block; this adds the entity block, z_e
    from z_p by one more product with C^T. ``retrieve`` ranks passages
    alone and leaves it out.
    """
    passages, _, _, entities = _solve_ppr(graph, entity_seeds, passage_seeds, cfg)
    return np.concatenate([passages, entities()])


def _solve_ppr(
    graph: TriGraph, entity_seeds, passage_seeds, cfg: RetrievalConfig
) -> tuple[np.ndarray, int, float, Callable[[], np.ndarray]]:
    """The passage block of ``ppr``'s result, with its step count and final
    L1 residual, and a function that computes its entity block."""
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
    sqrt_dp, sqrt_de = sqrt_deg[:n_p], sqrt_deg[n_p:]
    inv_dp, inv_de = inverse[:n_p], inverse[n_p:]
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
    b_p = base[:n_p] * inv_dp  # 0 for a node of degree 0
    b_e = base[n_p:] * inv_de

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

    def entities() -> np.ndarray:
        z_e = b_e + d * b_t(z_p)
        return np.where(sqrt_de > 0.0, sqrt_de * z_e, base[n_p:])

    passages = np.where(sqrt_dp > 0.0, sqrt_dp * z_p, base[:n_p])
    return passages, steps, float(residual_l1), entities


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
    terms = _query_terms(query_vec)
    return _ranking(_kind_scores(store, "passage_vectors", query_vec, terms)[0], top_k)


def _ranking(scores: np.ndarray, top_k: int) -> list[tuple[int, float]]:
    return [(int(i), float(scores[i])) for i in _top_k(scores, top_k)]


def retrieve(
    query: str,
    graph: TriGraph,
    store: EmbeddingStore,
    cfg: RetrievalConfig | None = None,
    levels: EntityLevel | None = None,
) -> RankedPassages:
    """Full pipeline: activate, seed, aggregate importance, rank top-k;
    the result's ``stats`` says what each stage cost.

    It hops as ``activate`` does, without the activation trace, and solves
    PPR's passage block alone, without the entity block ``ppr`` adds: so
    its answers equal those of the public stages called one by one, at
    less cost."""
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

    q = store.encode_query(query)
    terms = _query_terms(q)
    a, sigma, dense_rows = _hop_zero(store, q, terms, cfg)
    lap("initial_activation")
    hops = 0
    for a, _, _ in _hops(graph, a, sigma, cfg):
        hops += 1
    lap("propagate")
    active = a > 0.0
    fallback = not active.any()

    if fallback:
        top = []
        if cfg.fallback == "dense":
            scores, passage_rows = _kind_scores(store, "passage_vectors", q, terms)
            top = _ranking(scores, cfg.top_k)
            dense_rows += passage_rows
        items = [
            RankedPassage(passage_id=pid, score=score, contributing_entities=())
            for pid, score in top
        ]
        lap("dense_ranking")
        stats = QueryStats(stage_ms, dense_rows=dense_rows)
    else:
        psim, passage_rows = _kind_scores(store, "passage_vectors", q, terms)
        passage_seeds = _seeds(psim, a, graph, levels, cfg)
        dense_rows += passage_rows
        lap("passage_seed_scores")
        scores, steps, residual_l1, _ = _solve_ppr(graph, a, passage_seeds, cfg)
        lap("ppr")
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
            dense_rows,
        )
    return RankedPassages(
        items=tuple(items),
        query_echo=query,
        hops_used=hops,
        fallback_used=fallback,
        stats=stats,
    )

"""Growth buffers: appends write in place only at a buffer's tip, so every
store (and graph) stays as it was, whichever of them is appended to, and
appends from the tip copy amortised O(slice)."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linearrag.buffers import appended, reserved
from linearrag.corpus import PassageRecord, corpus_from_records
from linearrag.embedding import (
    HashEncoder,
    build_store,
    extend_store,
    load_store,
    save_store,
)
from linearrag.trigraph import add_passages, build, graph_equal, load, save

ENCODER = HashEncoder(dim=16, seed=3)
VECTORS = ("entity_vectors", "sentence_vectors", "passage_vectors")
NAMES = ["Paris", "Rome", "Oslo", "Lima", "Kyoto", "Dakar", "Quito", "Hanoi"]


def _pool(n_texts=16, seed=2):
    """Passages naming cities in three spellings, so that appends both add
    entities and give old ones new surfaces."""
    rng = random.Random(seed)
    texts = []
    for _ in range(n_texts):
        picks = rng.sample(NAMES, 3)
        forms = [rng.choice([name, name.upper(), name + "-Town"]) for name in picks]
        texts.append(f"{forms[0]} met {forms[1]}. so {forms[2]} left {forms[0]}.")
    return texts


POOL = _pool()


def records(texts):
    return [PassageRecord(doc_key=None, title=None, text=t) for t in texts]


def arrays(graph, store):
    return [
        *(getattr(graph.contain, a) for a in ("row_ids", "col_ids", "indptr")),
        *(getattr(graph.mention, a) for a in ("row_ids", "col_ids", "indptr")),
        graph.occurrence_counts,
        *(getattr(store, kind) for kind in VECTORS),
    ]


class TestAppended:
    def test_tip_is_written_in_place(self):
        first = appended(np.arange(3), np.arange(3, 5))
        second = appended(first, np.arange(5, 6))
        assert np.shares_memory(first, second)
        assert first.tolist() == [0, 1, 2, 3, 4]
        assert second.tolist() == [0, 1, 2, 3, 4, 5]

    def test_non_tip_is_copied(self):
        first = appended(np.arange(3), np.arange(3, 5))
        tip = appended(first, np.array([5]))
        sibling = appended(first, np.array([9]))
        shorter = appended(first[:2], np.array([7]))
        assert not np.shares_memory(sibling, tip)
        assert not np.shares_memory(shorter, tip)
        assert tip.tolist() == [0, 1, 2, 3, 4, 5]
        assert sibling.tolist() == [0, 1, 2, 3, 4, 9]
        assert shorter.tolist() == [0, 1, 7]

    def test_other_views_of_the_buffer_are_copied(self):
        first = appended(np.arange(3), np.arange(3, 5))
        buffer = first.base
        assert len(buffer) == 10
        buffer[5:] = -1
        shifted = appended(buffer[1:6], np.array([9]))
        strided = appended(buffer[0:10:2], np.array([9]))
        plain = appended(buffer[1:6].view(np.ndarray), np.array([9]))
        unchanged = appended(buffer[1:6].view(np.ndarray), np.array([], dtype=int))
        assert shifted.tolist() == [1, 2, 3, 4, -1, 9]
        assert strided.tolist() == [0, 2, 4, -1, -1, 9]
        assert plain.tolist() == [1, 2, 3, 4, -1, 9]
        assert unchanged.tolist() == [1, 2, 3, 4, -1]
        assert first.tolist() == [0, 1, 2, 3, 4]

    def test_rows_keep_their_width_and_widest_dtype(self):
        start = np.zeros((2, 3), dtype=np.float32)
        grown = appended(appended(start, np.ones((1, 3), dtype=np.float32)), np.ones((2, 3)))
        assert grown.shape == (5, 3) and grown.dtype == np.float64
        assert grown.flags.c_contiguous

    def test_appends_from_the_tip_copy_a_logarithmic_number_of_times(self):
        array, buffers = np.empty(0, dtype=np.int64), set()
        for value in range(1000):
            array = appended(array, np.array([value]))
            buffers.add(id(array.base))
        assert array.tolist() == list(range(1000))
        assert len(buffers) <= 11  # capacities 2, 4, ..., 2048

    def test_views_are_read_only(self):
        view = appended(np.arange(3), np.arange(2))
        with pytest.raises(ValueError):
            view[0] = 7

    def test_reserved_rows_are_a_tip(self):
        rows = reserved(3, (2,), np.float32)
        assert rows.shape == (3, 2) and rows.dtype == np.float32
        assert not rows.any()
        rows[:] = 1
        rows.flags.writeable = False
        grown = appended(rows, np.full((3, 2), 2, dtype=np.float32))
        assert np.shares_memory(grown, rows)
        assert grown.tolist() == [[1, 1]] * 3 + [[2, 2]] * 3
        assert appended(grown, np.ones((1, 2))).base is not grown.base


def test_loaded_store_extends_in_place(tmp_path):
    """``load_store`` decodes each kind into a buffer's tip, so the first
    extend after a load copies no loaded row."""
    graph = build(corpus_from_records(records(POOL[:6])))
    save(graph, tmp_path, embedder={"id": ENCODER.contract.id, "dim": 16})
    save_store(build_store(graph, ENCODER), tmp_path)
    graph = load(tmp_path)
    loaded = load_store(tmp_path, graph)
    slice_ = corpus_from_records(
        records(POOL[6:8]),
        passage_id_base=graph.n_passages,
        sentence_id_base=graph.n_sentences,
    )
    grown = extend_store(loaded, add_passages(graph, slice_))
    for kind in VECTORS:
        rows = getattr(loaded, kind)
        assert not rows.flags.writeable
        assert np.shares_memory(getattr(grown, kind), rows), kind
        assert np.array_equal(getattr(grown, kind)[: len(rows)], rows), kind


def test_grown_store_arrays_are_read_only():
    graph = build(corpus_from_records(records(POOL[:4])))
    store = build_store(graph, ENCODER)
    slice_ = corpus_from_records(
        records(POOL[4:6]),
        passage_id_base=graph.n_passages,
        sentence_id_base=graph.n_sentences,
    )
    store = extend_store(store, add_passages(graph, slice_))
    with pytest.raises(ValueError):
        store.sentence_vectors[0, 0] = 1.0
    assert not store.passage_vectors.flags.writeable


@settings(max_examples=40, deadline=None)
@given(
    root=st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=4),
    steps=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_branching_appends_equal_rebuilds_and_leave_parents_intact(root, steps):
    """A tree of appends: each step appends a slice to a random earlier
    graph and store, the tip or not. Every result equals a rebuild of its own
    corpus, and no append changes a byte of an earlier graph or store."""
    graph = build(corpus_from_records(records([POOL[i] for i in root])))
    nodes = [([POOL[i] for i in root], graph, build_store(graph, ENCODER))]
    snapshots = [[a.copy() for a in arrays(*nodes[0][1:])]]
    for pick, picks in steps:
        texts, graph, store = nodes[pick % len(nodes)]
        slice_ = corpus_from_records(
            records([POOL[i] for i in picks]),
            passage_id_base=graph.n_passages,
            sentence_id_base=graph.n_sentences,
        )
        graph = add_passages(graph, slice_)
        store = extend_store(store, graph)
        texts = texts + [POOL[i] for i in picks]
        rebuilt = build(corpus_from_records(records(texts)))
        assert graph_equal(graph, rebuilt)
        rebuilt_store = build_store(rebuilt, ENCODER)
        for kind in VECTORS:
            assert np.array_equal(getattr(store, kind), getattr(rebuilt_store, kind))
        nodes.append((texts, graph, store))
        snapshots.append([a.copy() for a in arrays(graph, store)])
        for (_, old_graph, old_store), snapshot in zip(nodes, snapshots):
            for now, then in zip(arrays(old_graph, old_store), snapshot):
                assert now.dtype == then.dtype and now.shape == then.shape
                assert now.tobytes() == then.tobytes()


def test_concurrent_appends_to_one_tip_stay_apart():
    """Threads appending to the same array each get their own rows: only one
    of them may claim the buffer's spare rows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            # Room for 50k more rows: every thread's append fits in place.
            base = appended(np.empty(0, dtype=np.int64), np.arange(50_000))
            results = {}
            start = threading.Barrier(8)

            def grow(value):
                rows = np.full(20_000, value)
                start.wait(timeout=30)
                results[value] = appended(base, rows)

            threads = [threading.Thread(target=grow, args=(v,)) for v in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(results) == list(range(8))
            for value, grown in results.items():
                assert np.array_equal(grown[:50_000], np.arange(50_000))
                assert np.all(grown[50_000:] == value)
    finally:
        sys.setswitchinterval(interval)

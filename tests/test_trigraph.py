import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from linearrag.corpus import ingest
from linearrag.errors import (
    ConsistencyError,
    DigestMismatchError,
    UpdateError,
    VersionMismatchError,
)
from linearrag.evalbench import generate_synthetic_corpus
from linearrag.extraction import ExtractorContract, distinct_entries, extract_mentions
from linearrag.trigraph import (
    GRAPH_FILES,
    SparseBinaryMatrix,
    add_passages,
    build,
    graph_equal,
    load,
    read_manifest,
    save,
)

from conftest import make_corpus, write_jsonl

CAPS_RUN = ExtractorContract.make()

# Bytes per entry of the binary index files.
ENTRY_BYTES = {"mention.i64": 16, "occurrence.i64": 8, "sentences.i64": 24}

# An in-place overwrite of the first entry of a file: (file, int64 values).
GARBAGE = {
    "mention-row-out-of-range": ("mention.i64", [10**6, 0]),
    "mention-column-negative": ("mention.i64", [0, -1]),
    "sentence-owner-out-of-range": ("sentences.i64", [10**6, 0, 1]),
    "sentence-span-past-passage": ("sentences.i64", [0, 0, 10**6]),
    "sentence-span-reversed": ("sentences.i64", [0, 5, 2]),
    "count-zero": ("occurrence.i64", [0]),
}


def recommit(directory):
    """Make the manifest commit every file at its current length, as if the
    damage had been saved."""
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    for name in manifest["files"]:
        manifest["files"][name] = (directory / name).stat().st_size
    path.write_text(json.dumps(manifest))


def occurrence_map(graph):
    """The per-(passage, entity) mention counts as a dict."""
    counts = graph.occurrence_counts
    assert counts.dtype == np.int64 and counts.shape == (graph.contain.nnz,)
    return dict(zip(graph.contain.pairs(), counts.tolist()))


def matrix(pairs, n_rows, n_cols):
    """A matrix from in-range (row, col) pairs, built the way ``build``
    builds one: the distinct entries in row-major order, then wrapped."""
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    rows, cols, _ = distinct_entries(arr[:, 0], arr[:, 1], n_cols)
    return SparseBinaryMatrix.sorted_entries(rows, cols, n_rows, n_cols)


def entries(*values):
    return np.array(values, dtype=np.int64)


class TestSparseBinaryMatrix:
    def test_from_pairs_sorts_and_dedups(self):
        m = matrix([(2, 1), (0, 3), (2, 1), (0, 0)], 3, 4)
        assert m.pairs() == [(0, 0), (0, 3), (2, 1)]
        assert m.nnz == 3

    def test_indptr_consistent(self):
        m = matrix([(0, 1), (0, 2), (2, 0)], 3, 3)
        assert m.indptr.tolist() == [0, 2, 2, 3]
        assert m.cols_of(0).tolist() == [1, 2]
        assert m.cols_of(1).tolist() == []
        assert m.cols_of(2).tolist() == [0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ConsistencyError):
            SparseBinaryMatrix.sorted_entries(entries(3), entries(0), 3, 4)
        with pytest.raises(ConsistencyError):
            SparseBinaryMatrix.sorted_entries(entries(0), entries(4), 3, 4)
        with pytest.raises(ConsistencyError):
            SparseBinaryMatrix.sorted_entries(entries(-1), entries(0), 3, 4)
        # A row whose key overflows int64 would read as sorted.
        with pytest.raises(ConsistencyError, match="row index"):
            SparseBinaryMatrix.sorted_entries(entries(0, 2**62, 1), entries(0, 1, 2), 3, 4)

    @pytest.mark.parametrize(
        "rows, cols", [((0, 0), (2, 1)), ((1, 0), (0, 0)), ((0, 0), (1, 1))]
    )
    def test_unsorted_or_duplicate_entries_rejected(self, rows, cols):
        with pytest.raises(ConsistencyError):
            SparseBinaryMatrix.sorted_entries(entries(*rows), entries(*cols), 2, 3)

    def test_extended_appends_rows(self):
        m = matrix([(0, 1), (1, 0)], 2, 2).extended(entries(2, 3), entries(2, 0), 4, 3)
        assert m == matrix([(0, 1), (1, 0), (2, 2), (3, 0)], 4, 3)
        assert m.indptr.tolist() == [0, 1, 2, 3, 4]
        with pytest.raises(ConsistencyError):
            matrix([(1, 0)], 2, 2).extended(entries(1), entries(1), 3, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_extending_a_prefix_equals_the_whole(self, data):
        n_rows, n_cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
        pairs = sorted(data.draw(st.sets(cells)))
        split = data.draw(st.integers(0, n_rows))
        head = [pair for pair in pairs if pair[0] < split]
        tail = pairs[len(head) :]
        first_free_col = max([c + 1 for _, c in head], default=0)
        head_cols = data.draw(st.integers(first_free_col, n_cols))

        def columns(entries):
            return np.array(entries, dtype=np.int64).reshape(-1, 2).T.copy()

        whole = SparseBinaryMatrix.sorted_entries(*columns(pairs), n_rows, n_cols)
        grown = SparseBinaryMatrix.sorted_entries(*columns(head), split, head_cols)
        grown = grown.extended(*columns(tail), n_rows, n_cols)
        assert grown == whole
        assert grown.indptr.tolist() == whole.indptr.tolist()
        assert grown.row_ids.dtype == np.int64
        assert grown.row_ids.tolist() == [r for r, _ in pairs]
        assert grown.pairs() == pairs

    def test_equality(self):
        a = matrix([(0, 1)], 2, 2)
        b = matrix([(0, 1)], 2, 2)
        c = matrix([(1, 0)], 2, 2)
        assert a == b
        assert a != c

    def test_dense_round_trip(self):
        pairs = [(0, 0), (1, 2), (3, 1)]
        m = matrix(pairs, 4, 3)
        dense = m.to_dense()
        assert sorted(zip(*np.nonzero(dense))) == pairs

    def test_csr_matches_dense(self):
        m = matrix([(0, 1), (2, 0), (2, 2)], 3, 3)
        csr = sp.csr_matrix((np.ones(m.nnz), m.col_ids, m.indptr), shape=(3, 3))
        assert np.array_equal(csr.toarray().astype(bool), m.to_dense())


class TestBuild:
    def test_paris_single_passage(self):
        corpus = make_corpus(["Paris is big. Paris shines."])
        graph = build(corpus, CAPS_RUN)
        assert graph.contain.n_rows == 1 and graph.contain.n_cols == 1
        assert graph.contain.pairs() == [(0, 0)]
        assert graph.mention.n_rows == 2 and graph.mention.n_cols == 1
        assert graph.mention.pairs() == [(0, 0), (1, 0)]
        assert occurrence_map(graph) == {(0, 0): 2}

    def test_all_lowercase_corpus(self):
        corpus = make_corpus(["nothing here. nope!", "still nothing."])
        graph = build(corpus, CAPS_RUN)
        assert graph.n_entities == 0
        assert graph.contain.nnz == 0
        assert graph.mention.nnz == 0

    def test_dense_brute_force_oracle(self):
        corpus, _ = generate_synthetic_corpus(
            n_passages=10, avg_sentences=3, entity_pool=12, seed=3, n_chains=2
        )
        graph = build(corpus, CAPS_RUN)

        # Oracle: dense boolean matrices assembled entry by entry, straight
        # from per-sentence extraction, with no sparse machinery involved.
        canonical_ids = {
            r.canonical: r.id for r in graph.entity_registry.records
        }
        n_s, n_p, n_e = len(corpus.sentences), len(corpus.passages), len(canonical_ids)
        dense_mention = np.zeros((n_s, n_e), dtype=bool)
        dense_contain = np.zeros((n_p, n_e), dtype=bool)
        occurrence = {}
        from linearrag.extraction import canonicalize

        owners = corpus.sentences[:, 0].tolist()
        for sid, (text, pid) in enumerate(zip(corpus.sentence_texts(), owners)):
            for m in extract_mentions(text, CAPS_RUN, sid):
                key = canonicalize(m.surface)
                if not key:
                    continue
                eid = canonical_ids[key]
                dense_mention[sid, eid] = True
                dense_contain[pid, eid] = True
                occ_key = (pid, eid)
                occurrence[occ_key] = occurrence.get(occ_key, 0) + 1

        assert np.array_equal(graph.mention.to_dense(), dense_mention)
        assert np.array_equal(graph.contain.to_dense(), dense_contain)
        assert occurrence_map(graph) == occurrence

    def test_column_marginals(self):
        corpus = make_corpus(
            ["Alpha met Beta. Alpha left.", "Beta met Gamma.", "Alpha returned!"]
        )
        graph = build(corpus, CAPS_RUN)
        for record in graph.entity_registry.records:
            containing = {
                p for (p, e) in occurrence_map(graph) if e == record.id
            }
            assert graph.contain.col_counts()[record.id] == len(containing)

    def test_memory_linearity_bound(self):
        corpus, _ = generate_synthetic_corpus(
            n_passages=40, avg_sentences=3, entity_pool=30, seed=9, n_chains=3
        )
        graph = build(corpus, CAPS_RUN)
        total_mentions = int(graph.occurrence_counts.sum())
        distinct_per_passage = graph.contain.nnz
        stored = graph.contain.nnz + graph.mention.nnz
        assert stored <= total_mentions + distinct_per_passage

    def test_occurrence_positive_wherever_contained(self):
        corpus = make_corpus(["Alpha met Beta.", "Beta saw Gamma. Beta won."])
        graph = build(corpus, CAPS_RUN)
        occurrence = occurrence_map(graph)
        for p, e in graph.contain.pairs():
            assert occurrence[(p, e)] >= 1


class TestAddPassages:
    def test_shared_entity_not_duplicated(self, tmp_path):
        base = ingest(write_jsonl(tmp_path / "a.jsonl", [{"text": "Paris is big."}]))
        graph = build(base, CAPS_RUN)
        delta = ingest(
            write_jsonl(tmp_path / "b.jsonl", [{"text": "Paris keeps shining."}]),
            passage_id_base=1,
            sentence_id_base=1,
        )
        updated = add_passages(graph, delta)
        assert updated.n_entities == graph.n_entities == 1
        assert updated.contain.n_rows == 2
        assert (1, 0) in updated.contain.pairs()

    def test_add_nothing_is_identity(self, tmp_path):
        base = ingest(write_jsonl(tmp_path / "a.jsonl", [{"text": "Paris is big."}]))
        graph = build(base, CAPS_RUN)
        empty = base.__class__(
            passages=(), sentences=np.empty((0, 3), dtype=np.int64), source_digest="x"
        )
        updated = add_passages(graph, empty)
        assert updated is graph

    def test_rebuild_equality_30_plus_20(self):
        whole, _ = generate_synthetic_corpus(
            n_passages=50, avg_sentences=2, entity_pool=40, seed=21, n_chains=4
        )
        prefix = make_slice(whole, 0, 30)
        suffix = make_slice(whole, 30, 50)
        incremental = add_passages(build(prefix, CAPS_RUN), suffix)
        full = build(whole, CAPS_RUN)
        assert graph_equal(incremental, full)

    def test_id_collision_rejected(self, tmp_path):
        base = ingest(write_jsonl(tmp_path / "a.jsonl", [{"text": "Paris is big."}]))
        graph = build(base, CAPS_RUN)
        colliding = ingest(write_jsonl(tmp_path / "b.jsonl", [{"text": "Rome too."}]))
        with pytest.raises(UpdateError):
            add_passages(graph, colliding)  # ids restart at 0

    @pytest.mark.parametrize("sentence_id_base", [0, 2])
    def test_sentence_ids_not_continued_rejected(self, tmp_path, sentence_id_base):
        # The passage ids continue the graph's; only the sentence ids do not.
        base = ingest(write_jsonl(tmp_path / "a.jsonl", [{"text": "Paris is big."}]))
        graph = build(base, CAPS_RUN)
        misnumbered = ingest(
            write_jsonl(tmp_path / "b.jsonl", [{"text": "Rome too."}]),
            passage_id_base=1,
            sentence_id_base=sentence_id_base,
        )
        with pytest.raises(UpdateError, match="sentence id"):
            add_passages(graph, misnumbered)


def make_slice(corpus, start, stop):
    """Corpus slice with passage/sentence ids preserved (dense continuation)."""
    passages = tuple(p for p in corpus.passages if start <= p.id < stop)
    first, end = np.searchsorted(corpus.sentences[:, 0], [start, stop])
    from linearrag.corpus import chain_digest, initial_digest

    base = initial_digest() if start == 0 else "unused"
    return corpus.__class__(
        passages=passages,
        sentences=corpus.sentences[first:end],
        source_digest=chain_digest(base, (p.text for p in passages))
        if start == 0
        else "n/a",
        first_sentence_id=int(first),
    )


class TestPersistence:
    @pytest.fixture()
    def graph(self):
        corpus, _ = generate_synthetic_corpus(
            n_passages=10, avg_sentences=3, entity_pool=12, seed=3, n_chains=2
        )
        return build(corpus, CAPS_RUN)

    def test_round_trip(self, graph, tmp_path):
        save(graph, tmp_path, embedder={"id": "hash:64:0", "dim": 64})
        loaded = load(tmp_path)
        assert graph_equal(graph, loaded)
        manifest = read_manifest(tmp_path)
        assert manifest["n_passages"] == graph.n_passages
        assert manifest["embedder"] == {"id": "hash:64:0", "dim": 64}

    def test_version_mismatch(self, graph, tmp_path):
        save(graph, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VersionMismatchError):
            load(tmp_path)

    def test_digest_mismatch(self, graph, tmp_path):
        save(graph, tmp_path)
        lines = (tmp_path / "passages.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["text"] = record["text"] + " tampered"
        lines[0] = json.dumps(record)
        (tmp_path / "passages.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(DigestMismatchError):
            load(tmp_path)

    @pytest.mark.parametrize("victim", sorted(ENTRY_BYTES))
    def test_deleted_entry_detected(self, graph, tmp_path, victim):
        save(graph, tmp_path)
        path = tmp_path / victim
        path.write_bytes(path.read_bytes()[ENTRY_BYTES[victim] :])
        with pytest.raises(ConsistencyError, match="shorter than its committed"):
            load(tmp_path)

    @pytest.mark.parametrize("victim", sorted(ENTRY_BYTES))
    def test_deleted_entry_recommitted_detected(self, graph, tmp_path, victim):
        # With the manifest committing the shortened file, only the checks
        # between the arrays can see the loss. The mention entry removed is
        # the only one linking its passage to its entity, so the contain
        # entries derived from the mentions lose one.
        save(graph, tmp_path)
        owners = graph.corpus.sentences[:, 0]
        links = list(
            zip(
                owners[graph.mention.row_ids].tolist(),
                graph.mention.col_ids.tolist(),
            )
        )
        sole = [k for k, link in enumerate(links) if links.count(link) == 1]
        k = sole[0] if victim == "mention.i64" else 0
        size = ENTRY_BYTES[victim]
        path = tmp_path / victim
        data = path.read_bytes()
        path.write_bytes(data[: k * size] + data[(k + 1) * size :])
        recommit(tmp_path)
        with pytest.raises(ConsistencyError):
            load(tmp_path)

    @pytest.mark.parametrize("victim, values", GARBAGE.values(), ids=list(GARBAGE))
    def test_garbage_entry_detected(self, graph, tmp_path, victim, values):
        save(graph, tmp_path)
        path = tmp_path / victim
        data = bytearray(path.read_bytes())
        data[: ENTRY_BYTES[victim]] = np.array(values, dtype="<i8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError, match=re.escape(victim)):
            load(tmp_path)

    @pytest.mark.parametrize("span", [(1, 6), (0, 1)], ids=["start", "end"])
    def test_span_splitting_a_codepoint_detected(self, tmp_path, span):
        # "Ä" is two bytes, so byte 1 lies inside it.
        save(build(make_corpus(["Ärger über Öl."]), CAPS_RUN), tmp_path)
        path = tmp_path / "sentences.i64"
        data = bytearray(path.read_bytes())
        data[: ENTRY_BYTES[path.name]] = np.array([0, *span], dtype="<i8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError, match=r"sentences\.i64.*codepoint"):
            load(tmp_path)

    @pytest.mark.parametrize("field", ["text", "doc_key", "title"])
    def test_lone_surrogate_in_passage_record_detected(self, tmp_path, field):
        # json.dumps writes the lone surrogate as the escape \ud800, which
        # json.loads decodes back to it.
        corpus = make_corpus(["Alpha met Beta."], titles=["Gamma"])
        save(build(corpus, CAPS_RUN), tmp_path)
        path = tmp_path / "passages.jsonl"
        record = json.loads(path.read_text())
        record[field] += "\ud800"
        path.write_text(json.dumps(record) + "\n")
        recommit(tmp_path)
        with pytest.raises(ConsistencyError, match=r"passages\.jsonl:1: bad passage"):
            load(tmp_path)

    def test_unsorted_mentions_detected(self, graph, tmp_path):
        save(graph, tmp_path)
        path = tmp_path / "mention.i64"
        data = path.read_bytes()
        path.write_bytes(data[16:32] + data[:16] + data[32:])
        with pytest.raises(ConsistencyError, match="not sorted"):
            load(tmp_path)

    @pytest.mark.parametrize("victim", sorted(ENTRY_BYTES))
    def test_partial_entry_detected(self, graph, tmp_path, victim):
        save(graph, tmp_path)
        path = tmp_path / victim
        path.write_bytes(path.read_bytes() + b"\x01\x02\x03")
        recommit(tmp_path)
        with pytest.raises(ConsistencyError, match="whole number"):
            load(tmp_path)

    @pytest.mark.parametrize("victim", GRAPH_FILES)
    def test_shorter_than_committed_detected(self, graph, tmp_path, victim):
        save(graph, tmp_path)
        path = tmp_path / victim
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ConsistencyError, match="shorter than its committed"):
            load(tmp_path)

    def test_bytes_past_committed_length_ignored(self, graph, tmp_path):
        # What an append that failed before its manifest commit leaves.
        save(graph, tmp_path)
        for name in GRAPH_FILES:
            with (tmp_path / name).open("ab") as f:
                f.write(b"\xff\x00 torn tail\n")
        assert graph_equal(load(tmp_path), graph)

    def test_entity_log_later_line_wins(self, graph, tmp_path):
        save(graph, tmp_path)
        record = graph.entity_registry[0]
        with (tmp_path / "entities.tsv").open("a") as f:
            f.write(f"0\t{record.canonical}\tZZ\n")
        recommit(tmp_path)
        assert load(tmp_path).entity_registry[0].surfaces == ("ZZ",)

    def test_unmentioned_entity_detected(self, graph, tmp_path):
        save(graph, tmp_path)
        with (tmp_path / "entities.tsv").open("a") as f:
            f.write(f"{graph.n_entities}\tghost\tGhost\n")
        recommit(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["n_entities"] += 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConsistencyError, match="mentioned nowhere"):
            load(tmp_path)

    def test_entity_log_line_changing_key_detected(self, graph, tmp_path):
        save(graph, tmp_path)
        with (tmp_path / "entities.tsv").open("a") as f:
            f.write("0\tnot the key\tZZ\n")
        recommit(tmp_path)
        with pytest.raises(ConsistencyError, match="changes its key"):
            load(tmp_path)

    def test_save_after_add_round_trips(self, tmp_path):
        whole, _ = generate_synthetic_corpus(
            n_passages=20, avg_sentences=2, entity_pool=20, seed=13, n_chains=2
        )
        graph = add_passages(
            build(make_slice(whole, 0, 12), CAPS_RUN), make_slice(whole, 12, 20)
        )
        save(graph, tmp_path)
        assert graph_equal(load(tmp_path), graph)

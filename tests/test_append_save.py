"""Appending saves: a save into a directory that commits a prefix of the
graph writes only the new rows, survives a failure at any step, and matches
a full rebuild however the corpus is split."""

import errno
import json
import os
import random
from dataclasses import replace
from itertools import count

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linearrag import storage
from linearrag.cli import main
from linearrag.embedding import (
    HashEncoder,
    build_store,
    extend_store,
    load_store,
    read_vector_file,
    save_store,
)
from linearrag.errors import VersionMismatchError
from linearrag.trigraph import (
    GRAPH_FILES,
    STORE_FILES,
    add_passages,
    build,
    graph_equal,
    load,
    save,
)

from conftest import DATA_DIR, make_corpus, write_jsonl
from test_trigraph import make_slice

ENCODER = HashEncoder(dim=16, seed=3)
EMBEDDER = {"id": ENCODER.contract.id, "dim": 16}
NAMES = ["Paris", "Rome", "Oslo", "Lima", "Kyoto", "Dakar", "Quito", "Hanoi"]


def varied_corpus(n_passages=24, seed=5):
    """Passages naming cities in three spellings, so that appended passages
    keep giving old entities new surfaces."""
    rng = random.Random(seed)
    texts = []
    for _ in range(n_passages):
        picks = rng.sample(NAMES, 3)
        forms = [rng.choice([name, name.upper(), name + "-Town"]) for name in picks]
        texts.append(f"{forms[0]} met {forms[1]}. so {forms[2]} left {forms[0]}.")
    return make_corpus(texts)


WHOLE = varied_corpus()
FULL = build(WHOLE)


def same_rows(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("entity_vectors", "sentence_vectors", "passage_vectors")
    )


def index_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def save_index(graph, store, directory):
    save(graph, directory, embedder=EMBEDDER)
    save_store(store, directory)


class FailAt:
    """Stands in for ``os`` inside ``linearrag.storage``: its ``n``-th
    truncate, write, fsync or rename raises, and a failing write first
    writes half of its bytes."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def _fails(self):
        self.calls += 1
        return self.calls == self.n

    def ftruncate(self, fd, length):
        if self._fails():
            raise OSError(errno.EIO, "injected truncate failure")
        os.ftruncate(fd, length)

    def write(self, fd, data):
        if self._fails():
            os.write(fd, bytes(data[: len(data) // 2]))
            raise OSError(errno.EIO, "injected write failure")
        return os.write(fd, data)

    def fsync(self, fd):
        if self._fails():
            raise OSError(errno.EIO, "injected fsync failure")
        os.fsync(fd)

    def replace(self, src, dst):
        if self._fails():
            raise OSError(errno.EIO, "injected rename failure")
        os.replace(src, dst)


@pytest.fixture(scope="module")
def states():
    """An old index and the same index after one append."""
    old_graph = build(make_slice(WHOLE, 0, 16))
    new_graph = add_passages(old_graph, make_slice(WHOLE, 16, 24))
    old_store = build_store(old_graph, ENCODER)
    new_store = extend_store(old_store, new_graph)
    return old_graph, old_store, new_graph, new_store


@pytest.fixture()
def uncrashed(states, tmp_path):
    old_graph, old_store, new_graph, new_store = states
    directory = tmp_path / "uncrashed"
    save_index(old_graph, old_store, directory)
    save_index(new_graph, new_store, directory)
    return index_bytes(directory)


def test_append_writes_only_new_rows(states, tmp_path, monkeypatch):
    old_graph, old_store, new_graph, new_store = states
    save_index(old_graph, old_store, tmp_path)
    before = {name: (tmp_path / name).stat().st_size for name in GRAPH_FILES}
    cuts = {}
    real_append = storage.append

    def append(path, committed, data):
        cuts[path.name] = committed
        real_append(path, committed, data)

    monkeypatch.setattr(storage, "append", append)
    save_index(new_graph, new_store, tmp_path)
    assert {name: cuts[name] for name in GRAPH_FILES} == before
    header = 8 + 20 + len(EMBEDDER["id"])
    assert cuts["entities.vec"] == header + old_store.entity_vectors.nbytes
    assert cuts["passages.vec"] == header + old_store.passage_vectors.nbytes
    loaded = load(tmp_path)
    assert graph_equal(loaded, new_graph)
    assert same_rows(load_store(tmp_path, loaded), new_store)


def test_crash_at_every_step_of_a_save(states, uncrashed, tmp_path, monkeypatch):
    old_graph, old_store, new_graph, new_store = states
    for n in count(1):
        directory = tmp_path / f"fail-{n}"
        save_index(old_graph, old_store, directory)
        with monkeypatch.context() as patch:
            patch.setattr(storage, "os", FailAt(n))
            try:
                save(new_graph, directory, embedder=EMBEDDER)
                crashed = False
            except OSError:
                crashed = True
        if crashed:
            graph = load(directory)
            assert graph_equal(graph, old_graph), f"failure {n}"
            assert same_rows(load_store(directory, graph), old_store), f"failure {n}"
            save(new_graph, directory, embedder=EMBEDDER)
        save_store(new_store, directory)
        assert index_bytes(directory) == uncrashed, f"failure {n}"
        if not crashed:
            break
    # Five files, each cut, written and synced, then the manifest's
    # temporary file (three steps) and its rename.
    assert n > 5 * 3 + 4


def test_crash_at_every_step_of_a_store_save(states, uncrashed, tmp_path, monkeypatch):
    old_graph, old_store, new_graph, new_store = states
    old_rows = [old_store.entity_vectors, old_store.sentence_vectors, old_store.passage_vectors]
    new_rows = [new_store.entity_vectors, new_store.sentence_vectors, new_store.passage_vectors]
    for n in count(1):
        directory = tmp_path / f"fail-{n}"
        save_index(old_graph, old_store, directory)
        save(new_graph, directory, embedder=EMBEDDER)
        with monkeypatch.context() as patch:
            patch.setattr(storage, "os", FailAt(n))
            try:
                save_store(new_store, directory)
                crashed = False
            except OSError:
                crashed = True
        if crashed:
            # Each vector file commits on its own: old rows or new rows.
            for name, old, new in zip(
                ("entities.vec", "sentences.vec", "passages.vec"), old_rows, new_rows
            ):
                rows, _ = read_vector_file(directory / name)
                assert np.array_equal(rows, old) or np.array_equal(rows, new), (name, n)
            save_store(new_store, directory)
        assert index_bytes(directory) == uncrashed, f"failure {n}"
        if not crashed:
            break
    # Three files, each cut, written (if it gains rows) and synced, then its
    # header written and synced; then the manifest's temporary file (three
    # steps) and its rename.
    assert n > 3 * 4 + 4


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cuts=st.lists(st.integers(1, len(WHOLE) - 1), max_size=5, unique=True).map(sorted)
)
def test_appended_saves_equal_rebuild(tmp_path_factory, cuts):
    directory = tmp_path_factory.mktemp("appended")
    bounds = [0, *cuts, len(WHOLE)]
    graph = store = None
    for start, stop in zip(bounds, bounds[1:]):
        piece = make_slice(WHOLE, start, stop)
        graph = build(piece) if graph is None else add_passages(graph, piece)
        store = build_store(graph, ENCODER) if store is None else extend_store(store, graph)
        save_index(graph, store, directory)
    loaded = load(directory)
    assert graph_equal(loaded, FULL)
    assert same_rows(load_store(directory, loaded), build_store(FULL, ENCODER))


def test_loaded_graph_appends_too(tmp_path):
    prefix = build(make_slice(WHOLE, 0, 10))
    save_index(prefix, build_store(prefix, ENCODER), tmp_path)
    graph = load(tmp_path)
    store = load_store(tmp_path, graph)
    graph = add_passages(graph, make_slice(WHOLE, 10, 24))
    save_index(graph, extend_store(store, graph), tmp_path)
    loaded = load(tmp_path)
    assert graph_equal(loaded, FULL)
    assert same_rows(load_store(tmp_path, loaded), build_store(FULL, ENCODER))


@pytest.mark.parametrize("change", ["corpus", "embedder", "longer-prefix"])
def test_unrelated_index_is_rewritten(tmp_path, change):
    first = build(make_slice(WHOLE, 0, 12))
    second = build(varied_corpus(seed=6))
    embedder = EMBEDDER
    if change == "embedder":
        second, embedder = FULL, {"id": "hash:16:4", "dim": 16}
    elif change == "longer-prefix":
        first, second = FULL, build(make_slice(WHOLE, 0, 12))
    save(first, tmp_path / "index", embedder=EMBEDDER)
    save(second, tmp_path / "index", embedder=embedder)
    save(second, tmp_path / "fresh", embedder=embedder)
    assert index_bytes(tmp_path / "index") == index_bytes(tmp_path / "fresh")
    assert graph_equal(load(tmp_path / "index"), second)


def write_v1_index(directory):
    """The manifest and two of the files of a format-1 index."""
    directory.mkdir(parents=True)
    (directory / "manifest.json").write_text(
        json.dumps(
            {
                "format_version": 1,
                "corpus_digest": "0" * 64,
                "n_passages": 1,
                "n_sentences": 1,
                "n_entities": 1,
                "extractor": {"id": "caps-run", "params": {}},
                "embedder": EMBEDDER,
            }
        )
    )
    (directory / "contain.coo").write_text("0\t0\n")
    (directory / "occurrence.tsv").write_text("0\t0\t1\n")


def test_v1_index_is_version_mismatch(tmp_path):
    write_v1_index(tmp_path / "index")
    with pytest.raises(VersionMismatchError):
        load(tmp_path / "index")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"index_dir": str(tmp_path / "index")}))
    assert main(["query", "--config", str(config), "anything"]) == 3


def test_save_over_v1_index_is_full_write(tmp_path):
    write_v1_index(tmp_path / "index")
    save(FULL, tmp_path / "index", embedder=EMBEDDER)
    assert graph_equal(load(tmp_path / "index"), FULL)
    assert not (tmp_path / "index" / "contain.coo").exists()
    assert not (tmp_path / "index" / "occurrence.tsv").exists()


def test_store_save_after_full_write_rewrites_vectors(tmp_path):
    """An edited early passage changes neither the node counts nor the last
    vector rows, yet every vector row of the edited passage must be new."""
    save_index(FULL, build_store(FULL, ENCODER), tmp_path)
    texts = [p.text for p in WHOLE.passages]
    texts[3] = "Hanoi met Quito. so Dakar left Hanoi."
    edited = build(make_corpus(texts))
    store = build_store(edited, ENCODER)
    assert store.passage_vectors.shape == build_store(FULL, ENCODER).passage_vectors.shape
    save(edited, tmp_path, embedder=EMBEDDER)
    assert not any((tmp_path / name).exists() for name in STORE_FILES)
    save_store(store, tmp_path)
    loaded = load(tmp_path)
    assert graph_equal(loaded, edited)
    assert same_rows(load_store(tmp_path, loaded), store)


def test_store_save_without_manifest_rewrites(tmp_path):
    """Vector files no manifest commits are rewritten, even when their last
    rows equal the store's."""
    store = build_store(FULL, ENCODER)
    save_store(store, tmp_path)
    other = replace(store, passage_vectors=store.passage_vectors[::-1].copy())
    other.passage_vectors[-1] = store.passage_vectors[-1]
    save_store(other, tmp_path)
    assert same_rows(load_store(tmp_path, FULL), other)


def test_store_save_under_another_encoder_rewrites(tmp_path):
    """Committed row counts vouch only for rows of the encoder id in the
    file's header; a store of another encoder replaces every row."""
    save_index(FULL, build_store(FULL, ENCODER), tmp_path)
    other = build_store(FULL, HashEncoder(dim=16, seed=4))
    save_store(other, tmp_path)
    loaded = load_store(tmp_path, FULL)
    assert loaded.encoder_id == "hash:16:4"
    assert same_rows(loaded, other)


def test_store_save_commits_row_counts(states, tmp_path):
    old_graph, old_store, new_graph, new_store = states
    save_index(old_graph, old_store, tmp_path)
    save(new_graph, tmp_path, embedder=EMBEDDER)
    committed = json.loads((tmp_path / "manifest.json").read_text())["vector_rows"]
    assert committed == {
        "entities.vec": old_graph.n_entities,
        "sentences.vec": old_graph.n_sentences,
        "passages.vec": old_graph.n_passages,
    }
    save_store(new_store, tmp_path)
    committed = json.loads((tmp_path / "manifest.json").read_text())["vector_rows"]
    assert committed == {
        "entities.vec": new_graph.n_entities,
        "sentences.vec": new_graph.n_sentences,
        "passages.vec": new_graph.n_passages,
    }


def test_append_keeps_other_files(tmp_path):
    lines = (DATA_DIR / "multihop" / "corpus.jsonl").read_text().splitlines()
    prefix = write_jsonl(tmp_path / "prefix.jsonl", [json.loads(x) for x in lines[:40]])
    delta = write_jsonl(tmp_path / "delta.jsonl", [json.loads(x) for x in lines[40:]])
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "corpus_path": str(prefix),
                "index_dir": str(tmp_path / "index"),
                "encoder": {"id": "hash", "dim": 64, "seed": 0},
                "retrieval": {"delta": 0.01},
            }
        )
    )
    qa = DATA_DIR / "multihop" / "qa.jsonl"
    assert main(["index", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config), str(qa)]) == 0
    report = (tmp_path / "index" / "eval_report.json").read_bytes()
    assert main(["index", "--config", str(config), "--add", str(delta)]) == 0
    assert (tmp_path / "index" / "eval_report.json").read_bytes() == report
    assert load(tmp_path / "index").n_passages == len(lines)


def test_surface_growth_is_logged(tmp_path):
    first = build(make_corpus(["Paris met Rome."]))
    grown = add_passages(
        first,
        make_slice(make_corpus(["Paris met Rome.", "PARIS left."]), 1, 2),
    )
    save(first, tmp_path)
    save(grown, tmp_path)
    lines = (tmp_path / "entities.tsv").read_text().splitlines()
    assert lines == ["0\tparis\tParis", "1\trome\tRome", "0\tparis\tPARIS\x1fParis"]
    assert load(tmp_path).entity_registry[0].surfaces == ("PARIS", "Paris")


@pytest.mark.parametrize("gap", ["\t", "\n", "\x1f"], ids=["tab", "newline", "x1f"])
def test_surface_spanning_whitespace_round_trips(tmp_path, gap):
    # A caps-run may span any whitespace; the surface is stored collapsed,
    # so it can hold none of the entity log's separators.
    corpus = make_corpus(["Paris met Rome.", f"Alpha{gap}Beta met Gamma."])
    full = build(corpus)
    assert ("Alpha Beta",) in [r.surfaces for r in full.entity_registry.records]
    save(full, tmp_path / "full")
    assert graph_equal(load(tmp_path / "full"), full)
    first = build(make_slice(corpus, 0, 1))
    save(first, tmp_path / "appended")
    save(add_passages(first, make_slice(corpus, 1, 2)), tmp_path / "appended")
    assert graph_equal(load(tmp_path / "appended"), full)


def test_force_rebuild_repairs_damage(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "corpus_path": str(DATA_DIR / "chain" / "corpus.jsonl"),
                "index_dir": str(tmp_path / "index"),
                "retrieval": {"delta": 0.01},
            }
        )
    )
    assert main(["index", "--config", str(config)]) == 0
    fresh = index_bytes(tmp_path / "index")
    mention = tmp_path / "index" / "mention.i64"
    mention.write_bytes(np.array([-1, -1], dtype="<i8").tobytes() + mention.read_bytes()[16:])
    vectors = tmp_path / "index" / "sentences.vec"
    vectors.write_bytes(vectors.read_bytes()[:-64] + bytes(64))
    assert main(["query", "--config", str(config), "anything"]) == 3
    assert main(["index", "--config", str(config), "--force"]) == 0
    assert index_bytes(tmp_path / "index") == fresh

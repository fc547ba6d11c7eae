"""Appending saves: a save into a directory that commits a prefix of the
graph writes only the new rows, as a record in a tail file or folded into
the base files, survives a failure at any step, and matches a full rebuild
however the corpus is split."""

import errno
import json
import os
import random
import stat
import struct
from dataclasses import replace
from itertools import count
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linearrag import storage, trigraph
from linearrag.cli import main
from linearrag.embedding import (
    FILE_VERSION,
    VECTOR_RECORD,
    HashEncoder,
    build_store,
    encode_block,
    extend_store,
    load_store,
    read_vector_file,
    save_store,
)
from linearrag.errors import ConsistencyError, VersionMismatchError
from linearrag.trigraph import (
    GRAPH_FILES,
    GRAPH_RECORD,
    GRAPH_TAIL,
    STORE_FILES,
    VECTOR_TAIL,
    add_passages,
    build,
    graph_equal,
    load,
    save,
)

from conftest import DATA_DIR, make_corpus, write_jsonl, write_v1_vector_file
from test_trigraph import make_slice

ENCODER = HashEncoder(dim=16, seed=3)
EMBEDDER = {"id": ENCODER.contract.id, "dim": 16}
KINDS = ("entity_vectors", "sentence_vectors", "passage_vectors")
# ``FOLD_FRACTION`` values under which no save folds, or every save does.
FOLDS = {"tail": 1e9, "fold": 0.0}
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
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in KINDS)


def counts(graph):
    return (graph.n_passages, graph.n_sentences, graph.n_entities)


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


class Recorder:
    """Stands in for ``os`` inside ``linearrag.storage``: logs each write
    (with the bytes written), fsync and rename by file name."""

    def __init__(self):
        self.names = {}
        self.log = []

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, path, *args):
        fd = os.open(path, *args)
        self.names[fd] = Path(path).name
        return fd

    def write(self, fd, data):
        written = os.write(fd, data)
        self.log.append(("write", self.names[fd], bytes(data[:written])))
        return written

    def fsync(self, fd):
        self.log.append(("fsync", self.names[fd]))
        os.fsync(fd)

    def replace(self, src, dst):
        self.log.append(("replace", Path(dst).name))
        os.replace(src, dst)

    def remove(self, path):
        os.remove(path)
        self.log.append(("remove", Path(path).name))


@pytest.fixture(scope="module")
def states():
    """An old index and the same index after one append."""
    old_graph = build(make_slice(WHOLE, 0, 16))
    new_graph = add_passages(old_graph, make_slice(WHOLE, 16, 24))
    old_store = build_store(old_graph, ENCODER)
    new_store = extend_store(old_store, new_graph)
    return old_graph, old_store, new_graph, new_store


@pytest.fixture(scope="module")
def early():
    """A prefix of the old index."""
    graph = build(make_slice(WHOLE, 0, 10))
    return graph, build_store(graph, ENCODER)


def save_old(states, early, directory, mode, monkeypatch):
    """The index before the save under test: for ``tail``, the old graph
    and store written whole, so the save appends the first record of each
    tail; for ``fold``, the early prefix written whole and the old graph and
    store appended as tail records, which the save then folds."""
    old_graph, old_store = states[:2]
    with monkeypatch.context() as patch:
        patch.setattr(trigraph, "FOLD_FRACTION", FOLDS["tail"])
        if mode == "fold":
            save_index(*early, directory)
        save_index(old_graph, old_store, directory)


def test_append_writes_only_new_rows(states, tmp_path, monkeypatch):
    """A non-folding append leaves every base file and the manifest as they
    were, and each tail's record holds only the slice's bytes."""
    old_graph, old_store, new_graph, new_store = states
    monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS["tail"])
    directory = tmp_path / "index"
    save_index(old_graph, old_store, directory)
    before = index_bytes(directory)
    save_index(new_graph, new_store, directory)
    after = index_bytes(directory)
    assert {name: after[name] for name in before} == before
    assert set(after) - set(before) == {GRAPH_TAIL, VECTOR_TAIL}

    save(old_graph, tmp_path / "old")
    save(new_graph, tmp_path / "new")
    old_files, new_files = index_bytes(tmp_path / "old"), index_bytes(tmp_path / "new")
    [record] = GRAPH_RECORD.records(directory / GRAPH_TAIL)
    assert (record.start, record.end) == (counts(old_graph), counts(new_graph))
    assert record.extra.hex() == new_graph.corpus_digest
    for name, part in zip(GRAPH_FILES, record.parts):
        if name != "entities.tsv":
            assert bytes(part) == new_files[name][len(old_files[name]) :], name
    # The entity log gains the new entities, and old ones whose surfaces
    # grew, each as its line in a fresh log.
    logged = set(bytes(record.parts[-1]).decode().splitlines())
    fresh = new_files["entities.tsv"].decode().splitlines()
    assert logged <= set(fresh)
    assert set(fresh[old_graph.n_entities :]) <= logged

    [record] = VECTOR_RECORD.records(directory / VECTOR_TAIL)
    for part, kind in zip(record.parts, KINDS):
        old_rows, new_rows = getattr(old_store, kind), getattr(new_store, kind)
        assert bytes(part) == encode_block(new_rows[len(old_rows) :]), kind
    loaded = load(directory)
    assert graph_equal(loaded, new_graph)
    assert same_rows(load_store(directory, loaded), new_store)


def test_full_store_save_writes_through_storage(states, tmp_path, monkeypatch):
    old_graph, old_store, _, _ = states
    save(old_graph, tmp_path, embedder=EMBEDDER)  # removes any vector files
    recorder = Recorder()
    monkeypatch.setattr(storage, "os", recorder)
    save_store(old_store, tmp_path)
    log = recorder.log
    # Each file is written whole to a temporary sibling, synced and renamed
    # over its name; the directory's fsync then makes the renames durable.
    commit = log.index(("fsync", tmp_path.name))
    for name in STORE_FILES:
        tmp = name + ".tmp"
        writes = [i for i, entry in enumerate(log) if entry[:2] == ("write", tmp)]
        assert b"".join(log[i][2] for i in writes) == (tmp_path / name).read_bytes()
        synced = log.index(("fsync", tmp), writes[-1])
        assert synced < log.index(("replace", name), synced) < commit, name
    assert same_rows(load_store(tmp_path, load(tmp_path)), old_store)


def test_append_makes_four_fsyncs(states, early, tmp_path, monkeypatch):
    """A save and a store save that do not fold each commit one tail record:
    two fsyncs of the tail file, no rename. The first append after a full
    write also creates each tail, and fsyncs the directory for it."""
    old_graph, old_store, new_graph, new_store = states
    monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS["tail"])
    save_index(*early, tmp_path)
    logs = []
    for graph, store in [(old_graph, old_store), (new_graph, new_store)]:
        recorder = Recorder()
        with monkeypatch.context() as patch:
            patch.setattr(storage, "os", recorder)
            save_index(graph, store, tmp_path)
        logs.append([entry[:2] for entry in recorder.log if entry[0] != "write"])
    directory = ("fsync", tmp_path.name)
    graph_tail, vector_tail = ("fsync", GRAPH_TAIL), ("fsync", VECTOR_TAIL)
    assert logs[0] == [graph_tail, directory, graph_tail] + [
        vector_tail, directory, vector_tail
    ]
    assert logs[1] == [graph_tail, graph_tail, vector_tail, vector_tail]


def test_fold_commits_before_resetting_tails(states, early, tmp_path, monkeypatch):
    """A folding save fsyncs every base file it appends to before it
    replaces the manifest, and resets the graph tail only after; a folding
    store save writes each vector file anew, fsynced before its rename, and
    removes the vector tail only after the directory's fsync that follows
    the last rename."""
    _, _, new_graph, new_store = states
    save_old(states, early, tmp_path, "fold", monkeypatch)
    monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS["fold"])
    recorder = Recorder()
    monkeypatch.setattr(storage, "os", recorder)
    save_index(new_graph, new_store, tmp_path)
    log = recorder.log
    commit = log.index(("replace", "manifest.json"))
    for name in GRAPH_FILES:
        assert log.index(("fsync", name)) < commit, name
    reset = ("write", GRAPH_TAIL, bytes(8))
    assert [entry for entry in log if entry[1] == GRAPH_TAIL] == [
        reset, ("fsync", GRAPH_TAIL)
    ]
    assert log.index(reset) > commit
    renames = []
    for name in STORE_FILES:
        renames.append(log.index(("replace", name)))
        assert log.index(("fsync", name + ".tmp")) < renames[-1], name
    synced = log.index(("fsync", tmp_path.name), max(renames))
    assert [entry for entry in log if entry[1] == VECTOR_TAIL] == [
        ("remove", VECTOR_TAIL)
    ]
    assert log.index(("remove", VECTOR_TAIL)) > synced
    assert not list(tmp_path.glob("*.tmp"))
    loaded = load(tmp_path)
    assert graph_equal(loaded, new_graph)
    assert same_rows(load_store(tmp_path, loaded), new_store)


def test_crash_at_every_step_of_a_save(states, early, tmp_path, monkeypatch):
    old_graph, old_store, new_graph, new_store = states
    # Injectable steps of the save: for ``tail``, the new tail file cut,
    # written and synced, the directory synced, then the tail's committed
    # length written and synced; for ``fold``, five files, each cut, written
    # and synced, then the manifest's temporary file (three steps), its
    # rename and the directory's fsync, then the tail's length reset and
    # synced.
    for mode, steps in {"tail": 6, "fold": 5 * 3 + 5 + 2}.items():
        monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS[mode])
        root = tmp_path / mode
        save_old(states, early, root / "uncrashed", mode, monkeypatch)
        save_index(new_graph, new_store, root / "uncrashed")
        uncrashed = index_bytes(root / "uncrashed")
        outcomes = []
        for n in count(1):
            directory = root / f"fail-{n}"
            save_old(states, early, directory, mode, monkeypatch)
            fail = FailAt(n)
            with monkeypatch.context() as patch:
                patch.setattr(storage, "os", fail)
                try:
                    save(new_graph, directory, embedder=EMBEDDER)
                    crashed = False
                except OSError:
                    crashed = True
            if crashed:
                # Old until the step that commits, new from it on.
                graph = load(directory)
                outcomes.append("new" if graph_equal(graph, new_graph) else "old")
                if outcomes[-1] == "old":
                    assert graph_equal(graph, old_graph), (mode, n)
                assert same_rows(load_store(directory), old_store), (mode, n)
                save(new_graph, directory, embedder=EMBEDDER)
            save_store(new_store, directory)
            assert index_bytes(directory) == uncrashed, (mode, n)
            if fail.calls < n:
                break
        assert outcomes == sorted(outcomes, key=["old", "new"].index), (mode, outcomes)
        assert outcomes[-1] == "new", (mode, outcomes)
        assert n > steps, mode


def test_crash_at_every_step_of_a_store_save(states, early, tmp_path, monkeypatch):
    old_graph, old_store, new_graph, new_store = states
    # Injectable steps of the store save: for ``tail``, the new tail file
    # cut, written and synced, the directory synced, then the tail's
    # committed length written and synced; for ``fold``, three files, each
    # written whole to a temporary file (cut, written, synced) and renamed,
    # then the directory synced. The tail's removal is not injected.
    for mode, steps in {"tail": 6, "fold": 3 * 4 + 1}.items():
        monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS[mode])
        root = tmp_path / mode
        save_old(states, early, root / "uncrashed", mode, monkeypatch)
        save_index(new_graph, new_store, root / "uncrashed")
        uncrashed = index_bytes(root / "uncrashed")
        for n in count(1):
            directory = root / f"fail-{n}"
            save_old(states, early, directory, mode, monkeypatch)
            save(new_graph, directory, embedder=EMBEDDER)
            fail = FailAt(n)
            with monkeypatch.context() as patch:
                patch.setattr(storage, "os", fail)
                try:
                    save_store(new_store, directory)
                    crashed = False
                except OSError:
                    crashed = True
            if crashed:
                # Each kind of vector commits on its own: old rows or new rows.
                loaded = load_store(directory)
                for kind in KINDS:
                    rows = getattr(loaded, kind)
                    old, new = getattr(old_store, kind), getattr(new_store, kind)
                    assert np.array_equal(rows, old) or np.array_equal(rows, new), (
                        mode, kind, n
                    )
                save_store(new_store, directory)
            assert index_bytes(directory) == uncrashed, (mode, n)
            if fail.calls < n:
                break
        assert n > steps, mode


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cuts=st.lists(st.integers(1, len(WHOLE) - 1), max_size=5, unique=True).map(sorted),
    modes=st.lists(st.sampled_from(sorted(FOLDS)), min_size=6, max_size=6),
)
def test_appended_saves_equal_rebuild(tmp_path_factory, cuts, modes):
    """However the corpus is split, and whichever appends fold."""
    directory = tmp_path_factory.mktemp("appended")
    bounds = [0, *cuts, len(WHOLE)]
    graph = store = None
    for start, stop, mode in zip(bounds, bounds[1:], modes):
        piece = make_slice(WHOLE, start, stop)
        graph = build(piece) if graph is None else add_passages(graph, piece)
        store = build_store(graph, ENCODER) if store is None else extend_store(store, graph)
        with mock.patch.object(trigraph, "FOLD_FRACTION", FOLDS[mode]):
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


def test_v2_index_loads_and_appends(states, tmp_path, monkeypatch):
    """A format-2 index, which has no tails, loads as one with empty tails,
    and its first append creates them, leaving the manifest alone."""
    old_graph, old_store, new_graph, new_store = states
    monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS["tail"])
    save_index(old_graph, old_store, tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    rows = [getattr(old_store, kind).shape[0] for kind in KINDS]
    manifest.update(format_version=2, vector_rows=dict(zip(STORE_FILES, rows)))
    path.write_text(json.dumps(manifest))
    loaded = load(tmp_path)
    assert graph_equal(loaded, old_graph)
    assert same_rows(load_store(tmp_path, loaded), old_store)
    save_index(new_graph, new_store, tmp_path)
    assert (tmp_path / GRAPH_TAIL).exists() and (tmp_path / VECTOR_TAIL).exists()
    assert json.loads(path.read_text()) == manifest
    loaded = load(tmp_path)
    assert graph_equal(loaded, new_graph)
    assert same_rows(load_store(tmp_path, loaded), new_store)


def test_save_over_v1_index_is_full_write(tmp_path):
    write_v1_index(tmp_path / "index")
    save(FULL, tmp_path / "index", embedder=EMBEDDER)
    assert graph_equal(load(tmp_path / "index"), FULL)
    assert not (tmp_path / "index" / "contain.coo").exists()
    assert not (tmp_path / "index" / "occurrence.tsv").exists()


def write_v1_store(directory, base, grown):
    """The vectors of a format-3 index saved before vector file version 2:
    the rows of ``base`` in dense version-1 files, and the rows ``grown``
    adds to them as one vector tail record of dense rows."""
    for name, kind in zip(STORE_FILES, KINDS):
        write_v1_vector_file(directory / name, getattr(base, kind), base.encoder_id)
    start = [len(getattr(base, kind)) for kind in KINDS]
    end = [len(getattr(grown, kind)) for kind in KINDS]
    parts = [
        getattr(grown, kind)[n:].astype("<f4").tobytes()
        for kind, n in zip(KINDS, start)
    ]
    record = VECTOR_RECORD.record(start, end, parts)
    storage.remove(directory / VECTOR_TAIL)
    storage.append_tail(directory / VECTOR_TAIL, 0, record)


def v1_index(states, early, directory, monkeypatch):
    """A format-3 index of the old graph and store whose vectors are in the
    layout of vector file version 1: the early prefix's rows in the files,
    the rest in a tail record."""
    save_old(states, early, directory, "fold", monkeypatch)
    write_v1_store(directory, early[1], states[1])


def file_versions(directory):
    return {
        (directory / name).read_bytes()[8:12] == FILE_VERSION.to_bytes(4, "little")
        for name in STORE_FILES
    }


def test_format_3_index_loads_and_first_save_rewrites_store(
    states, early, tmp_path, monkeypatch
):
    """Dense version-1 vector files and tail records still load; the first
    store save writes every vector file whole in the current layout, as a
    full write would, and removes the tail."""
    old_graph, old_store, new_graph, new_store = states
    monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS["tail"])
    v1_index(states, early, tmp_path / "index", monkeypatch)
    loaded = load(tmp_path / "index")
    assert graph_equal(loaded, old_graph)
    assert same_rows(load_store(tmp_path / "index", loaded), old_store)
    save_index(new_graph, new_store, tmp_path / "index")
    assert file_versions(tmp_path / "index") == {True}
    assert not (tmp_path / "index" / VECTOR_TAIL).exists()
    save_index(new_graph, new_store, tmp_path / "fresh")
    fresh = index_bytes(tmp_path / "fresh")
    written = index_bytes(tmp_path / "index")
    assert {name: written[name] for name in STORE_FILES} == {
        name: fresh[name] for name in STORE_FILES
    }
    loaded = load(tmp_path / "index")
    assert graph_equal(loaded, new_graph)
    assert same_rows(load_store(tmp_path / "index", loaded), new_store)


def test_crash_at_every_step_of_a_whole_store_write(
    states, early, tmp_path, monkeypatch
):
    old_graph, old_store, new_graph, new_store = states
    # Injectable steps of a whole store write: three files, each written
    # to a temporary file (cut, written, synced) and renamed over its name,
    # then the directory synced. The tail's removal is not injected.
    # ``convert`` rewrites the store of a format-3 index in the current
    # layout, its graph unchanged; ``full`` writes the store after a full
    # ``save`` of its graph into a directory holding another index.
    stores = {"convert": old_store, "full": new_store}
    other = build(varied_corpus(seed=6))

    def before(directory, mode):
        if mode == "convert":
            v1_index(states, early, directory, monkeypatch)
        else:
            save_index(other, build_store(other, ENCODER), directory)
            save(new_graph, directory, embedder=EMBEDDER)

    for mode, steps in {"convert": 3 * 4 + 1, "full": 3 * 4 + 1}.items():
        root = tmp_path / mode
        store = stores[mode]
        before(root / "uncrashed", mode)
        save_store(store, root / "uncrashed")
        uncrashed = index_bytes(root / "uncrashed")
        for n in count(1):
            directory = root / f"fail-{n}"
            before(directory, mode)
            fail = FailAt(n)
            with monkeypatch.context() as patch:
                patch.setattr(storage, "os", fail)
                try:
                    save_store(store, directory)
                    crashed = False
                except OSError:
                    crashed = True
            if crashed:
                if mode == "convert":
                    # Old files and new ones hold the same rows, so any mix
                    # of them loads, with the graph, as the old index.
                    graph = load(directory)
                    assert graph_equal(graph, old_graph), (mode, n)
                    assert same_rows(load_store(directory, graph), old_store), (mode, n)
                else:
                    # No file is ever torn: each is missing or whole.
                    for name, kind in zip(STORE_FILES, KINDS):
                        if (directory / name).exists():
                            rows, _ = read_vector_file(directory / name)
                            assert np.array_equal(rows, getattr(store, kind)), (n, name)
                save_store(store, directory)
            assert index_bytes(directory) == uncrashed, (mode, n)
            if fail.calls < n:
                break
        assert n > steps, mode


class FailDirectorySync:
    """Stands in for ``os`` inside ``linearrag.storage``: an fsync of a
    directory raises EIO."""

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, "injected directory fsync failure")
        os.fsync(fd)


def test_failing_directory_fsync_raises(states, tmp_path, monkeypatch):
    """A full save and a whole store write each end with a directory fsync,
    and its failure is the save's."""
    old_graph, old_store = states[:2]
    monkeypatch.setattr(storage, "os", FailDirectorySync())
    with pytest.raises(OSError, match="injected directory fsync failure"):
        save(old_graph, tmp_path, embedder=EMBEDDER)
    with pytest.raises(OSError, match="injected directory fsync failure"):
        save_store(old_store, tmp_path)


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


def test_store_save_commits_row_counts(states, tmp_path, monkeypatch):
    """A store save that does not fold commits the store's row counts in
    its tail record, and writes neither the manifest nor a vector file."""
    old_graph, old_store, new_graph, new_store = states
    monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS["tail"])
    save_index(old_graph, old_store, tmp_path)
    save(new_graph, tmp_path, embedder=EMBEDDER)
    assert VECTOR_RECORD.last(tmp_path / VECTOR_TAIL) == (0, None)
    before = index_bytes(tmp_path)
    save_store(new_store, tmp_path)
    after = index_bytes(tmp_path)
    assert {name: after[name] for name in before} == before
    _, last = VECTOR_RECORD.last(tmp_path / VECTOR_TAIL)
    assert last.start == (old_graph.n_entities, old_graph.n_sentences, old_graph.n_passages)
    assert last.end == (new_graph.n_entities, new_graph.n_sentences, new_graph.n_passages)


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


def tailed_index(states, early, directory, monkeypatch):
    """An index whose tails each hold two records: the early prefix written
    whole, then the old and the new graph appended."""
    with monkeypatch.context() as patch:
        patch.setattr(trigraph, "FOLD_FRACTION", FOLDS["tail"])
        for graph, store in [early, states[:2], states[2:]]:
            save_index(graph, store, directory)


# Damage to a tail, and what the error that reports it says.
TAIL_DAMAGES = {
    "length": "passes the end of the file",
    "counts": "does not continue the running counts",
    "digest": "does not chain",
}


def damage_tail(path, fmt, damage):
    """Make the committed length of the tail at ``path`` pass the file's
    end, make its last record start one passage (or entity) late, or flip a
    bit of that record's digest."""
    raw = bytearray(path.read_bytes())
    (length,) = storage.TAIL_HEADER.unpack_from(raw)
    end = storage.TAIL_HEADER.size + length
    if damage == "length":
        storage.TAIL_HEADER.pack_into(raw, 0, len(raw))
    elif damage == "counts":
        footer = end - fmt.footer_size
        (start,) = struct.unpack_from("<Q", raw, footer)
        struct.pack_into("<Q", raw, footer, start + 1)
    else:
        raw[end - 1] ^= 1
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("damage", sorted(TAIL_DAMAGES))
def test_damaged_graph_tail_detected(states, early, tmp_path, monkeypatch, damage):
    tailed_index(states, early, tmp_path, monkeypatch)
    damage_tail(tmp_path / GRAPH_TAIL, GRAPH_RECORD, damage)
    with pytest.raises(ConsistencyError, match=TAIL_DAMAGES[damage]):
        load(tmp_path)


@pytest.mark.parametrize("damage", ["counts", "length"])
def test_damaged_vector_tail_detected(states, early, tmp_path, monkeypatch, damage):
    tailed_index(states, early, tmp_path, monkeypatch)
    graph = load(tmp_path)
    damage_tail(tmp_path / VECTOR_TAIL, VECTOR_RECORD, damage)
    with pytest.raises(ConsistencyError, match=TAIL_DAMAGES[damage]):
        load_store(tmp_path, graph)


def test_vector_record_rows_past_its_bytes_refused(
    states, early, tmp_path, monkeypatch
):
    """A vector record's row count is checked against the bytes of its part
    before any rows are allocated."""
    tailed_index(states, early, tmp_path, monkeypatch)
    graph = load(tmp_path)
    path = tmp_path / VECTOR_TAIL
    raw = bytearray(path.read_bytes())
    (length,) = storage.TAIL_HEADER.unpack_from(raw)
    footer = storage.TAIL_HEADER.size + length - VECTOR_RECORD.footer_size
    struct.pack_into("<Q", raw, footer + 8 * storage.N_COUNTS, 2**40)  # end entities
    path.write_bytes(bytes(raw))
    refused = r"entities\.vec rows, its counts say 10995\d+ rows"
    with pytest.raises(ConsistencyError, match=refused):
        load_store(tmp_path, graph)


def test_bytes_past_a_tails_length_ignored_then_cut(states, early, tmp_path, monkeypatch):
    """What an append that failed before its length commit leaves is read
    past, and the next append cuts it off."""
    old_graph, old_store, new_graph, new_store = states
    monkeypatch.setattr(trigraph, "FOLD_FRACTION", FOLDS["tail"])
    save_index(*early, tmp_path)
    save_index(old_graph, old_store, tmp_path)
    tails = {GRAPH_TAIL: GRAPH_RECORD, VECTOR_TAIL: VECTOR_RECORD}
    for name in tails:
        with (tmp_path / name).open("ab") as f:
            f.write(b"\xff\x00 torn record\n")
    loaded = load(tmp_path)
    assert graph_equal(loaded, old_graph)
    assert same_rows(load_store(tmp_path, loaded), old_store)
    save_index(new_graph, new_store, tmp_path)
    for name, fmt in tails.items():
        length, _ = fmt.last(tmp_path / name)
        assert (tmp_path / name).stat().st_size == storage.TAIL_HEADER.size + length
        assert len(fmt.records(tmp_path / name)) == 2
    loaded = load(tmp_path)
    assert graph_equal(loaded, new_graph)
    assert same_rows(load_store(tmp_path, loaded), new_store)

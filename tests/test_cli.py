import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from linearrag import evalbench, trigraph
from linearrag.cli import load_app_config, main
from linearrag.embedding import VECTOR_RECORD, read_vector_file, write_vector_file
from linearrag.retrieval import RetrievalConfig
from linearrag.trigraph import (
    GRAPH_RECORD,
    GRAPH_TAIL,
    VECTOR_TAIL,
    build,
    graph_equal,
    load,
)

from conftest import (
    DATA_DIR,
    MULTIHOP_ENCODER,
    POISONS,
    write_jsonl,
    write_v1_vector_file,
)
from test_append_save import TAIL_DAMAGES, damage_tail

CHAIN_CORPUS = DATA_DIR / "chain" / "corpus.jsonl"
MULTIHOP_CORPUS = DATA_DIR / "multihop" / "corpus.jsonl"
MULTIHOP_QA = DATA_DIR / "multihop" / "qa.jsonl"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, **overrides):
    config = {
        "corpus_path": str(CHAIN_CORPUS),
        "index_dir": str(tmp_path / "index"),
        "encoder": {"id": "hash", "dim": 128, "seed": 0},
        "retrieval": {"delta": 0.01},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_manifest(tmp_path):
    return json.loads((tmp_path / "index" / "manifest.json").read_text())


class TestIndexCommand:
    def test_index_counts_match_build_oracle(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        from linearrag.corpus import ingest

        graph = build(ingest(CHAIN_CORPUS))
        manifest = read_manifest(tmp_path)
        assert manifest["n_passages"] == graph.n_passages == 8
        assert manifest["n_sentences"] == graph.n_sentences
        assert manifest["n_entities"] == graph.n_entities
        assert f"indexed {graph.n_passages} passages" in out

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        assert main(["index", "--config", str(config)]) == 1
        assert "refusing" in capsys.readouterr().err

    def test_force_overwrites(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        assert main(["index", "--config", str(config), "--force"]) == 0

    def test_add_equals_full_rebuild(self, tmp_path):
        lines = MULTIHOP_CORPUS.read_text().splitlines()
        prefix = tmp_path / "prefix.jsonl"
        delta = tmp_path / "delta.jsonl"
        prefix.write_text("\n".join(lines[:40]) + "\n")
        delta.write_text("\n".join(lines[40:]) + "\n")

        full_config = write_config(
            tmp_path,
            corpus_path=str(MULTIHOP_CORPUS),
            index_dir=str(tmp_path / "full"),
        )
        assert main(["index", "--config", str(full_config)]) == 0

        incr_config_path = tmp_path / "incr_config.json"
        incr_config_path.write_text(
            json.dumps(
                {
                    "corpus_path": str(prefix),
                    "index_dir": str(tmp_path / "incr"),
                    "encoder": {"id": "hash", "dim": 128, "seed": 0},
                }
            )
        )
        assert main(["index", "--config", str(incr_config_path)]) == 0
        assert main(["index", "--config", str(incr_config_path), "--add", str(delta)]) == 0

        assert graph_equal(load(tmp_path / "full"), load(tmp_path / "incr"))
        for name in sorted(p.name for p in (tmp_path / "full").iterdir()):
            full_bytes = (tmp_path / "full" / name).read_bytes()
            incr_bytes = (tmp_path / "incr" / name).read_bytes()
            assert full_bytes == incr_bytes, name

    @pytest.mark.parametrize("field", ["text", "title", "doc_key"])
    def test_lone_surrogate_record_skipped(self, tmp_path, caplog, field):
        bad = {"text": "Alpha met Beta.", field: "Gamma \ud800"}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(CHAIN_CORPUS.read_text() + json.dumps(bad) + "\n")
        config = write_config(tmp_path, corpus_path=str(corpus))
        assert main(["index", "--config", str(config)]) == 0
        assert read_manifest(tmp_path)["n_passages"] == 8
        assert "skipped 1 malformed record(s)" in caplog.text

    def test_non_utf8_record_skipped(self, tmp_path, caplog):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(
            CHAIN_CORPUS.read_bytes() + b'{"text": "Caf\xe9 met Beta."}\n'
        )
        config = write_config(tmp_path, corpus_path=str(corpus))
        assert main(["index", "--config", str(config)]) == 0
        assert read_manifest(tmp_path)["n_passages"] == 8
        assert "skipped 1 malformed record(s)" in caplog.text

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config), "--seed", "9"]) == 0
        assert read_manifest(tmp_path)["embedder"]["id"] == "hash:128:9"

    def test_seed_from_config_when_no_flag(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        assert read_manifest(tmp_path)["embedder"]["id"] == "hash:128:0"

    def test_seed_builtin_default(self, tmp_path):
        config = write_config(tmp_path, encoder={"id": "hash", "dim": 128})
        assert main(["index", "--config", str(config)]) == 0
        assert read_manifest(tmp_path)["embedder"]["id"] == "hash:128:0"


@pytest.fixture()
def indexed(tmp_path):
    config = write_config(tmp_path)
    assert main(["index", "--config", str(config)]) == 0
    return config


class TestQueryCommand:
    def question(self):
        return json.loads(MULTIHOP_QA.read_text().splitlines()[0])

    def chain_question(self):
        return json.loads((DATA_DIR / "chain" / "qa.jsonl").read_text().splitlines()[0])

    def test_json_output_matches_schema(self, indexed, capsys):
        q = self.chain_question()
        assert main(["query", "--config", str(indexed), q["question"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"items", "hops_used", "fallback_used"}
        assert payload["fallback_used"] is False
        assert payload["hops_used"] == 2
        for item in payload["items"]:
            assert set(item) == {
                "passage_id",
                "doc_key",
                "score",
                "contributing_entities",
            }
        keys = [item["doc_key"] for item in payload["items"][:3]]
        assert set(q["gold_keys"]) <= set(keys)

    def test_k_flag_truncates_to_one(self, indexed, capsys):
        q = self.chain_question()
        assert (
            main(["query", "--config", str(indexed), q["question"], "--k", "1", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["items"]) == 1

    def test_k_precedence_file_over_default(self, tmp_path, capsys):
        config = write_config(tmp_path, retrieval={"delta": 0.01, "top_k": 2})
        assert main(["index", "--config", str(config)]) == 0
        capsys.readouterr()
        q = self.chain_question()
        assert main(["query", "--config", str(config), q["question"], "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["items"]) == 2
        # flag beats file
        assert (
            main(["query", "--config", str(config), q["question"], "--k", "4", "--json"])
            == 0
        )
        assert len(json.loads(capsys.readouterr().out)["items"]) == 4

    def test_default_top_k_is_five(self, tmp_path, capsys):
        config = write_config(tmp_path)  # delta in file, top_k defaulted
        assert main(["index", "--config", str(config)]) == 0
        capsys.readouterr()
        q = self.chain_question()
        assert main(["query", "--config", str(config), q["question"], "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["items"]) == 5

    def test_empty_result_is_exit_zero(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            retrieval={"delta": 0.01, "entity_sim_threshold": 1e9, "fallback": "empty"},
        )
        assert main(["index", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["query", "--config", str(config), "garbled nonsense", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["items"] == []
        assert payload["fallback_used"] is True

    def test_human_readable_output(self, indexed, capsys):
        q = self.chain_question()
        assert main(["query", "--config", str(indexed), q["question"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1. [")

    def test_missing_index_is_io_error(self, tmp_path):
        config = write_config(tmp_path)  # never indexed
        assert main(["query", "--config", str(config), "anything"]) == 2

    def test_query_embeds_with_store_encoder_not_config(self, tmp_path, capsys):
        # Index with an overridden seed; the config file still says seed 0.
        # Queries must use the encoder recorded in the store, or scores
        # would be computed against mismatched vectors.
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config), "--seed", "9"]) == 0
        capsys.readouterr()
        q = self.chain_question()
        assert main(["query", "--config", str(config), q["question"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fallback_used"] is False
        keys = [item["doc_key"] for item in payload["items"][:3]]
        assert set(q["gold_keys"]) <= set(keys)


class TestEvalCommand:
    def test_multihop_suite_summary_line(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            corpus_path=str(MULTIHOP_CORPUS),
            encoder={"id": "hash", **MULTIHOP_ENCODER},
        )
        assert main(["index", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config), str(MULTIHOP_QA)]) == 0
        out = capsys.readouterr().out
        assert "contain_at_5=1.000" in out
        report = json.loads((tmp_path / "index" / "eval_report.json").read_text())
        assert report["contain_at_5"] == 1.0
        assert report["n_examples"] == 12

    def test_unresolved_keys_counted_not_fatal(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        qa = write_jsonl(
            tmp_path / "qa.jsonl",
            [{"question": "who", "answer": "x", "gold_keys": ["missing-key"]}],
        )
        assert main(["eval", "--config", str(config), str(qa)]) == 0
        assert "unresolved_keys=1" in capsys.readouterr().out

    def test_missing_qa_file_is_io_error(self, indexed):
        assert main(["eval", "--config", str(indexed), "nope.jsonl"]) == 2


class TestBenchCommand:
    def test_two_sizes_one_ratio(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_path = tmp_path / "bench.json"
        assert (
            main(
                [
                    "bench",
                    "--config",
                    str(config),
                    "--sizes",
                    "24,48",
                    "--seed",
                    "3",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        report = json.loads(out_path.read_text())
        assert len(report["doubling_ratios"]) == 1
        assert report["network_attempts"] == 0
        table = out_path.with_suffix(".tsv").read_text().splitlines()
        assert table[0] == "size\tindex_seconds\tmean_query_seconds\tindex_bytes"
        assert len(table) == 3
        out = capsys.readouterr().out
        assert "bench: sizes=24,48" in out
        stages = (*evalbench.INDEX_STAGES, "index")
        lines = out.splitlines()
        header = lines.index("size\tstage\twall_ms\tgc_ms\tpeak_kib")
        path_header = lines.index(
            "size\tpath\tquestions\tretrieve_ms\tretrieve_peak_kib"
        )
        rows = [line.split("\t") for line in lines[header + 1 : path_header]]
        assert [row[:2] for row in rows] == [
            [size, stage] for size in ("24", "48") for stage in stages
        ]
        costs = dict(zip(("24", "48"), report["stage_costs"]))
        for size, stage, wall, collector, peak in rows:
            assert float(wall) == pytest.approx(costs[size]["median_ms"][stage], abs=1e-3)
            assert float(collector) >= 0.0
            assert float(peak) == pytest.approx(costs[size]["peak_kib"][stage], abs=0.1)
            assert float(peak) > 0.0
        path_rows = [line.split("\t") for line in lines[path_header + 1 :]]
        assert [row[:2] for row in path_rows] == [
            [size, path] for size in ("24", "48") for path in ("graph_path", "fallback")
        ]
        queries = dict(zip(("24", "48"), report["query_costs"]))
        for size, path, questions, wall, peak in path_rows:
            figures = queries[size][path]
            assert int(questions) == figures["questions"]
            if figures["questions"]:
                wall_ms = figures["median_ms"]["retrieve"]
                peak_kib = figures["peak_kib"]["retrieve"]
                assert float(wall) == pytest.approx(wall_ms, abs=1e-3)
                assert float(peak) == pytest.approx(peak_kib, abs=0.1)
            else:
                assert wall == peak == "nan"
        assert sum(int(row[2]) for row in path_rows) > 0

    def test_bad_sizes_usage_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["bench", "--config", str(config), "--sizes", "a,b"]) == 1


class TestInspectCommand:
    def test_prints_manifest_verbatim(self, indexed, capsys):
        assert main(["inspect", "--config", str(indexed)]) == 0
        printed = capsys.readouterr().out
        stored = (Path(json.loads(indexed.read_text())["index_dir"]) / "manifest.json").read_text()
        assert printed == stored

    def test_missing_manifest_is_io_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["inspect", "--config", str(config)]) == 2

    def test_tails_follow_the_manifest(self, tmp_path, monkeypatch, capsys):
        config = tailed_index(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["inspect", "--config", str(config)]) == 0
        printed = capsys.readouterr().out
        stored = (tmp_path / "index" / "manifest.json").read_text()
        assert json.loads(stored)["n_passages"] == 56
        graph = load(tmp_path / "index")
        assert printed == stored + (
            f"committed: 60 passages, {graph.n_sentences} sentences, "
            f"{graph.n_entities} entities\n"
            "graph.tail: 2 records\nvectors.tail: 2 records\n"
        )


def tailed_index(tmp_path, monkeypatch):
    """The config of an index of the multihop corpus's first 56 passages,
    then two ``index --add`` calls of two passages each, none folding."""
    monkeypatch.setattr(trigraph, "FOLD_FRACTION", 1e9)
    lines = MULTIHOP_CORPUS.read_text().splitlines()
    pieces = [lines[:56], lines[56:58], lines[58:]]
    paths = []
    for k, piece in enumerate(pieces):
        paths.append(tmp_path / f"piece-{k}.jsonl")
        paths[-1].write_text("\n".join(piece) + "\n")
    config = write_config(tmp_path, corpus_path=str(paths[0]))
    assert main(["index", "--config", str(config)]) == 0
    for path in paths[1:]:
        assert main(["index", "--config", str(config), "--add", str(path)]) == 0
    return config


class TestDamagedTails:
    @pytest.mark.parametrize("damage", sorted(TAIL_DAMAGES))
    def test_damaged_graph_tail_exit_three(self, tmp_path, monkeypatch, capsys, damage):
        config = tailed_index(tmp_path, monkeypatch)
        damage_tail(tmp_path / "index" / GRAPH_TAIL, GRAPH_RECORD, damage)
        capsys.readouterr()
        assert main(["query", "--config", str(config), "anything"]) == 3
        assert TAIL_DAMAGES[damage] in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["counts", "length"])
    def test_damaged_vector_tail_exit_three(self, tmp_path, monkeypatch, capsys, damage):
        config = tailed_index(tmp_path, monkeypatch)
        damage_tail(tmp_path / "index" / VECTOR_TAIL, VECTOR_RECORD, damage)
        capsys.readouterr()
        assert main(["query", "--config", str(config), "anything"]) == 3
        assert TAIL_DAMAGES[damage] in capsys.readouterr().err


class TestExternalEncoder:
    def test_index_with_imported_vectors_then_query_needs_encoder(
        self, tmp_path, capsys
    ):
        # Produce vector files offline (same layout as the store), then
        # index with the external contract and verify query-time behavior.
        from linearrag.corpus import ingest
        from linearrag.embedding import HashEncoder, build_store, save_store

        graph = build(ingest(CHAIN_CORPUS))
        donor = build_store(graph, HashEncoder(dim=64, seed=5))
        donor.encoder_id = "mpnet-export"
        vectors_dir = tmp_path / "vectors"
        save_store(donor, vectors_dir)

        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "corpus_path": str(CHAIN_CORPUS),
                    "index_dir": str(tmp_path / "index"),
                    "encoder": {
                        "id": "external",
                        "dim": 64,
                        "vectors_dir": str(vectors_dir),
                    },
                }
            )
        )
        assert main(["index", "--config", str(config_path)]) == 0
        manifest = json.loads((tmp_path / "index" / "manifest.json").read_text())
        assert manifest["embedder"] == {"id": "mpnet-export", "dim": 64}
        # Imported vectors cannot embed queries in-process.
        assert main(["query", "--config", str(config_path), "anything"]) == 1
        assert "encoder" in capsys.readouterr().err

    def test_version_1_vector_files_import(self, tmp_path):
        # README documents dense version-1 files as an import layout; the
        # index stores what they hold in the current layout.
        from linearrag.corpus import ingest
        from linearrag.embedding import (
            FILE_VERSION,
            HashEncoder,
            build_store,
            load_store,
        )

        graph = build(ingest(CHAIN_CORPUS))
        donor = build_store(graph, HashEncoder(dim=64, seed=5))
        vectors_dir = tmp_path / "vectors"
        vectors_dir.mkdir()
        kinds = ("entity_vectors", "sentence_vectors", "passage_vectors")
        for name, kind in zip(trigraph.STORE_FILES, kinds):
            rows = getattr(donor, kind)
            write_v1_vector_file(vectors_dir / name, rows, "mpnet-export")
        config = write_config(
            tmp_path,
            encoder={"id": "external", "dim": 64, "vectors_dir": str(vectors_dir)},
        )
        assert main(["index", "--config", str(config)]) == 0
        index = tmp_path / "index"
        imported = load_store(index, load(index))
        assert imported.encoder_id == "mpnet-export"
        for name, kind in zip(trigraph.STORE_FILES, kinds):
            assert np.array_equal(getattr(imported, kind), getattr(donor, kind))
            version = (index / name).read_bytes()[8:12]
            assert version == FILE_VERSION.to_bytes(4, "little")

    def test_external_without_vectors_dir_is_config_error(self, tmp_path):
        config = write_config(tmp_path, encoder={"id": "external", "dim": 64})
        assert main(["index", "--config", str(config)]) == 1

    def test_unknown_encoder_id_is_config_error(self, tmp_path):
        config = write_config(tmp_path, encoder={"id": "bert", "dim": 64})
        assert main(["index", "--config", str(config)]) == 1


class TestRegisteredEncoder:
    """An encoder registered in-process before ``main`` runs can be named in
    the config, and its faulty output stops a command before any write."""

    def split_configs(self, tmp_path):
        lines = MULTIHOP_CORPUS.read_text().splitlines()
        prefix = tmp_path / "prefix.jsonl"
        delta = tmp_path / "delta.jsonl"
        prefix.write_text("\n".join(lines[:40]) + "\n")
        delta.write_text("\n".join(lines[40:]) + "\n")
        configs = []
        for corpus in (prefix, MULTIHOP_CORPUS):
            path = tmp_path / f"config-{corpus.stem}.json"
            path.write_text(
                json.dumps(
                    {
                        "corpus_path": str(corpus),
                        "index_dir": str(tmp_path / "index"),
                        "encoder": {"id": "tf", "dim": 16},
                    }
                )
            )
            configs.append(str(path))
        return configs[0], configs[1], str(delta)

    def index_bytes(self, tmp_path):
        return {p.name: p.read_bytes() for p in (tmp_path / "index").iterdir()}

    def test_index_query_add_equal_force_rebuild(self, tmp_path, capsys, tf_encoder):
        prefix, full, delta = self.split_configs(tmp_path)
        assert main(["index", "--config", prefix]) == 0
        assert read_manifest(tmp_path)["embedder"] == {"id": "tf:16", "dim": 16}
        question = json.loads(MULTIHOP_QA.read_text().splitlines()[0])["question"]
        capsys.readouterr()
        assert main(["query", "--config", prefix, question, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["items"]
        assert main(["index", "--config", prefix, "--add", delta]) == 0
        grown = self.index_bytes(tmp_path)
        assert main(["index", "--config", full, "--force"]) == 0
        assert self.index_bytes(tmp_path) == grown

    @pytest.mark.parametrize("poison", POISONS)
    def test_bad_output_fails_before_any_write(
        self, tmp_path, capsys, tf_encoder, poison
    ):
        prefix, _, delta = self.split_configs(tmp_path)
        tf_encoder.poison = poison
        assert main(["index", "--config", prefix]) == 1
        assert "tf:16" in capsys.readouterr().err
        assert not (tmp_path / "index").exists()

        tf_encoder.poison = None
        assert main(["index", "--config", prefix]) == 0
        before = self.index_bytes(tmp_path)
        tf_encoder.poison = poison
        assert main(["index", "--config", prefix, "--add", delta]) == 1
        assert "tf:16" in capsys.readouterr().err
        assert self.index_bytes(tmp_path) == before

    def test_seed_flag_without_seed_parameter_is_config_error(
        self, tmp_path, tf_encoder
    ):
        prefix, _, _ = self.split_configs(tmp_path)
        assert main(["index", "--config", prefix, "--seed", "3"]) == 1


class TestErrorsAndConfig:
    def test_log_level_env_override(self, tmp_path, monkeypatch, capsys):
        import logging

        monkeypatch.setenv("LINEARRAG_LOG", "debug")
        logging.getLogger().handlers.clear()
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        assert logging.getLogger().level == logging.DEBUG
        logging.getLogger().handlers.clear()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        config = write_config(tmp_path, banana=1)
        assert main(["index", "--config", str(config)]) == 1

    def test_unknown_retrieval_key_rejected(self, tmp_path):
        config = write_config(tmp_path, retrieval={"deltah": 0.01})
        assert main(["index", "--config", str(config)]) == 1

    def test_invalid_retrieval_value_rejected(self, tmp_path):
        config = write_config(tmp_path, retrieval={"damping": 2.0})
        assert main(["index", "--config", str(config)]) == 1

    def test_nan_retrieval_value_rejected(self, tmp_path):
        # json.dumps writes the float as the bare token NaN, which json.loads reads.
        config = write_config(tmp_path, retrieval={"ppr_tol": float("nan")})
        assert "NaN" in config.read_text()
        assert main(["index", "--config", str(config)]) == 1

    @pytest.mark.parametrize(
        "section, expected",
        [
            ({"retrieval": {"delta": "x"}}, "delta must be a number"),
            ({"retrieval": 5}, "config.retrieval must be a JSON object"),
            ({"extractor": {"params": [1]}}, "params must be a JSON object"),
            ({"retrieval": {"top_k": 2.5}}, "top_k must be an integer"),
            ({"retrieval": {"max_hops": True}}, "max_hops must be an integer"),
            ({"encoder": [1]}, "config.encoder must be a JSON object"),
            (
                {"extractor": {"params": {"stopwords": "The"}}},
                "stopwords must be a list of strings",
            ),
        ],
    )
    def test_wrongly_typed_value_is_config_error(
        self, tmp_path, capsys, section, expected
    ):
        config = write_config(tmp_path, **section)
        assert main(["index", "--config", str(config)]) == 1
        assert expected in capsys.readouterr().err

    def test_wrongly_typed_value_prints_no_traceback(self, tmp_path):
        config = write_config(tmp_path, retrieval={"delta": "x"})
        done = subprocess.run(
            [sys.executable, "-m", "linearrag.cli", "index", "--config", str(config)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 1
        assert "delta must be a number" in done.stderr
        assert "Traceback" not in done.stderr

    def test_lambda_key_accepted(self, tmp_path):
        config = write_config(tmp_path, retrieval={"lambda": 0.1, "delta": 0.01})
        assert main(["index", "--config", str(config)]) == 0

    def test_every_retrieval_field_settable_from_config(self, tmp_path):
        # One value per field, none of them the default; a config file
        # spells ``lambda_`` as ``lambda``.
        values = {
            "entity_sim_threshold": 0.25,
            "delta": 0.02,
            "max_hops": 2,
            "damping": 0.5,
            "lambda": 0.1,
            "passage_weight": 2.0,
            "top_k": 3,
            "ppr_tol": 1e-9,
            "ppr_max_iters": 50,
            "fallback": "empty",
        }
        names = {"lambda_" if key == "lambda" else key: key for key in values}
        assert set(names) == {f.name for f in fields(RetrievalConfig)}
        config = load_app_config(str(write_config(tmp_path, retrieval=values)))
        for name, key in names.items():
            assert values[key] != getattr(RetrievalConfig(), name)
            assert getattr(config.retrieval, name) == values[key]
        for unknown in ("lambda_", "deltah"):
            config = write_config(tmp_path, retrieval={unknown: 0.1})
            assert main(["index", "--config", str(config)]) == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["index", "--config", str(tmp_path / "none.json")]) == 2

    def test_usage_error_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_usage_error_missing_required(self):
        assert main(["index"]) == 1

    def test_version_mismatch_exit_three(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 9
        manifest_path.write_text(json.dumps(manifest))
        assert main(["query", "--config", str(config), "anything"]) == 3

    def test_manifest_not_utf8_exit_three(self, tmp_path, capsys):
        config = write_config(tmp_path, corpus_path=str(MULTIHOP_CORPUS))
        assert main(["index", "--config", str(config)]) == 0
        manifest_path = tmp_path / "index" / "manifest.json"
        raw = bytearray(manifest_path.read_bytes())
        raw[5] = 0xFF
        manifest_path.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["query", "--config", str(config), "anything"]) == 3
        assert "consistency error" in capsys.readouterr().err

    def test_damaged_stored_encoder_id_exit_three(self, tmp_path, capsys):
        # The same length as the id it replaces, so every header still parses.
        config = write_config(tmp_path, encoder={"id": "hash"})
        assert main(["index", "--config", str(config)]) == 0
        for name in ("entities.vec", "sentences.vec", "passages.vec"):
            path = tmp_path / "index" / name
            raw = path.read_bytes()
            assert raw.count(b"hash:256:0") == 1
            path.write_bytes(raw.replace(b"hash:256:0", b"hash:abc:0"))
        capsys.readouterr()
        assert main(["query", "--config", str(config), "anything"]) == 3
        assert "entities.vec" in capsys.readouterr().err

    def test_stored_dim_below_minimum_exit_three(self, tmp_path, capsys):
        # A store stamped hash:4:0 rebuilds no encoder (dim must be >= 8), so
        # query stops at load_store, before it embeds anything.
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        for name in ("entities.vec", "sentences.vec", "passages.vec"):
            path = tmp_path / "index" / name
            rows, _ = read_vector_file(path)
            write_vector_file(path, rows, "hash:4:0")
        capsys.readouterr()
        assert main(["query", "--config", str(config), "anything"]) == 3
        err = capsys.readouterr().err
        assert "entities.vec" in err and "hash:4:0" in err

    def test_tampered_passages_exit_three(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        passages = tmp_path / "index" / "passages.jsonl"
        lines = passages.read_text().splitlines()
        record = json.loads(lines[0])
        record["text"] += " tampered"
        lines[0] = json.dumps(record)
        passages.write_text("\n".join(lines) + "\n")
        assert main(["query", "--config", str(config), "anything"]) == 3

    def test_lone_surrogate_in_stored_passage_exit_three(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        passages = tmp_path / "index" / "passages.jsonl"
        lines = passages.read_text().splitlines()
        record = json.loads(lines[0])
        record["text"] += "\ud800"
        lines[0] = json.dumps(record)
        passages.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["query", "--config", str(config), "anything"]) == 3
        assert "bad passage record" in capsys.readouterr().err

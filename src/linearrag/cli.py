"""Command-line entry point: index, query, eval, bench, inspect.

One binary with subcommands over a single JSON configuration file. Config
precedence is command-line flag > config file > built-in default. Exit
codes: 0 ok, 1 usage/config, 2 I/O, 3 index consistency.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import embedding, evalbench, retrieval, storage, trigraph
from .corpus import ingest
from .errors import (
    ConfigError,
    ConsistencyError,
    IndexLoadError,
    IngestError,
    LinearRagError,
    UpdateError,
)
from .extraction import ExtractorContract
from .retrieval import RetrievalConfig

logger = logging.getLogger(__name__)

# A config file spells RetrievalConfig's ``lambda_`` as ``lambda``.
_RETRIEVAL_KEYS = {
    "lambda" if f.name == "lambda_" else f.name for f in fields(RetrievalConfig)
}
_ENCODER_KEYS = {"id", "dim", "seed", "vectors_dir"}
_EXTRACTOR_KEYS = {"id", "params"}
_TOP_KEYS = {
    "corpus_path",
    "index_dir",
    "extractor",
    "encoder",
    "retrieval",
    "log_level",
}


@dataclass
class AppConfig:
    corpus_path: str | None = None
    index_dir: str | None = None
    extractor: ExtractorContract = ExtractorContract.make()
    encoder: dict[str, Any] = None  # type: ignore[assignment]
    retrieval: RetrievalConfig = RetrievalConfig()
    retrieval_specified: bool = False
    log_level: str = "INFO"

    def __post_init__(self):
        if self.encoder is None:
            self.encoder = {"id": "hash"}


def _section(obj: Mapping[str, Any], name: str, allowed: set[str]) -> Mapping[str, Any]:
    """The config object ``obj[name]`` (empty when null), with only
    ``allowed`` keys."""
    section = obj[name] or {}
    if not isinstance(section, Mapping):
        raise ConfigError(f"config.{name} must be a JSON object")
    _reject_unknown(section, allowed, f"config.{name}")
    return section


def _reject_unknown(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def parse_app_config(obj: Mapping[str, Any]) -> AppConfig:
    if not isinstance(obj, Mapping):
        raise ConfigError("config file must hold a JSON object")
    _reject_unknown(obj, _TOP_KEYS, "config")
    config = AppConfig()

    if "extractor" in obj:
        section = _section(obj, "extractor", _EXTRACTOR_KEYS)
        params = section.get("params") or {}
        if not isinstance(params, Mapping):
            raise ConfigError("config.extractor.params must be a JSON object")
        config.extractor = ExtractorContract.make(
            id=section.get("id", "caps-run"), params=params
        )
    if "encoder" in obj:
        section = _section(obj, "encoder", _ENCODER_KEYS)
        config.encoder = {**config.encoder, **section}
    if "retrieval" in obj:
        section = _section(obj, "retrieval", _RETRIEVAL_KEYS)
        kwargs = {("lambda_" if k == "lambda" else k): v for k, v in section.items()}
        config.retrieval = RetrievalConfig(**kwargs)
        config.retrieval_specified = True
    config.corpus_path = obj.get("corpus_path", config.corpus_path)
    config.index_dir = obj.get("index_dir", config.index_dir)
    config.log_level = obj.get("log_level", config.log_level)
    return config


def load_app_config(path: str | None) -> AppConfig:
    if path is None:
        return AppConfig()
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot read config file {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_app_config(obj)


def _setup_logging(config: AppConfig) -> None:
    level_name = os.environ.get("LINEARRAG_LOG", config.log_level)
    level = getattr(logging, str(level_name).upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def _build_store(config: AppConfig, graph) -> embedding.EmbeddingStore:
    """Encode the graph with the registered encoder the config names, or
    import the vectors of an ``external`` one from its ``vectors_dir``."""
    params = dict(config.encoder)
    name = params.pop("id", "hash")
    if name != "external":
        return embedding.build_store(graph, embedding.make_encoder(name, **params))
    if not params.get("vectors_dir"):
        raise ConfigError("external encoder requires encoder.vectors_dir")
    return embedding.load_store(params["vectors_dir"], graph)


def _require(value: str | None, name: str) -> str:
    if not value:
        raise ConfigError(f"{name} is required (set it in the config file)")
    return value


def _load_index(config: AppConfig):
    index_dir = _require(config.index_dir, "index_dir")
    if not (Path(index_dir) / trigraph.MANIFEST).exists():
        raise IngestError(f"no index found at {index_dir}")
    graph = trigraph.load(index_dir)
    # The store's own encoder id is authoritative for query embedding;
    # the config encoder section only governs index construction.
    store = embedding.load_store(index_dir, graph)
    return graph, store


def cmd_index(config: AppConfig, force: bool, add_path: str | None) -> int:
    index_dir = Path(_require(config.index_dir, "index_dir"))
    started = time.perf_counter()

    if add_path is not None:
        graph, store = _load_index(config)
        delta = ingest(
            add_path,
            passage_id_base=graph.n_passages,
            sentence_id_base=graph.n_sentences,
        )
        graph = trigraph.add_passages(graph, delta)
        store = embedding.extend_store(store, graph)
    else:
        if (index_dir / trigraph.MANIFEST).exists() and not force:
            print(
                f"refusing to overwrite existing index at {index_dir} "
                "(use --force)",
                file=sys.stderr,
            )
            return 1
        corpus = ingest(_require(config.corpus_path, "corpus_path"))
        graph = trigraph.build(corpus, config.extractor)
        store = _build_store(config, graph)
        # Without a manifest, save rewrites every index file rather than
        # appending to one that holds the same corpus, so --force also
        # repairs a damaged index.
        storage.remove(index_dir / trigraph.MANIFEST)

    trigraph.save(
        graph,
        index_dir,
        embedder={"id": store.encoder_id, "dim": store.dim},
    )
    embedding.save_store(store, index_dir)
    elapsed = time.perf_counter() - started
    print(
        f"indexed {graph.n_passages} passages, {graph.n_sentences} sentences, "
        f"{graph.n_entities} entities; contain edges {graph.contain.nnz}, "
        f"mention edges {graph.mention.nnz}; {elapsed:.2f}s"
    )
    return 0


def cmd_query(config: AppConfig, query: str, k: int | None, as_json: bool) -> int:
    graph, store = _load_index(config)
    cfg = config.retrieval
    if k is not None:
        cfg = replace(cfg, top_k=k)
    ranked = retrieval.retrieve(query, graph, store, cfg)
    registry = graph.entity_registry
    items = [
        {
            "passage_id": item.passage_id,
            "doc_key": graph.corpus.passages[item.passage_id].doc_key,
            "score": item.score,
            "contributing_entities": [
                registry[e].canonical for e in item.contributing_entities
            ],
        }
        for item in ranked.items
    ]
    if as_json:
        print(
            json.dumps(
                {
                    "items": items,
                    "hops_used": ranked.hops_used,
                    "fallback_used": ranked.fallback_used,
                },
                ensure_ascii=False,
            )
        )
        return 0
    if not items:
        print("no results (empty frontier, empty fallback)")
        return 0
    if ranked.fallback_used:
        print("note: dense fallback used (no entity matched the query)")
    for rank, item in enumerate(items, 1):
        passage = graph.corpus.passages[item["passage_id"]]
        snippet = passage.text if len(passage.text) <= 160 else passage.text[:157] + "..."
        entities = ", ".join(item["contributing_entities"])
        print(f"{rank}. [{item['doc_key']}] score={item['score']:.6f} {snippet}")
        if entities:
            print(f"   via: {entities}")
    return 0


def cmd_eval(config: AppConfig, qa_path: str, out: str | None) -> int:
    graph, store = _load_index(config)
    try:
        examples = evalbench.load_qa_examples(qa_path)
    except OSError as exc:
        raise IngestError(f"cannot read QA file {qa_path}: {exc}") from exc
    report = evalbench.evaluate(graph, store, examples, config.retrieval)
    out_path = Path(out) if out else Path(_require(config.index_dir, "index_dir")) / "eval_report.json"
    evalbench.write_eval_report(report, out_path)
    k = report.top_k
    print(
        f"eval: n={report.n_examples} contain_at_{k}={report.contain_at_k:.3f} "
        f"recall_at_{k}={report.recall_at_k:.3f} mean_hops={report.mean_hops:.2f} "
        f"mean_ms={report.mean_retrieval_ms:.2f} "
        f"unresolved_keys={len(report.unresolved_keys)} -> {out_path}"
    )
    return 0


def cmd_bench(config: AppConfig, sizes: Sequence[int], seed: int, out: str | None) -> int:
    cfg = config.retrieval if config.retrieval_specified else None
    report = evalbench.bench_scaling(sizes, cfg=cfg, seed=seed)
    if out:
        out_path = Path(out)
    else:
        base = Path(config.index_dir) if config.index_dir else Path.cwd()
        base.mkdir(parents=True, exist_ok=True)
        out_path = base / "bench_report.json"
    table_path = out_path.with_suffix(".tsv")
    evalbench.write_bench_report(report, out_path, table_path)
    ratios = ", ".join(f"{r:.2f}" for r in report.doubling_ratios)
    print(
        f"bench: sizes={','.join(str(s) for s in report.sizes)} "
        f"index_time_ratios=[{ratios}] network_attempts={report.network_attempts} "
        f"-> {out_path}"
    )
    print("size\tstage\twall_ms\tgc_ms\tpeak_kib")
    for size, costs in zip(report.sizes, report.stage_costs):
        for stage in (*evalbench.INDEX_STAGES, "index"):
            print(
                f"{size}\t{stage}\t{costs['median_ms'][stage]:.3f}"
                f"\t{costs['median_gc_ms'][stage]:.3f}\t{costs['peak_kib'][stage]:.1f}"
            )
    return 0


def cmd_inspect(config: AppConfig) -> int:
    index_dir = _require(config.index_dir, "index_dir")
    manifest_path = Path(index_dir) / trigraph.MANIFEST
    try:
        print(manifest_path.read_text(encoding="utf-8"), end="")
    except OSError as exc:
        raise IngestError(f"cannot read {manifest_path}: {exc}") from exc
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linearrag", description="Tri-graph passage retrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build or extend an index")
    p_index.add_argument("--config", required=True)
    p_index.add_argument("--force", action="store_true")
    p_index.add_argument("--add", metavar="PATH", help="append passages from a delta file")
    p_index.add_argument("--seed", type=int, help="override encoder seed")

    p_query = sub.add_parser("query", help="retrieve passages for a query")
    p_query.add_argument("--config", required=True)
    p_query.add_argument("query")
    p_query.add_argument("--k", type=int)
    p_query.add_argument("--json", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate retrieval against QA fixtures")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("qa_path")
    p_eval.add_argument("--out")

    p_bench = sub.add_parser("bench", help="scaling benchmark on synthetic corpora")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--sizes", required=True, help="comma-separated passage counts")
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--out")

    p_inspect = sub.add_parser("inspect", help="print the index manifest")
    p_inspect.add_argument("--config", required=True)

    return parser


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = load_app_config(args.config)
    _setup_logging(config)

    if args.command == "index":
        if args.seed is not None:
            config.encoder = {**config.encoder, "seed": args.seed}
        return cmd_index(config, force=args.force, add_path=args.add)
    if args.command == "query":
        return cmd_query(config, args.query, k=args.k, as_json=args.json)
    if args.command == "eval":
        return cmd_eval(config, args.qa_path, out=args.out)
    if args.command == "bench":
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError as exc:
            raise _UsageError(f"bad --sizes value: {args.sizes!r}") from exc
        return cmd_bench(config, sizes, seed=args.seed, out=args.out)
    if args.command == "inspect":
        return cmd_inspect(config)
    raise _UsageError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, UpdateError, IndexLoadError) as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 3
    except IngestError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except LinearRagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Relation-free tri-graph indexing and two-stage passage retrieval."""

from .corpus import Corpus, Passage, ingest, segment_sentences
from .embedding import (
    EmbeddingStore,
    EncoderContract,
    HashEncoder,
    build_store,
    cosine,
    hash_encode,
    load_store,
    make_encoder,
    register_encoder,
    save_store,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DigestMismatchError,
    EmptyCorpusError,
    EmptySeedError,
    EncodingError,
    IndexLoadError,
    IngestError,
    LinearRagError,
    UpdateError,
    VersionMismatchError,
)
from .evalbench import (
    BenchReport,
    EvalReport,
    QaExample,
    assemble_prompt,
    bench_scaling,
    evaluate,
    forbid_network,
    generate_synthetic_corpus,
)
from .extraction import (
    EntityMention,
    EntityRecord,
    EntityRegistry,
    ExtractorContract,
    build_entity_registry,
    canonicalize,
    extract_mentions,
)
from .retrieval import (
    ActivationState,
    EntityLevel,
    QueryStats,
    RankedPassage,
    RankedPassages,
    RetrievalConfig,
    activate,
    initial_activation,
    passage_seed_scores,
    ppr,
    propagate,
    retrieve,
)
from .trigraph import SparseBinaryMatrix, TriGraph, add_passages, build, graph_equal, load, save

__version__ = "0.1.0"

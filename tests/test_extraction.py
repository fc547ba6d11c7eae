import json

import numpy as np
import pytest

from linearrag.errors import ConfigError
from linearrag.extraction import (
    EntityMention,
    ExtractorContract,
    build_entity_registry,
    canonicalize,
    extract_corpus_mentions,
    extract_mentions,
    load_external_mentions,
)
from linearrag.trigraph import build

from conftest import DATA_DIR, make_corpus

CAPS_RUN = ExtractorContract.make()


def surfaces(text):
    return [m.surface for m in extract_mentions(text, CAPS_RUN)]


class TestCapsRun:
    def test_mixed_runs(self):
        assert surfaces("Frederick Barbarossa was elected King of Germany") == [
            "Frederick Barbarossa",
            "King",
            "Germany",
        ]

    def test_no_capitals(self):
        assert surfaces("it rained all day") == []

    def test_sentence_initial_stopword_dropped(self):
        assert surfaces("The Eiffel Tower stands tall") == ["Eiffel Tower"]
        assert surfaces("It rained.") == []

    def test_single_char_mention_dropped(self):
        assert surfaces("X marks the spot") == []

    def test_all_stopword_run_dropped(self):
        # Mid-sentence capitalized stopword alone forms no mention.
        assert surfaces("we saw The end") == []

    def test_hand_labeled_oracle(self):
        # 20 sentences labeled by hand-applying the caps-run rule before
        # the extractor was written.
        lines = (DATA_DIR / "ner_oracle.jsonl").read_text(encoding="utf-8")
        for line in lines.splitlines():
            record = json.loads(line)
            got = surfaces(record["sentence"])
            assert got == record["mentions"], record["sentence"]

    def test_spans_address_surfaces(self):
        text = "Café Krüger met São Paulo's envoy near Zürich."
        raw = text.encode("utf-8")
        for mention in extract_mentions(text, CAPS_RUN):
            start, end = mention.char_span
            assert raw[start:end].decode("utf-8") == mention.surface

    def test_mentions_left_to_right_non_overlapping(self):
        text = "Alpha Beta saw Gamma and Delta Epsilon. Then Zeta."
        mentions = extract_mentions(text, CAPS_RUN)
        spans = [m.char_span for m in mentions]
        assert spans == sorted(spans)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_custom_stopwords(self):
        contract = ExtractorContract.make(params={"stopwords": ["the", "von"]})
        assert [m.surface for m in extract_mentions("Von Neumann spoke", contract)] == [
            "Neumann"
        ]

    @pytest.mark.parametrize("stopwords", ["The", 5, ["the", 5], None])
    def test_stopwords_must_be_a_list_of_strings(self, stopwords):
        # A string would be taken as the set of its characters, so "The Alpha"
        # would keep its "The".
        contract = ExtractorContract.make(params={"stopwords": stopwords})
        corpus = make_corpus(["The Alpha met Beta."])
        with pytest.raises(ConfigError, match="stopwords must be a list of strings"):
            extract_corpus_mentions(corpus, contract)
        with pytest.raises(ConfigError, match="stopwords must be a list of strings"):
            extract_mentions("The Alpha met Beta.", contract)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            extract_mentions("anything", ExtractorContract.make(id="nope"))


class TestCanonicalize:
    def test_strip_and_fold(self):
        assert canonicalize("  Einstein ") == "einstein"

    def test_whitespace_collapsed(self):
        assert canonicalize("NEW   YORK") == "new york"

    def test_punctuation_only_becomes_empty(self):
        assert canonicalize("...") == ""

    def test_surrounding_punctuation_stripped(self):
        assert canonicalize("“Paris!”") == "paris"

    def test_nfc_normalization(self):
        composed = "Café"
        decomposed = "Café"
        assert canonicalize(composed) == canonicalize(decomposed)

    def test_idempotent(self):
        samples = [
            "  Einstein ",
            "NEW   YORK",
            "...",
            "“Paris!”",
            "Café",
            "straße",
            "O'Neill",
            "A-B-C",
            "ランダム  テキスト",
        ]
        for sample in samples:
            once = canonicalize(sample)
            assert canonicalize(once) == once


def registry_and_graph(corpus):
    """The corpus's registry and mention rows, and its built graph."""
    registry, hits = build_entity_registry(
        extract_corpus_mentions(corpus, CAPS_RUN), corpus
    )
    graph = build(corpus)
    assert graph.entity_registry.records == registry.records
    return registry, hits, graph


def occurrence(graph):
    return dict(zip(graph.contain.pairs(), graph.occurrence_counts.tolist()))


class TestRegistry:
    def test_dedup_across_sentences(self):
        corpus = make_corpus(["Paris is big. Paris shines."])
        registry, hits, graph = registry_and_graph(corpus)
        assert len(registry) == 1
        assert registry[0].canonical == "paris"
        assert hits.tolist() == [[0, 0, 0], [1, 0, 0]]
        assert graph.mention.pairs() == [(0, 0), (1, 0)]
        assert graph.contain.pairs() == [(0, 0)]
        assert occurrence(graph) == {(0, 0): 2}

    def test_empty_mentions(self):
        corpus = make_corpus(["nothing capitalized here."])
        registry, hits = build_entity_registry([], corpus)
        assert len(registry) == 0
        assert hits.shape == (0, 3)
        graph = build(corpus)
        assert graph.mention.pairs() == []
        assert graph.contain.pairs() == []

    def test_ids_in_first_occurrence_order(self):
        corpus = make_corpus(["Bravo met Alpha.", "Alpha met Charlie."])
        registry, _, graph = registry_and_graph(corpus)
        assert [r.canonical for r in registry.records] == ["bravo", "alpha", "charlie"]
        # The first passage of each entity, as contain holds it.
        rows, cols = graph.contain.row_ids, graph.contain.col_ids
        first = [int(rows[cols == e].min()) for e in range(len(registry))]
        assert first == [0, 0, 1]

    def test_surfaces_collected(self):
        corpus = make_corpus(["PARIS is north. Paris is south."])
        registry, _ = build_entity_registry(
            extract_corpus_mentions(corpus, CAPS_RUN), corpus
        )
        assert registry[0].surfaces == ("PARIS", "Paris")

    @pytest.mark.parametrize("sentence_id", [-1, 2])
    def test_mention_of_a_sentence_outside_the_corpus_rejected(self, sentence_id):
        corpus = make_corpus(["Paris is big. Rome is old."])
        mention = EntityMention(sentence_id, "Paris", (0, 5))
        with pytest.raises(ValueError, match="sentence the corpus does not hold"):
            build_entity_registry([mention], corpus)

    def test_substring_scan_oracle(self):
        # Independent oracle: an entity touches a sentence iff its canonical
        # appears as a substring of the case-folded sentence text. The
        # fixture is built so the two derivations must agree.
        corpus = make_corpus(
            [
                "Paris hosted the summit. Leaders met in Paris.",
                "Rome welcomed Paris delegates. The Tiber flooded.",
                "snow fell quietly.",
            ]
        )
        registry, _, graph = registry_and_graph(corpus)

        canonicals = [r.canonical for r in registry.records]
        oracle_sentence = set()
        oracle_passage = set()
        owners = corpus.sentences[:, 0].tolist()
        for sid, (text, pid) in enumerate(zip(corpus.sentence_texts(), owners)):
            folded = text.casefold()
            for eid, canonical in enumerate(canonicals):
                if canonical in folded:
                    oracle_sentence.add((sid, eid))
                    oracle_passage.add((pid, eid))
        assert set(graph.mention.pairs()) == oracle_sentence
        assert set(graph.contain.pairs()) == oracle_passage

    def test_determinism(self):
        corpus = make_corpus(
            ["Alpha met Beta. Gamma left.", "Beta saw Alpha again!"]
        )
        first = registry_and_graph(corpus)
        second = registry_and_graph(corpus)
        assert first[0].records == second[0].records
        assert np.array_equal(first[1], second[1])
        assert first[2].mention.pairs() == second[2].mention.pairs()
        assert occurrence(first[2]) == occurrence(second[2])

    def test_closure(self):
        corpus = make_corpus(
            ["Alpha met Beta. Gamma left.", "Beta saw Alpha again!"]
        )
        registry, _, graph = registry_and_graph(corpus)
        ids = {r.id for r in registry.records}
        owner = corpus.sentences[:, 0].tolist()
        for _, eid in graph.mention.pairs():
            assert eid in ids
        supported = {(owner[s], e) for s, e in graph.mention.pairs()}
        assert set(graph.contain.pairs()) == supported


class TestExternalStrategy:
    def test_matches_caps_run_when_given_same_mentions(self, tmp_path):
        corpus = make_corpus(["Alpha met Beta.", "Beta saw Gamma."])
        native = extract_corpus_mentions(corpus, CAPS_RUN)
        rows = [
            {
                "sentence_id": m.sentence_id,
                "surface": m.surface,
                "start": m.char_span[0],
                "end": m.char_span[1],
            }
            for m in native
        ]
        path = tmp_path / "mentions.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        contract = ExtractorContract.make(id="external", params={"path": str(path)})
        assert extract_corpus_mentions(corpus, contract) == native

    def test_bad_span_rejected(self, tmp_path):
        corpus = make_corpus(["Alpha met Beta."])
        path = tmp_path / "mentions.jsonl"
        path.write_text(
            json.dumps(
                {"sentence_id": 0, "surface": "Alpha", "start": 1, "end": 6}
            )
            + "\n"
        )
        contract = ExtractorContract.make(id="external", params={"path": str(path)})
        with pytest.raises(ConfigError):
            extract_corpus_mentions(corpus, contract)

    def test_missing_path_param(self):
        corpus = make_corpus(["Alpha met Beta."])
        with pytest.raises(ConfigError, match="'path'"):
            extract_corpus_mentions(corpus, ExtractorContract.make(id="external"))

    def test_single_sentence_extraction_refuses_external(self, tmp_path):
        contract = ExtractorContract.make(
            id="external", params={"path": str(tmp_path / "mentions.jsonl")}
        )
        with pytest.raises(ConfigError, match="extract_corpus_mentions"):
            extract_mentions("Alpha met Beta.", contract, sentence_id=0)

    def test_bad_record(self, tmp_path):
        path = tmp_path / "mentions.jsonl"
        path.write_text('{"sentence_id": "x"}\n')
        with pytest.raises(ConfigError):
            load_external_mentions(path)

import json

import numpy as np
import pytest

from linearrag.corpus import (
    MAX_SENTENCE_BYTES,
    Corpus,
    Passage,
    PassageRecord,
    chain_digest,
    corpus_from_records,
    ingest,
    initial_digest,
    segment_sentences,
)
from linearrag.errors import EmptyCorpusError, IngestError

from conftest import write_jsonl


def spans_to_texts(text, spans):
    """The texts a one-passage corpus gives for byte ``spans`` of ``text``."""
    table = np.array([(0, *span) for span in spans], dtype=np.int64).reshape(-1, 3)
    passage = Passage(id=0, doc_key="0", title=None, text=text)
    return Corpus((passage,), table, source_digest="").sentence_texts()


class TestSegmentation:
    def test_period_and_exclamation(self):
        text = "It rained. She left!"
        assert spans_to_texts(text, segment_sentences(text)) == [
            "It rained.",
            "She left!",
        ]

    def test_empty_input(self):
        assert segment_sentences("") == []

    def test_abbreviation_oversplits(self):
        # Naive rule: "Dr." ends a sentence. Accepted behavior.
        text = "Dr. Smith ran."
        assert spans_to_texts(text, segment_sentences(text)) == ["Dr.", "Smith ran."]

    def test_question_mark_and_trailing_fragment(self):
        text = "Really? yes.  and then some"
        assert spans_to_texts(text, segment_sentences(text)) == [
            "Really?",
            "yes.",
            "and then some",
        ]

    def test_terminal_not_followed_by_space_does_not_split(self):
        text = "pi is 3.14 roughly."
        assert spans_to_texts(text, segment_sentences(text)) == ["pi is 3.14 roughly."]

    def test_whitespace_only(self):
        assert segment_sentences("   \n\t ") == []

    def test_spans_are_byte_offsets(self):
        text = "Café closed. 東京 is big."
        spans = segment_sentences(text)
        raw = text.encode("utf-8")
        texts = [raw[s:e].decode("utf-8") for s, e in spans]
        assert texts == ["Café closed.", "東京 is big."]

    def test_idempotent_on_own_output(self):
        passages = [
            "One two. Three four! Five?",
            "No terminal here",
            "Mixed.  spacing\tacross. lines",
            "Café closed. 東京 is big.",
        ]
        for passage in passages:
            for sentence in spans_to_texts(passage, segment_sentences(passage)):
                assert spans_to_texts(sentence, segment_sentences(sentence)) == [
                    sentence
                ]

    def test_concatenation_preserves_content(self):
        passages = [
            "A b. C d!  E f? tail without stop",
            "  leading space. internal  runs\tof space. ",
            "one.two stays together. honest split here.",
        ]
        for passage in passages:
            texts = spans_to_texts(passage, segment_sentences(passage))
            assert " ".join(" ".join(texts).split()) == " ".join(passage.split())

    def test_hard_split_long_sentence(self):
        text = "word " * 4000  # ~20000 bytes, no terminal
        spans = segment_sentences(text)
        assert len(spans) > 1
        for s, e in spans:
            assert e - s <= MAX_SENTENCE_BYTES
        joined = " ".join(spans_to_texts(text, spans))
        assert " ".join(joined.split()) == " ".join(text.split())

    def test_hard_split_without_whitespace(self):
        text = "x" * (MAX_SENTENCE_BYTES + 100)
        spans = segment_sentences(text)
        assert len(spans) == 2
        assert sum(e - s for s, e in spans) == len(text)


class TestIngest:
    def test_two_records(self, tmp_path):
        path = write_jsonl(
            tmp_path / "c.jsonl", [{"text": "A b."}, {"text": "C d!"}]
        )
        corpus = ingest(path)
        assert len(corpus.passages) == 2
        assert len(corpus.sentences) == 2
        assert corpus.skipped == 0

    def test_single_empty_text_is_empty_corpus(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [{"text": ""}])
        with pytest.raises(EmptyCorpusError):
            ingest(path)

    def test_malformed_line_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"text": "First one."})
            + "\n{not json\n"
            + json.dumps({"text": "Second one."})
            + "\n"
        )
        corpus = ingest(path)
        assert len(corpus.passages) == 2
        assert corpus.skipped == 1

    @pytest.mark.parametrize("field", ["text", "title", "doc_key"])
    def test_lone_surrogate_record_skipped(self, tmp_path, field):
        # json.dumps writes the lone surrogate as the escape \ud800, which
        # json.loads accepts and UTF-8 cannot encode.
        bad = {"text": "Alpha met Beta.", field: "Gamma \ud800"}
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"text": "First one."}) + "\n" + json.dumps(bad) + "\n"
        )
        corpus = ingest(path)
        assert [p.text for p in corpus.passages] == ["First one."]
        assert corpus.skipped == 1

    def test_non_utf8_line_skipped(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        path.write_bytes(
            json.dumps({"text": "First one."}).encode()
            + b'\n{"text": "Caf\xe9 met Beta."}\n'
            + json.dumps({"text": "Second one."}).encode()
            + b"\n"
        )
        corpus = ingest(path)
        assert [p.text for p in corpus.passages] == ["First one.", "Second one."]
        assert corpus.skipped == 1
        assert "c.jsonl:2: skipping malformed record" in caplog.text

    def test_unicode_line_separators_inside_a_record(self, tmp_path):
        # JSON allows U+0085 and U+2028 raw in a string; only \n, \r\n and
        # \r end a line.
        text = "Alpha met Beta.\u2028Gamma rose.\x85Delta fell."
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"text": text}, ensure_ascii=False)
            + "\r\n"
            + json.dumps({"text": "Second one."})
            + "\r",
            encoding="utf-8",
        )
        corpus = ingest(path)
        assert [p.text for p in corpus.passages] == [text, "Second one."]
        assert corpus.skipped == 0

    @pytest.mark.parametrize("field", ["text", "title", "doc_key"])
    def test_records_with_lone_surrogate_rejected(self, field):
        records = [
            PassageRecord(doc_key=None, title=None, text="First one."),
            PassageRecord(
                **{"doc_key": None, "title": None, "text": "Alpha met Beta.",
                   field: "Gamma \ud800"}
            ),
        ]
        with pytest.raises(IngestError, match=f"record 1 \\(passage 1\\): {field} "):
            corpus_from_records(records)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(tmp_path / "missing.jsonl")

    def test_unsupported_format(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(tmp_path / "c.csv", format="csv")

    def test_title_prepended_before_segmentation(self, tmp_path):
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [{"doc_key": "d", "title": "Paris", "text": "It shines. It grows."}],
        )
        corpus = ingest(path)
        assert corpus.passages[0].text == "Paris: It shines. It grows."
        assert corpus.passages[0].title == "Paris"
        assert corpus.sentence_texts() == [
            "Paris: It shines.",
            "It grows.",
        ]

    def test_doc_key_defaults_to_id(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [{"text": "A."}, {"text": "B."}])
        corpus = ingest(path)
        assert [p.doc_key for p in corpus.passages] == ["0", "1"]

    def test_ids_dense_and_sentences_owned(self, tmp_path):
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [{"text": "One. Two."}, {"text": "Three."}, {"text": "Four! Five?"}],
        )
        corpus = ingest(path)
        assert [p.id for p in corpus.passages] == [0, 1, 2]
        assert corpus.first_sentence_id == 0 and len(corpus.sentences) == 5
        owners = corpus.sentences[:, 0].tolist()
        for text, pid in zip(corpus.sentence_texts(), owners, strict=True):
            passage = corpus.passages[pid]
            assert text in passage.text

    def test_reingest_bitwise_stable(self, tmp_path):
        rows = [{"doc_key": "k", "title": "T", "text": "Stable. Content!"}]
        path = write_jsonl(tmp_path / "c.jsonl", rows)
        first = ingest(path)
        second = ingest(path)
        assert first.passages == second.passages
        assert np.array_equal(first.sentences, second.sentences)
        assert first.source_digest == second.source_digest

    def test_digest_changes_with_text(self, tmp_path):
        a = ingest(write_jsonl(tmp_path / "a.jsonl", [{"text": "Alpha."}]))
        b = ingest(write_jsonl(tmp_path / "b.jsonl", [{"text": "Beta."}]))
        assert a.source_digest != b.source_digest

    def test_digest_chain_extends(self, tmp_path):
        whole = ingest(
            write_jsonl(
                tmp_path / "w.jsonl", [{"text": "One."}, {"text": "Two."}]
            )
        )
        prefix = ingest(write_jsonl(tmp_path / "p.jsonl", [{"text": "One."}]))
        extended = chain_digest(prefix.source_digest, ["Two."])
        assert extended == whole.source_digest
        assert chain_digest(initial_digest(), ["One.", "Two."]) == whole.source_digest

"""Corpus model: parse, serialize, validation, collapse, stats."""

from __future__ import annotations

import json
import random

import pytest

from transquad.corpus import (
    AnswerSpan,
    Corpus,
    QaRecord,
    collapse_answers,
    compute_stats,
    parse_corpus,
    serialize_corpus,
    validate_spans,
)
from transquad.errors import (
    EmptyAnswersError,
    EncodingError,
    InvalidCorpusError,
    MalformedDocumentError,
)

from conftest import build_english_corpus, make_record


def doc_bytes(doc) -> bytes:
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def single_qa_doc(context, answers, qid="q1", question="who?", title="t"):
    return {
        "version": "1.1",
        "data": [
            {
                "title": title,
                "paragraphs": [
                    {
                        "context": context,
                        "qas": [{"id": qid, "question": question, "answers": answers}],
                    }
                ],
            }
        ],
    }


# -- parse_corpus --


def test_parse_empty_document():
    corpus = parse_corpus(doc_bytes({"version": "1.1", "data": []}), "train")
    assert len(corpus) == 0
    assert corpus.split == "train"


def test_parse_single_record_with_start_707():
    context = "x" * 707 + "मिसी इलियट" + " आणि इतर."
    doc = single_qa_doc(context, [{"text": "मिसी इलियट", "answer_start": 707}])
    corpus = parse_corpus(doc_bytes(doc), "test")
    assert len(corpus) == 1
    rec = corpus.records[0]
    assert rec.answers[0].start == 707
    assert rec.answers[0].text == "मिसी इलियट"
    assert rec.context[707 : 707 + len("मिसी इलियट")] == "मिसी इलियट"


def test_parse_missing_answers_names_the_qa():
    doc = single_qa_doc("ctx", [{"text": "c", "answer_start": 0}])
    del doc["data"][0]["paragraphs"][0]["qas"][0]["answers"]
    with pytest.raises(MalformedDocumentError) as err:
        parse_corpus(doc_bytes(doc), "train")
    assert "data[0].paragraphs[0].qas[0]" in err.value.path


def test_parse_rejects_non_json_and_bad_encoding():
    with pytest.raises(MalformedDocumentError):
        parse_corpus(b"{not json", "train")
    with pytest.raises(EncodingError):
        parse_corpus(b"\xff\xfe\x00bad", "train")


def test_parse_rejects_bad_split():
    with pytest.raises(ValueError):
        parse_corpus(doc_bytes({"data": []}), "validation")


def test_parse_rejects_duplicate_qids():
    doc = single_qa_doc("abc", [{"text": "a", "answer_start": 0}])
    doc["data"][0]["paragraphs"][0]["qas"].append(
        {"id": "q1", "question": "again?", "answers": [{"text": "b", "answer_start": 1}]}
    )
    with pytest.raises(MalformedDocumentError):
        parse_corpus(doc_bytes(doc), "train")


def test_parse_rejects_empty_answer_list_and_empty_context():
    with pytest.raises(MalformedDocumentError):
        parse_corpus(doc_bytes(single_qa_doc("abc", [])), "train")
    with pytest.raises(MalformedDocumentError):
        parse_corpus(doc_bytes(single_qa_doc("", [{"text": "a", "answer_start": 0}])), "train")


def test_parse_preserves_multi_answer_lists_verbatim():
    answers = [
        {"text": "a", "answer_start": 0},
        {"text": "b", "answer_start": 1},
        {"text": "a", "answer_start": 0},
    ]
    corpus = parse_corpus(doc_bytes(single_qa_doc("abc", answers)), "train")
    assert [a.text for a in corpus.records[0].answers] == ["a", "b", "a"]


def test_parse_keeps_unknown_qa_fields():
    doc = single_qa_doc("abc", [{"text": "a", "answer_start": 0}])
    doc["data"][0]["paragraphs"][0]["qas"][0]["is_impossible"] = False
    corpus = parse_corpus(doc_bytes(doc), "train")
    assert corpus.records[0].extra == {"is_impossible": False}


def test_offsets_are_code_points_not_bytes():
    # "मिसी" is 4 code points but 12 UTF-8 bytes; start counts code points.
    context = "मिसी इलियट"
    doc = single_qa_doc(context, [{"text": "इलियट", "answer_start": 5}])
    corpus = parse_corpus(doc_bytes(doc), "train")
    assert validate_spans(corpus).ok


# -- serialize_corpus --


def test_serialize_empty_corpus_round_trips():
    out = serialize_corpus(Corpus(split="train", records=()))
    assert len(parse_corpus(out, "train")) == 0


def test_serialize_emits_answer_start_707():
    context = "y" * 707 + "मिसी इलियट"
    rec = make_record("q1", context, "मिसी इलियट", start=707)
    out = serialize_corpus(Corpus(split="train", records=(rec,)))
    assert b'"answer_start":707' in out


def test_serialize_refuses_invalid_spans_unless_allowed():
    rec = QaRecord(
        qid="q1", question="?", context="abc", answers=(AnswerSpan("zzz", 0),), title="t"
    )
    corpus = Corpus(split="train", records=(rec,))
    with pytest.raises(InvalidCorpusError):
        serialize_corpus(corpus)
    assert b'"zzz"' in serialize_corpus(corpus, allow_invalid=True)


def test_round_trip_on_50_record_fixture():
    corpus = build_english_corpus(50)
    first = serialize_corpus(corpus)
    reparsed = parse_corpus(first, "train")
    assert reparsed.records == corpus.records
    second = serialize_corpus(reparsed)
    assert second == first  # byte-for-byte stable on the second pass


def test_round_trip_golden_fixture(golden_squad_bytes):
    corpus = parse_corpus(golden_squad_bytes, "train")
    out = serialize_corpus(corpus)
    again = parse_corpus(out, "train")
    assert again.records == corpus.records
    assert again.version == corpus.version
    assert serialize_corpus(again) == out


# -- validate_spans --


def test_validate_direct_slice_is_valid():
    rec = make_record("q1", "क ख", "ख", start=2)
    assert validate_spans(Corpus(split="train", records=(rec,))).ok


def test_validate_substring_mismatch():
    rec = make_record("q1", "क ख", "ख", start=0)
    report = validate_spans(Corpus(split="train", records=(rec,)))
    assert [(v.qid, v.reason) for v in report.violations] == [("q1", "substring-mismatch")]


def test_validate_start_out_of_bounds():
    rec = make_record("q1", "क", "कख", start=0)
    report = validate_spans(Corpus(split="train", records=(rec,)))
    assert report.violations[0].reason == "start-out-of-bounds"
    rec = make_record("q1", "abc", "a", start=-1)
    report = validate_spans(Corpus(split="train", records=(rec,)))
    assert report.violations[0].reason == "start-out-of-bounds"


def test_validate_empty_answer():
    rec = make_record("q1", "abc", "  ", start=0)
    report = validate_spans(Corpus(split="train", records=(rec,)))
    assert report.violations[0].reason == "empty-answer"


def test_validate_partitions_records():
    records = (
        make_record("ok", "hello there", "there"),
        make_record("bad", "hello", "bye", start=0),
    )
    report = validate_spans(Corpus(split="train", records=records))
    assert report.valid_count + len(report.violations) == len(records)


# -- collapse_answers --


def answers_record(texts, starts=None):
    starts = starts or list(range(len(texts)))
    return QaRecord(
        qid="q1",
        question="?",
        context="irrelevant",
        answers=tuple(AnswerSpan(t, s) for t, s in zip(texts, starts)),
        title="t",
    )


def test_collapse_majority_wins():
    rec = collapse_answers(answers_record(["A", "B", "A"]))
    assert [a.text for a in rec.answers] == ["A"]


def test_collapse_single_answer_identity():
    rec = answers_record(["A"])
    assert collapse_answers(rec) == rec


def test_collapse_tie_goes_to_earliest_listed():
    rec = collapse_answers(answers_record(["B", "A"]))
    assert rec.answers[0].text == "B"


def test_collapse_keeps_first_span_with_winning_text():
    rec = collapse_answers(answers_record(["X", "Y", "X"], starts=[5, 1, 9]))
    assert rec.answers == (AnswerSpan("X", 5),)


def test_collapse_is_idempotent():
    rng = random.Random(0)
    for _ in range(50):
        texts = [rng.choice("ABCD") for _ in range(rng.randint(1, 6))]
        once = collapse_answers(answers_record(texts))
        assert collapse_answers(once) == once


def test_collapse_empty_answers_raises():
    rec = QaRecord(qid="q1", question="?", context="c", answers=(), title="t")
    with pytest.raises(EmptyAnswersError):
        collapse_answers(rec)


# -- compute_stats --


def test_stats_shared_context():
    ctx = "shared context words"
    records = (
        make_record("q1", ctx, "shared"),
        make_record("q2", ctx, "words", question="other question"),
    )
    stats = compute_stats(Corpus(split="train", records=records))
    assert stats.total_questions == 2
    assert stats.unique_contexts == 1
    assert stats.unique_questions == 2
    assert stats.unique_answers == 2


def test_stats_empty_corpus():
    stats = compute_stats(Corpus(split="train", records=()))
    assert stats.to_dict() == {
        "total_questions": 0,
        "unique_contexts": 0,
        "unique_questions": 0,
        "unique_answers": 0,
    }


def unique_count_by_sorted_scan(values):
    """Independent oracle: sort, then count boundaries between adjacent items."""
    ordered = sorted(values)
    return sum(1 for i, v in enumerate(ordered) if i == 0 or ordered[i - 1] != v)


def test_stats_match_brute_force_recount():
    corpus = build_english_corpus(50, seed=21)
    stats = compute_stats(corpus)
    assert stats.unique_contexts == unique_count_by_sorted_scan(
        [r.context for r in corpus.records]
    )
    assert stats.unique_questions == unique_count_by_sorted_scan(
        [r.question for r in corpus.records]
    )
    assert stats.unique_answers == unique_count_by_sorted_scan(
        [a.text for r in corpus.records for a in r.answers]
    )
    assert stats.total_questions == 50


def test_stats_permutation_invariant():
    corpus = build_english_corpus(30, seed=5)
    shuffled = list(corpus.records)
    random.Random(3).shuffle(shuffled)
    assert compute_stats(Corpus(split="train", records=tuple(shuffled))) == compute_stats(corpus)

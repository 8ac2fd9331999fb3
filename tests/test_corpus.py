"""Corpus model: parse, serialize, validation, collapse, stats."""

from __future__ import annotations

import json
import random
import re

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


# The node paths of single_qa_doc, outermost first, and the array key under
# each node that holds the next one.
NODE_PATHS = (
    "$",
    "data[0]",
    "data[0].paragraphs[0]",
    "data[0].paragraphs[0].qas[0]",
    "data[0].paragraphs[0].qas[0].answers[0]",
)
CHILD_ARRAYS = ("data", "paragraphs", "qas", "answers")
DELETE = object()


def assert_refused_at(doc, path: str) -> None:
    with pytest.raises(MalformedDocumentError) as err:
        parse_corpus(doc_bytes(doc), "train", "corpus.json")
    assert str(err.value).startswith("corpus.json: ")
    # The node itself, or one of its keys.
    assert re.fullmatch(re.escape(path) + r"(\.\w+)?", err.value.path), err.value.path


# One schema violation per row: the node at ``path`` (one of NODE_PATHS) is
# broken by setting ``key`` to ``value`` (DELETE removes it; key None
# replaces the node itself), and the parser's message names ``detail``.
SCHEMA_VIOLATIONS = [
    ("$", None, [], "the document must be a JSON object, got list"),
    ("$", "data", DELETE, "missing key 'data'"),
    ("$", "data", {}, "'data' must be an array, got {}"),
    ("data[0]", None, "t", "an article must be a JSON object, got str"),
    ("data[0]", "paragraphs", DELETE, "missing key 'paragraphs'"),
    ("data[0]", "paragraphs", None, "'paragraphs' must be an array, got None"),
    ("data[0]", "title", 3, "'title' must be a string, got 3"),
    ("data[0].paragraphs[0]", None, 1, "a paragraph must be a JSON object, got int"),
    ("data[0].paragraphs[0]", "context", DELETE, "missing key 'context'"),
    ("data[0].paragraphs[0]", "context", ["abc"], "'context' must be a string, got ['abc']"),
    ("data[0].paragraphs[0]", "context", "", "context must be non-empty"),
    ("data[0].paragraphs[0]", "qas", DELETE, "missing key 'qas'"),
    ("data[0].paragraphs[0]", "qas", {}, "'qas' must be an array, got {}"),
    ("data[0].paragraphs[0].qas[0]", None, None, "a qa must be a JSON object, got NoneType"),
    ("data[0].paragraphs[0].qas[0]", "id", DELETE, "missing key 'id'"),
    ("data[0].paragraphs[0].qas[0]", "id", 1, "'id' must be a string, got 1"),
    ("data[0].paragraphs[0].qas[0]", "id", "", "'id' must not be empty"),
    ("data[0].paragraphs[0].qas[0]", "question", DELETE, "missing key 'question'"),
    ("data[0].paragraphs[0].qas[0]", "question", False, "'question' must be a string, got False"),
    ("data[0].paragraphs[0].qas[0]", "question", "", "'question' must not be empty"),
    ("data[0].paragraphs[0].qas[0]", "answers", DELETE, "missing key 'answers'"),
    ("data[0].paragraphs[0].qas[0]", "answers", "a", "'answers' must be an array, got 'a'"),
    ("data[0].paragraphs[0].qas[0]", "answers", [], "'answers' must not be empty"),
    ("data[0].paragraphs[0].qas[0].answers[0]", None, "a",
     "an answer must be a JSON object, got str"),
    ("data[0].paragraphs[0].qas[0].answers[0]", "text", DELETE, "missing key 'text'"),
    ("data[0].paragraphs[0].qas[0].answers[0]", "text", 0, "'text' must be a string, got 0"),
    ("data[0].paragraphs[0].qas[0].answers[0]", "answer_start", DELETE,
     "missing key 'answer_start'"),
    ("data[0].paragraphs[0].qas[0].answers[0]", "answer_start", True,
     "'answer_start' must be an integer, got True"),
    ("data[0].paragraphs[0].qas[0].answers[0]", "answer_start", 0.0,
     "'answer_start' must be an integer, got 0.0"),
    ("data[0].paragraphs[0].qas[0].answers[0]", "answer_start", "0",
     "'answer_start' must be an integer, got '0'"),
]


def break_node(doc, indices, path, key, value):
    """``doc`` with its node at ``indices`` broken as a SCHEMA_VIOLATIONS row says."""
    nodes = [doc]
    for array, index in zip(CHILD_ARRAYS, indices):
        nodes.append(nodes[-1][array][index])
    depth = NODE_PATHS.index(path)
    if key is None and depth == 0:
        return value
    if key is None:
        nodes[depth - 1][CHILD_ARRAYS[depth - 1]][indices[depth - 1]] = value
    elif value is DELETE:
        del nodes[depth][key]
    else:
        nodes[depth][key] = value
    return doc


@pytest.mark.parametrize("path, key, value", [row[:3] for row in SCHEMA_VIOLATIONS])
def test_parse_refuses_each_schema_violation_at_its_node(path, key, value):
    doc = single_qa_doc("abc", [{"text": "a", "answer_start": 0}])
    assert_refused_at(break_node(doc, (0, 0, 0, 0), path, key, value), path)


# A node at a non-zero index on every level, each with sound siblings before
# it: data[1].paragraphs[2].qas[1].answers[1], and the nodes above it.
LATER = (1, 2, 1, 1)
LATER_PATHS = (
    "$",
    "data[1]",
    "data[1].paragraphs[2]",
    "data[1].paragraphs[2].qas[1]",
    "data[1].paragraphs[2].qas[1].answers[1]",
)


def later_doc():
    def qa(qid, answers=1):
        return {
            "id": qid,
            "question": "who?",
            "answers": [{"text": "a", "answer_start": 0} for _ in range(answers)],
        }

    def para(*qas):
        return {"context": "abc", "qas": list(qas)}

    return {
        "version": "1.1",
        "data": [
            {"title": "t0", "paragraphs": [para(qa("q0"))]},
            {
                "title": "t1",
                "paragraphs": [para(qa("q1")), para(qa("q2")), para(qa("q3"), qa("q4", 2))],
            },
        ],
    }


@pytest.mark.parametrize("path, key, value, detail", SCHEMA_VIOLATIONS)
def test_parse_names_the_later_node_of_each_schema_violation(path, key, value, detail):
    """Node paths are built only for an error; each still names the node that failed."""
    later_path = LATER_PATHS[NODE_PATHS.index(path)]
    with pytest.raises(MalformedDocumentError) as err:
        doc = break_node(later_doc(), LATER, path, key, value)
        parse_corpus(doc_bytes(doc), "train", "corpus.json")
    assert err.value.path == later_path
    assert str(err.value) == f"corpus.json: {detail} (at {later_path})"


def test_parse_names_a_later_duplicate_qid():
    doc = later_doc()
    doc["data"][1]["paragraphs"][2]["qas"][1]["id"] = "q1"
    with pytest.raises(MalformedDocumentError) as err:
        parse_corpus(doc_bytes(doc), "train", "corpus.json")
    assert err.value.path == "data[1].paragraphs[2].qas[1]"
    assert str(err.value) == (
        "corpus.json: duplicate question id 'q1' (at data[1].paragraphs[2].qas[1])"
    )


def test_parse_warnings_name_the_later_node(caplog):
    doc = later_doc()
    doc["note"] = 1
    doc["data"][1]["note"] = 2
    doc["data"][1]["paragraphs"][2]["note"] = 3
    doc["data"][1]["paragraphs"][2]["qas"][1]["is_impossible"] = False
    with caplog.at_level("WARNING", logger="transquad.corpus"):
        corpus = parse_corpus(doc_bytes(doc), "train")
    assert caplog.messages == [
        "dropping unknown document-level field 'note'",
        "dropping unknown article-level field 'note' at data[1]",
        "dropping unknown paragraph-level field 'note' at data[1].paragraphs[2]",
    ]
    # Only the qa that holds a fourth field keeps it.
    assert [rec.extra for rec in corpus.records] == [{}] * 4 + [{"is_impossible": False}]


def test_parse_warns_once_per_level_and_key_however_many_nodes(caplog):
    paragraphs = [
        {"context": "abc", "qas": [], "note": i, **({"extra": 0} if i == 7 else {})}
        for i in range(50)
    ]
    doc = {
        "version": "1.1",
        "data": [
            {"title": f"t{ai}", "note": ai, "paragraphs": paragraphs[ai::20] if ai else []}
            for ai in range(20)
        ],
    }
    with caplog.at_level("WARNING", logger="transquad.corpus"):
        parse_corpus(doc_bytes(doc), "train")
    assert caplog.messages == [
        "dropping unknown article-level field 'note' at data[0] and 19 more articles",
        "dropping unknown paragraph-level field 'note' at data[1].paragraphs[0] "
        "and 46 more paragraphs",
        "dropping unknown paragraph-level field 'extra' at data[7].paragraphs[0]",
    ]


def test_parse_rejects_duplicate_qids():
    doc = single_qa_doc("abc", [{"text": "a", "answer_start": 0}])
    doc["data"][0]["paragraphs"][0]["qas"].append(
        {"id": "q1", "question": "again?", "answers": [{"text": "b", "answer_start": 1}]}
    )
    assert_refused_at(doc, "data[0].paragraphs[0].qas[1]")


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
    out = b"".join(serialize_corpus(Corpus(split="train", records=())))
    assert len(parse_corpus(out, "train")) == 0


def test_serialize_emits_answer_start_707():
    context = "y" * 707 + "मिसी इलियट"
    rec = make_record("q1", context, "मिसी इलियट", start=707)
    out = b"".join(serialize_corpus(Corpus(split="train", records=(rec,))))
    assert b'"answer_start":707' in out


def test_serialize_writes_invalid_spans_as_they_are():
    """Serialization checks no span; write_dataset's check and validate do."""
    rec = QaRecord(
        qid="q1", question="?", context="abc", answers=(AnswerSpan("zzz", 7),), title="t"
    )
    corpus = Corpus(split="train", records=(rec,))
    assert not validate_spans(corpus).ok
    out = b"".join(serialize_corpus(corpus))
    assert b'"answers":[{"text":"zzz","answer_start":7}]' in out
    assert parse_corpus(out, "train").records == corpus.records


def test_round_trip_on_50_record_fixture():
    corpus = build_english_corpus(50)
    first = b"".join(serialize_corpus(corpus))
    reparsed = parse_corpus(first, "train")
    assert reparsed.records == corpus.records
    second = b"".join(serialize_corpus(reparsed))
    assert second == first  # byte-for-byte stable on the second pass


def test_round_trip_golden_fixture(golden_squad_bytes):
    corpus = parse_corpus(golden_squad_bytes, "train")
    out = b"".join(serialize_corpus(corpus))
    again = parse_corpus(out, "train")
    assert again.records == corpus.records
    assert again.version == corpus.version
    assert b"".join(serialize_corpus(again)) == out


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

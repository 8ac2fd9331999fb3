"""Span realignment: period stripping, occurrence search, occurrence choice."""

from __future__ import annotations

import ast
import random

import pytest

from transquad.alignment import (
    EXCERPT,
    AlignmentCandidate,
    align_corpus,
    find_occurrences,
    realign,
    strip_trailing_period,
)
from transquad.corpus import validate_spans

from conftest import DEVANAGARI_WORDS, build_english_corpus


def candidate(context, answer, rel=0.0, qid="q1", question="?"):
    return AlignmentCandidate(
        qid=qid,
        translated_context=context,
        translated_question=question,
        translated_answer=answer,
        original_relative_position=rel,
    )


# -- strip_trailing_period --


def test_strip_removes_single_trailing_period():
    assert strip_trailing_period("मिसी इलियट.") == "मिसी इलियट"


def test_strip_is_identity_without_mark():
    assert strip_trailing_period("abc") == "abc"


def test_strip_removes_only_one_trailing_mark():
    assert strip_trailing_period("a.b.") == "a.b"
    assert strip_trailing_period("x..") == "x."


def test_strip_handles_danda_and_trailing_whitespace():
    assert strip_trailing_period("उत्तर।") == "उत्तर"
    assert strip_trailing_period("उत्तर.  ") == "उत्तर"
    assert strip_trailing_period("  ") == ""


# -- find_occurrences --


def brute_force_occurrences(context, answer):
    return [
        i
        for i in range(len(context) - len(answer) + 1)
        if context[i : i + len(answer)] == answer
    ]


def test_occurrences_direct_scan():
    assert find_occurrences("कखक", "क") == [0, 2]


def test_occurrence_answer_equals_context():
    assert find_occurrences("abc", "abc") == [0]


def test_overlapping_occurrences_included():
    assert find_occurrences("aaa", "aa") == brute_force_occurrences("aaa", "aa") == [0, 1]


def test_occurrences_match_brute_force_on_random_strings():
    rng = random.Random(17)
    for _ in range(300):
        context = "".join(rng.choice("abक") for _ in range(rng.randint(0, 20)))
        answer = "".join(rng.choice("abक") for _ in range(rng.randint(1, 4)))
        assert find_occurrences(context, answer) == brute_force_occurrences(context, answer)


def test_occurrences_empty_answer_raises():
    with pytest.raises(ValueError):
        find_occurrences("abc", "")


# -- realign --


def test_realign_context_equals_answer():
    outcome = realign(candidate("मराठी उत्तर", "मराठी उत्तर", rel=0.7))
    assert outcome.ok
    assert outcome.span.start == 0
    assert outcome.span.text == "मराठी उत्तर"


def test_realign_picks_occurrence_nearest_relative_position():
    # occurrences of "कख" in "कख कग कख" are [0, 6]; with target 0.9,
    # |6/8 - 0.9| = 0.15 beats |0/8 - 0.9| = 0.9.
    outcome = realign(candidate("कख कग कख", "कख", rel=0.9))
    assert outcome.span.start == 6


def test_realign_tie_breaks_to_smallest_start():
    # occurrences of "ab" in "abab" are [0, 2]; |0/4-0.25| == |2/4-0.25|.
    outcome = realign(candidate("abab", "ab", rel=0.25))
    assert outcome.span.start == 0


def test_realign_missing_answer_rejected():
    outcome = realign(candidate("कख कग", "zzz"))
    assert not outcome.ok
    assert outcome.reason == "answer-not-found"


def test_realign_empty_after_strip_rejected():
    for answer in (".", "।", "  . ", ""):
        outcome = realign(candidate("कख कग", answer))
        assert outcome.reason == "empty-after-strip"


def test_realign_strips_period_then_finds():
    outcome = realign(candidate("उत्तर इथे आहे", "उत्तर."))
    assert outcome.ok
    assert outcome.span.text == "उत्तर"
    assert outcome.span.start == 0


def test_realign_case_fold_retry_keeps_context_casing():
    outcome = realign(candidate("The Cat sat", "the cat"))
    assert outcome.ok
    assert outcome.span.text == "The Cat"  # slice of the context, not the query
    assert outcome.span.start == 0


def test_realign_case_fold_applies_to_latin_only():
    # ß upper-cases to SS under full casefolding, which would shift offsets;
    # only A-Z fold here, so the match must fail.
    outcome = realign(candidate("straße", "STRASSE"))
    assert outcome.reason == "answer-not-found"


def test_realign_outcomes_always_satisfy_substring_invariant():
    rng = random.Random(23)
    pool = DEVANAGARI_WORDS + ["Beyonce", "ok.", "a", "ab"]
    for _ in range(500):
        words = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
        context = " ".join(words)
        answer = " ".join(
            rng.choice(pool) for _ in range(rng.randint(1, 3))
        )
        outcome = realign(candidate(context, answer, rel=rng.random()))
        if outcome.ok:
            span = outcome.span
            assert context[span.start : span.start + len(span.text)] == span.text


# -- align_corpus --


def test_align_corpus_counts_and_log():
    cands = [
        candidate("कख कग", "कख", qid="q1"),
        candidate("कख कग", "zzz", qid="q2"),
        candidate("कख कग", "कग", qid="q3"),
    ]
    corpus, log = align_corpus(cands, split="test")
    assert [r.qid for r in corpus.records] == ["q1", "q3"]
    assert [(e.qid, e.stage, e.reason) for e in log] == [("q2", "alignment", "answer-not-found")]
    assert len(corpus) + len(log) == len(cands)
    assert corpus.split == "test"
    assert validate_spans(corpus).ok


def test_every_alignment_rejection_quotes_its_answer_and_context():
    left, right = "क" * 300, "ख" * 300
    cands = [
        candidate("कख कग", " । ", qid="q1"),
        candidate("कख कग", "zzz.", qid="q2"),
        candidate(left + " मध्य " + right, "ग" * 200 + ".", rel=0.5, qid="q3"),
        candidate("it's a \\ path", "its 'quoted' \\ answer", rel=1.0, qid="q4"),
    ]
    _, log = align_corpus(cands)
    assert [(e.qid, e.reason) for e in log] == [
        ("q1", "empty-after-strip"),
        ("q2", "answer-not-found"),
        ("q3", "answer-not-found"),
        ("q4", "answer-not-found"),
    ]
    excerpts = {}
    for entry, cand in zip(log, cands):
        quoted, *context = entry.detail.removeprefix("answer ").split(" not in context ")
        answer = strip_trailing_period(cand.translated_answer)
        assert ast.literal_eval(quoted) == answer[:EXCERPT]
        assert len(context) == (entry.reason == "answer-not-found")
        for part in context:
            excerpts[entry.qid] = ast.literal_eval(part)
            assert 0 < len(excerpts[entry.qid]) <= EXCERPT
            assert excerpts[entry.qid] in cand.translated_context
    assert excerpts["q2"] == "कख कग"
    assert " मध्य " in excerpts["q3"]  # where the source had the answer
    assert excerpts["q4"] == cands[3].translated_context


def test_align_corpus_identity_translation_reproduces_offsets():
    source = build_english_corpus(30, seed=77)
    cands = [
        AlignmentCandidate(
            qid=rec.qid,
            translated_context=rec.context,
            translated_question=rec.question,
            translated_answer=rec.answers[0].text,
            original_relative_position=rec.answers[0].start / len(rec.context),
            title=rec.title,
        )
        for rec in source.records
    ]
    aligned, log = align_corpus(cands)
    assert len(log) == 0
    for got, expected in zip(aligned.records, source.records):
        assert got.qid == expected.qid
        assert got.answers == expected.answers  # same text, same start
    assert validate_spans(aligned).ok


def test_candidate_validates_relative_position():
    with pytest.raises(ValueError):
        candidate("abc", "a", rel=1.5)

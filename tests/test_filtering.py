"""Content filtering: script-ratio heuristic, exclusion lists, rejection logging."""

from __future__ import annotations

import json
import random

import pytest

from transquad.corpus import Corpus
from transquad.errors import ConfigError, ConfigValidationError
from transquad.filtering import (
    FilterConfig,
    RejectionEntry,
    RejectionLog,
    filter_corpus,
    load_exclusion_list,
    non_latin_letter_ratio,
)

from conftest import DEVANAGARI_WORDS, ENGLISH_WORDS, build_english_corpus, make_record


# -- non_latin_letter_ratio --


def test_ratio_all_english_is_zero():
    assert non_latin_letter_ratio("hello world") == 0.0


def test_ratio_no_letters_is_zero():
    assert non_latin_letter_ratio("") == 0.0
    assert non_latin_letter_ratio("123 ,.!? \t") == 0.0


def test_ratio_half_greek():
    # 3 Latin letters, 3 Greek letters, counted by hand.
    assert non_latin_letter_ratio("abc αβγ") == 0.5


def test_ratio_ignores_digits_and_punctuation():
    assert non_latin_letter_ratio("abc123 αβγ!!") == 0.5


def test_ratio_all_devanagari_is_one():
    assert non_latin_letter_ratio("मराठी") == 1.0


# -- exclusion lists --


def three_record_corpus():
    ctx = "alpha beta gamma delta"
    return Corpus(
        split="train",
        records=(
            make_record("q1", ctx, "alpha", title="shared"),
            make_record("q2", ctx, "beta", question="second?", title="shared"),
            make_record("q3", ctx, "gamma", question="third?", title="solo"),
        ),
    )


def filter_excluding(tmp_path, corpus, *listed):
    path = tmp_path / "excl.txt"
    path.write_text("".join(line + "\n" for line in listed), encoding="utf-8")
    return filter_corpus(corpus, FilterConfig(exclusion_list_path=str(path)))


def test_empty_exclusion_list_is_identity(tmp_path):
    corpus = three_record_corpus()
    kept, log = filter_excluding(tmp_path, corpus)
    assert kept.records == corpus.records
    assert len(log) == 0


def test_exclusion_by_qid(tmp_path):
    kept, log = filter_excluding(tmp_path, three_record_corpus(), "q2")
    assert [r.qid for r in kept.records] == ["q1", "q3"]
    assert [e.to_dict() for e in log] == [
        {"qid": "q2", "stage": "pre-filter", "reason": "manual-exclusion", "detail": "qid listed"}
    ]


def test_exclusion_by_title_removes_whole_group(tmp_path):
    kept, log = filter_excluding(tmp_path, three_record_corpus(), "shared")
    assert [r.qid for r in kept.records] == ["q3"]
    assert sorted(e.qid for e in log) == ["q1", "q2"]
    assert all(e.reason == "manual-exclusion" for e in log)


def test_load_exclusion_list_skips_comments(tmp_path):
    path = tmp_path / "excl.txt"
    path.write_text("# a comment\n\nq1\n  shared  \n", encoding="utf-8")
    assert load_exclusion_list(path) == {"q1", "shared"}


def test_load_exclusion_list_unreadable_path():
    with pytest.raises(ConfigError):
        load_exclusion_list("/nonexistent/excl.txt")


# -- filter_corpus --


def test_default_config_keeps_all_english():
    corpus = build_english_corpus(20)
    kept, log = filter_corpus(corpus, FilterConfig())
    assert len(kept) == 20
    assert len(log) == 0


def test_greek_heavy_context_rejected():
    # 4 Greek letters out of 10 -> ratio 0.40, over the 0.05 default.
    corpus = Corpus(
        split="train", records=(make_record("q1", "abcdef αβγδ", "abcdef", start=0),)
    )
    assert non_latin_letter_ratio(corpus.records[0].context) == pytest.approx(0.4)
    kept, log = filter_corpus(corpus, FilterConfig())
    assert len(kept) == 0
    assert [(e.qid, e.reason) for e in log] == [("q1", "non-latin-content")]


def test_threshold_one_disables_ratio_rejections():
    records = tuple(
        make_record(f"q{i}", " ".join(DEVANAGARI_WORDS[:6]), DEVANAGARI_WORDS[i])
        for i in range(3)
    )
    kept, log = filter_corpus(Corpus(split="train", records=records), FilterConfig(
        non_latin_letter_ratio_threshold=1.0
    ))
    assert len(kept) == 3 and len(log) == 0


def test_too_short_context_rejected():
    corpus = Corpus(split="train", records=(make_record("q1", "abcd", "ab", start=0),))
    kept, log = filter_corpus(corpus, FilterConfig(min_context_length=5))
    assert len(kept) == 0
    assert log.entries[0].reason == "too-short"


def test_exclusion_file_wired_through_config(tmp_path):
    path = tmp_path / "excl.txt"
    path.write_text("q2\n", encoding="utf-8")
    kept, log = filter_corpus(
        three_record_corpus(), FilterConfig(exclusion_list_path=str(path))
    )
    assert [r.qid for r in kept.records] == ["q1", "q3"]
    assert log.entries[0].reason == "manual-exclusion"


def test_unreadable_exclusion_file_is_config_error():
    with pytest.raises(ConfigError):
        filter_corpus(three_record_corpus(), FilterConfig(exclusion_list_path="/nope.txt"))


def test_threshold_out_of_range_rejected():
    with pytest.raises(ConfigValidationError):
        FilterConfig(non_latin_letter_ratio_threshold=1.5)


def random_mixed_corpus(seed: int, n: int = 40) -> Corpus:
    rng = random.Random(seed)
    records = []
    for i in range(n):
        pool = rng.choice((ENGLISH_WORDS, DEVANAGARI_WORDS, ENGLISH_WORDS + DEVANAGARI_WORDS))
        words = rng.choices(pool, k=rng.randint(3, 12))
        records.append(
            make_record(f"q{i}", " ".join(words), words[0], title=f"t{i % 4}")
        )
    return Corpus(split="train", records=tuple(records))


def test_conservation_and_determinism():
    corpus = random_mixed_corpus(11)
    cfg = FilterConfig(non_latin_letter_ratio_threshold=0.3)
    kept1, log1 = filter_corpus(corpus, cfg)
    kept2, log2 = filter_corpus(corpus, cfg)
    assert len(kept1) + len(log1) == len(corpus)
    assert kept1.records == kept2.records
    assert log1.entries == log2.entries


def test_lowering_threshold_only_grows_rejections():
    corpus = random_mixed_corpus(13)
    rejected_sets = []
    for threshold in (0.8, 0.4, 0.1, 0.0):
        _, log = filter_corpus(corpus, FilterConfig(non_latin_letter_ratio_threshold=threshold))
        rejected_sets.append({e.qid for e in log})
    for higher, lower in zip(rejected_sets, rejected_sets[1:]):
        assert lower >= higher


# -- rejection log format --


def test_rejection_log_jsonl_round_trip(tmp_path):
    log = RejectionLog()
    log.append(RejectionEntry("q1", "pre-filter", "manual-exclusion", "qid listed"))
    log.append(RejectionEntry("q2", "alignment", "answer-not-found"))
    lines = log.to_jsonl().strip().split("\n")
    assert json.loads(lines[0]) == {
        "qid": "q1",
        "stage": "pre-filter",
        "reason": "manual-exclusion",
        "detail": "qid listed",
    }
    assert json.loads(lines[1])["detail"] is None
    assert log.counts_by_reason() == {"manual-exclusion": 1, "answer-not-found": 1}

    path = tmp_path / "rej.jsonl"
    log.write(path)
    assert RejectionLog.read(path).entries == log.entries
    assert len(RejectionLog.read(tmp_path / "absent.jsonl")) == 0
    path.write_text(lines[0].replace("pre-filter", "made-up-stage") + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="rej.jsonl:1"):
        RejectionLog.read(path)


def test_rejection_entry_validates_reason_and_stage():
    with pytest.raises(ValueError):
        RejectionEntry("q1", "pre-filter", "made-up-reason")
    with pytest.raises(ValueError):
        RejectionEntry("q1", "made-up-stage", "too-short")

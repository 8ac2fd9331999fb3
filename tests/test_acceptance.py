"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import functools
import json
import random
import time
from pathlib import Path

import numpy as np

from transquad.alignment import AlignmentCandidate
from transquad.corpus import (
    AnswerSpan,
    Corpus,
    QaRecord,
    collapse_answers,
    load_corpus,
    parse_corpus,
    serialize_corpus,
    validate_spans,
)
from transquad.evaluation import bert_score, evaluate_predictions, token_f1
from transquad.filtering import FilterConfig
from transquad.pipeline import (
    load_config,
    postprocess_candidates,
    run_corpus_pipeline,
    run_pipeline,
)
from transquad.script_tools import (
    IdentityTransliterator,
    TableTransliterator,
    localize_digits,
    scan_residuals,
    transliterate_residuals,
)
from transquad.translation import DictionaryEngine, IdentityEngine, TranslationCache

import reference_scripts
from conftest import (
    DEVANAGARI_WORDS,
    ENGLISH_WORDS,
    CountingEngine,
    CountingTransliterator,
    build_english_corpus,
)

README = Path(__file__).parent.parent / "README.md"


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL - {title}")
                raise
            print(f"criterion {number:2d}: PASS - {title}")

        return wrapper

    return decorate


@criterion(1, "EM/F1 match the three worked reference/prediction pairs")
def test_criterion_01_metric_fidelity():
    reference = "मराठी प्रश्न उत्तर शिकणे"
    cases = [
        ("q1", "मराठी प्रश्न उत्तर शिकणे", 1.0, 1.0),
        ("q2", "मराठी शिकणे", 0.0, 0.6667),
        ("q3", "मराठी प्रश्न समाधान शिकणे", 0.0, 0.75),
    ]
    gold = Corpus(
        split="test",
        records=tuple(
            QaRecord(
                qid=qid,
                question="उत्तर काय?",
                context=reference + " इथे आहे",
                answers=(AnswerSpan(reference, 0),),
                title="t",
            )
            for qid, _, _, _ in cases
        ),
    )
    started = time.perf_counter()
    report = evaluate_predictions(gold, {qid: pred for qid, pred, _, _ in cases})
    elapsed = time.perf_counter() - started
    for qid, _, want_em, want_f1 in cases:
        score = report.per_question[qid]
        assert score.em == want_em
        assert abs(score.f1 - want_f1) <= 0.005
    assert elapsed < 1.0  # criterion budget is milliseconds; 1s is generous


@criterion(2, "digit localization is exact, idempotent, length-preserving")
def test_criterion_02_digit_localization():
    assert localize_digits("जन्म 4 सप्टेंबर 1981") == "जन्म ४ सप्टेंबर १९८१"
    rng = random.Random(2024)
    alphabet = "0123456789०१२३४५६७८९abcxyzकखगमराठी .,!।-\t"
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        out = localize_digits(text)
        assert len(out) == len(text)
        assert localize_digits(out) == out
        for before, after in zip(text, out):
            if "0" <= before <= "9":
                assert ord(after) == 0x0966 + ord(before) - ord("0")
            else:
                assert after == before


@criterion(3, "exactly the Latin tokens are transliterated, Devanagari untouched")
def test_criterion_03_transliteration_routing():
    sentence = "Beyonce Giselle Knowles-Carter (जन्म 4 सप्टेंबर 1981)"
    table = {
        "Beyonce": "बियॉन्से",
        "Giselle": "गिसेले",
        "Knowles-Carter": "नॉवल्स-कार्टर",
    }
    counting = CountingTransliterator(TableTransliterator(table))
    candidate = AlignmentCandidate(
        qid="q",
        translated_context=sentence,
        translated_question=sentence,
        translated_answer=sentence,
        original_relative_position=0.0,
    )
    (fixed,) = postprocess_candidates([candidate], counting)

    latin_tokens = [
        token
        for _, token in reference_scripts.iter_raw_tokens(sentence)
        if reference_scripts.classify_token(token) is reference_scripts.Script.LATIN
    ]
    assert counting.tokens_seen == latin_tokens == list(table)  # once, for all three fields

    latin, _ = scan_residuals(sentence)
    out = transliterate_residuals(sentence, latin, table)
    after_tokens = out.split()
    for token in set(sentence.split()) - set(latin_tokens):
        assert token in after_tokens  # byte-identical survivors

    assert fixed.translated_context == fixed.translated_answer == localize_digits(out)
    assert localize_digits(out) == "बियॉन्से गिसेले नॉवल्स-कार्टर (जन्म ४ सप्टेंबर १९८१)"


def _random_divergent_corpus(rng: random.Random) -> Corpus:
    use_devanagari = rng.random() < 0.5
    pool = DEVANAGARI_WORDS if use_devanagari else ENGLISH_WORDS
    records = []
    for i in range(rng.randint(2, 5)):
        words = rng.choices(pool, k=rng.randint(4, 12))
        take = rng.randint(1, 2)
        pos = rng.randrange(0, len(words) - take + 1)
        answer = " ".join(words[pos : pos + take])
        if rng.random() < 0.3:
            words.extend(words[pos : pos + take])  # duplicate occurrence
        context = " ".join(words)
        start = len(" ".join(words[:pos])) + (1 if pos else 0)
        roll = rng.random()
        if roll < 0.25:
            answer = "कुठेनाही"  # token absent from both pools: divergent
        elif roll < 0.45:
            answer = answer + rng.choice(".।")
        elif roll < 0.52:
            answer = rng.choice([".", "।", " . "])
        records.append(
            QaRecord(
                qid=f"r{i}",
                question="काय?" if use_devanagari else "what?",
                context=context,
                answers=(AnswerSpan(answer, start),),
                title=f"t{i % 2}",
            )
        )
    return Corpus(split="train", records=tuple(records))


def _random_engine(rng: random.Random):
    if rng.random() < 0.5:
        return IdentityEngine()
    source = ENGLISH_WORDS + DEVANAGARI_WORDS
    targets = rng.sample(DEVANAGARI_WORDS, len(DEVANAGARI_WORDS))
    table = {
        word: targets[i % len(targets)]
        for i, word in enumerate(source)
        if rng.random() < 0.7
    }
    return DictionaryEngine(table)


@criterion(4, "every emitted span is sound and every record is accounted for")
def test_criterion_04_span_soundness():
    rng = random.Random(99)
    # One cache for every run: each table engine is named after its entries,
    # so no run is served another table's translations.
    cache = TranslationCache()
    for _ in range(1000):
        corpus = _random_divergent_corpus(rng)
        threshold = rng.choice((0.05, 0.5, 1.0))
        result = run_corpus_pipeline(
            corpus,
            _random_engine(rng),
            IdentityTransliterator(),
            FilterConfig(non_latin_letter_ratio_threshold=threshold),
            source_lang="en",
            target_lang="mr",
            cache=cache,
        )
        report = validate_spans(result.corpus)
        assert report.ok, report.violations
        for rec in result.corpus.records:
            span = rec.answers[0]
            assert rec.context[span.start : span.start + len(span.text)] == span.text
        assert result.input_count == len(result.corpus) + len(result.rejection_log)


@criterion(5, "identity engines reproduce a 50-record fixture with zero rejections")
def test_criterion_05_identity_oracle(tmp_path):
    corpus = build_english_corpus(50, seed=50)
    (tmp_path / "input.json").write_bytes(serialize_corpus(corpus))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "input_path": str(tmp_path / "input.json"),
                "output_path": str(tmp_path / "output.json"),
                "rejection_log_path": str(tmp_path / "rej.jsonl"),
                "stats_path": str(tmp_path / "stats.json"),
                "source_lang": "en",
                "target_lang": "mr",
                "engine_id": "identity",
                "transliterator_id": "identity",
                "cache_path": str(tmp_path / "cache.jsonl"),
            }
        ),
        encoding="utf-8",
    )
    started = time.perf_counter()
    summary = run_pipeline(load_config(cfg_path))
    elapsed = time.perf_counter() - started

    assert summary.input_count == 50
    assert summary.aligned_count == 50
    assert summary.rejected_by_reason == {}
    out = load_corpus(tmp_path / "output.json", "train")
    collapsed = [collapse_answers(r) for r in corpus.records]
    assert [r.qid for r in out.records] == [r.qid for r in collapsed]
    for got, expected in zip(out.records, collapsed):
        assert got.answers[0].text == expected.answers[0].text
        assert got.answers[0].start == expected.answers[0].start
    assert elapsed < 30.0  # criterion budget is seconds


def _mode_earliest_listed(texts: list[str]) -> str:
    """Independent majority oracle: count with list.count, scan in order."""
    best = max(texts.count(t) for t in texts)
    for t in texts:
        if texts.count(t) == best:
            return t
    raise AssertionError("unreachable")


@criterion(6, "collapse keeps the modal answer, earliest-listed on ties")
def test_criterion_06_majority_collapse():
    rng = random.Random(66)
    fixtures = [["B", "A"], ["A", "B", "A"], ["c", "b", "a"], ["x", "y", "x", "y"]]
    for _ in range(300):
        fixtures.append([rng.choice("ABCDE") for _ in range(rng.randint(1, 7))])
    for texts in fixtures:
        record = QaRecord(
            qid="q",
            question="?",
            context="ctx",
            answers=tuple(AnswerSpan(t, i) for i, t in enumerate(texts)),
            title="t",
        )
        collapsed = collapse_answers(record)
        assert len(collapsed.answers) == 1
        winner = _mode_earliest_listed(texts)
        assert collapsed.answers[0].text == winner
        # retained span is the first listed span carrying the winning text
        assert collapsed.answers[0].start == texts.index(winner)


@criterion(7, "one-hot BERTScore F equals token F1 within 1e-9")
def test_criterion_07_one_hot_reduction():
    rng = random.Random(77)
    vocab = [f"w{chr(ord('a') + i)}{chr(ord('a') + j)}" for i in range(6) for j in range(6)]
    axis = {token: i for i, token in enumerate(vocab)}
    eye = np.eye(len(vocab))
    for _ in range(500):
        gold_tokens = rng.sample(vocab, rng.randint(1, 10))
        pred_tokens = rng.sample(vocab, rng.randint(1, 10))
        gold = eye[[axis[t] for t in gold_tokens]]
        pred = eye[[axis[t] for t in pred_tokens]]
        _, _, f = bert_score(gold, pred)
        assert abs(f - token_f1(" ".join(gold_tokens), " ".join(pred_tokens))) <= 1e-9
    identical = eye[[3, 14, 15]]
    assert bert_score(identical, identical) == (1.0, 1.0, 1.0)


@criterion(8, "parse/serialize round-trip is the identity and byte-stable")
def test_criterion_08_round_trip(golden_squad_bytes):
    corpus = parse_corpus(golden_squad_bytes, "train")
    first = serialize_corpus(corpus)
    reparsed = parse_corpus(first, "train")
    assert reparsed.records == corpus.records
    assert reparsed.version == corpus.version
    second = serialize_corpus(reparsed)
    assert second == first


@criterion(9, "a warm cache means zero engine calls and byte-identical outputs")
def test_criterion_09_cache_behavior(tmp_path):
    corpus = build_english_corpus(25, seed=13)
    (tmp_path / "input.json").write_bytes(serialize_corpus(corpus))
    engine = CountingEngine(IdentityEngine())
    outputs = []
    for name in ("cold", "warm"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        cfg_path = tmp_path / f"config_{name}.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "input_path": str(tmp_path / "input.json"),
                    "output_path": str(run_dir / "output.json"),
                    "rejection_log_path": str(run_dir / "rej.jsonl"),
                    "stats_path": str(run_dir / "stats.json"),
                    "source_lang": "en",
                    "target_lang": "mr",
                    "engine_id": "identity",
                    "transliterator_id": "identity",
                    "cache_path": str(tmp_path / "cache.jsonl"),
                }
            ),
            encoding="utf-8",
        )
        calls_before = engine.calls
        run_pipeline(load_config(cfg_path), engine=engine)
        if name == "warm":
            assert engine.calls == calls_before, "warm run must not invoke the engine"
        outputs.append(
            tuple((run_dir / f).read_bytes() for f in ("output.json", "rej.jsonl", "stats.json"))
        )
    assert outputs[0] == outputs[1]


@criterion(10, "README states which published figures this toolkit does not reproduce")
def test_criterion_10_scope_statement():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert "does not attempt to reproduce" in text
    for marker in ("commercial", "transliteration service", "fine-tun"):
        assert marker in text, f"README limitations section must mention {marker!r}"

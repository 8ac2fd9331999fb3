"""Property tests: fast paths against plain per-item references.

The C-level script scans run against their per-character references on
random text that mixes arbitrary code points with the ones the scans must
get right: every kind of Unicode whitespace, Basic-Latin and other letters,
Devanagari letters, marks and digits, other decimal digits, and characters
outside the Basic Multilingual Plane. Answer normalization runs against its
per-character reference on the same text, EM and F1 against SQuAD v1.1's
on ASCII text, the BERTScore kernel against ``np.linalg.norm`` and
``ndarray.mean`` to the bit, the evaluator against per-pair
EM, F1 and BERTScore at any number of workers, the embedding-table loader
against ``float()``, the plain-text line reader against ``splitlines`` on
the whole text, the rejection log reader against its writer on any qid
text, and the evaluation report's writer against ``json.dumps`` on any qid
and score. Realignment must emit only sound spans and keep every answer its
context holds, and a corpus with any unknown qa-level fields must survive
serialize and parse unchanged.
The pipeline's outputs must not depend on how the translation gateway
chunks its requests or how many run at once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import string
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from transquad import cli, evaluation, pipeline, script_tools
from transquad._kernels import greedy_match
from transquad._text import ascii_casefold, text_lines
from transquad.alignment import AlignmentCandidate, align_corpus, strip_trailing_period
from transquad.corpus import (
    AnswerSpan,
    Corpus,
    QaRecord,
    parse_corpus,
    serialize_corpus,
    validate_spans,
)
from transquad.evaluation import (
    EmbeddingProvider,
    EvalReport,
    QuestionScore,
    TableEmbeddingProvider,
    bert_score,
    evaluate_predictions,
    exact_match,
    normalize,
    token_f1,
)
from transquad.filtering import (
    REASON_CATALOG,
    STAGES,
    RejectionEntry,
    RejectionLog,
    load_exclusion_list,
    non_latin_letter_ratio,
)
from transquad.pipeline import config_from_dict, postprocess_candidates, run_pipeline
from transquad.script_tools import (
    Transliterator,
    localize_digits,
    scan_residuals,
    transliterate_residuals,
)
from transquad.translation import DEFAULT_BATCH_SIZE, translate_batch

import reference_metrics
import reference_scripts as reference
from conftest import DEVANAGARI_WORDS, ENGLISH_WORDS, alpha_suffix, build_english_corpus

SPECIAL = (
    " \t\n\r\x0b\x0c\x1c\x1d\x85\u00a0\u1680\u2000\u2028\u2029\u202f\u3000"  # whitespace
    "abqXYZ"  # Basic Latin letters
    "0159"  # ASCII digits
    "कखगमराठीअ"  # Devanagari letters
    "\u093e\u093f\u0902\u0903\u094d"  # Devanagari vowel signs and marks
    "०१९"  # Devanagari digits
    "\u0964\u0965"  # danda, double danda
    "\u00e9\u00df\u03a9\u0436\u0663"  # other letters, an Arabic-Indic digit
    ".,()-'!"
    "\U0001d400\U00010400\U0001d7ce\U0001f600"  # astral: two letters, a digit, a symbol
)
TEXT = st.text(alphabet=st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=60)
ASCII_TEXT = st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=60)

PROPERTY = settings(max_examples=300, deadline=None)


def stub(token: str) -> str:
    """A length-preserving, whitespace-free stand-in for a transliteration."""
    return "क" * len(token)


class StubTransliterator(Transliterator):
    def transliterate(self, tokens):
        return [stub(t) for t in tokens]


@PROPERTY
@given(st.one_of(TEXT, ASCII_TEXT))
def test_non_latin_letter_ratio_matches_reference(text):
    assert non_latin_letter_ratio(text) == reference.non_latin_letter_ratio(text)


def assert_routed_like_reference(text: str) -> None:
    latin, mixed = scan_residuals(text)
    table = {text[start:end]: stub(text[start:end]) for start, end in latin}
    out = transliterate_residuals(text, latin, table)
    assert out == reference.transliterate_residuals(text, stub)
    assert mixed == [
        token
        for _, token in reference.iter_raw_tokens(text)
        if reference.classify_token(token) is reference.Script.MIXED
    ]
    # The stub keeps lengths, so every whitespace character and every
    # character of a non-Latin token must sit unchanged at its offset.
    reference_latin = [
        (start, start + len(token))
        for start, token in reference.iter_raw_tokens(text)
        if reference.classify_token(token) is reference.Script.LATIN
    ]
    assert latin == reference_latin
    inside = {i for start, end in latin for i in range(start, end)}
    assert len(out) == len(text)
    assert all(out[i] == ch for i, ch in enumerate(text) if i not in inside)


@PROPERTY
@given(TEXT)
def test_transliterate_residuals_touches_only_latin_tokens(text):
    assert_routed_like_reference(text)


def test_transliterate_residuals_on_every_code_point_near_devanagari():
    # Every code point up to U+0FFF, alone and next to a Devanagari and a
    # Latin letter, so each fills its evidence-table entry from a fresh token.
    for cp in range(0x1000):
        for text in (chr(cp), "क" + chr(cp), "a" + chr(cp)):
            assert_routed_like_reference(text)


def test_evidence_table_stays_under_its_cap():
    everything = "".join(map(chr, range(0x110000)))
    scan_residuals(everything)
    assert len(script_tools._EVIDENCE) <= script_tools.EVIDENCE_CAP
    # Code points past the cap are still classified, each time they are seen.
    for cp in range(0x10000, 0x110000, 997):
        assert_routed_like_reference(chr(cp))
        assert_routed_like_reference("a" + chr(cp))


@PROPERTY
@given(TEXT)
def test_localize_digits_keeps_length_and_is_idempotent(text):
    out = localize_digits(text)
    assert len(out) == len(text)
    assert localize_digits(out) == out


@PROPERTY
@given(st.data())
def test_postprocess_dedup_equals_processing_every_field(data):
    # A small pool of texts, so candidates share contexts and answers.
    pool = data.draw(st.lists(TEXT, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    fields = data.draw(st.lists(st.tuples(pick, pick, pick), max_size=8))
    parallelism = data.draw(st.sampled_from([1, 3]))
    candidates = [
        AlignmentCandidate(
            qid=f"q{i}",
            translated_context=context,
            translated_question=question,
            translated_answer=answer,
            original_relative_position=0.5,
            title="t",
        )
        for i, (context, question, answer) in enumerate(fields)
    ]

    def fix(text: str) -> str:
        return localize_digits(reference.transliterate_residuals(text, stub))

    got = postprocess_candidates(candidates, StubTransliterator(), parallelism=parallelism)
    assert [
        (c.qid, c.title, c.translated_context, c.translated_question, c.translated_answer)
        for c in got
    ] == [(f"q{i}", "t", fix(c), fix(q), fix(a)) for i, (c, q, a) in enumerate(fields)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(alphabet="abकख1 .", min_size=1, max_size=6), min_size=130, max_size=300))
def test_postprocess_over_several_chunks_matches_reference(words):
    # A distinct Latin token per word: more than one chunk of
    # DEFAULT_BATCH_SIZE, at both parallelism degrees.
    words = [f"{alpha_suffix(i)} {w}" for i, w in enumerate(words)]
    texts = [" ".join(words[i : i + 5]) for i in range(0, len(words), 5)]
    candidates = [
        AlignmentCandidate(
            qid=f"q{i}",
            translated_context=text,
            translated_question=texts[-1 - i],
            translated_answer=text,
            original_relative_position=0.5,
        )
        for i, text in enumerate(texts)
    ]
    for parallelism in (1, 3):
        got = postprocess_candidates(candidates, StubTransliterator(), parallelism=parallelism)
        assert [
            (c.translated_context, c.translated_question, c.translated_answer) for c in got
        ] == [
            tuple(localize_digits(reference.transliterate_residuals(t, stub)) for t in fields)
            for fields in ((c.translated_context, c.translated_question, c.translated_answer)
                           for c in candidates)
        ]


# -- evaluation --


class HashEmbedder(EmbeddingProvider):
    """A deterministic, never-zero vector for any token, from its SHA-256."""

    def embed(self, tokens):
        return np.array(
            [np.frombuffer(hashlib.sha256(t.encode()).digest(), dtype=np.int8) + 0.5
             for t in tokens],
            dtype=np.float64,
        )


def reference_report(pairs, predictions, embedder) -> EvalReport:
    """Per pair: exact_match, token_f1 and bert_score on separately embedded sides."""
    report = EvalReport()
    for qid, gold in pairs:
        if qid not in predictions:
            report.skipped.append(qid)
            continue
        pred = predictions[qid]
        gold_tokens, pred_tokens = normalize(gold), normalize(pred)
        if gold_tokens and pred_tokens:
            bert_f = bert_score(embedder.embed(gold_tokens), embedder.embed(pred_tokens))[2]
        else:
            bert_f = float(gold_tokens == pred_tokens)
        report.per_question[qid] = QuestionScore(
            em=exact_match(gold, pred), f1=token_f1(gold, pred), bert_f=bert_f
        )
    scored = report.per_question.values()
    if scored:
        report.mean_em = sum(s.em for s in scored) / len(scored)
        report.mean_f1 = sum(s.f1 for s in scored) / len(scored)
        report.mean_bert_f = sum(s.bert_f for s in scored) / len(scored)
    return report


ANSWER = st.text(alphabet=st.sampled_from(" \taAbBक१.,!\"।"), max_size=8)


@st.composite
def answer_pairs(draw):
    """(gold, prediction or None): copies, case/punctuation variants and free text."""
    gold = draw(ANSWER)
    variant = gold.upper().replace(".", "").replace("।", ",") + draw(st.sampled_from(["", ".", "।"]))
    pred = draw(st.one_of(st.none(), st.just(gold), st.just(variant), ANSWER))
    return gold, pred


@PROPERTY
@given(TEXT)
def test_normalize_matches_reference(text):
    assert normalize(text) == reference.normalize(text)


def test_normalize_table_stays_under_its_cap():
    everything = "".join(map(chr, range(0x110000)))
    assert normalize(everything) == reference.normalize(everything)
    assert len(evaluation._NORMALIZE) <= evaluation.NORMALIZE_CAP
    # Code points past the cap are still mapped, each time they are seen.
    for cp in range(0x10000, 0x110000, 997):
        for text in (chr(cp), "A" + chr(cp) + ".", "x" + chr(cp) + " ।"):
            assert normalize(text) == reference.normalize(text)


# ASCII symbols that SQuAD v1.1 deletes as punctuation but Unicode does not
# class as punctuation, so ``normalize`` keeps them.
KEPT_SYMBOLS = "$+<=>^`|~"
UNICODE_PUNCTUATION_IN_ASCII = "".join(c for c in string.punctuation if c not in KEPT_SYMBOLS)


@PROPERTY
@given(ASCII_TEXT, ASCII_TEXT)
@example("0", "0|")
@example("", "!")
def test_em_and_f1_agree_with_squad_v11_on_ascii_text_without_articles(gold, pred):
    """SQuAD v1.1's EM and F1, but for the last two departures the README lists.

    ``KEPT_SYMBOLS`` are kept, and two answers that normalize to nothing
    score F1 1.0 where SQuAD v1.1 gives 0. Any other disagreement on this
    domain fails.
    """
    assume(not reference_metrics.has_article(gold) and not reference_metrics.has_article(pred))
    g = reference_metrics.squad_normalize(gold, UNICODE_PUNCTUATION_IN_ASCII)
    p = reference_metrics.squad_normalize(pred, UNICODE_PUNCTUATION_IN_ASCII)
    assert exact_match(gold, pred) == reference_metrics.squad_exact_match(g, p)
    assert token_f1(gold, pred) == (1.0 if not g and not p else reference_metrics.squad_f1(g, p))


ROW = st.floats(-1e150, 1e150, allow_nan=False)


@st.composite
def row_sets(draw, dim):
    """1-6 rows of ``dim`` components, some of them all zeros."""
    rows = draw(st.lists(st.lists(ROW, min_size=dim, max_size=dim), min_size=1, max_size=6))
    zeros = draw(st.sets(st.integers(0, len(rows) - 1), max_size=len(rows)))
    return np.array([[0.0] * dim if i in zeros else row for i, row in enumerate(rows)])


# Shrinking a failing pair of float matrices takes minutes: the first
# failing example is reported as it was drawn.
@settings(PROPERTY, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(1, 12).flatmap(lambda dim: st.tuples(row_sets(dim), row_sets(dim))))
@example((np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])))
@example((np.array([[1e-300, 1.0], [0.0, 0.0]]), np.array([[2.0, -1e-200]])))
def test_greedy_match_gives_the_bits_of_norm_and_mean(sides):
    gold, pred = sides
    want = reference_metrics.greedy_match(gold.copy(), pred.copy())
    assert greedy_match(gold, pred) == want


@PROPERTY
@given(st.lists(answer_pairs(), max_size=8), st.sampled_from([1, 50]), st.integers(1, 4))
# Several chunks of the gateway for sure: 8 x 40 = 320 pairs.
@example([("a b", "A b."), ("", "a"), ("क", None), ("a", "b")] * 2, 40, 4)
def test_evaluate_predictions_equals_per_pair_reference(drawn, copies, max_workers):
    drawn = drawn * copies
    pairs = [(f"q{i}", gold) for i, (gold, _) in enumerate(drawn)]
    predictions = {f"q{i}": pred for i, (_, pred) in enumerate(drawn) if pred is not None}
    gold = Corpus(
        split="test",
        records=tuple(
            QaRecord(qid=qid, question="?", context=text, answers=(AnswerSpan(text, 0),), title="t")
            for qid, text in pairs
        ),
    )
    embedder = HashEmbedder()
    embedder.max_workers = max_workers
    got = evaluate_predictions(gold, predictions, embedder)
    assert got.to_json() == reference_report(pairs, predictions, embedder).to_json()


# Scores at the edges of how JSON writes a number, then any int or finite float.
SCORE = st.one_of(
    st.sampled_from([None, 0, 1, -0.0, 5e-324, 1e16, 1e22]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Qids holding what the string encoder must escape, or must not.
QID_SPECIAL = '"\\\x00\x08\n\x1f\x7f\u2028\u2029कखमराठी१'
QID = st.text(alphabet=st.one_of(st.sampled_from(QID_SPECIAL), st.characters()), max_size=10)


@st.composite
def reports(draw) -> EvalReport:
    qids = draw(st.lists(QID, unique=True, max_size=6))
    return EvalReport(
        per_question={
            qid: QuestionScore(em=draw(SCORE), f1=draw(SCORE), bert_f=draw(SCORE)) for qid in qids
        },
        skipped=draw(st.lists(QID, max_size=4)),
        mean_em=draw(SCORE),
        mean_f1=draw(SCORE),
        mean_bert_f=draw(SCORE),
    )


def dumps(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), ensure_ascii=False, indent=2, allow_nan=False)


@PROPERTY
@given(reports())
@example(EvalReport())
@example(EvalReport(skipped=["q"]))
@example(EvalReport(per_question={"q": QuestionScore(em=1, f1=-0.0, bert_f=None)}))
@example(EvalReport(
    per_question={'"\\\x01\u2028मराठी': QuestionScore(em=0, f1=5e-324, bert_f=1e22)},
    mean_em=1e16,
))
def test_report_json_is_the_text_of_json_dumps(report):
    assert report.to_json() == dumps(report)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["em", "f1", "bert_f", "mean_em", "mean_f1", "mean_bert_f"])
def test_report_json_refuses_non_finite_scores_as_json_dumps_does(field, bad):
    scores = {"em": 1, "f1": 0.5, "bert_f": 0.25}
    report = EvalReport(
        per_question={"q0": QuestionScore(**scores), "q1": QuestionScore(**scores)},
        skipped=["q2"],
        mean_em=1.0,
        mean_f1=0.5,
        mean_bert_f=0.25,
    )
    if field.startswith("mean_"):
        setattr(report, field, bad)
    else:
        report.per_question["q1"] = replace(report.per_question["q1"], **{field: bad})
    with pytest.raises(ValueError, match="not JSON compliant") as err:
        report.to_json()
    with pytest.raises(ValueError) as want:
        dumps(report)
    assert str(err.value) == str(want.value)


def spellings(x: float):
    return st.sampled_from([repr(x), f"{x:.6g}", f"{x:e}", f"{x:+.3E}"])


# A finite float can still be spelled past the largest double: f"{x:.6g}" of
# 1.7976931348623157e308 reads back as inf. Such spellings belong to NON_FINITE.
NUMBER = st.floats(allow_nan=False, allow_infinity=False).flatmap(spellings).filter(
    lambda text: math.isfinite(float(text))
)
NON_FINITE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(spellings),
    st.sampled_from(["-nan", "+Infinity", "1e400", "-1E999", "+1.798E+308"]),
)
GAP = st.sampled_from([" ", "\t", "  ", " \t ", "\u00a0", "\u3000"])
ROWS = st.lists(st.lists(NUMBER, min_size=3, max_size=3), min_size=1, max_size=5)


@PROPERTY
@given(ROWS, GAP, st.data())
def test_table_loader_gives_float_bits(tmp_path_factory, rows, first_gap, data):
    lines = []
    for i, row in enumerate(rows):
        gaps = [first_gap] + [data.draw(GAP) for _ in row[1:]]
        lines.append(f"t{i}" + "".join(g + x for g, x in zip(gaps, row)))
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        provider = TableEmbeddingProvider.from_file(path)
    except ValueError as exc:
        # The only row the table refuses is an all-zero one.
        assert "all zeros" in str(exc)
        assert any(not np.any([float(x) for x in row]) for row in rows)
        assert not path.with_name("emb.txt.tqemb").exists()
        return
    for i, row in enumerate(rows):
        want = np.array([float(x) for x in row], dtype=np.float64).tobytes()
        assert provider.matrix[provider.index[f"t{i}"]].tobytes() == want
    # The second load reads the sidecar the first wrote: the same tokens, order and bits.
    assert path.with_name("emb.txt.tqemb").is_file()
    again = TableEmbeddingProvider.from_file(path)
    assert list(again.index) == list(provider.index)
    for token, row in provider.index.items():
        assert again.matrix[again.index[token]].tobytes() == provider.matrix[row].tobytes()


@PROPERTY
@given(ROWS, st.data())
def test_table_loader_names_the_first_non_finite_line(tmp_path_factory, rows, data):
    bad_rows = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
    lines, linenos = [], []
    for i, row in enumerate(rows):
        lines += data.draw(st.lists(st.sampled_from(["", "# note", " "]), max_size=2))
        if i in bad_rows:
            row[data.draw(st.integers(0, 2))] = data.draw(NON_FINITE)
        lines.append(f"t{i} " + " ".join(row))
        linenos.append(len(lines))
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        TableEmbeddingProvider.from_file(path)
    assert str(info.value) == f"{path}:{linenos[min(bad_rows)]}: non-finite vector component"


# Any text a UTF-8 file can hold: TEXT without lone surrogates.
UTF8_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(SPECIAL), st.characters(codec="utf-8")), max_size=60
)
LINE_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])
LINE = st.one_of(UTF8_TEXT, st.sampled_from(["", " ", "\t"]), UTF8_TEXT.map("#".__add__))


@PROPERTY
@given(st.lists(st.tuples(LINE, LINE_BREAK), max_size=8), st.booleans(), st.booleans())
@example([("a", "\r"), ("", "\n"), ("# x", "\r\n"), ("  # y", "\x85")], True, False)
@example([("q1", "\n"), ("# x", "\n")], True, True)
@example([("\ufeff\ufeffq1", "\n")], True, False)
def test_text_lines_reads_the_lines_splitlines_gives(tmp_path_factory, lines, last_break, bom):
    """Streamed, a plain-text input keeps the lines and numbers of ``splitlines`` on its text.

    One byte-order mark (U+FEFF) at the start of the file is dropped, be it
    written before the text or the text's own first character.
    """
    text = "".join(line + brk for line, brk in lines)
    if lines and not last_break:
        text = text[: -len(lines[-1][1])]
    text = "\ufeff" * bom + text
    path = tmp_path_factory.mktemp("lines") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    whole = list(enumerate(text.removeprefix("\ufeff").splitlines(), 1))
    assert list(text_lines(path)) == [
        (lineno, line) for lineno, line in whole if line.strip() and not line.startswith("#")
    ]
    stripped = {line.strip() for _, line in whole}
    assert load_exclusion_list(path) == {s for s in stripped if s and not s.startswith("#")}


ENTRY = st.tuples(
    UTF8_TEXT,
    st.sampled_from(STAGES),
    st.sampled_from(sorted(REASON_CATALOG)),
    st.none() | UTF8_TEXT,
)


@PROPERTY
@given(st.lists(ENTRY, max_size=4))
@example(
    [
        ("q\u2028a", "pre-filter", "too-short", "b\x85c"),
        ("q\x85", "alignment", "answer-not-found", None),
    ]
)
def test_rejection_log_reads_back_what_it_writes(tmp_path_factory, entries):
    """Any qid and detail text round-trips, line separators that JSON leaves unescaped included."""
    log = RejectionLog([RejectionEntry(*entry) for entry in entries])
    path = tmp_path_factory.mktemp("log") / "rej.jsonl"
    log.write(path)
    assert RejectionLog.read(path).entries == log.entries


# Where realignment can go wrong: Basic-Latin letters of both cases (the
# case-fold retry), Devanagari letters, a vowel sign, digits and the danda,
# both trailing marks, spaces, and letters whose case is not Basic Latin.
ALIGN_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("aAbBxX कखम\u093e१1।. éÉß"), st.characters(codec="utf-8")
    ),
    max_size=30,
)
SWAP_ASCII_CASE = str.maketrans(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
)


@st.composite
def alignment_cases(draw):
    """(context, translated answer, relative position); the answer is often from the context."""
    context = draw(ALIGN_TEXT)
    if context and draw(st.booleans()):
        start = draw(st.integers(0, len(context) - 1))
        answer = context[start : draw(st.integers(start + 1, len(context)))]
        if draw(st.booleans()):
            answer = answer.translate(SWAP_ASCII_CASE)  # found by the case-fold retry only
        answer += draw(st.sampled_from(["", ".", "।", " ", ". ", "।\n"]))
    else:
        answer = draw(ALIGN_TEXT)
    return context, answer, draw(st.floats(0, 1))


@PROPERTY
@given(st.lists(alignment_cases(), max_size=6))
@example([("मराठी जन्म", "जन्म।", 0.5), ("The River", "river.", 0.0), ("a a", "A", 1.0)])
def test_realign_keeps_every_answer_its_context_holds_and_only_sound_spans(cases):
    candidates = [
        AlignmentCandidate(f"q{i}", context, "?", answer, position)
        for i, (context, answer, position) in enumerate(cases)
    ]
    corpus, log = align_corpus(candidates)
    assert validate_spans(corpus).ok
    aligned = {rec.qid: rec.answers[0] for rec in corpus.records}
    assert sorted([*aligned, *(e.qid for e in log)]) == sorted(c.qid for c in candidates)
    for cand in candidates:
        context = cand.translated_context
        stripped = strip_trailing_period(cand.translated_answer)
        found = bool(stripped.strip()) and ascii_casefold(stripped) in ascii_casefold(context)
        assert (cand.qid in aligned) == found, cand
        if found:
            span = aligned[cand.qid]
            assert context[span.start : span.start + len(span.text)] == span.text
            assert ascii_casefold(span.text) == ascii_casefold(stripped)
            if stripped in context:
                assert span.text == stripped  # the exact match wins over the folded one


JSON_VALUE = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        UTF8_TEXT,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(UTF8_TEXT, inner, max_size=3)
    ),
    max_leaves=8,
)
NON_EMPTY_TEXT = UTF8_TEXT.filter(bool)


@st.composite
def corpora(draw):
    """Any corpus a SQuAD file can hold: spans need not match, titles and contexts repeat."""
    n = draw(st.integers(0, 6))
    qids = draw(st.lists(NON_EMPTY_TEXT, min_size=n, max_size=n, unique=True))
    records = [
        QaRecord(
            qid=qid,
            question=draw(NON_EMPTY_TEXT),
            context=draw(st.one_of(st.sampled_from(["मराठी", "a b"]), NON_EMPTY_TEXT)),
            answers=tuple(
                draw(st.lists(st.builds(AnswerSpan, UTF8_TEXT, st.integers()), min_size=1,
                              max_size=3))
            ),
            title=draw(st.one_of(st.sampled_from(["", "t"]), UTF8_TEXT)),
            extra=draw(
                st.dictionaries(
                    UTF8_TEXT.filter(lambda k: k not in ("id", "question", "answers")),
                    JSON_VALUE,
                    max_size=3,
                )
            ),
        )
        for qid in qids
    ]
    return Corpus(split=draw(st.sampled_from(["train", "test"])), records=tuple(records),
                  version=draw(UTF8_TEXT))


@settings(max_examples=100, deadline=None)  # drawing a corpus is the slow part
@given(corpora())
def test_serialize_then_parse_gives_the_corpus_back(corpus):
    raw = b"".join(serialize_corpus(corpus))
    again = parse_corpus(raw, corpus.split)
    assert again == corpus
    assert b"".join(serialize_corpus(again)) == raw


def pipeline_corpus(seed: int):
    """A corpus that exercises every rejection and every kind of shared text."""
    records = list(build_english_corpus(16, seed=seed).records)
    for i in (2, 9):  # answer-not-found: the context fuses the answer with a suffix
        answer = records[i].answers[0].text
        records[i] = replace(records[i], context=records[i].context.replace(answer, answer + "tail"))
    records[4] = replace(records[4], question=records[3].answers[0].text)  # across fields
    records[6] = replace(records[6], question=records[6].context)  # within a record
    records[8] = replace(records[8], context=records[7].context, answers=records[7].answers)
    records[11] = replace(records[11], context="short " + records[11].answers[0].text,
                          answers=(AnswerSpan(records[11].answers[0].text, 6),))
    return replace(build_english_corpus(0), records=tuple(records))


OUTPUTS = ("output_path", "rejection_log_path", "stats_path")


def pipeline_config(root: Path, seed: int, parallelism: int) -> dict:
    """Write the inputs of a run on ``pipeline_corpus(seed)`` under ``root``; returns its config."""
    corpus = pipeline_corpus(seed)
    (root / "input.json").write_bytes(b"".join(serialize_corpus(corpus)))
    table = {w: d for w, d in zip(ENGLISH_WORDS, DEVANAGARI_WORDS)}
    table.update({r.answers[0].text: f"उत्तर{i}" for i, r in enumerate(corpus.records)})
    (root / "dict.tsv").write_text(
        "".join(f"{k}\t{v}\n" for k, v in table.items()), encoding="utf-8"
    )
    (root / "excl.txt").write_text(corpus.records[0].qid + "\n", encoding="utf-8")
    return {
        "input_path": str(root / "input.json"),
        "output_path": str(root / "out.json"),
        "rejection_log_path": str(root / "rej.jsonl"),
        "stats_path": str(root / "stats.json"),
        "source_lang": "en",
        "target_lang": "mr",
        "engine_id": f"dictionary:{root / 'dict.tsv'}",
        "transliterator_id": "identity",
        "cache_path": str(root / "cache.jsonl"),
        "filter": {"exclusion_list_path": str(root / "excl.txt"), "min_context_length": 30},
        "parallelism": parallelism,
    }


def run_with_batching(seed: int, batch_size: int, parallelism: int) -> bytes:
    """Corpus, rejection log and stats of one cold pipeline run, concatenated.

    The gateway's chunk size is a function parameter, not a config key, so
    it is bound into the ``translate_batch`` the pipeline calls.
    """
    with tempfile.TemporaryDirectory() as tmp:
        raw = pipeline_config(Path(tmp), seed, parallelism)
        chunked = functools.partial(translate_batch, batch_size=batch_size)
        with mock.patch.object(pipeline, "translate_batch", chunked):
            run_pipeline(config_from_dict(raw))
        return b"\0".join(Path(raw[key]).read_bytes() for key in OUTPUTS)


@functools.lru_cache(maxsize=None)
def reference_run(seed: int) -> bytes:
    return run_with_batching(seed, batch_size=10**6, parallelism=1)


def test_pipeline_corpus_exercises_every_rejection():
    out, log, _ = reference_run(0).split(b"\0")
    reasons = sorted(json.loads(line)["reason"] for line in log.splitlines())
    assert reasons == ["answer-not-found"] * 2 + ["manual-exclusion", "too-short"]
    assert len(json.loads(out)["data"]) > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(1, 50), st.integers(1, 4))
def test_pipeline_outputs_independent_of_batching_and_parallelism(seed, batch_size, parallelism):
    assert run_with_batching(seed, batch_size, parallelism) == reference_run(seed)


def assert_kept_plus_rejected_is_input(seed: int, corpus: bytes, log: bytes) -> None:
    """Every input record is either in the corpus or in the log, and only once."""
    kept = [rec.qid for rec in parse_corpus(corpus, "train").records]
    rejected = [json.loads(line)["qid"] for line in log.splitlines()]
    assert sorted(kept + rejected) == sorted(rec.qid for rec in pipeline_corpus(seed).records)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2), st.integers(1, 4))
def test_kept_plus_rejected_is_input_for_pipeline_and_stage_chain(seed, parallelism):
    direct = run_with_batching(seed, batch_size=DEFAULT_BATCH_SIZE, parallelism=parallelism)
    out, log, _ = direct.split(b"\0")
    assert_kept_plus_rejected_is_input(seed, out, log)
    with tempfile.TemporaryDirectory() as tmp:
        raw = pipeline_config(Path(tmp), seed, parallelism)
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["--config", str(config), "filter"]) == 0
        filtered = Path(raw["output_path"]).with_suffix(".filtered.json").read_bytes()
        assert_kept_plus_rejected_is_input(
            seed, filtered, Path(raw["rejection_log_path"]).read_bytes()
        )
        for command in ("translate", "postprocess", "realign"):
            assert cli.main(["--config", str(config), command]) == 0
        chain = b"\0".join(Path(raw[key]).read_bytes() for key in OUTPUTS)
    assert chain == direct

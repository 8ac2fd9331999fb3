"""Evaluation metrics: normalization, EM, token F1, BERTScore core, reporting."""

from __future__ import annotations

import functools
import math
import os
import random
import stat
import struct
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import transquad._text
import transquad.evaluation
import transquad.translation
from transquad.corpus import AnswerSpan, Corpus, QaRecord, collapse_answers
from transquad.errors import (
    EmbeddingError,
    EngineUnavailableError,
    MissingEmbeddingError,
    TransientEngineError,
)
from transquad.evaluation import (
    PAIRS_PER_CHUNK,
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
from transquad.translation import DEFAULT_BATCH_SIZE, DEFAULT_MAX_WORKERS

from conftest import CountingEmbedder
from reference_metrics import squad_exact_match, squad_f1, squad_normalize, squad_score

REFERENCE = "मराठी प्रश्न उत्तर शिकणे"
PRED_EXACT = "मराठी प्रश्न उत्तर शिकणे"
PRED_PARTIAL = "मराठी शिकणे"
PRED_SUBSTITUTED = "मराठी प्रश्न समाधान शिकणे"


# -- normalize --


def test_normalize_devanagari_sentence():
    assert normalize(REFERENCE) == ["मराठी", "प्रश्न", "उत्तर", "शिकणे"]


def test_normalize_folds_case_and_strips_punctuation():
    assert normalize("ABC, abc।") == ["abc", "abc"]


def test_normalize_whitespace_only():
    assert normalize("   ") == []


def test_normalize_drops_danda_and_double_danda():
    assert normalize("उत्तर। उत्तर॥") == ["उत्तर", "उत्तर"]


# -- exact match --


def test_em_identical_answer():
    assert exact_match(REFERENCE, PRED_EXACT) == 1


def test_em_partial_answer():
    assert exact_match(REFERENCE, PRED_PARTIAL) == 0


def test_em_equates_normalized_forms():
    assert exact_match("A.", "a") == 1


# -- token F1 --


def test_f1_identical_answer():
    assert token_f1(REFERENCE, PRED_EXACT) == 1.0


def test_f1_partial_answer():
    # overlap 2, precision 2/2, recall 2/4 -> 0.6667
    assert token_f1(REFERENCE, PRED_PARTIAL) == pytest.approx(0.6667, abs=0.005)


def test_f1_substituted_answer():
    # overlap 3, precision 3/4, recall 3/4 -> 0.75
    assert token_f1(REFERENCE, PRED_SUBSTITUTED) == pytest.approx(0.75, abs=0.005)


def test_f1_multiset_overlap():
    # gold {a:2, b:1}, pred {a:3}: overlap 2, P = 2/3, R = 2/3, F1 = 2/3.
    assert token_f1("a a b", "a a a") == pytest.approx(2 / 3)


def test_f1_empty_edges():
    assert token_f1("", "") == 1.0
    assert token_f1("something", "") == 0.0
    assert token_f1("", "something") == 0.0
    assert token_f1("abc", "xyz") == 0.0


def test_f1_symmetry_and_bounds():
    rng = random.Random(31)
    pool = ["मराठी", "प्रश्न", "उत्तर", "शिकणे", "abc", "xyz"]
    for _ in range(200):
        a = " ".join(rng.choices(pool, k=rng.randint(0, 5)))
        b = " ".join(rng.choices(pool, k=rng.randint(0, 5)))
        f_ab = token_f1(a, b)
        assert f_ab == token_f1(b, a)
        assert 0.0 <= f_ab <= 1.0
        if exact_match(a, b):
            assert f_ab == 1.0


# -- metric fidelity: each departure from SQuAD v1.1 --
# reference_metrics holds SQuAD v1.1's scoring as published; each test shows
# one input on which the two disagree, and why.


def test_departure_articles_are_kept():
    # No Devanagari counterpart: a Marathi answer has no article to drop.
    assert normalize("The cat") == ["the", "cat"]
    assert squad_normalize("The cat") == ["cat"]
    assert exact_match("the cat", "cat") == 0
    assert squad_score(squad_exact_match, ["the cat"], "cat") == 1


def test_departure_all_unicode_punctuation_is_deleted():
    # SQuAD v1.1 deletes ASCII punctuation only: the danda would stay in the token.
    for text, ours, theirs in [
        ("उत्तर।", ["उत्तर"], ["उत्तर।"]),
        ("उत्तर॥ दोन", ["उत्तर", "दोन"], ["उत्तर॥", "दोन"]),
        ("«quoted»", ["quoted"], ["«quoted»"]),
    ]:
        assert normalize(text) == ours
        assert squad_normalize(text) == theirs
    assert exact_match("उत्तर।", "उत्तर") == 1
    assert squad_score(squad_exact_match, ["उत्तर।"], "उत्तर") == 0


def test_departure_only_basic_latin_letters_are_case_folded():
    assert normalize("ÉCOLE") == ["École"]
    assert squad_normalize("ÉCOLE") == ["école"]
    assert exact_match("ÉCOLE", "école") == 0
    assert squad_score(squad_exact_match, ["ÉCOLE"], "école") == 1


def test_departure_gold_carries_exactly_one_answer():
    # SQuAD v1.1 scores a prediction against its best gold answer; here
    # collapse_answers picks one first, and evaluate_predictions refuses more.
    rec = QaRecord(
        qid="q1",
        question="?",
        context="red cat and blue cat",
        answers=(AnswerSpan("red cat", 0), AnswerSpan("blue cat", 12)),
        title="t",
    )
    assert squad_score(squad_exact_match, ["red cat", "blue cat"], "blue cat") == 1
    with pytest.raises(ValueError, match="'q1' has 2 answers"):
        evaluate_predictions(Corpus(split="test", records=(rec,)), {"q1": "blue cat"})
    # A tie goes to the earlier answer, so the prediction matches no gold left.
    collapsed = Corpus(split="test", records=(collapse_answers(rec),))
    assert evaluate_predictions(collapsed, {"q1": "blue cat"}).per_question["q1"].em == 0


def test_departure_ascii_symbols_are_kept():
    # $ + < = > ^ ` | ~ are symbols to Unicode, not punctuation; SQuAD v1.1 deletes them.
    assert normalize("$5 a|b") == ["$5", "a|b"]
    assert squad_normalize("$5 a|b") == ["5", "ab"]
    assert exact_match("$5", "5") == 0
    assert squad_score(squad_exact_match, ["$5"], "5") == 1


def test_departure_two_empty_answers_score_f1_one():
    # SQuAD v1.1 scores F1 0 when nothing overlaps, two empty answers included.
    assert token_f1("", "।") == 1.0
    assert squad_score(squad_f1, ["."], "") == 0.0
    assert exact_match("", "।") == 1 == squad_score(squad_exact_match, ["."], "")


# -- bert_score --


def one_hot(axes, dim):
    return np.eye(dim)[list(axes)]


def brute_force_bert(gold, pred):
    """Independent oracle: explicit cosine matrix with python loops."""
    def cos(u, v):
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(x * x for x in v))
        return sum(a * b for a, b in zip(u, v)) / (nu * nv)

    matrix = [[cos(g, p) for p in pred] for g in gold]
    recall = sum(max(row) for row in matrix) / len(gold)
    precision = sum(max(col) for col in zip(*matrix)) / len(pred)
    f = 0.0 if precision * recall <= 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


def test_bert_identical_lists():
    vecs = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert bert_score(vecs, vecs) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    # one-hot self-comparison is exact: unit norms, 0/1 dot products
    hot = one_hot([0, 2], 3)
    assert bert_score(hot, hot) == (1.0, 1.0, 1.0)


def test_bert_disjoint_one_hots():
    assert bert_score(one_hot([0, 1], 4), one_hot([2, 3], 4)) == (0.0, 0.0, 0.0)


def test_bert_partial_one_hot_overlap():
    # gold axes {1,2,3,4}, pred axes {1,4}: every pred vector matches a gold
    # vector (P=1.0), half the gold vectors match a pred vector (R=0.5).
    gold = one_hot([1, 2, 3, 4], 5)
    pred = one_hot([1, 4], 5)
    expected = brute_force_bert(gold.tolist(), pred.tolist())
    assert expected == (1.0, 0.5, pytest.approx(2 / 3))
    p, r, f = bert_score(gold, pred)
    assert (p, r) == (expected[0], expected[1])
    assert f == pytest.approx(expected[2], abs=1e-12)


def test_bert_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(5)
    for _ in range(25):
        gold = rng.normal(size=(rng.integers(1, 6), 4))
        pred = rng.normal(size=(rng.integers(1, 6), 4))
        expected = brute_force_bert(gold.tolist(), pred.tolist())
        got = bert_score(gold, pred)
        assert got == pytest.approx(expected, abs=1e-9)
        assert all(-1.0 - 1e-12 <= v <= 1.0 + 1e-12 for v in got)


def test_bert_nonnegative_vectors_stay_in_unit_interval():
    rng = np.random.default_rng(6)
    for _ in range(25):
        gold = rng.uniform(0.1, 1.0, size=(3, 4))
        pred = rng.uniform(0.1, 1.0, size=(2, 4))
        assert all(0.0 <= v <= 1.0 for v in bert_score(gold, pred))


def test_bert_input_validation():
    with pytest.raises(ValueError):
        bert_score([], [[1.0]])
    with pytest.raises(ValueError):
        bert_score([[1.0, 0.0]], [[1.0]])


def test_bert_f_is_zero_when_precision_and_recall_differ_in_sign():
    # Near-orthogonal vectors: recall is the best cosine, 1e-8; precision
    # averages it with a slightly larger negative one, so P is just below -R
    # and 2PR / (P + R) would be about 20.
    gold = [[1.0, 0.0]]
    pred = [[1e-8, 1.0], [-3.00000002e-8, 1.0]]
    p, r, f = bert_score(gold, pred)
    assert p < 0 < r and abs(p + r) < 1e-16
    assert 2 * p * r / (p + r) > 1.0
    assert f == 0.0


def test_bert_f_stays_in_unit_interval_on_near_orthogonal_vectors():
    rng = np.random.default_rng(8)
    for _ in range(200):
        gold = rng.normal(size=(rng.integers(1, 4), 6))
        pred = rng.normal(size=(rng.integers(1, 4), 6))
        # Push every pred row nearly orthogonal to every gold row.
        q, _ = np.linalg.qr(gold.T, mode="complete")
        pred = pred @ q[:, gold.shape[0]:] @ q[:, gold.shape[0]:].T + 1e-9 * pred
        p, r, f = bert_score(gold, pred)
        assert -1.0 <= f <= 1.0
        if p * r <= 0:
            assert f == 0.0


def test_one_hot_reduction_equals_token_f1():
    rng = random.Random(41)
    vocab = [f"tok{chr(ord('a') + i)}" for i in range(12)]
    for _ in range(50):
        gold_tokens = rng.sample(vocab, rng.randint(1, 8))
        pred_tokens = rng.sample(vocab, rng.randint(1, 8))
        axis = {tok: i for i, tok in enumerate(vocab)}
        gold = one_hot([axis[t] for t in gold_tokens], len(vocab))
        pred = one_hot([axis[t] for t in pred_tokens], len(vocab))
        _, _, f = bert_score(gold, pred)
        assert f == pytest.approx(token_f1(" ".join(gold_tokens), " ".join(pred_tokens)),
                                  abs=1e-9)


# -- embedding provider --


def test_table_provider_parallel_order():
    provider = TableEmbeddingProvider({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    out = provider.embed(["b", "a", "b"])
    assert out.shape == (3, 2)
    assert np.array_equal(out[0], [0.0, 1.0])
    assert np.array_equal(out[1], [1.0, 0.0])


def test_table_provider_rejects_zero_vectors_and_ragged_dims():
    with pytest.raises(ValueError):
        TableEmbeddingProvider({"a": [0.0, 0.0]})
    with pytest.raises(ValueError):
        TableEmbeddingProvider({"a": [1.0], "b": [1.0, 2.0]})


def test_table_provider_unknown_token():
    provider = TableEmbeddingProvider({"a": [1.0]})
    with pytest.raises(LookupError):
        provider.embed(["missing"])


def test_table_provider_from_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1.0 0.0\nb 0.0 1.0\n", encoding="utf-8")
    provider = TableEmbeddingProvider.from_file(path)
    assert np.array_equal(provider.embed(["a"])[0], [1.0, 0.0])


def float_bits(fields):
    return np.array([float(x) for x in fields], dtype=np.float64).tobytes()


def test_table_provider_from_file_gives_float_bits(tmp_path):
    rows = {
        "a": ["0.1", "-2.5e-3", "1E+05", "-0", "1e-310", "-1.7976931348623157e308", "2E-2",
              "4.9e-324"],
        "b": ["1.", ".5", "+3", "-0.0", "1e308", "1e-400", "2.2250738585072011e-308", "7"],
        # spellings float() takes beyond C's strtod: an underscore, Devanagari digits
        "c": ["1_000", "\u0967.\u096b", "1", "2", "3", "4", "5", "6"],
    }
    path = tmp_path / "emb.txt"
    path.write_text(
        "# comment line\n"
        "a\t" + "\t".join(rows["a"]) + "\n"
        "\n"
        "b " + "  ".join(rows["b"]) + " \n"
        "c\u00a0" + " \t".join(rows["c"]) + "\n",
        encoding="utf-8",
    )
    provider = TableEmbeddingProvider.from_file(path)
    assert sorted(provider.index) == ["a", "b", "c"]
    for token, fields in rows.items():
        assert provider.matrix[provider.index[token]].tobytes() == float_bits(fields), token


def test_table_provider_from_file_later_duplicate_wins(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2\nb 3 4\na 5 6\n", encoding="utf-8")
    provider = TableEmbeddingProvider.from_file(path)
    assert provider.embed(["a", "b"]).tolist() == [[5.0, 6.0], [3.0, 4.0]]


def test_table_provider_from_file_reads_rows_past_the_newline_count(tmp_path):
    # str.splitlines breaks lines at more than \n: here each break starts a row.
    path = tmp_path / "emb.txt"
    path.write_text("a 1\rb 2\x85c 3\u2028d 4\n", encoding="utf-8", newline="")
    provider = TableEmbeddingProvider.from_file(path)
    assert provider.embed(["a", "b", "c", "d"]).tolist() == [[1.0], [2.0], [3.0], [4.0]]


def sidecar_of(path: Path) -> Path:
    return Path(f"{path}.tqemb")


def assert_same_table(got: TableEmbeddingProvider, want: TableEmbeddingProvider) -> None:
    assert list(got.index) == list(want.index)
    for token, row in want.index.items():
        assert got.matrix[got.index[token]].tobytes() == want.matrix[row].tobytes(), token


def test_second_load_reads_the_sidecar_not_the_text(tmp_path, monkeypatch):
    path = tmp_path / "emb.txt"
    path.write_text("# c\nb 3 4\na 1 2\n\nc 0.1 -2e-3\na 5 6\n", encoding="utf-8")
    first = TableEmbeddingProvider.from_file(path)
    assert sidecar_of(path).is_file()

    def refuse(*args, **kwargs):
        raise AssertionError("the text was parsed again")

    monkeypatch.setattr(transquad.evaluation, "_load_table", refuse)
    second = TableEmbeddingProvider.from_file(path)
    assert_same_table(second, first)
    assert second.embed(["a"]).tolist() == [[5.0, 6.0]]  # the later duplicate still wins


def test_table_edited_in_place_is_read_afresh(tmp_path):
    # Same size, same mtime: only the content hash tells the tables apart.
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2\nb 3 4\n", encoding="utf-8")
    TableEmbeddingProvider.from_file(path)
    before = path.stat()
    path.write_text("a 1 2\nb 3 5\n", encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    assert TableEmbeddingProvider.from_file(path).embed(["b"]).tolist() == [[3.0, 5.0]]
    assert TableEmbeddingProvider.from_file(path).embed(["b"]).tolist() == [[3.0, 5.0]]


def _with_counts(good: bytes, rows: int, dim: int) -> bytes:
    at = len(transquad.evaluation._SIDECAR_MAGIC) + 32
    return good[:at] + struct.pack("<QQ", rows, dim) + good[at + 16:]


BAD_SIDECARS = {
    "empty": lambda good: b"",
    "truncated": lambda good: good[:-1],
    "header-only": lambda good: good[:60],
    "garbage": lambda good: bytes(range(256)) * 4,
    "older-version": lambda good: good.replace(b" 1\n", b" 0\n", 1),
    "trailing-bytes": lambda good: good + b"\0",
    "huge-counts": lambda good: _with_counts(good, 2**40, 2**20),
    "reshaped-counts": lambda good: _with_counts(good, 1, 4),  # the right length, one token short
    "not-utf8-tokens": lambda good: good.replace(b"a\nb", b"\xff\nb"),
    "zero-rows": lambda good: good[: -32] + bytes(32),  # rows __init__ refuses
}


@pytest.mark.parametrize("bad", BAD_SIDECARS, ids=str)
def test_broken_sidecar_is_ignored_and_rewritten(tmp_path, bad):
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2\nb 3 4\n", encoding="utf-8")
    want = TableEmbeddingProvider.from_file(path)
    good = sidecar_of(path).read_bytes()
    sidecar_of(path).write_bytes(BAD_SIDECARS[bad](good))
    assert_same_table(TableEmbeddingProvider.from_file(path), want)
    assert sidecar_of(path).read_bytes() == good


@pytest.mark.parametrize("call", ["os.replace", "tempfile.mkstemp"])
def test_sidecar_that_cannot_be_written_is_skipped(tmp_path, monkeypatch, call):
    module, name = call.split(".")

    def fail(*args, **kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(getattr(transquad._text, module), name, fail)
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2\nb 3 4\n", encoding="utf-8")
    for _ in range(2):
        assert TableEmbeddingProvider.from_file(path).embed(["b"]).tolist() == [[3.0, 4.0]]
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]  # no sidecar, no temp file


def load_in_a_thread(path: Path) -> tuple[list, threading.Thread]:
    """Start ``from_file(path)`` on a thread; it appends the provider to the list returned."""
    loaded: list = []
    loader = threading.Thread(
        target=lambda: loaded.append(TableEmbeddingProvider.from_file(path)), daemon=True
    )
    loader.start()
    return loaded, loader


def test_table_in_a_fifo_gets_no_sidecar(tmp_path):
    path = tmp_path / "emb.txt"
    os.mkfifo(path)
    loaded, loader = load_in_a_thread(path)
    path.write_bytes(b"a 1 2\nb 3 4\n")  # blocks until the loader opens the FIFO
    loader.join(timeout=10)
    assert not loader.is_alive()
    assert loaded[0].embed(["b"]).tolist() == [[3.0, 4.0]]
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]


def test_sidecar_path_that_is_a_fifo_is_left_alone(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2\nb 3 4\n", encoding="utf-8")
    os.mkfifo(sidecar_of(path))
    for _ in range(2):
        loaded, loader = load_in_a_thread(path)
        loader.join(timeout=10)
        assert not loader.is_alive()
        assert loaded[0].embed(["b"]).tolist() == [[3.0, 4.0]]
    assert stat.S_ISFIFO(sidecar_of(path).stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt", "emb.txt.tqemb"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("a 1 2\n\nb 3 x\n", "emb.txt:3: could not convert string to float: 'x'"),
        ("a 1 2\nb 3 4 #5\n", "emb.txt:2: could not convert string to float: '#5'"),
        # str.splitlines breaks lines at a form feed too, and counts them
        ("a 1 2\x0cb 3 x\n", "emb.txt:2: could not convert string to float: 'x'"),
        ("a 1 2\n# c\nb 3\n", "emb.txt:3: expected 2 numbers, found 1"),
        ("a 1 2\nb 3 4 5\n", "emb.txt:2: expected 2 numbers, found 3"),
        ("a 1 2\nb\n", "emb.txt:2: expected a token and at least one number"),
    ],
)
def test_table_provider_from_file_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        TableEmbeddingProvider.from_file(path)
    assert str(info.value) == f"{tmp_path}/{message}"


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("a 1 2\nb nan 1\n", 2),
        ("# c\na 1 2\n\nb 1 -inf\n", 4),
        ("a 1 2\nb 1 1e400\n", 2),  # overflows to inf
        ("a 1_0 2\nb 1 2\nc NaN 2\n", 3),  # after a spelling only float() takes
        ("a 1 2\na nan 2\n", 2),  # a duplicate token is refused too
    ],
)
def test_table_provider_from_file_refuses_non_finite_components(tmp_path, text, lineno):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        TableEmbeddingProvider.from_file(path)
    assert str(info.value) == f"{path}:{lineno}: non-finite vector component"


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_table_provider_refuses_non_finite_components_built_in_code(bad):
    with pytest.raises(ValueError, match="'b' has a non-finite component"):
        TableEmbeddingProvider({"a": [1.0, 2.0], "b": [1.0, bad]})


def test_report_json_refuses_nan():
    report = EvalReport(per_question={"q": QuestionScore(em=0, f1=0.0, bert_f=math.nan)})
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.to_json()


def test_table_provider_from_file_rejects_an_empty_table(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("# only a comment\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty table is an error, not a warning
        with pytest.raises(ValueError, match="must not be empty") as info:
            TableEmbeddingProvider.from_file(path)
    assert str(info.value).startswith(f"{path}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]


def test_table_provider_from_file_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"\xef\xbb\xbfalpha 1 0\nbeta 0 1\n")
    assert list(TableEmbeddingProvider.from_file(path).index) == ["alpha", "beta"]


# -- evaluate_predictions --


def gold_corpus(pairs, split="test"):
    records = tuple(
        QaRecord(
            qid=qid,
            question=f"q about {qid}",
            context=answer + " इथे आहे",
            answers=(AnswerSpan(answer, 0),),
            title="t",
        )
        for qid, answer in pairs
    )
    return Corpus(split=split, records=records)


def test_evaluate_mixed_predictions():
    gold = gold_corpus([("q1", "उत्तर एक"), ("q2", "उत्तर दोन")])
    report = evaluate_predictions(gold, {"q1": "उत्तर एक", "q2": ""})
    assert report.mean_em == 0.5
    assert report.per_question["q2"].f1 == 0.0
    assert report.skipped == []


def test_evaluate_empty_prediction_map():
    gold = gold_corpus([("q1", "उत्तर"), ("q2", "उत्तर")])
    report = evaluate_predictions(gold, {})
    assert report.skipped == ["q1", "q2"]
    assert report.mean_em is None and report.mean_f1 is None and report.mean_bert_f is None


def test_evaluate_aggregates_are_plain_means():
    pairs = [(f"q{i}", answer) for i, answer in enumerate(
        ["उत्तर एक", "उत्तर दोन", "उत्तर तीन", "उत्तर चार", "उत्तर पाच"]
    )]
    gold = gold_corpus(pairs)
    predictions = {
        "q0": "उत्तर एक",
        "q1": "उत्तर",
        "q2": "भलतेच काही",
        "q3": "उत्तर चार",
        "q4": "पाच",
    }
    report = evaluate_predictions(gold, predictions)
    ems = [report.per_question[f"q{i}"].em for i in range(5)]
    f1s = [report.per_question[f"q{i}"].f1 for i in range(5)]
    assert report.mean_em == pytest.approx(sum(ems) / 5)
    assert report.mean_f1 == pytest.approx(sum(f1s) / 5)


def test_evaluate_skipped_excluded_from_aggregates():
    gold = gold_corpus([("q1", "उत्तर"), ("q2", "उत्तर")])
    report = evaluate_predictions(gold, {"q1": "उत्तर"})
    assert report.mean_em == 1.0
    assert report.skipped == ["q2"]


def test_evaluate_with_embedder_adds_bert_f():
    gold = gold_corpus([("q1", "a b")])
    provider = TableEmbeddingProvider({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
    report = evaluate_predictions(gold, {"q1": "a c"}, provider)
    score = report.per_question["q1"]
    assert score.bert_f is not None and 0.0 < score.bert_f < 1.0
    no_embed = evaluate_predictions(gold, {"q1": "a c"})
    assert no_embed.per_question["q1"].bert_f is None


@pytest.mark.parametrize(
    "gold, pred, calls",
    [
        ("a b", "a b", [["a", "b"]]),  # exact copy
        ("a b", '"A, B."', [["a", "b"]]),  # case and punctuation variant
        ("a b", "b a", [["a", "b"], ["b", "a"]]),  # same tokens, other order
        ("a b", "a c", [["a", "b"], ["a", "c"]]),
        ("a b", "", []),
        ("a b", "।", []),  # normalizes to no tokens
        ("॥", "a", []),
        ("॥", "।", []),
    ],
)
def test_evaluate_embeds_each_distinct_answer_once(gold, pred, calls):
    table = TableEmbeddingProvider({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
    embedder = CountingEmbedder(table)
    report = evaluate_predictions(gold_corpus([("q1", gold)]), {"q1": pred}, embedder)
    assert embedder.calls == calls
    # One array on both sides scores what two separate calls score.
    g, p = normalize(gold), normalize(pred)
    if g and p:
        expected = bert_score(table.embed(g), table.embed(p))[2]
    else:
        expected = float(g == p)
    assert report.per_question["q1"].bert_f == expected


def test_evaluate_uses_no_memo_across_pairs():
    embedder = CountingEmbedder(TableEmbeddingProvider({"a": [1.0, 0.0], "b": [0.0, 1.0]}))
    gold = gold_corpus([("q1", "a b"), ("q2", "a b")])
    evaluate_predictions(gold, {"q1": "a b", "q2": "a"}, embedder)
    assert embedder.calls == [["a", "b"], ["a", "b"], ["a"]]


def test_evaluate_normalizes_each_side_once(monkeypatch):
    import transquad.evaluation as evaluation

    seen = []
    original = evaluation.normalize
    monkeypatch.setattr(evaluation, "normalize", lambda text: seen.append(text) or original(text))
    gold = gold_corpus([("q1", "a b"), ("q2", "c")])
    table = TableEmbeddingProvider({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
    evaluate_predictions(gold, {"q1": "A b.", "q2": "a"}, table)
    assert seen == ["a b", "A b.", "c", "a"]


def test_evaluate_requires_collapsed_gold():
    # The two-answer record comes after three chunks of good pairs, and is
    # refused before any of them is embedded.
    pairs, predictions = many_pairs(3 * DEFAULT_BATCH_SIZE)
    rec = QaRecord(
        qid="q-two",
        question="?",
        context="a b",
        answers=(AnswerSpan("a", 0), AnswerSpan("b", 2)),
        title="t",
    )
    gold = Corpus(split="test", records=gold_corpus(pairs).records + (rec,))
    embedder = CountingEmbedder(TableEmbeddingProvider(TABLE))
    with pytest.raises(ValueError, match="'q-two' has 2 answers"):
        evaluate_predictions(gold, {**predictions, "q-two": "a"}, embedder)
    assert embedder.calls == []


def test_evaluate_refuses_a_prediction_that_is_not_a_string():
    # Normalized on a pool thread, it would otherwise fail as the provider's error.
    pairs, predictions = many_pairs(3 * DEFAULT_BATCH_SIZE)
    predictions[pairs[-1][0]] = 3
    embedder = CountingEmbedder(TableEmbeddingProvider(TABLE))
    embedder.max_workers = 4
    with pytest.raises(ValueError, match=f"prediction for '{pairs[-1][0]}' must be a string, got 3"):
        evaluate_predictions(gold_corpus(pairs), predictions, embedder)
    assert embedder.calls == []


# -- evaluate_predictions through the model gateway --

TABLE = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "c": [0.0, 0.0, 1.0], "d": [1.0, 1.0, 0.0]}


def many_pairs(n, seed=3):
    """n (qid, gold) pairs over the TABLE tokens, and a prediction per qid.

    Each gold is the five base-4 digits of its index, so no two are alike.
    Predictions are copies, case and punctuation variants, two-token
    answers and empty strings, so every edge of the per-pair scoring occurs.
    """
    assert n <= 4**5
    rng = random.Random(seed)
    pairs, predictions = [], {}
    for i in range(n):
        gold = " ".join("abcd"[i // 4**k % 4] for k in range(5))
        pred = rng.choice(
            [gold, gold.upper() + ".", " ".join(rng.choices("abcd", k=2)), "", "।"]
        )
        pairs.append((f"q{i}", gold))
        predictions[f"q{i}"] = pred
    return pairs, predictions


def expected_calls(pairs, predictions):
    """One call per distinct normalized answer of each pair with two non-empty sides."""
    calls = []
    for qid, gold in pairs:
        g, p = normalize(gold), normalize(predictions[qid])
        if g and p:
            calls += [g] if g == p else [g, p]
    return calls


class InFlightTable(TableEmbeddingProvider):
    """A table provider that waits like a model, records each call and the most calls at once."""

    def __init__(self, table):
        super().__init__(table)
        self.calls: list[list[str]] = []
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def embed(self, tokens):
        with self._lock:
            self.calls.append(list(tokens))
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.0005)
            return super().embed(tokens)
        finally:
            with self._lock:
                self.in_flight -= 1


def test_provider_workers_default_to_the_gateway_and_table_provider_to_one():
    assert EmbeddingProvider.max_workers == DEFAULT_MAX_WORKERS == 4
    assert TableEmbeddingProvider.max_workers == 1


@pytest.mark.parametrize("max_workers, overlaps", [(None, False), (4, True)])
def test_embed_calls_overlap_only_when_the_provider_allows(max_workers, overlaps):
    pairs, predictions = many_pairs(3 * DEFAULT_BATCH_SIZE)
    embedder = InFlightTable(TABLE)
    if max_workers is not None:
        embedder.max_workers = max_workers
    report = evaluate_predictions(gold_corpus(pairs), predictions, embedder)
    assert (embedder.peak > 1) is overlaps
    # Each call carries one answer's tokens, and none is memoized across pairs.
    want = expected_calls(pairs, predictions)
    assert sorted(embedder.calls) == sorted(want)
    if not overlaps:
        assert embedder.calls == want
    assert list(report.per_question) == [qid for qid, _ in pairs]


def test_normalization_overlaps_the_model(monkeypatch):
    """Each chunk is normalized on its pool thread, so the first model call waits on few."""
    normalized = []
    original = transquad.evaluation.normalize
    monkeypatch.setattr(
        transquad.evaluation, "normalize", lambda text: normalized.append(text) or original(text)
    )

    class FirstCallTable(InFlightTable):
        def embed(self, tokens):
            with self._lock:
                if not self.calls:
                    self.normalized_before_first_call = len(normalized)
            return super().embed(tokens)

    pairs, predictions = many_pairs(3 * DEFAULT_BATCH_SIZE)
    embedder = FirstCallTable(TABLE)
    embedder.max_workers = 4
    evaluate_predictions(gold_corpus(pairs), predictions, embedder)
    # Two sides of each pair of the chunks in flight, at most two per worker.
    bound = 2 * PAIRS_PER_CHUNK * 2 * embedder.max_workers
    assert bound == 128
    assert embedder.normalized_before_first_call <= bound
    assert len(normalized) == 2 * len(pairs)


def test_kernels_run_on_the_calling_thread_while_embed_calls_overlap(monkeypatch):
    kernel_threads = []
    kernel = transquad.evaluation.greedy_match

    def recording_kernel(gold, pred):
        kernel_threads.append(threading.get_ident())
        return kernel(gold, pred)

    monkeypatch.setattr(transquad.evaluation, "greedy_match", recording_kernel)
    pairs, predictions = many_pairs(3 * DEFAULT_BATCH_SIZE)
    embedder = InFlightTable(TABLE)
    embedder.max_workers = 4
    evaluate_predictions(gold_corpus(pairs), predictions, embedder)
    assert embedder.peak > 1
    assert set(kernel_threads) == {threading.get_ident()}
    scorable = [qid for qid, gold in pairs if normalize(gold) and normalize(predictions[qid])]
    assert len(kernel_threads) == len(scorable)


class FailingEmbedder(EmbeddingProvider):
    def __init__(self, exc):
        self.exc = exc

    def embed(self, tokens):
        raise self.exc


class RecordingFailingEmbedder(FailingEmbedder):
    """Records the tokens of every call before it fails; thread-safe."""

    def __init__(self, exc):
        super().__init__(exc)
        self.calls: list[list[str]] = []
        self._lock = threading.Lock()

    def embed(self, tokens):
        with self._lock:
            self.calls.append(list(tokens))
        return super().embed(tokens)


class JunkEmbedder(EmbeddingProvider):
    """Returns one object per token that is no vector at all."""

    def embed(self, tokens):
        return [{} for _ in tokens]


class ShapelessEmbedder(EmbeddingProvider):
    """Returns one flat array for the whole answer, which bert_score cannot score."""

    def embed(self, tokens):
        return np.ones(len(tokens))


@pytest.mark.parametrize("max_workers", [1, 4])
@pytest.mark.parametrize(
    "embedder, message",
    [
        (FailingEmbedder(RuntimeError("model crashed")), "model crashed"),
        (FailingEmbedder(NotImplementedError()), ""),
        # Fetched whole, refused by bert_score as the chunk is scored.
        (ShapelessEmbedder(), "vector lists must be rectangular (one fixed dimension per vector)"),
        (JunkEmbedder(), "float() argument must be a string or a real number, not 'dict'"),
    ],
)
def test_provider_failure_becomes_embedding_error(embedder, message, max_workers):
    embedder.max_workers = max_workers
    pairs, predictions = many_pairs(2 * DEFAULT_BATCH_SIZE)
    with pytest.raises(EmbeddingError) as err:
        evaluate_predictions(gold_corpus(pairs), predictions, embedder)
    assert type(err.value) is EmbeddingError
    assert str(err.value) == f"embedding provider failed on a chunk of {PAIRS_PER_CHUNK}: {message}"


def test_missing_embedding_is_an_embedding_error_and_a_lookup_error():
    assert issubclass(MissingEmbeddingError, EmbeddingError)
    assert issubclass(MissingEmbeddingError, LookupError)
    pairs, predictions = many_pairs(2 * DEFAULT_BATCH_SIZE)
    predictions["q200"] = "a zzz"
    embedder = TableEmbeddingProvider(TABLE)
    embedder.max_workers = 4
    with pytest.raises(MissingEmbeddingError) as err:
        evaluate_predictions(gold_corpus(pairs), predictions, embedder)
    # Passed through as raised, not wrapped by the gateway.
    assert type(err.value) is MissingEmbeddingError
    assert str(err.value) == "no embedding for token 'zzz'"


class FlakyTable(TableEmbeddingProvider):
    """Fails once, transiently, on the first call for each token list in ``flaky``."""

    def __init__(self, table, flaky):
        super().__init__(table)
        self.flaky = {tuple(tokens) for tokens in flaky}
        self.max_workers = 4
        self._lock = threading.Lock()

    def embed(self, tokens):
        with self._lock:
            failing = tuple(tokens) in self.flaky
            self.flaky.discard(tuple(tokens))
        if failing:
            raise TransientEngineError(f"model busy on {' '.join(tokens)}")
        return super().embed(tokens)


def sleep_through_backoff(monkeypatch, slept: list[float]) -> None:
    """Have the evaluator's gateway record each backoff in ``slept`` instead of waiting."""
    gateway = functools.partial(transquad.translation.call_model, sleep=slept.append)
    monkeypatch.setattr(transquad.evaluation, "call_model", gateway)


def test_transient_failure_once_per_chunk_gives_the_same_report(monkeypatch):
    slept = []
    sleep_through_backoff(monkeypatch, slept)
    pairs, predictions = many_pairs(3 * DEFAULT_BATCH_SIZE)
    # The first pair of each chunk has a gold answer of its own, which is
    # embedded because the prediction is not empty.
    firsts = [normalize(gold) for _, gold in pairs[::PAIRS_PER_CHUNK]]
    for qid, _ in pairs[::PAIRS_PER_CHUNK]:
        predictions[qid] = "a"
    gold = gold_corpus(pairs)
    flaky = evaluate_predictions(gold, predictions, FlakyTable(TABLE, firsts))
    clean = evaluate_predictions(gold, predictions, TableEmbeddingProvider(TABLE))
    assert flaky.to_json() == clean.to_json()
    assert slept == [1.0] * len(firsts)


def test_transient_failures_past_the_retry_budget_end_in_engine_unavailable(monkeypatch):
    slept = []
    sleep_through_backoff(monkeypatch, slept)
    pairs, _ = many_pairs(2 * DEFAULT_BATCH_SIZE)
    predictions = {qid: "a" for qid, _ in pairs}  # every pair embeds, so every chunk calls
    embedder = RecordingFailingEmbedder(TransientEngineError("model busy"))
    with pytest.raises(EngineUnavailableError, match="embedding provider still failing after 3"):
        evaluate_predictions(gold_corpus(pairs), predictions, embedder)
    # Each attempt fails on the chunk's first pair. The first chunk is tried
    # three times, with the gateway's backoff between. A later chunk is tried
    # at most as often: it stops once an earlier chunk has failed, and one
    # that had not started by then never reaches the provider.
    chunk_of = {tuple(normalize(gold)): i // PAIRS_PER_CHUNK for i, (_, gold) in enumerate(pairs)}
    attempts = Counter(chunk_of[tuple(tokens)] for tokens in embedder.calls)
    assert 1 <= len(attempts) <= embedder.max_workers
    assert attempts[0] == max(attempts.values()) == 3
    assert sorted(slept) == sorted(d for n in attempts.values() for d in [1.0, 2.0][:n])


@pytest.mark.parametrize("predict", [dict, lambda p: {qid: "a" for qid in p}])
def test_report_is_byte_identical_at_one_and_four_workers(predict):
    pairs, predictions = many_pairs(3 * DEFAULT_BATCH_SIZE)
    gold = gold_corpus(pairs)
    reports = []
    for max_workers in (1, 4):
        embedder = InFlightTable(TABLE)
        embedder.max_workers = max_workers
        reports.append(evaluate_predictions(gold, predict(predictions), embedder).to_json())
    assert reports[0] == reports[1]


def test_report_serialization_shape():
    gold = gold_corpus([("q1", "उत्तर")])
    report = evaluate_predictions(gold, {"q1": "उत्तर"})
    payload = report.to_dict()
    assert payload["aggregate"]["scored"] == 1
    assert payload["aggregate"]["exact_match"] == 1.0
    assert payload["per_question"]["q1"]["em"] == 1
    assert payload["skipped"] == []

"""Residue scan, digit localization, transliteration routing."""

from __future__ import annotations

import functools
import random
import threading

import pytest

from transquad import pipeline, translation
from transquad.alignment import AlignmentCandidate
from transquad.errors import EngineUnavailableError, TransientEngineError, TransliterationError
from transquad.pipeline import postprocess_candidates
from transquad.script_tools import (
    IdentityTransliterator,
    TableTransliterator,
    Transliterator,
    build_transliterator,
    localize_digits,
    scan_residuals,
    transliterate_residuals,
)

import reference_scripts as reference
from conftest import CountingTransliterator, alpha_suffix

# Pieces of a real translated sentence: Latin residue, Devanagari words,
# ASCII digits inside Devanagari parentheses.
MIXED_LINE = "Beyonce Giselle Knowles-Carter (जन्म 4 सप्टेंबर 1981)"

TRANSLIT_TABLE = {
    "Beyonce": "बियॉन्से",
    "Giselle": "गिसेले",
    "Knowles-Carter": "नॉवल्स-कार्टर",
}


class UppercaseTransliterator(Transliterator):
    def transliterate(self, tokens):
        return [t.upper() for t in tokens]


# -- scan_residuals --


def test_classify_latin_and_devanagari():
    assert scan_residuals("Beyonce जन्म") == ([(0, 7)], [])


def test_classify_neutral_tokens():
    assert scan_residuals("1234 ,.") == ([], [])


def test_classify_mixed_scripts():
    assert scan_residuals("abcक") == ([], ["abcक"])


def test_classify_latin_token_with_digits_is_mixed():
    assert scan_residuals("abc123") == ([], ["abc123"])


def test_classify_devanagari_digits_count_as_devanagari():
    assert scan_residuals("१९८१") == ([], [])


def test_classify_ignores_attached_punctuation():
    assert scan_residuals("(जन्म") == ([], [])
    assert scan_residuals("Knowles-Carter,") == ([(0, 15)], [])


def test_tokens_reconstruct_non_whitespace_content():
    rng = random.Random(4)
    alphabet = "ab क१ .,! \t\n 9"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        latin, mixed = scan_residuals(text)
        tokens = dict(reference.iter_raw_tokens(text))  # start -> token
        assert all(tokens.get(start) == text[start:end] for start, end in latin)
        assert all(token in tokens.values() for token in mixed)


# -- localize_digits --


def test_localize_digits_known_sentence():
    assert localize_digits("जन्म 4 सप्टेंबर 1981") == "जन्म ४ सप्टेंबर १९८१"


def test_localize_digits_empty_and_digitless():
    assert localize_digits("") == ""
    assert localize_digits("abc") == "abc"


def test_localize_digits_properties():
    rng = random.Random(9)
    alphabet = "0123456789०१२३४५६७८९ abcकखग.,"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        out = localize_digits(text)
        assert len(out) == len(text)
        assert localize_digits(out) == out  # idempotent
        for before, after in zip(text, out):
            if "0" <= before <= "9":
                assert ord(after) == 0x0966 + (ord(before) - ord("0"))
            else:
                assert after == before


# -- transliteration: scan_residuals, transliterate_residuals, postprocess_candidates --


def transliterate(text: str, translit: Transliterator) -> str:
    """``text`` with its Latin tokens sent through ``translit``, digits left as they are."""
    latin, _ = scan_residuals(text)
    tokens = [text[start:end] for start, end in latin]
    return transliterate_residuals(text, latin, dict(zip(tokens, translit.transliterate(tokens))))


def postprocess(*texts: str, translit: Transliterator, parallelism: int = 1) -> list[str]:
    """Each text as the context of one candidate through ``postprocess_candidates``."""
    candidates = [
        AlignmentCandidate(
            qid=f"q{i}",
            translated_context=text,
            translated_question="प्रश्न",
            translated_answer="उत्तर",
            original_relative_position=0.0,
        )
        for i, text in enumerate(texts)
    ]
    fixed = postprocess_candidates(candidates, translit, parallelism=parallelism)
    return [cand.translated_context for cand in fixed]


def test_transliterates_only_latin_tokens():
    translit = TableTransliterator({"Beyonce": "बियॉन्से"})
    assert transliterate("Beyonce जन्म", translit) == "बियॉन्से जन्म"
    assert postprocess("Beyonce जन्म", translit=translit) == ["बियॉन्से जन्म"]


def test_identity_transliterator_is_identity():
    rng = random.Random(2)
    alphabet = "abc कखग 12 ,."
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))) for _ in range(100)]
    for text in texts:
        assert transliterate(text, IdentityTransliterator()) == text
    assert postprocess(*texts, translit=IdentityTransliterator()) == [
        localize_digits(text) for text in texts
    ]


def test_counting_transliterator_sees_exactly_latin_tokens():
    counting = CountingTransliterator(IdentityTransliterator())
    postprocess("abc कखग def", "def abc", translit=counting)
    assert counting.tokens_seen == ["abc", "def"]  # each distinct token once
    assert counting.calls == 1


def test_no_latin_tokens_means_no_invocation():
    counting = CountingTransliterator(IdentityTransliterator())
    assert postprocess("कखग १९८१ ,.", translit=counting) == ["कखग १९८१ ,."]
    assert counting.calls == 0


def test_whitespace_preserved_exactly():
    translit = TableTransliterator({"aa": "क"})
    assert transliterate("aa\t aa\n कखग  aa", translit) == "क\t क\n कखग  क"
    assert postprocess("aa\t aa\u2028 कखग  aa\n", translit=translit) == ["क\t क\u2028 कखग  क\n"]


def test_mixed_tokens_left_untouched_and_logged(caplog):
    counting = CountingTransliterator(IdentityTransliterator())
    assert scan_residuals("abc123 जन्म ok") == ([(12, 14)], ["abc123"])
    with caplog.at_level("WARNING", logger="transquad.script_tools"):
        out = postprocess("abc123 जन्म ok", translit=counting)
    assert out == ["abc१२३ जन्म ok"]  # digits are localized, the letters left alone
    assert counting.tokens_seen == ["ok"]
    (record,) = caplog.records
    assert "left 1 mixed-script token(s)" in record.getMessage()
    assert "abc123" in record.getMessage()


def test_figure_line_routing_and_digits():
    counting = CountingTransliterator(TableTransliterator(TRANSLIT_TABLE))
    assert postprocess(MIXED_LINE, translit=counting) == [
        "बियॉन्से गिसेले नॉवल्स-कार्टर (जन्म ४ सप्टेंबर १९८१)"
    ]
    assert counting.tokens_seen == ["Beyonce", "Giselle", "Knowles-Carter"]


def test_transliterator_errors_carry_token_context():
    class ExplodingTransliterator(Transliterator):
        def transliterate(self, tokens):
            raise RuntimeError("model crashed")

    with pytest.raises(TransliterationError, match="model crashed") as err:
        postprocess("abc कखग", translit=ExplodingTransliterator())
    assert err.value.tokens == ("abc",)


def test_parallel_list_violation_is_an_error():
    class ShortTransliterator(Transliterator):
        def transliterate(self, tokens):
            return []

    message = "transliterator returned 0 replies for 2 inputs"
    with pytest.raises(TransliterationError, match=message) as err:
        postprocess("abc def", translit=ShortTransliterator())
    assert err.value.tokens == ("abc", "def")


def tokens_for(n: int) -> list[str]:
    """``n`` distinct Latin tokens."""
    return [f"w{alpha_suffix(i)}" for i in range(n)]


def test_more_latin_tokens_than_one_chunk_holds():
    # 300 distinct tokens: three chunks of at most DEFAULT_BATCH_SIZE (128).
    words = tokens_for(300)
    texts = [" ".join(words[i : i + 7]) + " जन्म 12" for i in range(0, 300, 7)]
    expected = [localize_digits(reference.transliterate_residuals(t, str.upper)) for t in texts]
    for parallelism in (1, 3):
        counting = CountingTransliterator(UppercaseTransliterator())
        assert postprocess(*texts, translit=counting, parallelism=parallelism) == expected
        assert counting.calls == 3
        assert sorted(counting.tokens_seen) == sorted(words)


def test_transient_failure_once_per_chunk_is_retried(monkeypatch):
    sleeps: list[float] = []
    gateway = functools.partial(translation.call_model, sleep=sleeps.append)
    monkeypatch.setattr(pipeline, "call_model", gateway)

    class FlakyTransliterator(UppercaseTransliterator):
        def __init__(self):
            self.failed: set[str] = set()
            self.lock = threading.Lock()

        def transliterate(self, tokens):
            with self.lock:
                first_try = tokens[0] not in self.failed
                self.failed.add(tokens[0])
            if first_try:
                raise TransientEngineError("busy")
            return super().transliterate(tokens)

    words = tokens_for(300)
    texts = [" ".join(words[i : i + 10]) for i in range(0, 300, 10)]
    expected = postprocess(*texts, translit=UppercaseTransliterator())
    for parallelism in (1, 3):
        flaky = FlakyTransliterator()
        assert postprocess(*texts, translit=flaky, parallelism=parallelism) == expected
        assert len(flaky.failed) == 3
    assert sleeps == [translation.DEFAULT_BACKOFF_BASE] * 6


def test_transient_failures_past_the_retry_budget_make_the_model_unavailable(monkeypatch):
    gateway = functools.partial(translation.call_model, sleep=lambda seconds: None)
    monkeypatch.setattr(pipeline, "call_model", gateway)

    class DownTransliterator(Transliterator):
        def transliterate(self, tokens):
            raise TransientEngineError("down")

    with pytest.raises(EngineUnavailableError, match="transliterator still failing"):
        postprocess("abc", translit=DownTransliterator())


def test_table_transliterator_from_file_and_registry(tmp_path):
    table = tmp_path / "translit.tsv"
    table.write_text("Beyonce\tबियॉन्से\n", encoding="utf-8")
    assert TableTransliterator.from_file(table).transliterate(["Beyonce", "x"]) == [
        "बियॉन्से",
        "x",
    ]
    assert isinstance(build_transliterator("identity"), IdentityTransliterator)
    assert isinstance(build_transliterator(f"table:{table}"), TableTransliterator)

"""Script classification, digit localization, transliteration routing."""

from __future__ import annotations

import random

import pytest

from transquad.errors import TransliterationError
from transquad.script_tools import (
    IdentityTransliterator,
    Script,
    TableTransliterator,
    Transliterator,
    build_transliterator,
    classify_token,
    classify_tokens,
    localize_digits,
    transliterate_residuals,
)

from conftest import CountingTransliterator

# Pieces of a real translated sentence: Latin residue, Devanagari words,
# ASCII digits inside Devanagari parentheses.
MIXED_LINE = "Beyonce Giselle Knowles-Carter (जन्म 4 सप्टेंबर 1981)"

TRANSLIT_TABLE = {
    "Beyonce": "बियॉन्से",
    "Giselle": "गिसेले",
    "Knowles-Carter": "नॉवल्स-कार्टर",
}


# -- classify_tokens --


def test_classify_latin_and_devanagari():
    tokens = classify_tokens("Beyonce जन्म")
    assert [(t.token, t.script) for t in tokens] == [
        ("Beyonce", Script.LATIN),
        ("जन्म", Script.DEVANAGARI),
    ]
    assert [t.start for t in tokens] == [0, 8]


def test_classify_neutral_tokens():
    tokens = classify_tokens("1234 ,.")
    assert [(t.token, t.script) for t in tokens] == [
        ("1234", Script.NEUTRAL),
        (",.", Script.NEUTRAL),
    ]


def test_classify_mixed_scripts():
    assert classify_token("abcक") is Script.MIXED


def test_classify_latin_token_with_digits_is_mixed():
    assert classify_token("abc123") is Script.MIXED


def test_classify_devanagari_digits_count_as_devanagari():
    assert classify_token("१९८१") is Script.DEVANAGARI


def test_classify_ignores_attached_punctuation():
    assert classify_token("(जन्म") is Script.DEVANAGARI
    assert classify_token("Knowles-Carter,") is Script.LATIN


def test_tokens_reconstruct_non_whitespace_content():
    rng = random.Random(4)
    alphabet = "ab क१ .,! \t\n 9"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        tokens = classify_tokens(text)
        assert "".join(t.token for t in tokens) == "".join(c for c in text if not c.isspace())
        for t in tokens:
            assert text[t.start : t.start + len(t.token)] == t.token
            assert isinstance(t.script, Script)


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


# -- transliterate_residuals --


def test_transliterates_only_latin_tokens():
    translit = TableTransliterator({"Beyonce": "बियॉन्से"})
    assert transliterate_residuals("Beyonce जन्म", translit) == "बियॉन्से जन्म"


def test_identity_transliterator_is_identity():
    rng = random.Random(2)
    alphabet = "abc कखग 12 ,."
    for _ in range(100):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        assert transliterate_residuals(text, IdentityTransliterator()) == text


def test_counting_transliterator_sees_exactly_latin_tokens():
    counting = CountingTransliterator(IdentityTransliterator())
    transliterate_residuals("abc कखग def", counting)
    assert counting.tokens_seen == ["abc", "def"]
    assert counting.calls == 1


def test_no_latin_tokens_means_no_invocation():
    counting = CountingTransliterator(IdentityTransliterator())
    out = transliterate_residuals("कखग १९८१ ,.", counting)
    assert out == "कखग १९८१ ,."
    assert counting.calls == 0


def test_whitespace_preserved_exactly():
    translit = TableTransliterator({"aa": "क"})
    assert transliterate_residuals("aa\t aa\n कखग  aa", translit) == "क\t क\n कखग  क"


def test_mixed_tokens_left_untouched_and_logged(caplog):
    counting = CountingTransliterator(IdentityTransliterator())
    with caplog.at_level("WARNING", logger="transquad.script_tools"):
        out = transliterate_residuals("abc123 जन्म ok", counting)
    assert out == "abc123 जन्म ok"
    assert counting.tokens_seen == ["ok"]
    assert "abc123" in caplog.text


def test_figure_line_routing_and_digits():
    counting = CountingTransliterator(TableTransliterator(TRANSLIT_TABLE))
    transliterated = transliterate_residuals(MIXED_LINE, counting)
    assert counting.tokens_seen == ["Beyonce", "Giselle", "Knowles-Carter"]
    assert localize_digits(transliterated) == (
        "बियॉन्से गिसेले नॉवल्स-कार्टर (जन्म ४ सप्टेंबर १९८१)"
    )


def test_transliterator_errors_carry_token_context():
    class ExplodingTransliterator(Transliterator):
        def transliterate(self, tokens):
            raise RuntimeError("model crashed")

    with pytest.raises(TransliterationError) as err:
        transliterate_residuals("abc कखग", ExplodingTransliterator())
    assert err.value.tokens == ("abc",)


def test_parallel_list_violation_is_an_error():
    class ShortTransliterator(Transliterator):
        def transliterate(self, tokens):
            return []

    with pytest.raises(TransliterationError):
        transliterate_residuals("abc def", ShortTransliterator())


def test_table_transliterator_from_file_and_registry(tmp_path):
    table = tmp_path / "translit.tsv"
    table.write_text("Beyonce\tबियॉन्से\n", encoding="utf-8")
    assert TableTransliterator.from_file(table).transliterate(["Beyonce", "x"]) == [
        "बियॉन्से",
        "x",
    ]
    assert isinstance(build_transliterator("identity"), IdentityTransliterator)
    assert isinstance(build_transliterator(f"table:{table}"), TableTransliterator)

"""Property tests: the C-level script scans against their per-character references.

Random text mixes arbitrary code points with the ones the scans must get
right: every kind of Unicode whitespace, Basic-Latin and other letters,
Devanagari letters, marks and digits, other decimal digits, and characters
outside the Basic Multilingual Plane.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from transquad.alignment import AlignmentCandidate
from transquad.filtering import non_latin_letter_ratio
from transquad.pipeline import postprocess_candidates
from transquad.script_tools import (
    Script,
    Transliterator,
    classify_token,
    classify_tokens,
    localize_digits,
    transliterate_residuals,
)

import reference_scripts as reference

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
@given(TEXT)
def test_classify_tokens_matches_reference(text):
    assert [(t.start, t.token, t.script) for t in classify_tokens(text)] == [
        (start, token, reference.classify_token(token))
        for start, token in reference.iter_raw_tokens(text)
    ]


@PROPERTY
@given(TEXT)
def test_classify_token_matches_reference(text):
    # The whole text as one token: embedded whitespace counts as no evidence.
    assert classify_token(text) is reference.classify_token(text)


@PROPERTY
@given(st.one_of(TEXT, ASCII_TEXT))
def test_non_latin_letter_ratio_matches_reference(text):
    assert non_latin_letter_ratio(text) == reference.non_latin_letter_ratio(text)


def assert_routed_like_reference(text: str) -> None:
    mixed: list[str] = []
    out = transliterate_residuals(text, StubTransliterator(), mixed)
    assert out == reference.transliterate_residuals(text, stub)
    assert mixed == [
        token
        for _, token in reference.iter_raw_tokens(text)
        if reference.classify_token(token) is Script.MIXED
    ]
    # The stub keeps lengths, so every whitespace character and every
    # character of a non-Latin token must sit unchanged at its offset.
    latin = {
        i
        for start, token in reference.iter_raw_tokens(text)
        if reference.classify_token(token) is Script.LATIN
        for i in range(start, start + len(token))
    }
    assert len(out) == len(text)
    assert all(out[i] == ch for i, ch in enumerate(text) if i not in latin)


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
    translit = StubTransliterator()

    def fix(text: str) -> str:
        return localize_digits(transliterate_residuals(text, translit, []))

    got = postprocess_candidates(candidates, translit)
    assert [
        (c.qid, c.title, c.translated_context, c.translated_question, c.translated_answer)
        for c in got
    ] == [(f"q{i}", "t", fix(c), fix(q), fix(a)) for i, (c, q, a) in enumerate(fields)]

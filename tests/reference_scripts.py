"""Per-character reference implementations of the text scans, for differential tests.

These are the straightforward loops that ``script_tools``, ``filtering`` and
``evaluation.normalize`` replaced with C-level string operations (lazily
filled ``str.translate`` tables, ``re`` token matching, ``str.isalpha``
counting). They look at one character at a time and must agree with the
fast versions on every input.
"""

from __future__ import annotations

import unicodedata
from typing import Iterator

from transquad._text import (
    ascii_casefold,
    is_basic_latin_letter,
    is_devanagari,
    is_devanagari_digit,
    is_digit,
    is_letter,
)
from transquad.script_tools import Script


def iter_raw_tokens(text: str) -> Iterator[tuple[int, str]]:
    """Yield (start, token) for maximal non-whitespace runs."""
    start = None
    for i, ch in enumerate(text):
        if ch.isspace():
            if start is not None:
                yield start, text[start:i]
                start = None
        elif start is None:
            start = i
    if start is not None:
        yield start, text[start:]


def classify_token(token: str) -> Script:
    has_letter = False
    has_dev_digit = False
    all_latin = True
    all_devanagari = True
    for ch in token:
        if is_letter(ch):
            has_letter = True
        elif is_digit(ch):
            if is_devanagari_digit(ch):
                has_dev_digit = True
        else:
            continue
        if not is_basic_latin_letter(ch):
            all_latin = False
        if not is_devanagari(ch):
            all_devanagari = False
    if not has_letter and not has_dev_digit:
        return Script.NEUTRAL
    if all_latin:
        return Script.LATIN
    if all_devanagari:
        return Script.DEVANAGARI
    return Script.MIXED


def non_latin_letter_ratio(text: str) -> float:
    letters = 0
    non_latin = 0
    for ch in text:
        if is_letter(ch):
            letters += 1
            if not is_basic_latin_letter(ch):
                non_latin += 1
    return non_latin / letters if letters else 0.0


def transliterate_residuals(text: str, transliterate) -> str:
    """Replace each Latin token by ``transliterate(token)``; everything else stays."""
    parts = []
    pos = 0
    for start, token in iter_raw_tokens(text):
        if classify_token(token) is Script.LATIN:
            parts.append(text[pos:start])
            parts.append(transliterate(token))
            pos = start + len(token)
    parts.append(text[pos:])
    return "".join(parts)


def normalize(text: str) -> list[str]:
    """Case-fold Basic-Latin letters, drop punctuation, split on whitespace."""
    folded = ascii_casefold(text)
    cleaned = "".join(ch for ch in folded if not unicodedata.category(ch).startswith("P"))
    return cleaned.split()

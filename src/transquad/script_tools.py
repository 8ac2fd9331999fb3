"""Script-level post-processing of translated text.

Translation engines routinely leave two kinds of residue in Devanagari
output: words still in Latin script, and ASCII digits. This module finds
both. ``scan_residuals`` splits a text into tokens on whitespace only
(attached punctuation never changes what a token is) and reports two kinds
of token. A Latin token holds Basic-Latin letters and nothing else but
punctuation and symbols. A mixed token holds a letter outside Basic Latin and
Devanagari, or two of: Basic-Latin letters, Devanagari letters or digits,
other digits. The pipeline transliterates a stage's distinct Latin tokens in
batches; ASCII digits become Devanagari digits. Every other token is left as
it is.

The scan runs in C string operations, not a Python loop per character. One
``str.translate`` pass maps a text to a string of evidence classes
(Basic-Latin letter; Devanagari letter or digit; other letter; other decimal
digit; whitespace; no evidence), filled lazily, one entry per code point
seen, up to ``EVIDENCE_CAP`` entries. Regular expressions over that string
find mixed and Latin tokens, so ``scan_residuals`` reads a whole text in one
pass. The whitespace class is exactly ``str.isspace()``, so the tokens are
those of ``str.split()``.

Mixed tokens (e.g. "abc123", "abcक") are deliberately left alone - splitting
mid-token is riskier than leaving residue. ``warn_mixed_tokens`` reports them
in one WARNING per postprocess stage: the count and a sample of at most
``MIXED_SAMPLE_SIZE`` distinct tokens, so log volume stays bounded.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Mapping, Sequence

from ._text import (
    DEVANAGARI_DIGIT_ZERO,
    LazyTable,
    is_basic_latin_letter,
    is_devanagari,
    is_devanagari_digit,
    is_digit,
    is_letter,
    read_tsv_table,
)

logger = logging.getLogger(__name__)

# ASCII 0-9 -> Devanagari ०-९, same ordinal offset.
_DIGIT_TABLE = {ord("0") + d: DEVANAGARI_DIGIT_ZERO + d for d in range(10)}


# Evidence classes: one character per code point, as ``_EVIDENCE`` maps
# them. Devanagari letters and digits share a class because a Devanagari
# digit beside a Devanagari letter does not make a token mixed: numbers
# already localized are not flagged.
_LATIN = "L"  # Basic-Latin letter A-Z, a-z
_DEVANAGARI = "D"  # letter in the Devanagari block, or Devanagari digit
_OTHER_LETTER = "O"  # any other letter (category L*)
_OTHER_DIGIT = "N"  # any other decimal digit (category Nd), ASCII 0-9 included
_NO_EVIDENCE = "."  # punctuation, symbols, marks
_SPACE = " "  # whitespace (str.isspace), the token separator

# Over evidence strings, in linear time. Latin: a token of Latin letters and
# no-evidence characters. Mixed: another letter, or two evidence kinds
# side by side in a token, ignoring no-evidence characters between them.
_LATIN_TOKEN = re.compile(r"(?<![^ ])\.*L[L.]*(?![^ ])")
_MIXED_EVIDENCE = re.compile(r"O|L\.*[DN]|D\.*[LN]|N\.*[LD]")
_ASCII_DIGITS = re.compile("[0-9]+")

MIXED_SAMPLE_SIZE = 10  # distinct tokens quoted in the mixed-script warning


# Entries the evidence table keeps. Real text touches a few hundred code
# points; past the cap a code point is classified on every sight.
EVIDENCE_CAP = 4096


def _evidence_class(ch: str) -> str:
    if is_letter(ch):
        if is_basic_latin_letter(ch):
            return _LATIN
        return _DEVANAGARI if is_devanagari(ch) else _OTHER_LETTER
    if is_digit(ch):
        return _DEVANAGARI if is_devanagari_digit(ch) else _OTHER_DIGIT
    return _SPACE if ch.isspace() else _NO_EVIDENCE


# Code point -> evidence class, filled on first sight.
_EVIDENCE = LazyTable(_evidence_class, EVIDENCE_CAP)


def localize_digits(text: str) -> str:
    """Replace each ASCII digit 0-9 with the Devanagari digit at the same offset.

    Every other code point is untouched; output length equals input length;
    idempotent (Devanagari digits map to themselves by absence).
    """
    return _ASCII_DIGITS.sub(lambda m: m.group().translate(_DIGIT_TABLE), text)


class Transliterator:
    """Interface mirroring the translation engine: token list in, parallel list out.

    Tokens are sent in batches, on several threads: an implementation must
    be thread-safe and deterministic per token, whatever else shares the
    call. It may raise ``TransientEngineError`` to have a call retried.
    """

    def transliterate(self, tokens: Sequence[str]) -> list[str]:
        raise NotImplementedError


class IdentityTransliterator(Transliterator):
    def transliterate(self, tokens):
        return list(tokens)


class TableTransliterator(Transliterator):
    """Mock transliterator backed by a lookup table; unknown tokens pass through."""

    def __init__(self, table: Mapping[str, str]):
        self.table = dict(table)

    @classmethod
    def from_file(cls, path: str | Path) -> "TableTransliterator":
        """Two-column tab-separated file: source token, target token."""
        return cls(read_tsv_table(path))

    def transliterate(self, tokens):
        return [self.table.get(t, t) for t in tokens]


def build_transliterator(transliterator_id: str) -> Transliterator:
    """Resolve a transliterator id: ``identity`` or ``table:<table-path>``."""
    from .errors import ConfigValidationError

    if transliterator_id == "identity":
        return IdentityTransliterator()
    if transliterator_id.startswith("table:"):
        return TableTransliterator.from_file(transliterator_id.split(":", 1)[1])
    raise ConfigValidationError(
        f"unknown transliterator id {transliterator_id!r}", field="transliterator_id"
    )


def warn_mixed_tokens(tokens: Sequence[str]) -> None:
    """Log one WARNING for the mixed-script tokens a stage left alone.

    The line gives the total and quotes at most ``MIXED_SAMPLE_SIZE``
    distinct tokens, so its length does not grow with the corpus.
    """
    if tokens:
        sample = list(dict.fromkeys(tokens))[:MIXED_SAMPLE_SIZE]
        logger.warning(
            "left %d mixed-script token(s) untouched; sample: %s", len(tokens), sample
        )


# What ``scan_residuals`` finds in a text: Latin token spans, mixed tokens.
Residuals = tuple[list[tuple[int, int]], list[str]]


def scan_residuals(text: str) -> Residuals:
    """The spans of the Latin tokens of ``text``, and its mixed tokens, in text order."""
    classes = text.translate(_EVIDENCE) + _SPACE  # the space ends the last token
    mixed = []
    pos = 0
    while (m := _MIXED_EVIDENCE.search(classes, pos)) is not None:
        pos = classes.find(_SPACE, m.start())
        mixed.append(text[classes.rfind(_SPACE, 0, m.start()) + 1 : pos])
    return [m.span() for m in _LATIN_TOKEN.finditer(classes)], mixed


def transliterate_residuals(
    text: str, latin: Sequence[tuple[int, int]], table: Mapping[str, str]
) -> str:
    """Replace each Latin token span (from ``scan_residuals``) by its token's entry in ``table``.

    Everything outside the spans, whitespace included, is byte-identical
    before and after, and a text without Latin tokens comes back as it is.
    """
    if not latin:
        return text
    parts = []
    pos = 0
    for start, end in latin:
        parts.append(text[pos:start])
        parts.append(table[text[start:end]])
        pos = end
    parts.append(text[pos:])
    return "".join(parts)

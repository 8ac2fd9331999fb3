"""Script-level post-processing of translated text.

Translation engines routinely leave two kinds of residue in Devanagari
output: words still in Latin script, and ASCII digits. This module finds
both. Tokens are whitespace-split (no punctuation splitting; attached
punctuation never changes a token's letter-based class) and classified as
Latin, Devanagari, Neutral, or Mixed. Latin tokens go to a pluggable
transliterator; ASCII digits are mapped to their Devanagari counterparts.

Classification runs in C string operations, not a Python loop per
character. One ``str.translate`` pass maps a token to a string of evidence
classes (Basic-Latin letter; Devanagari letter or digit; other letter; other
decimal digit; no evidence), and a few ``in`` tests on that string give the
script. The translate table is filled lazily, one entry per code point seen,
up to ``EVIDENCE_CAP`` entries.
Tokens are found with one regular-expression scan for runs of
non-whitespace; the regex's whitespace is exactly ``str.isspace()``.

Mixed tokens (e.g. "abc123", "abcक") are deliberately left alone - splitting
mid-token is riskier than leaving residue. ``warn_mixed_tokens`` reports them
in one WARNING per call: the count and a sample of at most
``MIXED_SAMPLE_SIZE`` distinct tokens, so log volume stays bounded.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from ._text import (
    DEVANAGARI_DIGIT_ZERO,
    is_basic_latin_letter,
    is_devanagari,
    is_devanagari_digit,
    is_digit,
    is_letter,
    read_tsv_table,
)
from .errors import TransliterationError

logger = logging.getLogger(__name__)

# ASCII 0-9 -> Devanagari ०-९, same ordinal offset.
_DIGIT_TABLE = {ord("0") + d: DEVANAGARI_DIGIT_ZERO + d for d in range(10)}


class Script(str, Enum):
    LATIN = "latin"
    DEVANAGARI = "devanagari"
    NEUTRAL = "neutral"
    MIXED = "mixed"


@dataclass(frozen=True)
class TokenScript:
    token: str
    script: Script
    start: int  # code-point offset of the token in the source text


# Evidence classes: one character per code point, as ``_EvidenceTable`` maps
# them. Devanagari letters and digits share a class because classify_token
# treats them alike.
_LATIN = "L"  # Basic-Latin letter A-Z, a-z
_DEVANAGARI = "D"  # letter in the Devanagari block, or Devanagari digit
_OTHER_LETTER = "O"  # any other letter (category L*)
_OTHER_DIGIT = "N"  # any other decimal digit (category Nd), ASCII 0-9 included
_NO_EVIDENCE = "."  # whitespace, punctuation, symbols, marks

_TOKEN = re.compile(r"\S+")

MIXED_SAMPLE_SIZE = 10  # distinct tokens quoted in the mixed-script warning


# Entries the evidence table keeps. Real text touches a few hundred code
# points; past the cap a code point is classified on every sight, so a
# long-lived process fed arbitrary Unicode stays bounded.
EVIDENCE_CAP = 4096


class _EvidenceTable(dict):
    """``str.translate`` table from code point to evidence class, filled on first sight.

    Only code points that occur get an entry, so import builds nothing and
    the table stays as small as the alphabet of the tokens seen, and never
    larger than ``EVIDENCE_CAP``.
    """

    def __missing__(self, cp: int) -> str:
        ch = chr(cp)
        if is_letter(ch):
            if is_basic_latin_letter(ch):
                cls = _LATIN
            else:
                cls = _DEVANAGARI if is_devanagari(ch) else _OTHER_LETTER
        elif is_digit(ch):
            cls = _DEVANAGARI if is_devanagari_digit(ch) else _OTHER_DIGIT
        else:
            cls = _NO_EVIDENCE
        if len(self) < EVIDENCE_CAP:
            self[cp] = cls
        return cls


_EVIDENCE = _EvidenceTable()


def classify_token(token: str) -> Script:
    """Assign exactly one script class to a token.

    Letters and digits are the evidence; punctuation and symbols are ignored.
    Neutral means no letters and no Devanagari digits. Latin/Devanagari
    require all evidence characters to sit in that script (so "abc123" is
    Mixed: an ASCII digit is not a Latin letter). Devanagari digits count as
    Devanagari evidence, which keeps already-localized numbers from being
    re-flagged.
    """
    classes = token.translate(_EVIDENCE)
    if _OTHER_LETTER in classes:
        return Script.MIXED
    latin = _LATIN in classes
    if latin == (_DEVANAGARI in classes):
        return Script.MIXED if latin else Script.NEUTRAL
    if _OTHER_DIGIT in classes:
        return Script.MIXED
    return Script.LATIN if latin else Script.DEVANAGARI


def classify_tokens(text: str) -> list[TokenScript]:
    """Split on Unicode whitespace and classify each token.

    The tokens, in order, reconstruct the non-whitespace content of the text.
    """
    return [
        TokenScript(token=m.group(), script=classify_token(m.group()), start=m.start())
        for m in _TOKEN.finditer(text)
    ]


def localize_digits(text: str) -> str:
    """Replace each ASCII digit 0-9 with the Devanagari digit at the same offset.

    Every other code point is untouched; output length equals input length;
    idempotent (Devanagari digits map to themselves by absence).
    """
    return text.translate(_DIGIT_TABLE)


class Transliterator:
    """Interface mirroring the translation engine: token list in, parallel list out."""

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


def transliterate_residuals(
    text: str, translit: Transliterator, mixed: list[str] | None = None
) -> str:
    """Send exactly the Latin-classified tokens through the transliterator.

    Replacements happen in place; Devanagari/Neutral/Mixed tokens and all
    whitespace are byte-identical before and after. With the identity
    transliterator this is the identity on any input.

    Mixed tokens are appended to ``mixed`` when a list is given, so that a
    caller fixing many texts (``pipeline.postprocess_candidates``) reports
    them in one warning for the whole stage. Without a list, a direct call on
    one text reports its own mixed tokens here, in one warning, so that they
    are never left alone silently.
    """
    latin: list[tuple[int, int]] = []
    found_mixed = [] if mixed is None else mixed
    for m in _TOKEN.finditer(text):
        script = classify_token(m.group())
        if script is Script.LATIN:
            latin.append(m.span())
        elif script is Script.MIXED:
            found_mixed.append(m.group())
    if mixed is None:
        warn_mixed_tokens(found_mixed)
    if not latin:
        return text

    sources = tuple(text[start:end] for start, end in latin)
    try:
        replacements = translit.transliterate(list(sources))
    except TransliterationError:
        raise
    except Exception as exc:
        raise TransliterationError(
            f"transliterator failed on {len(sources)} token(s): {exc}", tokens=sources
        ) from exc
    if len(replacements) != len(latin):
        raise TransliterationError(
            f"transliterator returned {len(replacements)} tokens for {len(latin)} inputs",
            tokens=sources,
        )

    parts = []
    pos = 0
    for (start, end), replacement in zip(latin, replacements):
        parts.append(text[pos:start])
        parts.append(replacement)
        pos = end
    parts.append(text[pos:])
    return "".join(parts)

"""Script-level post-processing of translated text.

Translation engines routinely leave two kinds of residue in Devanagari
output: words still in Latin script, and ASCII digits. This module finds
both. Tokens are whitespace-split (no punctuation splitting; attached
punctuation never changes a token's letter-based class) and classified as
Latin, Devanagari, Neutral, or Mixed. Latin tokens go to a pluggable
transliterator; ASCII digits are mapped to their Devanagari counterparts.

Mixed tokens (e.g. "abc123", "abcक") are deliberately left alone - splitting
mid-token is riskier than leaving residue - and logged for inspection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, Sequence

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


def _iter_raw_tokens(text: str) -> Iterator[tuple[int, str]]:
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
    """Assign exactly one script class to a token.

    Letters and digits are the evidence; punctuation and symbols are ignored.
    Neutral means no letters and no Devanagari digits. Latin/Devanagari
    require all evidence characters to sit in that script (so "abc123" is
    Mixed: an ASCII digit is not a Latin letter). Devanagari digits count as
    Devanagari evidence, which keeps already-localized numbers from being
    re-flagged.
    """
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


def classify_tokens(text: str) -> list[TokenScript]:
    """Split on Unicode whitespace and classify each token.

    The tokens, in order, reconstruct the non-whitespace content of the text.
    """
    return [
        TokenScript(token=tok, script=classify_token(tok), start=start)
        for start, tok in _iter_raw_tokens(text)
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


def transliterate_residuals(text: str, translit: Transliterator) -> str:
    """Send exactly the Latin-classified tokens through the transliterator.

    Replacements happen in place; Devanagari/Neutral/Mixed tokens and all
    whitespace are byte-identical before and after. With the identity
    transliterator this is the identity on any input.
    """
    tokens = classify_tokens(text)
    latin = [t for t in tokens if t.script is Script.LATIN]
    mixed = [t.token for t in tokens if t.script is Script.MIXED]
    if mixed:
        logger.warning("leaving %d mixed-script token(s) untouched: %s", len(mixed), mixed)
    if not latin:
        return text

    sources = tuple(t.token for t in latin)
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
    for tok, replacement in zip(latin, replacements):
        parts.append(text[pos : tok.start])
        parts.append(replacement)
        pos = tok.start + len(tok.token)
    parts.append(text[pos:])
    return "".join(parts)

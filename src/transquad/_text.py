"""Text helpers shared by filtering, script tools, translation, alignment and evaluation.

Character-level predicates, plus the two-column table format that the mock
translation engine and transliterator both read. All offsets and lengths in
this package count Unicode code points, which is what Python string indexing
gives us for free.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path

DEVANAGARI_FIRST = 0x0900
DEVANAGARI_LAST = 0x097F
DEVANAGARI_DIGIT_ZERO = 0x0966
DEVANAGARI_DIGIT_NINE = 0x096F

# A-Z -> a-z, nothing else. Devanagari has no case; other scripts stay put.
_ASCII_LOWER_TABLE = {cp: cp + 32 for cp in range(ord("A"), ord("Z") + 1)}


def is_letter(ch: str) -> bool:
    return unicodedata.category(ch).startswith("L")


def is_digit(ch: str) -> bool:
    return unicodedata.category(ch) == "Nd"


def is_basic_latin_letter(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def is_devanagari(ch: str) -> bool:
    return DEVANAGARI_FIRST <= ord(ch) <= DEVANAGARI_LAST


def is_devanagari_digit(ch: str) -> bool:
    return DEVANAGARI_DIGIT_ZERO <= ord(ch) <= DEVANAGARI_DIGIT_NINE


def ascii_casefold(text: str) -> str:
    """Lower-case Basic-Latin letters only; leave every other code point alone."""
    return text.translate(_ASCII_LOWER_TABLE)


def read_tsv_table(path: str | Path) -> dict[str, str]:
    """Two tab-separated columns per line (source, target); blank and ``#`` lines skipped.

    Later lines win on duplicate sources. A line without exactly two columns
    raises ValueError naming ``path:lineno``.
    """
    table = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 tab-separated columns")
        table[parts[0]] = parts[1]
    return table

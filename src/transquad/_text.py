"""Text helpers shared by filtering, script tools, translation, alignment and evaluation.

Character-level predicates, the lazily filled ``str.translate`` table of
the script scans and of answer normalization, the two-column table format
that the mock translation engine and transliterator both read, and the
atomic file write every output goes through. All offsets and lengths in
this package count Unicode code points, which is what Python string
indexing gives us for free.
"""

from __future__ import annotations

import os
import tempfile
import unicodedata
from pathlib import Path
from typing import Callable

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


class LazyTable(dict):
    """``str.translate`` table that maps a code point on first sight, up to ``cap`` entries.

    ``rule(ch)`` gives a character's mapping: a string, or None to delete it.
    Only code points that occur get an entry, so building costs nothing and
    the table stays as small as the alphabet of the text seen. Every code
    point maps to something, so ``str.translate`` never meets a missing key.
    Past ``cap`` entries a code point is mapped again on every sight, so a
    long-lived process fed arbitrary Unicode stays bounded.
    """

    def __init__(self, rule: Callable[[str], str | None], cap: int):
        super().__init__()
        self.rule = rule
        self.cap = cap

    def __missing__(self, cp: int) -> str | None:
        value = self.rule(chr(cp))
        if len(self) < self.cap:
            self[cp] = value
        return value


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


def atomic_write(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over ``path``.

    A failure at any point leaves the old file, if any, untouched and no
    temp file behind. A symlink is followed: the file it names is replaced
    and the link kept. A target that exists but is not a regular file (a
    FIFO, ``/dev/null``) cannot be renamed over and is written in place.
    """
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        path.write_bytes(data)
        return
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp creates 0600; give the file the mode a plain open() would.
        # The umask can only be read by setting it, so it is put back at once.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

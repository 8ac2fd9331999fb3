"""Text helpers shared by filtering, script tools, translation, alignment and evaluation.

Character-level predicates, the lazily filled ``str.translate`` table of
the script scans and of answer normalization, the one line reader of every
plain-text input with the two-column table format that the mock
translation engine and transliterator both read, the block hash that names
a table's content and the hash of a JSON value, the one reader of every
JSON and JSON Lines input (bytes as read from the file, never text) with
its field-type check, and the atomic, streamed file write every output goes
through.
All offsets and lengths in this package count Unicode code points, which is
what Python string indexing gives us for free.
"""

from __future__ import annotations

import json
import os
import re
import stat
import tempfile
import unicodedata
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping

from .errors import EncodingError, FieldError

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


_TEXT_BLOCK = 1 << 16  # characters read at a time


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for each data line of a plain-text UTF-8 input.

    Lines and their numbers are those ``str.splitlines`` gives on the whole
    text; blank lines and lines starting with ``#`` are skipped. A byte-order
    mark at the start of the file is dropped. Bytes that are not UTF-8 raise
    ValueError naming ``path``: the file is decoded in blocks, so the line
    they are on is not known.
    """
    with Path(path).open(encoding="utf-8-sig") as fh:
        # A block of text read through to the end of its line: reading
        # translates "\r\n" and "\r" to "\n", so each block ends at a break
        # or at the end of the file, no line runs on into the next block, and
        # splitlines on each block gives the lines, and line numbers, of
        # splitlines on the whole text.
        blocks = iter(lambda: fh.read(_TEXT_BLOCK) + fh.readline(), "")
        lines = (line for block in blocks for line in block.splitlines())
        try:
            for lineno, line in enumerate(lines, 1):
                if line.strip() and not line.startswith("#"):
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8: {exc.reason}") from exc


def read_tsv_table(path: str | Path) -> dict[str, str]:
    """Two tab-separated columns per ``text_lines`` line (source, target).

    Later lines win on duplicate sources. A line without exactly two columns
    raises ValueError naming ``path:lineno``.
    """
    table = {}
    for lineno, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 tab-separated columns")
        table[parts[0]] = parts[1]
    return table


_HASH_BLOCK = 1 << 18


def file_digest(path: str | Path) -> bytes | None:
    """The SHA-256 of a regular file's bytes, hashed in blocks; None for any other file.

    Hashing a FIFO would consume it, so only a regular file gets a digest. The
    loop stands in for ``hashlib.file_digest``, which Python 3.10 lacks.
    """
    import hashlib  # only a table load pays for importing it

    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
    except OSError:
        return None  # the reader names the file
    digest = hashlib.sha256()
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while n := fh.readinto(block):
            digest.update(view[:n])
    return digest.digest()


def json_digest(value: Any) -> str:
    """Hex SHA-256 of ``value`` as JSON text (``ensure_ascii=False``), UTF-8 encoded."""
    import hashlib  # as in file_digest: only a caller that hashes pays for importing it

    return hashlib.sha256(json.dumps(value, ensure_ascii=False).encode("utf-8")).hexdigest()


def decode_utf8(data: bytes, where: str) -> str:
    """``data`` as text; bytes that are not UTF-8 raise EncodingError starting ``where:``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{where}: not valid UTF-8 at byte {exc.start}: {exc.reason}") from exc


# An escape of a UTF-16 surrogate, \uD800-\uDFFF: only a text holding one can
# parse to a string with a lone surrogate, which no writer can encode. A
# surrogate pair parses to the one character it stands for.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def parse_json(data: bytes, where: str) -> Any:
    """Decode UTF-8 ``data`` and parse it as one JSON value.

    Bytes that are not UTF-8, text that is not JSON, JSON nested deeper
    than the parser's recursion limit, and a string escape that leaves a
    lone surrogate (``"\\ud800"``) each raise one ValueError (for the bytes,
    an EncodingError) whose message starts ``where:``; for the first three
    its ``__cause__`` is the original error.
    """
    # Rebound, so that bytes nobody else holds are freed before parsing.
    data = decode_utf8(data, where)
    try:
        value = json.loads(data)
        # Only a text with such an escape pays for looking at every string.
        lone = _SURROGATE_ESCAPE.search(data) and _SURROGATE.search(
            json.dumps(value, ensure_ascii=False)
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not valid JSON: {exc.msg} at char {exc.pos}") from exc
    except RecursionError as exc:
        raise ValueError(f"{where}: JSON nested too deeply") from exc
    if lone:
        raise ValueError(f"{where}: lone surrogate U+{ord(lone.group()):04X} in a JSON string")
    return value


def json_lines(path: str | Path) -> Iterator[tuple[str, Any]]:
    """``("path:lineno", value)`` for each non-blank line of a JSON Lines file.

    Lines end at ``\\n`` only, so a value may hold any other line separator
    (U+2028, U+0085, ...) unescaped, as ``json.dumps(ensure_ascii=False)``
    writes them. A line that does not parse raises ``parse_json``'s error.
    """
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                where = f"{path}:{lineno}"
                yield where, parse_json(line, where)


# The JSON types a field may have, and how an error names them.
STRING = (str,), "a string"
INTEGER = (int,), "an integer"
ARRAY = (list,), "an array"
NUMBER = (int, float), "a number"
STRING_OR_NULL = (str, type(None)), "a string or null"


def check_fields(
    record: Any,
    what: str,
    types: Mapping[str, tuple[tuple[type, ...], str]],
    optional: Collection[str] = (),
    prefix: str = "",
) -> None:
    """Refuse ``record`` unless it is a JSON object whose fields have the listed types.

    Every key of ``types`` must be present, unless it is ``optional``, and
    hold a value of its type; ``true``/``false`` never pass for a number.
    Keys outside ``types`` are not looked at. Raises FieldError: ``what``
    names the record in it, and ``prefix`` goes before each key it names.
    """
    if not isinstance(record, dict):
        raise FieldError(f"{what} must be a JSON object, got {type(record).__name__}")
    for key, (allowed, name) in types.items():
        if key not in record:
            if key not in optional:
                raise FieldError(f"missing key {prefix + key!r}", prefix + key)
        elif isinstance(record[key], bool) or not isinstance(record[key], allowed):
            raise FieldError(f"{prefix + key!r} must be {name}, got {record[key]!r}", prefix + key)


def atomic_write(path: str | Path, chunks: Iterable[bytes | memoryview]) -> None:
    """Stream ``chunks`` into a temp file beside ``path``, then rename it over ``path``.

    Each chunk is written as soon as the iterable yields it, so an output
    produced chunk by chunk (a corpus, a log) is never joined into one
    ``bytes``; any contiguous buffer will do (``bytes``, a ``memoryview`` of
    an array). The rename still makes the write atomic: a failure at any
    point, in the writing or in the iterable producing the chunks, leaves
    the old file, if any, untouched and no temp file behind. A symlink is
    followed: the file it names is replaced and the link kept. A target
    that exists but is not a regular file (a FIFO, ``/dev/null``) cannot be
    renamed over and is written in place.
    """
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        with path.open("wb") as fh:
            fh.writelines(chunks)
        return
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        # mkstemp creates 0600; give the file the mode a plain open() would.
        # The umask can only be read by setting it, so it is put back at once.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        # Whatever stopped the stream (an encode error, an interrupt), the
        # half-written temp file must not stay behind.
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

"""Pre-translation content filtering with an auditable rejection log.

Two mechanisms stand in for the source dataset's manual cleanup: a plain-text
exclusion list (one qid or article title per line, ``#`` comments) for
explicit removals, and a letter-script ratio heuristic that flags contexts
dominated by non-Latin letters (language samples, phonetics tables, ...).
The ratio is counted with C string operations (``str.isascii``,
``str.isalpha`` and one regular expression), never a Python loop per
character.

Every removal, here and in later stages, lands in a RejectionLog entry so
that kept + rejected always accounts for the whole input.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

from ._text import STRING, STRING_OR_NULL, atomic_write, check_fields, json_lines, text_lines
from .corpus import Corpus
from .errors import ConfigError, ConfigValidationError

_BASIC_LATIN_LETTER = re.compile("[A-Za-z]")

STAGE_PRE_FILTER = "pre-filter"
STAGE_ALIGNMENT = "alignment"
STAGES = (STAGE_PRE_FILTER, STAGE_ALIGNMENT)

REASON_MANUAL_EXCLUSION = "manual-exclusion"
REASON_NON_LATIN = "non-latin-content"
REASON_TOO_SHORT = "too-short"
REASON_ANSWER_NOT_FOUND = "answer-not-found"
REASON_EMPTY_AFTER_STRIP = "empty-after-strip"

# The documented reason catalog; RejectionEntry refuses anything else.
REASON_CATALOG = frozenset(
    {
        REASON_MANUAL_EXCLUSION,
        REASON_NON_LATIN,
        REASON_TOO_SHORT,
        REASON_ANSWER_NOT_FOUND,
        REASON_EMPTY_AFTER_STRIP,
    }
)


@dataclass(frozen=True)
class FilterConfig:
    non_latin_letter_ratio_threshold: float = 0.05
    exclusion_list_path: str | None = None
    min_context_length: int = 1

    def __post_init__(self) -> None:
        t = self.non_latin_letter_ratio_threshold
        if not 0.0 <= t <= 1.0:
            raise ConfigValidationError(
                f"non_latin_letter_ratio_threshold must be in [0, 1], got {t}",
                field="non_latin_letter_ratio_threshold",
            )
        if self.min_context_length < 0:
            raise ConfigValidationError(
                f"min_context_length must be >= 0, got {self.min_context_length}",
                field="min_context_length",
            )


@dataclass(frozen=True)
class RejectionEntry:
    qid: str
    stage: str
    reason: str
    detail: str | None = None

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown rejection stage {self.stage!r}")
        if self.reason not in REASON_CATALOG:
            raise ValueError(f"reason {self.reason!r} is not in the reason catalog")

    def to_dict(self) -> dict[str, str | None]:
        return {"qid": self.qid, "stage": self.stage, "reason": self.reason, "detail": self.detail}


_ENTRY_TYPES = {"qid": STRING, "stage": STRING, "reason": STRING, "detail": STRING_OR_NULL}


@dataclass
class RejectionLog:
    entries: list[RejectionEntry] = field(default_factory=list)

    def append(self, entry: RejectionEntry) -> None:
        self.entries.append(entry)

    def extend(self, other: RejectionLog | Iterable[RejectionEntry]) -> None:
        self.entries.extend(other.entries if isinstance(other, RejectionLog) else other)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RejectionEntry]:
        return iter(self.entries)

    def counts_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.reason] = counts.get(entry.reason, 0) + 1
        return counts

    def to_jsonl(self) -> str:
        """One JSON object per line: qid, stage, reason, detail."""
        return "".join(json.dumps(e.to_dict(), ensure_ascii=False) + "\n" for e in self.entries)

    def write(self, path: str | Path) -> None:
        atomic_write(path, self.to_jsonl().encode("utf-8"))

    @classmethod
    def read(cls, path: str | Path) -> RejectionLog:
        """Parse a log written by ``write``; an absent file reads as an empty log.

        Raises ValueError naming ``path:lineno`` for a line that is not a
        valid entry, including an unknown stage or reason.
        """
        try:
            lines = list(json_lines(path))
        except FileNotFoundError:
            return cls()
        log = cls()
        for where, rec in lines:
            try:
                check_fields(rec, "an entry", _ENTRY_TYPES)
                log.append(RejectionEntry(rec["qid"], rec["stage"], rec["reason"], rec["detail"]))
            except ValueError as exc:
                raise ValueError(f"{where}: not a rejection entry: {exc}") from exc
        return log


def non_latin_letter_ratio(text: str) -> float:
    """Fraction of letters that fall outside Basic-Latin A-Z/a-z.

    Digits, punctuation and whitespace count on neither side; a text with no
    letters at all scores 0.0. ``str.isalpha`` is true on exactly the letter
    categories (L*), so both counts run in C: all letters, then the
    Basic-Latin ones. An ASCII text has no other letters and scores 0.0.
    """
    if text.isascii():
        return 0.0
    letters = sum(map(str.isalpha, text))
    non_latin = letters - len(_BASIC_LATIN_LETTER.findall(text))
    return non_latin / letters if letters else 0.0


def load_exclusion_list(path: str | Path) -> set[str]:
    """Read one qid or title per ``text_lines`` line, stripped; stripped ``#`` lines ignored."""
    try:
        stripped = [line.strip() for _, line in text_lines(path)]
    except OSError as exc:
        raise ConfigError(f"cannot read exclusion list {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot read exclusion list {exc}") from exc
    return {s for s in stripped if not s.startswith("#")}


def filter_corpus(corpus: Corpus, cfg: FilterConfig) -> tuple[Corpus, RejectionLog]:
    """Exclusion list first, then script-ratio and minimum-length checks.

    One rejection entry per dropped record; kept + rejected equals the input
    count. Deterministic for a fixed (corpus, config) pair.
    """
    excluded = load_exclusion_list(cfg.exclusion_list_path) if cfg.exclusion_list_path else set()
    log = RejectionLog()
    kept = []
    for rec in corpus.records:
        if rec.qid in excluded:
            log.append(
                RejectionEntry(rec.qid, STAGE_PRE_FILTER, REASON_MANUAL_EXCLUSION, "qid listed")
            )
            continue
        if rec.title in excluded:
            log.append(
                RejectionEntry(
                    rec.qid, STAGE_PRE_FILTER, REASON_MANUAL_EXCLUSION, f"title {rec.title!r} listed"
                )
            )
            continue
        ratio = non_latin_letter_ratio(rec.context)
        if ratio > cfg.non_latin_letter_ratio_threshold:
            log.append(
                RejectionEntry(
                    rec.qid,
                    STAGE_PRE_FILTER,
                    REASON_NON_LATIN,
                    f"ratio {ratio:.4f} > threshold {cfg.non_latin_letter_ratio_threshold}",
                )
            )
            continue
        if len(rec.context) < cfg.min_context_length:
            log.append(
                RejectionEntry(
                    rec.qid,
                    STAGE_PRE_FILTER,
                    REASON_TOO_SHORT,
                    f"context length {len(rec.context)} < {cfg.min_context_length}",
                )
            )
            continue
        kept.append(rec)
    return replace(corpus, records=tuple(kept)), log

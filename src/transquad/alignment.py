"""Recompute answer start offsets inside translated contexts.

Translation moves answers around, so the original start offset is useless;
the answer must be located again in the translated context. Pairs whose
answer cannot be found (the translator rendered the same phrase differently
in answer and context) are rejected, never fuzzily matched: every emitted
span satisfies ``context[start : start + len(text)] == text``, full stop.

When an answer occurs several times, the occurrence whose relative position
is closest to the answer's relative position in the source context wins;
ties break to the smallest start.

A rejection's detail quotes the stripped answer and, when it was not found,
the stretch of the translated context where the source placed it, each cut
to ``EXCERPT`` code points.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._text import ascii_casefold
from .corpus import AnswerSpan, Corpus, QaRecord
from .filtering import (
    REASON_ANSWER_NOT_FOUND,
    REASON_EMPTY_AFTER_STRIP,
    STAGE_ALIGNMENT,
    RejectionEntry,
    RejectionLog,
)

# One trailing sentence terminator is stripped from translated answers:
# ASCII full stop and the Devanagari danda a translator may emit instead.
TRAILING_MARKS = (".", "।")
EXCERPT = 80  # code points of answer or context quoted in a rejection detail


@dataclass(frozen=True)
class AlignmentCandidate:
    qid: str
    translated_context: str
    translated_question: str
    translated_answer: str
    original_relative_position: float  # original start / original context length
    title: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.original_relative_position <= 1.0:
            raise ValueError(
                f"original_relative_position must be in [0, 1], "
                f"got {self.original_relative_position}"
            )


@dataclass(frozen=True)
class AlignmentOutcome:
    """Either an aligned span or a rejection reason and its detail, never both."""

    span: AnswerSpan | None
    reason: str | None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.span is not None

    @classmethod
    def aligned(cls, text: str, start: int) -> "AlignmentOutcome":
        return cls(span=AnswerSpan(text=text, start=start), reason=None)

    @classmethod
    def rejected(cls, reason: str, detail: str) -> "AlignmentOutcome":
        return cls(span=None, reason=reason, detail=detail)


def strip_trailing_period(answer: str) -> str:
    """Remove exactly one trailing "." or "।" after trimming trailing whitespace."""
    trimmed = answer.rstrip()
    if trimmed and trimmed[-1] in TRAILING_MARKS:
        return trimmed[:-1]
    return trimmed


def find_occurrences(context: str, answer: str) -> list[int]:
    """All code-point offsets where answer occurs in context, ascending.

    Overlapping occurrences are included.
    """
    if not answer:
        raise ValueError("answer must be non-empty")
    out = []
    pos = context.find(answer)
    while pos != -1:
        out.append(pos)
        pos = context.find(answer, pos + 1)
    return out


def realign(candidate: AlignmentCandidate) -> AlignmentOutcome:
    """Strip, locate, and pick an occurrence for one translated answer.

    Lookup is exact substring match; if that fails, one retry with Basic-Latin
    letters case-folded on both sides (translation residue is the only cased
    content). The aligned text is always taken as a slice of the context, so
    the substring invariant holds by construction even on the folded path.
    """
    answer = strip_trailing_period(candidate.translated_answer)
    if not answer.strip():
        return AlignmentOutcome.rejected(REASON_EMPTY_AFTER_STRIP, f"answer {answer[:EXCERPT]!r}")
    context = candidate.translated_context
    occurrences = find_occurrences(context, answer)
    if not occurrences:
        occurrences = find_occurrences(ascii_casefold(context), ascii_casefold(answer))
        if not occurrences:
            # The excerpt centred where the source context had the answer.
            at = max(0, round(candidate.original_relative_position * len(context)) - EXCERPT // 2)
            return AlignmentOutcome.rejected(
                REASON_ANSWER_NOT_FOUND,
                f"answer {answer[:EXCERPT]!r} not in context {context[at : at + EXCERPT]!r}",
            )
    if len(occurrences) == 1:
        start = occurrences[0]
    else:
        target = candidate.original_relative_position
        length = len(context)
        start = min(occurrences, key=lambda s: (abs(s / length - target), s))
    return AlignmentOutcome.aligned(text=context[start : start + len(answer)], start=start)


def align_corpus(
    candidates: list[AlignmentCandidate], split: str = "train"
) -> tuple[Corpus, RejectionLog]:
    """Realign every candidate; aligned ones become single-answer records.

    aligned + rejected always equals the input count, and the returned corpus
    passes validate_spans with zero violations.
    """
    records = []
    log = RejectionLog()
    for cand in candidates:
        outcome = realign(cand)
        if outcome.ok:
            records.append(
                QaRecord(
                    qid=cand.qid,
                    question=cand.translated_question,
                    context=cand.translated_context,
                    answers=(outcome.span,),
                    title=cand.title,
                )
            )
        else:
            log.append(RejectionEntry(cand.qid, STAGE_ALIGNMENT, outcome.reason, outcome.detail))
    return Corpus(split=split, records=tuple(records)), log

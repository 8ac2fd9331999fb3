"""SQuAD v1.1 corpus model: parse, serialize, span validation, answer collapse, stats.

Answer offsets are Unicode code-point offsets into the context, the same unit
as Python string indices. Parsing is structural (schema shape, presence,
types); whether a span actually matches its context is a semantic question
answered by :func:`validate_spans`, so invalid files can still be loaded and
audited.

Serialization is deterministic: serializing the same corpus twice yields
byte-identical documents, and ``parse_corpus(serialize_corpus(c))`` preserves
every record. Unknown fields on qa objects (e.g. ``is_impossible``) are kept
and re-emitted; unknown fields at the document/article/paragraph level are
dropped with a warning.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Mapping

from ._text import atomic_write, parse_json
from .errors import (
    EmptyAnswersError,
    EncodingError,
    InvalidCorpusError,
    MalformedDocumentError,
)

logger = logging.getLogger(__name__)

SPLITS = ("train", "test")

# Span violation reasons reported by validate_spans.
VIOLATION_EMPTY_ANSWER = "empty-answer"
VIOLATION_OUT_OF_BOUNDS = "start-out-of-bounds"
VIOLATION_SUBSTRING_MISMATCH = "substring-mismatch"

_QA_CORE_KEYS = ("id", "question", "answers")


@dataclass(frozen=True)
class AnswerSpan:
    """One answer string plus the code-point offset of its first character."""

    text: str
    start: int


@dataclass(frozen=True)
class QaRecord:
    """One context/question/answers triple.

    ``answers`` holds at least one span before collapse and exactly one after.
    ``extra`` preserves unknown qa-level JSON fields through round-trips.
    """

    qid: str
    question: str
    context: str
    answers: tuple[AnswerSpan, ...]
    title: str = ""
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Corpus:
    """Ordered collection of records for one split."""

    split: str
    records: tuple[QaRecord, ...]
    version: str = "1.1"

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[QaRecord]:
        return iter(self.records)


@dataclass(frozen=True)
class SpanViolation:
    qid: str
    reason: str


@dataclass
class ValidationReport:
    valid_count: int
    violations: list[SpanViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "valid_count": self.valid_count,
            "violations": [{"qid": v.qid, "reason": v.reason} for v in self.violations],
        }


@dataclass(frozen=True)
class StatsReport:
    total_questions: int
    unique_contexts: int
    unique_questions: int
    unique_answers: int

    def to_dict(self) -> dict[str, int]:
        return {
            "total_questions": self.total_questions,
            "unique_contexts": self.unique_contexts,
            "unique_questions": self.unique_questions,
            "unique_answers": self.unique_answers,
        }


def parse_corpus(raw: bytes | str, split: str, where: str = "input") -> Corpus:
    """Parse SQuAD v1.1 JSON bytes into a Corpus, preserving document order.

    Raises MalformedDocumentError (with the path to the offending node) on
    schema violations and EncodingError on non-UTF-8 input; each message
    starts with ``where``, the file the bytes came from.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    try:
        doc = parse_json(raw, where)
    except ValueError as exc:
        if isinstance(exc.__cause__, UnicodeDecodeError):
            raise EncodingError(str(exc)) from exc
        raise MalformedDocumentError(str(exc)) from exc

    def require(condition: bool, message: str, path: str) -> None:
        if not condition:
            raise MalformedDocumentError(f"{where}: {message}", path)

    require(isinstance(doc, dict), "document root must be an object", "$")
    require("data" in doc, "document is missing 'data'", "$")
    data = doc["data"]
    require(isinstance(data, list), "'data' must be an array", "$.data")
    version = str(doc.get("version", "1.1"))
    for key in doc.keys() - {"data", "version"}:
        logger.warning("dropping unknown document-level field %r", key)

    records: list[QaRecord] = []
    seen_qids: set[str] = set()
    for ai, article in enumerate(data):
        apath = f"data[{ai}]"
        require(isinstance(article, dict), "article must be an object", apath)
        title = article.get("title", "")
        require(isinstance(title, str), "'title' must be a string", apath)
        require("paragraphs" in article, "article is missing 'paragraphs'", apath)
        paragraphs = article["paragraphs"]
        require(isinstance(paragraphs, list), "'paragraphs' must be an array", apath)
        for key in article.keys() - {"title", "paragraphs"}:
            logger.warning("dropping unknown article-level field %r at %s", key, apath)

        for pi, para in enumerate(paragraphs):
            ppath = f"{apath}.paragraphs[{pi}]"
            require(isinstance(para, dict), "paragraph must be an object", ppath)
            context = para.get("context")
            require(isinstance(context, str), "paragraph is missing string 'context'", ppath)
            require(len(context) > 0, "context must be non-empty", ppath)
            qas = para.get("qas")
            require(isinstance(qas, list), "paragraph is missing 'qas' array", ppath)
            for key in para.keys() - {"context", "qas"}:
                logger.warning("dropping unknown paragraph-level field %r at %s", key, ppath)

            for qi, qa in enumerate(qas):
                qpath = f"{ppath}.qas[{qi}]"
                require(isinstance(qa, dict), "qa must be an object", qpath)
                qid = qa.get("id")
                require(isinstance(qid, str) and qid != "", "qa is missing string 'id'", qpath)
                question = qa.get("question")
                require(
                    isinstance(question, str) and question != "",
                    "qa is missing non-empty 'question'",
                    qpath,
                )
                require("answers" in qa, "qa is missing its 'answers' array", qpath)
                answers_raw = qa["answers"]
                require(isinstance(answers_raw, list), "'answers' must be an array", qpath)
                require(len(answers_raw) > 0, "'answers' must not be empty", qpath)
                require(qid not in seen_qids, f"duplicate question id {qid!r}", qpath)
                seen_qids.add(qid)

                spans: list[AnswerSpan] = []
                for xi, ans in enumerate(answers_raw):
                    xpath = f"{qpath}.answers[{xi}]"
                    require(isinstance(ans, dict), "answer must be an object", xpath)
                    atext = ans.get("text")
                    require(isinstance(atext, str), "answer is missing string 'text'", xpath)
                    start = ans.get("answer_start")
                    require(
                        isinstance(start, int) and not isinstance(start, bool),
                        "answer is missing integer 'answer_start'",
                        xpath,
                    )
                    spans.append(AnswerSpan(text=atext, start=start))

                extra = {k: qa[k] for k in sorted(qa.keys() - set(_QA_CORE_KEYS))}
                records.append(
                    QaRecord(
                        qid=qid,
                        question=question,
                        context=context,
                        answers=tuple(spans),
                        title=title,
                        extra=extra,
                    )
                )

    return Corpus(split=split, records=tuple(records), version=version)


def serialize_corpus(corpus: Corpus, allow_invalid: bool = False) -> bytes:
    """Emit deterministic SQuAD v1.1 JSON (UTF-8 bytes).

    Consecutive records sharing a title become one article, and within it
    consecutive records sharing a context become one paragraph, so
    parse_corpus(serialize_corpus(c)) preserves record order for any corpus,
    grouped or not. Refuses corpora with span violations unless
    ``allow_invalid`` is set.
    """
    if not allow_invalid:
        report = validate_spans(corpus)
        if not report.ok:
            sample = ", ".join(f"{v.qid}:{v.reason}" for v in report.violations[:3])
            raise InvalidCorpusError(
                f"corpus has {len(report.violations)} span violation(s) ({sample}); "
                "fix them or pass allow_invalid=True"
            )

    data: list[dict[str, Any]] = []
    for rec in corpus.records:
        if not data or data[-1]["title"] != rec.title:
            data.append({"title": rec.title, "paragraphs": []})
        paragraphs = data[-1]["paragraphs"]
        if not paragraphs or paragraphs[-1]["context"] != rec.context:
            paragraphs.append({"context": rec.context, "qas": []})
        qa: dict[str, Any] = {
            "id": rec.qid,
            "question": rec.question,
            "answers": [{"text": a.text, "answer_start": a.start} for a in rec.answers],
        }
        for key in sorted(rec.extra):
            qa[key] = rec.extra[key]
        paragraphs[-1]["qas"].append(qa)

    doc = {"version": corpus.version, "data": data}
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def validate_spans(corpus: Corpus) -> ValidationReport:
    """Check every answer span against its context.

    A record is valid iff each of its spans is non-empty after trim, lies in
    bounds, and the context slice of its length equals its text. A record
    contributes at most one violation (its first failing span).
    """
    violations: list[SpanViolation] = []
    valid = 0
    for rec in corpus.records:
        reason = None
        for span in rec.answers:
            if not span.text.strip():
                reason = VIOLATION_EMPTY_ANSWER
            elif span.start < 0 or span.start + len(span.text) > len(rec.context):
                reason = VIOLATION_OUT_OF_BOUNDS
            elif rec.context[span.start : span.start + len(span.text)] != span.text:
                reason = VIOLATION_SUBSTRING_MISMATCH
            if reason is not None:
                violations.append(SpanViolation(qid=rec.qid, reason=reason))
                break
        if reason is None:
            valid += 1
    return ValidationReport(valid_count=valid, violations=violations)


def collapse_answers(record: QaRecord) -> QaRecord:
    """Keep the single answer whose text occurs most often in the answer list.

    Ties go to the earliest-listed text; the retained span is the first one
    carrying the winning text. Idempotent.
    """
    if not record.answers:
        raise EmptyAnswersError(f"record {record.qid!r} has no answers to collapse")
    counts = Counter(a.text for a in record.answers)
    top = max(counts.values())
    winner = next(a for a in record.answers if counts[a.text] == top)
    return replace(record, answers=(winner,))


def compute_stats(corpus: Corpus) -> StatsReport:
    """Exact-string-equality unique counts over contexts, questions, answer texts."""
    contexts = {rec.context for rec in corpus.records}
    questions = {rec.question for rec in corpus.records}
    answers = {a.text for rec in corpus.records for a in rec.answers}
    return StatsReport(
        total_questions=len(corpus.records),
        unique_contexts=len(contexts),
        unique_questions=len(questions),
        unique_answers=len(answers),
    )


def load_corpus(path: str | Path, split: str) -> Corpus:
    return parse_corpus(Path(path).read_bytes(), split, str(path))


def save_corpus(corpus: Corpus, path: str | Path, allow_invalid: bool = False) -> None:
    atomic_write(path, serialize_corpus(corpus, allow_invalid=allow_invalid))

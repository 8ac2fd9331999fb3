"""SQuAD v1.1 corpus model: parse, serialize, span validation, answer collapse, stats.

Answer offsets are Unicode code-point offsets into the context, the same unit
as Python string indices. Parsing takes the file's bytes and is structural
(schema shape, presence, types); whether a span actually matches its context
is a semantic question answered by :func:`validate_spans`, so invalid files
can still be loaded, audited and written back.

Serialization is deterministic, streamed one article at a time, and checks
no span: serializing the same corpus twice yields byte-identical documents,
and ``parse_corpus(b"".join(serialize_corpus(c)))`` preserves every record.
Unknown fields on qa objects (e.g. ``is_impossible``) are kept and
re-emitted; unknown fields at the document/article/paragraph level are
dropped with a warning.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator, Mapping

from ._text import ARRAY, INTEGER, STRING, atomic_write, check_fields, parse_json
from .errors import (
    EmptyAnswersError,
    EncodingError,
    FieldError,
    MalformedDocumentError,
)

logger = logging.getLogger(__name__)

SPLITS = ("train", "test")

# Span violation reasons reported by validate_spans.
VIOLATION_EMPTY_ANSWER = "empty-answer"
VIOLATION_OUT_OF_BOUNDS = "start-out-of-bounds"
VIOLATION_SUBSTRING_MISMATCH = "substring-mismatch"

# The fields of each node of a SQuAD v1.1 document, and their JSON types. A
# qa keeps any other field as ``extra``; the other nodes drop it with a
# warning.
_DOCUMENT_FIELDS = {"data": ARRAY, "version": ((str, int, float), "a string or a number")}
_ARTICLE_FIELDS = {"title": STRING, "paragraphs": ARRAY}
_PARAGRAPH_FIELDS = {"context": STRING, "qas": ARRAY}
_QA_FIELDS = {"id": STRING, "question": STRING, "answers": ARRAY}
_ANSWER_FIELDS = {"text": STRING, "answer_start": INTEGER}


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


def parse_corpus(raw: bytes, split: str, where: str = "input") -> Corpus:
    """Parse SQuAD v1.1 JSON bytes into a Corpus, preserving document order.

    Raises MalformedDocumentError (with the path to the offending node) on
    schema violations and EncodingError on non-UTF-8 input; each message
    starts with ``where``, the file the bytes came from.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    try:
        doc = parse_json(raw, where)
    except EncodingError:
        raise
    except ValueError as exc:
        raise MalformedDocumentError(str(exc)) from exc

    def require(condition: bool, message: str, path: str) -> None:
        if not condition:
            raise MalformedDocumentError(f"{where}: {message}", path)

    records: list[QaRecord] = []
    seen_qids: set[str] = set()
    path = "$"  # the node being checked, which a FieldError names
    try:
        check_fields(doc, "the document", _DOCUMENT_FIELDS, optional=("version",))
        for key in doc.keys() - _DOCUMENT_FIELDS.keys():
            logger.warning("dropping unknown document-level field %r", key)
        for ai, article in enumerate(doc["data"]):
            path = apath = f"data[{ai}]"
            check_fields(article, "an article", _ARTICLE_FIELDS, optional=("title",))
            title = article.get("title", "")
            for key in article.keys() - _ARTICLE_FIELDS.keys():
                logger.warning("dropping unknown article-level field %r at %s", key, apath)

            for pi, para in enumerate(article["paragraphs"]):
                path = ppath = f"{apath}.paragraphs[{pi}]"
                check_fields(para, "a paragraph", _PARAGRAPH_FIELDS)
                context = para["context"]
                require(context != "", "context must be non-empty", ppath)
                for key in para.keys() - _PARAGRAPH_FIELDS.keys():
                    logger.warning("dropping unknown paragraph-level field %r at %s", key, ppath)

                for qi, qa in enumerate(para["qas"]):
                    path = qpath = f"{ppath}.qas[{qi}]"
                    check_fields(qa, "a qa", _QA_FIELDS)
                    qid = qa["id"]
                    require(qid != "", "'id' must not be empty", qpath)
                    require(qa["question"] != "", "'question' must not be empty", qpath)
                    require(qa["answers"] != [], "'answers' must not be empty", qpath)
                    require(qid not in seen_qids, f"duplicate question id {qid!r}", qpath)
                    seen_qids.add(qid)

                    spans: list[AnswerSpan] = []
                    for xi, ans in enumerate(qa["answers"]):
                        path = f"{qpath}.answers[{xi}]"
                        check_fields(ans, "an answer", _ANSWER_FIELDS)
                        spans.append(AnswerSpan(text=ans["text"], start=ans["answer_start"]))

                    records.append(
                        QaRecord(
                            qid=qid,
                            question=qa["question"],
                            context=context,
                            answers=tuple(spans),
                            title=title,
                            extra={k: qa[k] for k in sorted(qa.keys() - _QA_FIELDS.keys())},
                        )
                    )
    except FieldError as exc:
        raise MalformedDocumentError(f"{where}: {exc}", path) from exc

    return Corpus(split=split, records=tuple(records), version=str(doc.get("version", "1.1")))


# One encoder for every chunk: ``json.dumps`` with options builds a new one per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def serialize_corpus(corpus: Corpus) -> Iterator[bytes]:
    """Emit deterministic SQuAD v1.1 JSON as UTF-8 chunks, one per article.

    The chunks are the document's head (``{"version":...,"data":[``), each
    article in turn, a ``,`` between two articles, and the closing ``]}``;
    joined, they are the bytes of
    ``json.dumps(doc, ensure_ascii=False, separators=(",", ":"))``. Only one
    article is built at a time, so a writer that streams the chunks
    (``save_corpus``, ``pipeline.write_dataset``, both through
    ``atomic_write``) never holds the document whole.

    Consecutive records sharing a title become one article, and within it
    consecutive records sharing a context become one paragraph, so
    parse_corpus(b"".join(serialize_corpus(c))) preserves record order for
    any corpus, grouped or not. Spans are written as they are, sound or
    not: checking them is ``validate_spans``'s job, which
    ``pipeline.write_dataset`` runs before every final output.
    """
    yield f'{{"version":{_ENCODER.encode(corpus.version)},"data":['.encode("utf-8")
    for i, (title, records) in enumerate(groupby(corpus.records, attrgetter("title"))):
        paragraphs: list[dict[str, Any]] = []
        for rec in records:
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
        if i:
            yield b","
        yield _ENCODER.encode({"title": title, "paragraphs": paragraphs}).encode("utf-8")
    yield b"]}"


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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Stream ``serialize_corpus``'s chunks to ``path``, atomically."""
    atomic_write(path, serialize_corpus(corpus))

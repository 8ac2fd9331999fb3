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
from typing import Any, Iterator, Mapping, NoReturn

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
# The array key under each node that holds the next node, outermost first.
_CHILD_ARRAYS = ("data", "paragraphs", "qas", "answers")


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


def _node_path(indices: tuple[int, ...]) -> str:
    """``data[i].paragraphs[j].qas[k].answers[m]``, cut to ``indices``; ``$`` for the document."""
    return ".".join(f"{key}[{i}]" for key, i in zip(_CHILD_ARRAYS, indices)) or "$"


def parse_corpus(raw: bytes, split: str, where: str = "input") -> Corpus:
    """Parse SQuAD v1.1 JSON bytes into a Corpus, preserving document order.

    Raises MalformedDocumentError (with the path to the offending node) on
    schema violations and EncodingError on non-UTF-8 input; each message
    starts with ``where``, the file the bytes came from.

    A qa or answer node, of which a corpus has thousands, has its field
    types tested inline; ``check_fields`` runs only on a node that fails
    that test, to write the error. JSON yields only exact types, so
    ``type(x) is str`` is the test ``check_fields`` makes. Node paths are
    built only for an error or a warning. An unknown article- or
    paragraph-level field is dropped with one warning per level and key,
    naming the first node that holds it and how many more do.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    try:
        doc = parse_json(raw, where)
    except EncodingError:
        raise
    except ValueError as exc:
        raise MalformedDocumentError(str(exc)) from exc

    def refuse(message: str, *indices: int) -> NoReturn:
        raise MalformedDocumentError(f"{where}: {message}", _node_path(indices))

    def check(node: Any, what: str, fields: Mapping, *indices: int, optional=()) -> None:
        try:
            check_fields(node, what, fields, optional)
        except FieldError as exc:
            raise MalformedDocumentError(f"{where}: {exc}", _node_path(indices)) from exc

    records: list[QaRecord] = []
    seen_qids: set[str] = set()
    # (level, key) -> [the first node's indices, how many nodes hold the key]
    dropped: dict[tuple[str, str], list] = {}
    check(doc, "the document", _DOCUMENT_FIELDS, optional=("version",))
    for key in doc.keys() - _DOCUMENT_FIELDS.keys():
        logger.warning("dropping unknown document-level field %r", key)
    for ai, article in enumerate(doc["data"]):
        check(article, "an article", _ARTICLE_FIELDS, ai, optional=("title",))
        title = article.get("title", "")
        for key in article.keys() - _ARTICLE_FIELDS.keys():
            dropped.setdefault(("article", key), [(ai,), 0])[1] += 1

        for pi, para in enumerate(article["paragraphs"]):
            check(para, "a paragraph", _PARAGRAPH_FIELDS, ai, pi)
            context = para["context"]
            if context == "":
                refuse("context must be non-empty", ai, pi)
            for key in para.keys() - _PARAGRAPH_FIELDS.keys():
                dropped.setdefault(("paragraph", key), [(ai, pi), 0])[1] += 1

            for qi, qa in enumerate(para["qas"]):
                if not (
                    type(qa) is dict
                    and type(qa.get("id")) is str
                    and type(qa.get("question")) is str
                    and type(qa.get("answers")) is list
                ):
                    check(qa, "a qa", _QA_FIELDS, ai, pi, qi)
                qid, question, answers = qa["id"], qa["question"], qa["answers"]
                if qid == "":
                    refuse("'id' must not be empty", ai, pi, qi)
                if question == "":
                    refuse("'question' must not be empty", ai, pi, qi)
                if not answers:
                    refuse("'answers' must not be empty", ai, pi, qi)
                if qid in seen_qids:
                    refuse(f"duplicate question id {qid!r}", ai, pi, qi)
                seen_qids.add(qid)

                spans: list[AnswerSpan] = []
                for xi, ans in enumerate(answers):
                    if not (
                        type(ans) is dict
                        and type(ans.get("text")) is str
                        and type(ans.get("answer_start")) is int
                    ):
                        check(ans, "an answer", _ANSWER_FIELDS, ai, pi, qi, xi)
                    spans.append(AnswerSpan(ans["text"], ans["answer_start"]))

                extra = {}
                if len(qa) > len(_QA_FIELDS):  # fields past the known ones are kept
                    extra = {k: qa[k] for k in sorted(qa.keys() - _QA_FIELDS.keys())}
                records.append(QaRecord(qid, question, context, tuple(spans), title, extra))

    # One line per level and key, whatever the corpus size.
    for (level, key), (indices, count) in dropped.items():
        more = f" and {count - 1} more {level}s" if count > 1 else ""
        logger.warning(
            "dropping unknown %s-level field %r at %s%s", level, key, _node_path(indices), more
        )
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

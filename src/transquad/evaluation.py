"""QA evaluation: normalization, Exact Match, token F1, BERTScore core, reporting.

Normalization case-folds Basic-Latin letters, strips all Unicode punctuation
(including the Devanagari danda "।" and double danda "॥"), and splits on
whitespace. No stemming, no stop words, no article stripping - article
removal is an English-ism with no Devanagari counterpart. EM and F1 both
score normalized tokens; F1 uses multiset overlap, the standard SQuAD
definition.

The BERTScore core is model-free: it takes precomputed per-token embedding
vectors and does greedy max-cosine matching with uniform token weights (no
idf, no baseline rescaling). Embeddings come from any EmbeddingProvider; a
table-backed provider is included for offline use, and keeps each table it
parses in a binary sidecar beside it. ``evaluate_predictions``
checks every pair first, then sends the pairs to the provider through the
model gateway (``translation.call_model``) in chunks of at most
``PAIRS_PER_CHUNK``, as many per worker, so the waits of different pairs overlap, and no worker runs out of pairs
while another still has a long chunk ahead of it. The gateway's ``call``
normalizes its chunk's answers and fetches their vectors on a pool thread,
so the first model call waits on one chunk's normalization, not the whole
run's, and the rest overlaps the model. Its ``settle`` does the remaining
local compute: it scores each chunk on the calling thread, in input order,
while later chunks are still waiting on the model.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
import struct
import unicodedata
from array import array
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._kernels import greedy_match
from ._text import (
    LazyTable,
    ascii_casefold,
    atomic_write,
    decode_utf8,
    file_digest,
    parse_json,
    text_lines,
)
from .corpus import Corpus
from .errors import EmbeddingError, MissingEmbeddingError
from .translation import DEFAULT_MAX_WORKERS, call_model

# Entries the normalization table keeps, as ``script_tools.EVIDENCE_CAP``.
NORMALIZE_CAP = 4096

# Pairs per gateway chunk. Each ``embed`` call carries one answer whatever
# the chunk, so a chunk only schedules work: small ones keep every worker
# busy to the end of the run (8 measured best, 1 close; 128 left a worker
# idle for a tenth of the run).
PAIRS_PER_CHUNK = 8


def _normalized_char(ch: str) -> str | None:
    return None if unicodedata.category(ch).startswith("P") else ascii_casefold(ch)


# Code point -> itself, its lower case (A-Z) or None (punctuation, deleted).
_NORMALIZE = LazyTable(_normalized_char, NORMALIZE_CAP)


def normalize(text: str) -> list[str]:
    """Case-fold Basic-Latin letters, drop punctuation, split on whitespace."""
    return text.translate(_NORMALIZE).split()


def exact_match(gold: str, pred: str) -> int:
    """1 iff the normalized token sequences are identical, else 0."""
    return int(normalize(gold) == normalize(pred))


def token_f1(gold: str, pred: str) -> float:
    """Harmonic mean of precision/recall over the normalized token multisets.

    1.0 when both token lists are empty; 0.0 when exactly one is empty or
    nothing overlaps. Symmetric in its arguments.
    """
    return _tokens_f1(normalize(gold), normalize(pred))


def _tokens_f1(gold_tokens: list[str], pred_tokens: list[str]) -> float:
    if not gold_tokens and not pred_tokens:
        return 1.0
    if not gold_tokens or not pred_tokens:
        return 0.0
    overlap = sum((Counter(gold_tokens) & Counter(pred_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def bert_score(
    gold_vecs: Sequence[Sequence[float]] | np.ndarray,
    pred_vecs: Sequence[Sequence[float]] | np.ndarray,
) -> tuple[float, float, float]:
    """(precision, recall, f) of greedy max-cosine matching between vector lists.

    recall averages, over gold vectors, the best cosine against any pred
    vector; precision swaps the roles; f is their harmonic mean. f is 0 when
    P * R <= 0: with opposite signs (or a zero) the harmonic mean has no
    meaning, and near P = -R it would grow without bound. So f stays in
    [-1, 1], negative only when both P and R are. Token weights are uniform.
    """
    gold = np.asarray(gold_vecs, dtype=np.float64)
    pred = np.asarray(pred_vecs, dtype=np.float64)
    if gold.size == 0 or pred.size == 0:
        raise ValueError("bert_score requires non-empty vector lists on both sides")
    if gold.ndim != 2 or pred.ndim != 2:
        raise ValueError("vector lists must be rectangular (one fixed dimension per vector)")
    if gold.shape[1] != pred.shape[1]:
        raise ValueError(
            f"embedding dimension mismatch: gold {gold.shape[1]} vs pred {pred.shape[1]}"
        )
    precision, recall = greedy_match(gold, pred)
    f = 0.0 if precision * recall <= 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


class EmbeddingProvider:
    """Interface: one vector per token, parallel order, fixed dimension.

    ``embed`` gets the normalized tokens of one answer per call, never tokens
    of two answers together, so a contextual model sees each answer alone.
    It must be deterministic per token sequence: ``evaluate_predictions``
    embeds each pair's distinct normalized answer once, and when prediction
    and gold normalize to the same tokens one array serves both sides.

    Calls for different pairs run on up to ``max_workers`` threads at once,
    so ``embed`` must be thread-safe. Those threads normalize each pair
    just before its ``embed`` calls and otherwise only wait on the model;
    the vectors are scored on the thread that called
    ``evaluate_predictions``.
    ``embed`` may raise ``TransientEngineError`` to have the vectors of its
    gateway chunk (at most ``PAIRS_PER_CHUNK`` pairs, the chunks' sizes
    within one of each other) fetched again, with backoff. Another
    ``TransquadError`` (``MissingEmbeddingError``, say) passes through; any
    other exception, or vectors ``bert_score`` cannot score, ends the
    evaluation in ``EmbeddingError``.
    """

    #: How many ``embed`` calls may be in flight at once. A remote model
    #: overlaps its waits; a provider that computes in-process and holds the
    #: GIL is fastest at 1.
    max_workers: int = DEFAULT_MAX_WORKERS

    def embed(self, tokens: Sequence[str]) -> np.ndarray:
        raise NotImplementedError


class TableEmbeddingProvider(EmbeddingProvider):
    """Embeddings from a fixed token -> vector table (for tests and offline runs).

    The vectors are the rows of one C-contiguous float64 ``matrix``, and
    ``index`` maps each token to its row. A lookup runs in-process and holds
    the GIL, so threads have no wait to overlap and only contend:
    ``max_workers`` is 1.
    """

    max_workers = 1

    def __init__(self, table: Mapping[str, Sequence[float]]):
        if not table:
            raise ValueError("embedding table must not be empty")
        rows = []
        dim = None
        for token, vec in table.items():
            arr = np.asarray(vec, dtype=np.float64)
            if dim is None:
                dim = arr.shape[0] if arr.ndim == 1 else -1
            if arr.ndim != 1 or arr.shape[0] != dim:
                raise ValueError(f"vector for {token!r} breaks the fixed dimension {dim}")
            rows.append(arr)
        tokens = list(table)
        matrix = np.array(rows)
        bad = _first_bad_row(matrix)
        if bad is not None:
            row, finite = bad
            problem = "is all zeros" if finite else "has a non-finite component"
            raise ValueError(f"vector for {tokens[row]!r} {problem}")
        self._keep(tokens, matrix)

    def _keep(self, tokens: list[str], matrix: np.ndarray) -> None:
        """Hold checked rows; a later row wins on a duplicate token."""
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        self.index = {token: row for row, token in enumerate(tokens)}
        self.dim = self.matrix.shape[1]

    @classmethod
    def _of_rows(cls, tokens: list[str], matrix: np.ndarray) -> "TableEmbeddingProvider":
        """A provider over rows that ``_first_bad_row`` passed, without copying them."""
        provider = cls.__new__(cls)
        provider._keep(tokens, matrix)
        return provider

    @classmethod
    def from_file(cls, path: str | Path) -> "TableEmbeddingProvider":
        """One line per token: the token, then its whitespace-separated components.

        Blank lines and lines starting with ``#`` are skipped; a later line
        wins on a duplicate token. Each number is parsed by ``float()``, so
        every spelling it takes (``1_000``, Devanagari digits) is read, to its
        bits. A malformed number, a row of another length, a non-finite
        component (``nan``, ``inf``, which ``float()`` accepts) or a row of
        zeros raises ValueError naming ``path:lineno``.

        A table that parses is kept in a sidecar beside it, ``path`` +
        ``.tqemb``, which later loads read instead of parsing the text, so
        the parse runs once per table content. The
        sidecar is keyed by the SHA-256 of the table's bytes, never by its
        size or mtime, and it is used only when whole; any other sidecar is
        ignored and written again. A table or sidecar path that is not a
        regular file gets no sidecar, and a sidecar that cannot be written is
        skipped. Either way the rows pass the checks ``__init__`` makes.
        """
        # Hashed before it is parsed: a table replaced in between is parsed
        # anew and kept under the old hash, which it no longer matches.
        digest = file_digest(path)
        sidecar = sidecar_path(path)
        if digest is not None:
            kept = _read_sidecar(sidecar, digest)
            # Rows the checks refuse are parsed from the text, which names the line.
            if kept is not None and _first_bad_row(kept[1]) is None:
                return cls._of_rows(*kept)
        tokens, matrix = _load_table(path)
        bad = _first_bad_row(matrix)
        if bad is not None:
            row, finite = bad
            lineno = next(itertools.islice(_table_rows(path), row, None))[0]
            if finite:
                raise ValueError(f"{path}:{lineno}: vector for {tokens[row]!r} is all zeros")
            raise ValueError(f"{path}:{lineno}: non-finite vector component")
        provider = cls._of_rows(tokens, matrix)
        if digest is not None:
            _write_sidecar(sidecar, digest, tokens, provider.matrix)
        return provider

    def embed(self, tokens):
        try:
            rows = [self.index[t] for t in tokens]
        except KeyError as exc:
            raise MissingEmbeddingError(f"no embedding for token {exc.args[0]!r}") from None
        return self.matrix[rows]


# Rows checked at once: the checks' boolean temporaries stay this many rows
# long, not the table's, so they add nothing to peak memory.
_CHECK_ROWS = 256


def _first_bad_row(matrix: np.ndarray) -> tuple[int, bool] | None:
    """(row, finite) of the first row with a non-finite component, else of the first row of zeros.

    ``finite`` is False for the first kind and True for the second; None
    when every row is finite and has a non-zero component.
    """
    zeros = None
    for start in range(0, len(matrix), _CHECK_ROWS):
        block = matrix[start : start + _CHECK_ROWS]
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            return start + int(np.argmin(finite)), False
        if zeros is None:
            nonzero = block.any(axis=1)
            if not nonzero.all():
                zeros = start + int(np.argmin(nonzero))
    return None if zeros is None else (zeros, True)


# The sidecar of an embedding table: a magic/version line, then the
# SHA-256 of the table's bytes, the row count, the dimension and the byte
# length of the token block, then the tokens (UTF-8, "\n"-joined; a token
# never holds whitespace), then the rows as little-endian float64.
_SIDECAR_SUFFIX = ".tqemb"
_SIDECAR_MAGIC = b"transquad embedding table 1\n"
_SIDECAR_HEADER = struct.Struct("<32sQQQ")


def sidecar_path(table_path: str | Path) -> Path:
    """Where ``TableEmbeddingProvider.from_file`` keeps the parsed table: beside it."""
    return Path(f"{table_path}{_SIDECAR_SUFFIX}")


def _read_sidecar(sidecar: Path, digest: bytes) -> tuple[list[str], np.ndarray] | None:
    """The tokens and rows a sidecar keeps for the table hashed to ``digest``.

    None unless the sidecar is a regular file whose magic, hash, counts and
    exact length all agree; the counts are checked against the length before
    anything is allocated.
    """
    head_size = len(_SIDECAR_MAGIC) + _SIDECAR_HEADER.size
    try:
        if not stat.S_ISREG(os.stat(sidecar).st_mode):
            return None
        with sidecar.open("rb") as fh:
            head = fh.read(head_size)
            if len(head) != head_size or not head.startswith(_SIDECAR_MAGIC):
                return None
            stored, rows, dim, token_bytes = _SIDECAR_HEADER.unpack_from(head, len(_SIDECAR_MAGIC))
            length = head_size + token_bytes + 8 * rows * dim
            if stored != digest or not rows or not dim or os.fstat(fh.fileno()).st_size != length:
                return None
            tokens = decode_utf8(fh.read(token_bytes), str(sidecar)).split("\n")
            matrix = np.empty((rows, dim), dtype="<f8")
            if len(tokens) != rows or fh.readinto(matrix) != matrix.nbytes:
                return None
    except (OSError, ValueError):
        return None
    return tokens, matrix


def _write_sidecar(sidecar: Path, digest: bytes, tokens: list[str], matrix: np.ndarray) -> None:
    """Keep a parsed table in its sidecar; skipped where it cannot be written.

    A sidecar path that exists but is not a regular file is left alone:
    ``atomic_write`` would write a FIFO in place, and block on it.
    """
    if os.path.exists(sidecar) and not os.path.isfile(sidecar):
        return
    block = "\n".join(tokens).encode("utf-8")
    rows = np.ascontiguousarray(matrix, dtype="<f8")
    head = _SIDECAR_MAGIC + _SIDECAR_HEADER.pack(digest, *rows.shape, len(block))
    try:
        atomic_write(sidecar, (head, block, memoryview(rows)))
    except OSError:
        pass  # a read-only directory or a full disk: the next load parses again


def _load_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Tokens and vectors of an embedding table, each number parsed with ``float()``.

    The rows are appended to one growing ``array("d")``, and the matrix is a
    view of its buffer: the numbers are never held twice.
    """
    tokens: list[str] = []
    flat = array("d")
    for lineno, token, text in _table_rows(path):
        try:
            row = array("d", map(float, text.split()))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if tokens and len(row) != dim:
            raise ValueError(f"{path}:{lineno}: expected {dim} numbers, found {len(row)}")
        dim = len(row)
        tokens.append(token)
        flat += row
    if not tokens:
        raise ValueError(f"{path}: embedding table must not be empty")
    return tokens, np.frombuffer(flat, dtype=np.float64).reshape(len(tokens), dim)


def _table_rows(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """(lineno, token, text of its numbers) for each ``text_lines`` line of an embedding table."""
    for lineno, line in text_lines(path):
        parts = line.split(None, 1)
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: expected a token and at least one number")
        yield lineno, parts[0], parts[1]


@dataclass(frozen=True)
class QuestionScore:
    em: int
    f1: float
    bert_f: float | None = None


@dataclass
class EvalReport:
    per_question: dict[str, QuestionScore] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    mean_em: float | None = None
    mean_f1: float | None = None
    mean_bert_f: float | None = None

    def _aggregate(self) -> dict:
        return {
            "scored": len(self.per_question),
            "exact_match": self.mean_em,
            "f1": self.mean_f1,
            "bert_f": self.mean_bert_f,
        }

    def to_dict(self) -> dict:
        return {
            "aggregate": self._aggregate(),
            "per_question": {
                qid: {"em": s.em, "f1": s.f1, "bert_f": s.bert_f}
                for qid, s in self.per_question.items()
            },
            "skipped": list(self.skipped),
        }

    def to_json(self) -> str:
        """The report as JSON, indented by two.

        The text is that of
        ``json.dumps(self.to_dict(), ensure_ascii=False, indent=2, allow_nan=False)``,
        but CPython's C encoder serves only ``indent=None``, so that call would
        run the pure-Python encoder over every per-question entry. Only the
        aggregate goes through it here; each entry and skipped qid is
        written directly, each qid by the string encoder ``json`` itself
        uses and each score by ``_json_score``. A non-finite score raises
        the ValueError ``json.dumps`` raises, since bare NaN is not JSON.
        """
        head = json.dumps(
            {"aggregate": self._aggregate()}, ensure_ascii=False, indent=2, allow_nan=False
        )
        entries = ",\n".join(
            f'    {encode_basestring(qid)}: {{\n'
            f'      "em": {_json_score(s.em)},\n'
            f'      "f1": {_json_score(s.f1)},\n'
            f'      "bert_f": {_json_score(s.bert_f)}\n'
            "    }"
            for qid, s in self.per_question.items()
        )
        skipped = ",\n".join(f"    {encode_basestring(qid)}" for qid in self.skipped)
        per_question = f"{{\n{entries}\n  }}" if entries else "{}"
        skipped = f"[\n{skipped}\n  ]" if skipped else "[]"
        # head ends in the document's closing "\n}", which goes after the rest.
        return f'{head[:-2]},\n  "per_question": {per_question},\n  "skipped": {skipped}\n}}'


def _json_score(value: float | None) -> str:
    """A score as ``json.dumps(..., allow_nan=False)`` writes it: null, or a number's repr."""
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The model name in the gateway's messages.
_MODEL = "embedding provider"

_Vectors = tuple[np.ndarray, np.ndarray]


def _pair_vectors(
    gold_tokens: list[str], pred_tokens: list[str], embedder: EmbeddingProvider
) -> _Vectors | None:
    """The vectors of both sides of a pair, or None when a side has no tokens."""
    if not gold_tokens or not pred_tokens:
        return None
    gold_vecs = embedder.embed(gold_tokens)
    # Equal tokens give equal vectors from a deterministic provider; the
    # kernel still runs, so the score is the one two calls would give.
    pred_vecs = gold_vecs if pred_tokens == gold_tokens else embedder.embed(pred_tokens)
    return gold_vecs, pred_vecs


def _bert_f(gold_tokens: list[str], pred_tokens: list[str], vectors: _Vectors | None) -> float:
    # Mirror token_f1's edge policy so the report stays total.
    if not gold_tokens and not pred_tokens:
        return 1.0
    if vectors is None:
        return 0.0
    _, _, f = bert_score(*vectors)
    return f


def evaluate_predictions(
    gold: Corpus,
    predictions: Mapping[str, str],
    embedder: EmbeddingProvider | None = None,
) -> EvalReport:
    """Score every gold question that has a prediction; list the rest as skipped.

    Gold records must carry exactly one answer (run collapse_answers first).
    Aggregates are plain means over the scored questions; skipped questions
    are excluded, not zero-filled, and reported so the choice is auditable.
    BERTScore is omitted entirely when no embedder is supplied. Each side of
    a pair is normalized once (again only if the provider asks for its
    chunk to be retried), and each distinct normalized answer of a pair is
    embedded once.

    Every pair is checked (one gold answer, a string prediction) before
    any ``embed`` call. The pairs then go
    through ``call_model`` in chunks of at most ``PAIRS_PER_CHUNK``, up to
    ``embedder.max_workers`` at once. Its ``call`` normalizes each pair of
    its chunk and fetches the pair's vectors, on a pool thread; its
    ``settle`` scores the chunk on this thread while later chunks still
    wait on the model. Chunks are scored and reported in input order, so
    the report does not depend on the parallelism.
    """
    report = EvalReport()
    pairs: list[tuple[str, str, str]] = []
    for rec in gold.records:
        if len(rec.answers) != 1:
            raise ValueError(
                f"gold record {rec.qid!r} has {len(rec.answers)} answers; "
                "collapse answers before evaluating"
            )
        if rec.qid not in predictions:
            report.skipped.append(rec.qid)
            continue
        prediction = predictions[rec.qid]
        # Refused here, before a pool thread's normalize would blame the provider.
        if not isinstance(prediction, str):
            raise ValueError(f"prediction for {rec.qid!r} must be a string, got {prediction!r}")
        pairs.append((rec.qid, rec.answers[0].text, prediction))

    def record(qid: str, gold_tokens: list[str], pred_tokens: list[str], bert_f) -> None:
        report.per_question[qid] = QuestionScore(
            em=int(gold_tokens == pred_tokens),
            f1=_tokens_f1(gold_tokens, pred_tokens),
            bert_f=bert_f,
        )

    def fetch(chunk):
        replies = []
        for _, gold_text, pred_text in chunk:
            gold_tokens, pred_tokens = normalize(gold_text), normalize(pred_text)
            vectors = _pair_vectors(gold_tokens, pred_tokens, embedder)
            replies.append((gold_tokens, pred_tokens, vectors))
        return replies

    def score(chunk, replies) -> None:
        try:
            bert_fs = [_bert_f(*reply) for reply in replies]
        except (TypeError, ValueError) as exc:  # vectors np.asarray or bert_score refuse
            raise EmbeddingError(f"{_MODEL} failed on a chunk of {len(chunk)}: {exc}") from exc
        for (qid, _, _), (gold_tokens, pred_tokens, _), bert_f in zip(chunk, replies, bert_fs):
            record(qid, gold_tokens, pred_tokens, bert_f)

    if embedder is None:
        for qid, gold_text, pred_text in pairs:
            record(qid, normalize(gold_text), normalize(pred_text), None)
    else:
        call_model(
            fetch,
            pairs,
            _MODEL,
            lambda message, chunk: EmbeddingError(message),
            score,
            batch_size=PAIRS_PER_CHUNK,
            max_workers=embedder.max_workers,
        )
    scored = report.per_question.values()
    if scored:
        report.mean_em = sum(s.em for s in scored) / len(scored)
        report.mean_f1 = sum(s.f1 for s in scored) / len(scored)
        if embedder is not None:
            report.mean_bert_f = sum(s.bert_f for s in scored) / len(scored)
    return report


def load_predictions(path: str | Path) -> dict[str, str]:
    """Standard SQuAD prediction format: one JSON object mapping qid -> answer."""
    data = parse_json(Path(path).read_bytes(), str(path))
    if not isinstance(data, dict) or not all(isinstance(v, str) for v in data.values()):
        raise ValueError(f"{path}: predictions must be a JSON object mapping qid to string")
    return data

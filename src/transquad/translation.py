"""One gateway for the remote models, plus engines, cache and dedup for translation.

``call_model`` sends a list to a model in chunks, with retries and a thread
pool that is never handed more than two chunks per worker at once. It
serves all three remote models: the translation engine, the
transliterator and the embedding model behind BERTScore
(``evaluation.evaluate_predictions``). No real MT model lives here: engines
are a one-method interface plus deterministic mocks (identity and
word-table dictionary) so the whole pipeline runs offline. The dictionary
engine passes unknown words through untouched, which mimics the
untranslated residue the script tools clean up afterwards.

The cache is a JSON Lines file keyed by (engine_id, source_lang, target_lang,
source_text), where engine_id is that of the engine that made the entry. It
is loaded into memory when opened and appended to once per engine chunk, so
entries survive process restarts. The dictionary engine's id names the
content of its table, so an entry is served only to a run with the table
that made it.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from ._text import STRING, check_fields, file_digest, json_digest, parse_json, read_tsv_table
from .errors import (
    CacheIOError,
    ConfigValidationError,
    EngineError,
    EngineUnavailableError,
    FieldError,
    TransientEngineError,
    TransquadError,
)

logger = logging.getLogger(__name__)

CacheKey = tuple[str, str, str, str]  # engine_id, source_lang, target_lang, source_text
Item = TypeVar("Item")  # what call_model sends to a model
Reply = TypeVar("Reply")  # what the model returns per item

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_BASE = 1.0  # seconds; doubles per retry
DEFAULT_BATCH_SIZE = 128  # texts per engine call
DEFAULT_MAX_WORKERS = 4


@dataclass(frozen=True)
class TranslationRequest:
    texts: tuple[str, ...]
    source_lang: str
    target_lang: str

    def __post_init__(self) -> None:
        if not self.texts:
            raise ValueError("request must carry at least one text")
        if not self.source_lang or not self.target_lang:
            raise ValueError("language codes must be non-empty")


class TranslationEngine:
    """Interface: a parallel string-list translator; contract as ``script_tools.Transliterator``."""

    engine_id = "base"

    def translate(self, texts: Sequence[str], source_lang: str, target_lang: str) -> list[str]:
        raise NotImplementedError


class IdentityEngine(TranslationEngine):
    engine_id = "identity"

    def translate(self, texts, source_lang, target_lang):
        return list(texts)


class DictionaryEngine(TranslationEngine):
    """Word-by-word translation via a lookup table; unknown words pass through.

    Tokens are whitespace-split and rejoined with single spaces, so this is a
    mock, not a segmenter. The engine is named after its table, so a cache
    never serves one table's translations to another, nor a table's old
    translations after it is edited: one built from a mapping is
    ``dictionary:<SHA-256 hex of its sorted entries as JSON>``, and one read
    ``from_file`` ``dictionary:<SHA-256 hex of the table's bytes>``.
    """

    def __init__(self, table: Mapping[str, str]):
        self.table = dict(table)

    @cached_property
    def engine_id(self) -> str:
        # Hashed on first use: from_file puts the file's digest in its place,
        # so a table read from a file never pays for hashing its entries too.
        return f"dictionary:{json_digest(sorted(self.table.items()))}"

    @classmethod
    def from_file(cls, path: str | Path) -> "DictionaryEngine":
        """Two-column tab-separated file: source term, target term.

        A table that is not a regular file (a FIFO) cannot be hashed without
        being consumed: it keeps the name of the entries it parses to.
        """
        # Hashed before it is parsed, as TableEmbeddingProvider.from_file does.
        digest = file_digest(path)
        engine = cls(read_tsv_table(path))
        if digest is not None:
            engine.engine_id = f"dictionary:{digest.hex()}"
        return engine

    def translate(self, texts, source_lang, target_lang):
        return [" ".join(self.table.get(w, w) for w in t.split()) for t in texts]


def build_engine(engine_id: str) -> TranslationEngine:
    """Resolve an engine id from configuration.

    Known ids: ``identity``, ``dictionary:<table-path>``.
    """
    if engine_id == "identity":
        return IdentityEngine()
    if engine_id.startswith("dictionary:"):
        return DictionaryEngine.from_file(engine_id.split(":", 1)[1])
    raise ConfigValidationError(f"unknown engine id {engine_id!r}", field="engine_id")


# A cache line holds the key fields, in CacheKey order, then "value" and "timestamp".
_KEY_FIELDS = ("engine_id", "source_lang", "target_lang", "source_text")
_CACHE_LINE_TYPES = dict.fromkeys((*_KEY_FIELDS, "value"), STRING)
_cache_key = itemgetter(*_KEY_FIELDS)


class TranslationCache:
    """Persistent translation store backed by an append-only JSON Lines file.

    Each line carries engine_id, source_lang, target_lang, source_text, value
    (plus a timestamp). The whole file is loaded on open; later lines win on
    duplicate keys. ``store_many`` appends its entries in one write and one
    flush, so a crash mid-append leaves every earlier chunk whole and at most
    one torn last line, which is dropped and cut off before the next append.
    Safe for concurrent lookup and store_many; values for a key are
    deterministic per engine, so last-writer-wins is harmless.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: dict[CacheKey, str] = {}
        self._lock = threading.Lock()
        self._handle = None
        # How the first append repairs a file that does not end in a newline:
        # cut a torn last line off at this byte offset, or end a last line
        # that parsed, so no record is glued onto it.
        self._torn_at: int | None = None
        self._needs_newline = False
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        """Read every line; a torn last line (a crash mid-append) is dropped.

        Anywhere else, a line that does not parse, or whose key fields or
        value are not strings, raises CacheIOError naming ``path:lineno``.
        """
        end = 0
        try:
            with self._path.open("rb") as fh:
                for lineno, line in enumerate(fh, 1):
                    start, end = end, end + len(line)
                    terminated = line.endswith(b"\n")
                    if not line.strip():
                        continue
                    where = f"{self._path}:{lineno}"
                    try:
                        rec = parse_json(line, where)
                        check_fields(rec, "a cache line", _CACHE_LINE_TYPES)
                    except ValueError as exc:
                        if terminated:
                            # parse_json names the line; check_fields does not.
                            message = f"{where}: {exc}" if isinstance(exc, FieldError) else exc
                            raise CacheIOError(f"cannot load cache {message}") from exc
                        logger.warning("dropping torn last line %s (%d bytes)", where, len(line))
                        self._torn_at = start
                        return
                    self._entries[_cache_key(rec)] = rec["value"]
                    self._needs_newline = not terminated
        except OSError as exc:
            raise CacheIOError(f"cannot load cache {self._path}: {exc.strerror}") from exc

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: CacheKey) -> str | None:
        with self._lock:
            return self._entries.get(key)

    def store_many(self, items: Iterable[tuple[CacheKey, str]]) -> None:
        """Store every (key, value) pair, appending them to the file in one write and one flush."""
        items = list(items)
        with self._lock:
            self._entries.update(items)
            if self._path is None or not items:
                return
            try:
                if self._handle is None:
                    self._handle = self._path.open("a", encoding="utf-8")
                    if self._torn_at is not None:
                        self._handle.truncate(self._torn_at)
                    elif self._needs_newline:
                        self._handle.write("\n")
                    self._torn_at, self._needs_newline = None, False
                stamp = time.time()
                self._handle.write(
                    "".join(
                        json.dumps(
                            {**dict(zip(_KEY_FIELDS, key)), "value": value, "timestamp": stamp},
                            ensure_ascii=False,
                        )
                        + "\n"
                        for key, value in items
                    )
                )
                self._handle.flush()
            except OSError as exc:
                raise CacheIOError(f"cannot write cache {self._path}: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "TranslationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def call_model(
    call: Callable[[list[Item]], Sequence[Reply]],
    items: list[Item],
    model: str,
    error: Callable[[str, list[Item]], TransquadError],
    settle: Callable[[list[Item], list[Reply]], None],
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_workers: int = DEFAULT_MAX_WORKERS,
    sleep: Callable[[float], None] | None = None,
) -> None:
    """Send ``items`` to a model in chunks; ``settle(chunk, outputs)`` receives each reply.

    Chunks of at most ``batch_size`` items go out in input order, up to
    ``max_workers`` at once, and are settled in input order as they arrive:
    results do not depend on the parallelism or the chunking, and a failure
    on a later chunk leaves every earlier one settled. At most
    ``2 * max_workers`` chunks are submitted and not yet settled: the next
    chunk is submitted before the oldest is waited on and settled, so the
    workers never run dry, and no more replies than that are held at once.
    Once a chunk fails, no later chunk calls the model again: one that has
    not started never starts, and one waiting to retry stops at once.

    ``call`` runs on the pool threads and should mostly wait on the model;
    preparing its own chunk's inputs there (the evaluator normalizes its
    answers) keeps that work off the first model call's path. ``settle``
    runs on the calling thread, which is otherwise idle while it waits for
    the oldest chunk, so local compute on the replies belongs there: it
    then runs while later chunks wait on the model.

    Error policy: a TransientEngineError is retried, up to
    ``DEFAULT_MAX_ATTEMPTS`` attempts with a backoff of
    ``DEFAULT_BACKOFF_BASE`` seconds doubling per retry, and ends in
    EngineUnavailableError when the attempts run out. The backoff is a wait
    that a failure on an earlier chunk cuts short; ``sleep(seconds)``, if
    given, is called in its place. Any other TransquadError passes through.
    Any other exception, or a reply of the wrong length, becomes
    ``error(message, chunk)``; ``model`` names the model in the message.
    """

    chunks = [items[j : j + batch_size] for j in range(0, len(items), batch_size)]
    # The index of the first chunk that failed, and -1 once the call ends (a
    # settle that fails ends it). A chunk after it makes no further model
    # call, and its future is never read: the failure before it in input
    # order is raised first. A chunk before it runs and settles.
    failed_at = len(chunks)
    failure = threading.Condition()

    def run(index: int, chunk: list[Item]) -> list[Reply]:
        last: TransientEngineError | None = None
        for attempt in range(1, DEFAULT_MAX_ATTEMPTS + 1):
            if failed_at < index:
                raise CancelledError
            try:
                out = list(call(chunk))
            except TransientEngineError as exc:
                last = exc
                if attempt < DEFAULT_MAX_ATTEMPTS:
                    delay = DEFAULT_BACKOFF_BASE * 2 ** (attempt - 1)
                    if sleep is not None:
                        sleep(delay)
                    else:
                        with failure:  # cut short by a failure before this chunk
                            failure.wait_for(lambda: failed_at < index, delay)
                continue
            except TransquadError:
                raise
            except Exception as exc:
                raise error(f"{model} failed on a chunk of {len(chunk)}: {exc}", chunk) from exc
            if len(out) != len(chunk):
                raise error(f"{model} returned {len(out)} replies for {len(chunk)} inputs", chunk)
            return out
        raise EngineUnavailableError(
            f"{model} still failing after {DEFAULT_MAX_ATTEMPTS} attempts"
        ) from last

    if max_workers <= 1 or len(chunks) <= 1:
        for index, chunk in enumerate(chunks):
            settle(chunk, run(index, chunk))
        return

    def fail(index: int) -> None:
        nonlocal failed_at
        with failure:
            failed_at = min(failed_at, index)
            failure.notify_all()

    def start(index: int, chunk: list[Item]) -> list[Reply]:
        try:
            return run(index, chunk)
        except BaseException:
            fail(index)
            raise

    window: deque[tuple[list[Item], Future[list[Reply]]]] = deque()

    def settle_oldest() -> None:
        chunk, future = window.popleft()
        settle(chunk, future.result())

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        try:
            for index, chunk in enumerate(chunks):
                window.append((chunk, pool.submit(start, index, chunk)))
                if len(window) == 2 * max_workers:
                    settle_oldest()
            while window:
                settle_oldest()
        finally:
            fail(-1)


def translate_batch(
    request: TranslationRequest,
    engine: TranslationEngine,
    cache: TranslationCache,
    *,
    on_settled: Callable[[list[str]], None] | None = None,
    **gateway: Any,
) -> list[str]:
    """Translate a batch, consulting the cache per text before touching the engine.

    Cache keys carry ``engine.engine_id``: the engine that makes a
    translation names the key it is stored under. The output list is
    parallel to the input (same length, same order). Duplicate texts are
    sent to the engine once. Cache misses go through
    ``call_model``, which takes the keyword arguments (``batch_size``,
    ``max_workers``, ...), and each chunk is cached as it is settled, so an
    engine failure on a later chunk keeps every earlier one cached.
    ``on_settled(outputs)`` then receives the chunk's engine outputs, on the
    calling thread, while later chunks may still be in flight; cache hits
    never reach it.
    """
    texts = list(request.texts)
    results: list[str | None] = [None] * len(texts)
    pending: dict[str, list[int]] = {}
    prefix = (engine.engine_id, request.source_lang, request.target_lang)
    for i, text in enumerate(texts):
        hit = cache.lookup((*prefix, text))
        if hit is not None:
            results[i] = hit
        else:
            pending.setdefault(text, []).append(i)

    def settle(chunk: list[str], out: list[str]) -> None:
        cache.store_many(((*prefix, source), value) for source, value in zip(chunk, out))
        for source, value in zip(chunk, out):
            for i in pending[source]:
                results[i] = value
        if on_settled is not None:
            on_settled(out)

    call_model(
        lambda chunk: engine.translate(chunk, request.source_lang, request.target_lang),
        list(pending),
        f"engine {engine.engine_id!r}",
        lambda message, chunk: EngineError(message),
        settle,
        **gateway,
    )
    return results  # type: ignore[return-value]  # every slot is filled above

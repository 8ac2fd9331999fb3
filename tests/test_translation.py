"""Translation gateway: mock engines, cache persistence, batching, retry."""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
import time
from pathlib import Path

import pytest

from transquad import translation
from transquad.errors import (
    CacheIOError,
    ConfigValidationError,
    EngineError,
    EngineUnavailableError,
    TransientEngineError,
)
from transquad.translation import (
    DictionaryEngine,
    IdentityEngine,
    TranslationCache,
    TranslationEngine,
    TranslationRequest,
    build_engine,
    call_model,
    translate_batch,
)

from conftest import CountingEngine, UppercaseEngine


def request(texts):
    return TranslationRequest(texts=tuple(texts), source_lang="en", target_lang="mr")


# -- engines --


def test_identity_engine():
    assert IdentityEngine().translate(["a", "b"], "en", "mr") == ["a", "b"]


def test_dictionary_engine_table_lookup():
    engine = DictionaryEngine({"cat": "मांजर"})
    assert engine.translate(["cat"], "en", "mr") == ["मांजर"]


def test_dictionary_engine_passes_unknown_words_through():
    engine = DictionaryEngine({"cat": "मांजर"})
    assert engine.translate(["the cat sat"], "en", "mr") == ["the मांजर sat"]


def test_dictionary_engine_from_tsv(tmp_path):
    table = tmp_path / "table.tsv"
    table.write_text("# comment\ncat\tमांजर\ndog\tकुत्रा\n", encoding="utf-8")
    engine = DictionaryEngine.from_file(table)
    assert engine.translate(["cat dog"], "en", "mr") == ["मांजर कुत्रा"]
    table.write_text("cat\tमांजर\ndog only\n", encoding="utf-8")
    with pytest.raises(ValueError, match="table.tsv:2"):
        DictionaryEngine.from_file(table)


def test_dictionary_engine_from_tsv_drops_a_byte_order_mark(tmp_path):
    table = tmp_path / "table.tsv"
    table.write_bytes(b"\xef\xbb\xbfword\tx\n")
    assert DictionaryEngine.from_file(table).translate(["word"], "en", "mr") == ["x"]


def test_uppercase_engine():
    """The test double lives under tests/; configs cannot name it."""
    assert UppercaseEngine().translate(["abc"], "en", "mr") == ["ABC"]
    with pytest.raises(ConfigValidationError):
        build_engine(UppercaseEngine.engine_id)


def test_build_engine_registry(tmp_path):
    assert isinstance(build_engine("identity"), IdentityEngine)
    table = tmp_path / "t.tsv"
    table.write_text("a\tb\n", encoding="utf-8")
    assert isinstance(build_engine(f"dictionary:{table}"), DictionaryEngine)
    with pytest.raises(ConfigValidationError):
        build_engine("no-such-engine")


def test_dictionary_engine_from_file_is_named_after_its_table_bytes(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_bytes("cat\tमांजर\n".encode("utf-8"))
    digest = hashlib.sha256("cat\tमांजर\n".encode("utf-8")).hexdigest()
    assert build_engine(f"dictionary:{table}").engine_id == f"dictionary:{digest}"
    table.write_bytes("cat\tबोका\n".encode("utf-8"))  # an edit in place renames the engine
    assert DictionaryEngine.from_file(table).engine_id != f"dictionary:{digest}"
    # The name is the content's: a copy elsewhere is the same engine.
    copy = tmp_path / "copy.tsv"
    copy.write_bytes(table.read_bytes())
    assert DictionaryEngine.from_file(copy).engine_id == DictionaryEngine.from_file(table).engine_id
    # One built from a mapping is named after its sorted entries.
    entries = json.dumps([["cat", "x"]], ensure_ascii=False).encode("utf-8")
    assert DictionaryEngine({"cat": "x"}).engine_id == (
        f"dictionary:{hashlib.sha256(entries).hexdigest()}"
    )
    assert DictionaryEngine({"cat": "y"}).engine_id != DictionaryEngine({"cat": "x"}).engine_id
    assert DictionaryEngine({"a": "1", "b": "2"}).engine_id == (
        DictionaryEngine({"b": "2", "a": "1"}).engine_id
    )


def test_dictionary_engine_from_a_fifo_is_named_after_its_entries(tmp_path):
    fifo = tmp_path / "t.tsv"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=lambda: fifo.write_bytes("# c\ncat\tमांजर\n".encode("utf-8")), daemon=True
    )
    writer.start()
    engine = DictionaryEngine.from_file(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    entries = json.dumps([["cat", "मांजर"]], ensure_ascii=False).encode("utf-8")
    assert engine.engine_id == f"dictionary:{hashlib.sha256(entries).hexdigest()}"
    assert engine.translate(["cat"], "en", "mr") == ["मांजर"]


# -- cache --


def test_cache_lookup_before_store_is_absent(tmp_path):
    with TranslationCache(tmp_path / "cache.jsonl") as cache:
        assert cache.lookup(("identity", "en", "mr", "hello")) is None


def test_cache_store_then_lookup(tmp_path):
    key = ("identity", "en", "mr", "hello")
    with TranslationCache(tmp_path / "cache.jsonl") as cache:
        cache.store_many([(key, "नमस्कार")])
        assert cache.lookup(key) == "नमस्कार"


def test_cache_survives_reopen(tmp_path):
    path = tmp_path / "cache.jsonl"
    key = ("identity", "en", "mr", "hello")
    with TranslationCache(path) as cache:
        cache.store_many([(key, "नमस्कार")])
    with TranslationCache(path) as reopened:
        assert reopened.lookup(key) == "नमस्कार"


def _cache_with_two_entries(path):
    with TranslationCache(path) as cache:
        cache.store_many([(("identity", "en", "mr", "a"), "A")])
        cache.store_many([(("identity", "en", "mr", "b"), "B")])


def _reopen_and_store_twice(path):
    cache = TranslationCache(path)
    assert len(cache) == 2
    cache.store_many([(("identity", "en", "mr", "c"), "C")])
    cache.close()  # the file is repaired once; a store after close appends
    cache.store_many([(("identity", "en", "mr", "d"), "D")])
    cache.close()
    with TranslationCache(path) as reopened:
        got = [reopened.lookup(("identity", "en", "mr", t)) for t in "abcd"]
    assert got == ["A", "B", "C", "D"]
    assert path.read_bytes().endswith(b"\n") and path.read_bytes().count(b"\n") == 4


def test_cache_drops_torn_trailing_line(tmp_path):
    # A crash mid-append leaves half a JSON line at the end of the file,
    # here cut inside a multi-byte character.
    path = tmp_path / "cache.jsonl"
    _cache_with_two_entries(path)
    with path.open("ab") as fh:
        fh.write('{"engine_id": "identity", "value": "नम'.encode("utf-8")[:-1])
    _reopen_and_store_twice(path)


def test_cache_ends_unterminated_last_line_before_appending(tmp_path):
    path = tmp_path / "cache.jsonl"
    _cache_with_two_entries(path)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    _reopen_and_store_twice(path)


@pytest.mark.parametrize(
    "bad, message",
    [
        ('{"engine_id": "iden', "not valid JSON: "),
        ('{"engine_id": "identity", "source_lang": "en", "target_lang": "mr", '
         '"source_text": "c", "value": 5}', "'value' must be a string, got 5"),
        ('{"engine_id": "identity", "source_lang": "en", "target_lang": "mr", '
         '"source_text": null, "value": "C"}', "'source_text' must be a string, got None"),
        ('{"engine_id": "identity", "source_lang": "en", "target_lang": "mr", "source_text": "c"}',
         "missing key 'value'"),
    ],
    ids=["not-json", "value-not-a-string", "key-field-null", "value-missing"],
)
def test_cache_corrupt_middle_line_names_path_and_line(tmp_path, bad, message):
    path = tmp_path / "cache.jsonl"
    _cache_with_two_entries(path)
    first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(first + bad + "\n" + second, encoding="utf-8")
    with pytest.raises(CacheIOError, match=re.escape(f"cannot load cache {path}:2: {message}")):
        TranslationCache(path)


def test_cache_key_includes_engine_id(tmp_path):
    with TranslationCache(tmp_path / "cache.jsonl") as cache:
        cache.store_many([(("engine-a", "en", "mr", "x"), "from-a")])
        assert cache.lookup(("engine-b", "en", "mr", "x")) is None


class CountingFile:
    """A file proxy that counts write and flush calls."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0
        self.flushes = 0

    def write(self, data):
        self.writes += 1
        return self.fh.write(data)

    def flush(self):
        self.flushes += 1
        self.fh.flush()

    def truncate(self, size):
        return self.fh.truncate(size)

    def close(self):
        self.fh.close()


def test_cache_writes_and_flushes_once_per_chunk(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(CountingFile(real_open(self, *args, **kwargs)))
        return opened[-1]

    texts = [f"word{i}" for i in range(10)]  # chunks of 4: 0-3, 4-7, 8-9
    with TranslationCache(path) as cache:
        monkeypatch.setattr(Path, "open", counting_open)
        translate_batch(request(texts), UppercaseEngine(), cache, batch_size=4)
        cache.store_many([])
        monkeypatch.undo()
    assert len(opened) == 1
    assert (opened[0].writes, opened[0].flushes) == (3, 3)
    with TranslationCache(path) as reopened:
        assert len(reopened) == 10
        assert reopened.lookup(("uppercase", "en", "mr", "word9")) == "WORD9"
    assert path.read_text(encoding="utf-8").count("\n") == 10


def test_cache_in_memory_without_path():
    cache = TranslationCache()
    cache.store_many([(("identity", "en", "mr", "x"), "y")])
    assert cache.lookup(("identity", "en", "mr", "x")) == "y"


# -- translate_batch --


def test_batch_identity():
    out = translate_batch(request(["a", "b"]), IdentityEngine(), TranslationCache())
    assert out == ["a", "b"]


def test_batch_dictionary():
    engine = DictionaryEngine({"cat": "मांजर"})
    out = translate_batch(request(["cat"]), engine, TranslationCache())
    assert out == ["मांजर"]


def test_same_request_twice_hits_cache(tmp_path):
    engine = CountingEngine(IdentityEngine())
    req = request(["a", "b", "c"])
    with TranslationCache(tmp_path / "cache.jsonl") as cache:
        first = translate_batch(req, engine, cache)
        calls_after_first = engine.calls
        second = translate_batch(req, engine, cache)
    assert engine.calls == calls_after_first  # second call served wholly from cache
    assert first == second == ["a", "b", "c"]


def test_duplicate_texts_sent_once():
    engine = CountingEngine(IdentityEngine())
    out = translate_batch(request(["x", "x", "x"]), engine, TranslationCache())
    assert out == ["x", "x", "x"]
    assert engine.texts_translated == 1


def test_cache_coherence_after_batch(tmp_path):
    req = request(["p", "q"])
    with TranslationCache(tmp_path / "cache.jsonl") as cache:
        out = translate_batch(req, UppercaseEngine(), cache)
        for text, value in zip(req.texts, out):
            assert cache.lookup(("uppercase", "en", "mr", text)) == value


def test_one_cache_keeps_two_engines_apart():
    req = request(["cat", "dog"])
    cache = TranslationCache()
    assert translate_batch(req, IdentityEngine(), cache) == ["cat", "dog"]
    assert translate_batch(req, UppercaseEngine(), cache) == ["CAT", "DOG"]
    for engine_id, value in (("identity", str), ("uppercase", str.upper)):
        for text in req.texts:
            assert cache.lookup((engine_id, "en", "mr", text)) == value(text)
    assert len(cache) == 4


def test_one_cache_keeps_two_dictionary_mappings_apart():
    req = request(["cat"])
    cache = TranslationCache()
    assert translate_batch(req, DictionaryEngine({"cat": "x"}), cache) == ["x"]
    assert translate_batch(req, DictionaryEngine({"cat": "y"}), cache) == ["y"]
    # The same entries are the same engine, and are served from the cache.
    engine = CountingEngine(DictionaryEngine({"cat": "x"}))
    assert translate_batch(req, engine, cache) == ["x"]
    assert engine.calls == 0
    assert len(cache) == 2


def test_output_parallel_to_input_with_chunking():
    texts = [f"word{i}" for i in range(23)]
    serial = translate_batch(request(texts), UppercaseEngine(), TranslationCache(), batch_size=4,
                             max_workers=1)
    threaded = translate_batch(request(texts), UppercaseEngine(), TranslationCache(),
                               batch_size=4, max_workers=4)
    assert serial == threaded == [t.upper() for t in texts]


@pytest.mark.parametrize("max_workers", [1, 3])
def test_engine_chunks_keep_input_order(max_workers):
    texts = [f"w{i}" for i in range(12)] + ["w1", "w3"]  # two repeats
    engine = CountingEngine(UppercaseEngine())
    out = translate_batch(request(texts), engine, TranslationCache(), batch_size=5,
                          max_workers=max_workers)
    assert out == [t.upper() for t in texts]
    unique = texts[:12]
    want = [unique[0:5], unique[5:10], unique[10:12]]
    assert sorted(engine.sent, key=lambda chunk: unique.index(chunk[0])) == want
    if max_workers == 1:
        assert engine.sent == want


@pytest.mark.parametrize("max_workers", [1, 3])
def test_on_settled_gets_each_chunk_after_it_is_cached(max_workers):
    texts = [f"w{i}" for i in range(9)] + ["w2"]
    cache = TranslationCache()
    cache.store_many([(("uppercase", "en", "mr", "w4"), "W4")])  # a hit never reaches the hook
    settled = []

    def on_settled(outputs):
        assert all(cache.lookup(("uppercase", "en", "mr", t.lower())) == t for t in outputs)
        settled.append(outputs)

    out = translate_batch(request(texts), UppercaseEngine(), cache, batch_size=3,
                          max_workers=max_workers, on_settled=on_settled)
    assert out == [t.upper() for t in texts]
    assert settled == [["W0", "W1", "W2"], ["W3", "W5", "W6"], ["W7", "W8"]]


def test_wrong_length_from_engine_is_an_error():
    class BrokenEngine(TranslationEngine):
        engine_id = "broken"

        def translate(self, texts, source_lang, target_lang):
            return ["only one"]

    with pytest.raises(EngineError, match="engine 'broken' returned 1 replies for 2 inputs"):
        translate_batch(request(["a", "b"]), BrokenEngine(), TranslationCache())


def test_unexpected_engine_exception_becomes_an_engine_error():
    class CrashingEngine(TranslationEngine):
        engine_id = "crashing"

        def translate(self, texts, source_lang, target_lang):
            raise KeyError("no such model")

    with pytest.raises(EngineError, match="engine 'crashing' failed on a chunk of 2: ") as err:
        translate_batch(request(["a", "b"]), CrashingEngine(), TranslationCache())
    assert isinstance(err.value.__cause__, KeyError)


class FlakyEngine(TranslationEngine):
    engine_id = "flaky"

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def translate(self, texts, source_lang, target_lang):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientEngineError("temporarily down")
        return list(texts)


def test_retry_with_exponential_backoff():
    sleeps = []
    engine = FlakyEngine(failures=2)
    out = translate_batch(request(["a"]), engine, TranslationCache(), sleep=sleeps.append)
    assert out == ["a"]
    assert engine.calls == 3
    assert sleeps == [1.0, 2.0]


def test_retries_exhausted_raises_unavailable():
    sleeps = []
    engine = FlakyEngine(failures=99)
    with pytest.raises(EngineUnavailableError):
        translate_batch(request(["a"]), engine, TranslationCache(), sleep=sleeps.append)
    assert engine.calls == 3
    assert sleeps == [1.0, 2.0]  # no sleep after the final attempt


def test_permanent_engine_error_not_retried():
    class RefusingEngine(TranslationEngine):
        engine_id = "refusing"

        def __init__(self):
            self.calls = 0

        def translate(self, texts, source_lang, target_lang):
            self.calls += 1
            raise EngineError("unsupported language pair")

    engine = RefusingEngine()
    with pytest.raises(EngineError):
        translate_batch(request(["a"]), engine, TranslationCache())
    assert engine.calls == 1


class FailingTextEngine(TranslationEngine):
    """Uppercases, but every call that holds ``bad`` fails transiently."""

    engine_id = "uppercase"

    def __init__(self, bad: str):
        self.bad = bad

    def translate(self, texts, source_lang, target_lang):
        if self.bad in texts:
            raise TransientEngineError("this chunk keeps failing")
        return [t.upper() for t in texts]


@pytest.mark.parametrize("max_workers", [1, 3])
def test_late_chunk_failure_keeps_earlier_chunks_cached(tmp_path, max_workers):
    texts = [f"word{i}" for i in range(10)]  # chunks of 4: 0-3, 4-7, 8-9
    req = request(texts)
    path = tmp_path / "cache.jsonl"
    with TranslationCache(path) as cache, pytest.raises(EngineUnavailableError):
        translate_batch(req, FailingTextEngine("word9"), cache, batch_size=4,
                        max_workers=max_workers, sleep=lambda s: None)

    engine = CountingEngine(UppercaseEngine())
    with TranslationCache(path) as cache:
        assert len(cache) == 8
        out = translate_batch(req, engine, cache, batch_size=4, max_workers=max_workers)
    assert out == [t.upper() for t in texts]
    assert (engine.calls, engine.texts_translated) == (1, 2)


def test_request_validates_inputs():
    with pytest.raises(ValueError):
        TranslationRequest(texts=(), source_lang="en", target_lang="mr")
    with pytest.raises(ValueError):
        TranslationRequest(texts=("a",), source_lang="", target_lang="mr")


# -- the gateway window --


def uneven(chunk):
    """Uppercase after a wait that differs from chunk to chunk, so chunks finish out of order."""
    time.sleep(sum(map(ord, chunk[0])) % 5 / 2000)
    return [t.upper() for t in chunk]


def engine_error(message, chunk):
    return EngineError(message)


@pytest.mark.parametrize("max_workers", [2, 4])
def test_gateway_keeps_at_most_two_chunks_per_worker_unsettled(monkeypatch, max_workers):
    state = {"open": 0, "peak": 0}

    class CountingPool(translation.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            state["open"] += 1
            state["peak"] = max(state["peak"], state["open"])
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(translation, "ThreadPoolExecutor", CountingPool)
    items = [f"w{i}" for i in range(100)]
    settled = []

    def settle(chunk, out):
        state["open"] -= 1
        settled.append((chunk, out))

    call_model(uneven, items, "model", engine_error, settle, batch_size=3,
               max_workers=max_workers)
    assert state == {"open": 0, "peak": 2 * max_workers}
    want = [items[j : j + 3] for j in range(0, 100, 3)]
    assert settled == [(chunk, [t.upper() for t in chunk]) for chunk in want]


def test_chunks_that_have_not_started_are_cancelled_after_a_failure():
    started = []
    crashed = threading.Event()

    def call(chunk):
        started.append(chunk[0])
        if chunk[0] == 0:
            crashed.set()
            raise RuntimeError("model crashed")
        # Busy until well after the crash, so this worker could start another chunk.
        crashed.wait(10)
        time.sleep(0.2)
        return chunk

    with pytest.raises(EngineError, match="model crashed"):
        call_model(call, list(range(40)), "model", engine_error, lambda chunk, out: None,
                   batch_size=1, max_workers=2)
    # Chunk 0 and at most the one chunk the other worker had started.
    assert 0 in started and set(started) <= {0, 1}


def test_a_failure_cuts_short_the_backoff_of_a_later_chunk():
    called = []

    def call(chunk):
        called.append(chunk[0])
        if chunk[0] == 0:
            time.sleep(0.05)
            raise RuntimeError("crashed")
        raise TransientEngineError("busy")  # chunk 1 backs off 1 s, then 2 s

    began = time.monotonic()
    with pytest.raises(EngineError, match="model failed on a chunk of 1: crashed"):
        call_model(call, [0, 1], "model", engine_error, lambda chunk, out: None,
                   batch_size=1, max_workers=2)
    assert time.monotonic() - began < 0.5
    assert sorted(called) == [0, 1]  # chunk 1 never calls the model again


@pytest.mark.parametrize("bad", [3, 17, 40])
def test_under_thread_churn_the_first_failure_is_raised_after_every_earlier_chunk(bad):
    # Chunks bad, bad + 7, ... crash; every fifth chunk fails once first.
    failed_once = set()
    lock = threading.Lock()

    def call(chunk):
        with lock:
            first_try = chunk[0] % 5 == 0 and chunk[0] not in failed_once
            failed_once.add(chunk[0])
        if first_try:
            raise TransientEngineError("busy")
        if chunk[0] >= bad and (chunk[0] - bad) % 7 == 0:
            raise RuntimeError(f"crashed on {chunk[0]}")
        return chunk

    settled = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(EngineError, match=f"crashed on {bad}$"):
            call_model(call, list(range(60)), "model", engine_error,
                       lambda chunk, out: settled.append(chunk[0]), batch_size=1,
                       max_workers=8, sleep=lambda seconds: time.sleep(0.001))
    finally:
        sys.setswitchinterval(interval)
    assert settled == list(range(bad))


@pytest.mark.parametrize("max_workers", [1, 4])
def test_chunks_settle_and_are_cached_in_input_order(tmp_path, max_workers):
    texts = [f"w{i}" for i in range(60)]
    settled = []

    class UnevenEngine(TranslationEngine):
        engine_id = "uppercase"

        def translate(self, texts, source_lang, target_lang):
            return uneven(texts)

    path = tmp_path / "cache.jsonl"
    with TranslationCache(path) as cache:
        out = translate_batch(request(texts), UnevenEngine(), cache, batch_size=2,
                              max_workers=max_workers, on_settled=settled.append)
    assert out == [t.upper() for t in texts]
    assert settled == [[t.upper() for t in texts[j : j + 2]] for j in range(0, 60, 2)]
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["source_text"] for line in lines] == texts

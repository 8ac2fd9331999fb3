"""Span recording for the traced benchmark run, installed from outside the program.

Every wrapper is set where a caller looks the name up (``validate_spans`` is
called through ``transquad.pipeline`` and again inside
``transquad.corpus.serialize_corpus``, so both module attributes are
wrapped), and every patch is undone after the traced operation. Spans are
kept in memory as ``[name, start, end, parent, run id]`` and written out when
the benchmark ends. A span's self time is its duration minus the part of it
that its child spans cover.

Span names are ``<layer>.<function>``; the layers are the package's modules,
with ``_kernels`` reported as ``kernels`` because metric names start with a
letter.
"""

from __future__ import annotations

import functools
import gzip
import json
import logging
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "pipeline.run"
# Calls into the embedding provider handed to evaluate_predictions; its self
# time is the wait on the model, the table lookup inside being a child span.
EMBEDDER_SPAN = "evaluation.embedder"

# (name, unit, better): the per-layer metrics, in the order they are printed.
PER_LAYER = [
    ("corpus.parse_s", "s", "lower"),
    ("corpus.collapse_s", "s", "lower"),
    ("corpus.validate_s", "s", "lower"),
    ("corpus.validate_calls", "count", "lower"),
    ("corpus.serialize_s", "s", "lower"),
    ("corpus.stats_s", "s", "lower"),
    ("filtering.filter_s", "s", "lower"),
    ("filtering.records_in", "count", "lower"),
    ("filtering.kept", "count", "higher"),
    ("filtering.rejected", "count", "lower"),
    ("filtering.log_write_s", "s", "lower"),
    ("translation.batch_s", "s", "lower"),
    ("translation.self_s", "s", "lower"),
    ("translation.texts_in", "count", "lower"),
    ("translation.unique_sent", "count", "lower"),
    ("translation.dedup_ratio", "ratio", "lower"),
    ("translation.cache_load_s", "s", "lower"),
    ("translation.cache_entries", "count", "higher"),
    ("translation.cache_hits", "count", "higher"),
    ("translation.cache_misses", "count", "lower"),
    ("translation.cache_hit_ratio", "ratio", "higher"),
    ("translation.cache_stores", "count", "lower"),
    ("translation.cache_store_s", "s", "lower"),
    ("translation.warm_cache_load_s", "s", "lower"),
    ("translation.warm_cache_entries", "count", "higher"),
    ("translation.warm_cache_hit_ratio", "ratio", "higher"),
    ("translation.warm_engine_calls", "count", "lower"),
    ("translation.engine_calls", "count", "lower"),
    ("translation.engine_texts", "count", "lower"),
    ("translation.engine_busy_s", "s", "lower"),
    ("translation.engine_overlap", "ratio", "higher"),
    ("translation.batch_fill", "ratio", "higher"),
    ("translation.retries", "count", "lower"),
    ("translation.engine_failures", "count", "lower"),
    ("script_tools.postprocess_s", "s", "lower"),
    ("script_tools.texts", "count", "lower"),
    ("script_tools.unique_texts", "count", "lower"),
    ("script_tools.unique_ratio", "ratio", "higher"),
    ("script_tools.translit_calls", "count", "lower"),
    ("script_tools.translit_tokens", "count", "lower"),
    ("script_tools.mixed_warnings", "count", "lower"),
    ("alignment.align_s", "s", "lower"),
    ("alignment.candidates", "count", "lower"),
    ("alignment.aligned", "count", "higher"),
    ("alignment.rejected", "count", "lower"),
    ("alignment.kept_ratio", "ratio", "higher"),
    ("pipeline.other_s", "s", "lower"),
    ("pipeline.output_bytes", "B", "lower"),
    ("pipeline.warning_lines", "count", "lower"),
    ("evaluation.load_s", "s", "lower"),
    ("evaluation.embed_load_s", "s", "lower"),
    ("evaluation.score_s", "s", "lower"),
    ("evaluation.normalize_calls", "count", "lower"),
    ("evaluation.embed_calls", "count", "lower"),
    ("evaluation.embed_s", "s", "lower"),
    ("evaluation.model_wait_s", "s", "lower"),
    ("evaluation.report_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.s", "s", "lower"),
    ("kernels.flop", "flop", "lower"),
    ("kernels.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics that are the summed self time of the named spans.
SELF_TIME = {
    "corpus.parse_s": ("corpus.parse_corpus",),
    "corpus.collapse_s": ("corpus.collapse_answers",),
    "corpus.validate_s": ("corpus.validate_spans",),
    "corpus.serialize_s": ("corpus.serialize_corpus",),
    "corpus.stats_s": ("corpus.compute_stats",),
    "filtering.filter_s": ("filtering.filter_corpus",),
    "filtering.log_write_s": ("filtering.RejectionLog.write",),
    "translation.cache_load_s": ("translation.TranslationCache.load",),
    "translation.cache_store_s": ("translation.TranslationCache.store",),
    "script_tools.postprocess_s": (
        "script_tools.transliterate_residuals",
        "script_tools.localize_digits",
        "script_tools.Transliterator.transliterate",
    ),
    "alignment.align_s": ("alignment.align_corpus",),
    "pipeline.other_s": (ROOT_SPAN,),
    "evaluation.load_s": ("corpus.load_corpus", "evaluation.load_predictions"),
    "evaluation.embed_load_s": ("evaluation.TableEmbeddingProvider.from_file",),
    "evaluation.score_s": ("evaluation.evaluate_predictions",),
    "evaluation.embed_s": ("evaluation.TableEmbeddingProvider.embed",),
    "evaluation.model_wait_s": (EMBEDDER_SPAN,),
    "evaluation.report_s": ("evaluation.EvalReport.to_json",),
    "kernels.s": ("kernels.greedy_match",),
}

# Read from the warm-cache run that follows a pipeline workload's timed operations.
WARM = (
    "translation.warm_cache_load_s",
    "translation.warm_cache_entries",
    "translation.warm_cache_hit_ratio",
    "translation.warm_engine_calls",
)

PIPELINE_LAYERS = ("corpus", "filtering", "translation", "script_tools", "alignment", "pipeline")
EVAL_LAYERS = ("corpus", "evaluation", "kernels", "pipeline")


class Tracer:
    """In-memory span and counter store shared by every wrapper of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self.run_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # Engine calls run on pool threads; their parent is whatever the
        # main thread has open (the translate_batch span).
        source = stack or self._main_stack
        parent = source[-1] if source else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recorded as a span ``name``; ``hook(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return counting

    def new_run(self) -> None:
        self.run_id += 1
        self.counters = defaultdict(float)
        self.seen = defaultdict(set)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def set(self, owner, name: str, make) -> None:
        original = vars(owner).get(name)
        if original is None:
            # A refactor removed the name: the traced run reports it and
            # fails rather than print 0 for the metric it fed.
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        self._undo.append((owner, name, original))
        setattr(owner, name, make(getattr(owner, name)))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class TracingEngine:
    """Wraps a translation engine instance: one span and the counts per call."""

    def __init__(self, inner, tracer: Tracer, transient_error: type):
        self.inner = inner
        self.engine_id = inner.engine_id
        self._tracer = tracer
        self._transient = transient_error

    def translate(self, texts, source_lang, target_lang):
        tracer = self._tracer
        idx = tracer.open("translation.engine")
        try:
            out = self.inner.translate(texts, source_lang, target_lang)
        except self._transient:
            tracer.count("translation.engine_failures")
            tracer.count("translation.retries")  # the gateway retries every transient failure
            raise
        except Exception:
            tracer.count("translation.engine_failures")
            raise
        finally:
            tracer.close(idx)
        tracer.count("translation.engine_calls")
        tracer.count("translation.engine_texts", len(texts))
        return out


class TracingTransliterator:
    """Wraps the instance ``build_transliterator`` returns."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer

    def transliterate(self, tokens):
        tracer = self._tracer
        idx = tracer.open("script_tools.Transliterator.transliterate")
        try:
            return self.inner.transliterate(tokens)
        finally:
            tracer.close(idx)
            tracer.count("script_tools.translit_calls")
            tracer.count("script_tools.translit_tokens", len(tokens))


class WarningCounter(logging.Handler):
    """Writes every transquad WARNING to a log file and counts them."""

    def __init__(self, path: Path):
        super().__init__(level=logging.WARNING)
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        self._fh = path.open("a", encoding="utf-8")
        self.lines = 0
        self.mixed = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.lines += 1
        if record.name == "transquad.script_tools" and "mixed-script" in record.msg:
            self.mixed += 1
        self._fh.write(self.format(record) + "\n")

    def reset(self) -> None:
        self.lines = 0
        self.mixed = 0

    def close(self) -> None:
        self._fh.close()
        super().close()


def install(tracer: Tracer, tq) -> Patches:
    """Wrap every traced name in the ``transquad`` package ``tq``; returns the undo list."""
    p = Patches()
    pipeline, corpus, filtering, evaluation = tq.pipeline, tq.corpus, tq.filtering, tq.evaluation
    w, count = tracer.wrap, tracer.count

    def on_filter(args, result):
        kept, log = result
        count("filtering.records_in", len(args[0]))
        count("filtering.kept", len(kept))
        count("filtering.rejected", len(log))

    def on_batch(args, result):
        count("translation.texts_in", len(args[0].texts))

    def on_postprocess(args, result):
        count("script_tools.texts")
        tracer.seen["script_tools.texts"].add(args[0])

    def on_align(args, result):
        aligned, log = result
        count("alignment.candidates", len(args[0]))
        count("alignment.aligned", len(aligned))
        count("alignment.rejected", len(log))

    def on_kernel(args, result):
        gold, pred = args[0], args[1]
        dim = gold.shape[1]
        count("kernels.calls")
        count("kernels.flop", 2 * gold.shape[0] * pred.shape[0] * dim)
        count("kernels.bytes", 8 * (gold.shape[0] + pred.shape[0]) * dim)

    for owner in (pipeline, corpus):
        p.set(owner, "validate_spans", lambda f: w("corpus.validate_spans", f))
        p.set(owner, "parse_corpus", lambda f: w("corpus.parse_corpus", f))
        p.set(owner, "serialize_corpus", lambda f: w("corpus.serialize_corpus", f))
    p.set(pipeline, "collapse_answers", lambda f: w("corpus.collapse_answers", f))
    p.set(pipeline, "compute_stats", lambda f: w("corpus.compute_stats", f))
    p.set(corpus, "load_corpus", lambda f: w("corpus.load_corpus", f))
    p.set(pipeline, "filter_corpus", lambda f: w("filtering.filter_corpus", f, on_filter))
    p.set(filtering.RejectionLog, "write", lambda f: w("filtering.RejectionLog.write", f))
    p.set(pipeline, "translate_batch", lambda f: w("translation.translate_batch", f, on_batch))
    p.set(pipeline, "build_engine", lambda f: lambda engine_id: TracingEngine(
        f(engine_id), tracer, tq.errors.TransientEngineError))
    p.set(pipeline, "TranslationCache", lambda cls: counting_cache(cls, tracer))
    p.set(pipeline, "transliterate_residuals",
          lambda f: w("script_tools.transliterate_residuals", f, on_postprocess))
    p.set(pipeline, "localize_digits", lambda f: w("script_tools.localize_digits", f))
    p.set(pipeline, "build_transliterator",
          lambda f: lambda tid: TracingTransliterator(f(tid), tracer))
    p.set(pipeline, "align_corpus", lambda f: w("alignment.align_corpus", f, on_align))
    p.set(evaluation, "load_predictions", lambda f: w("evaluation.load_predictions", f))
    p.set(evaluation.TableEmbeddingProvider, "from_file",
          lambda f: staticmethod(w("evaluation.TableEmbeddingProvider.from_file", f)))
    p.set(evaluation, "evaluate_predictions", lambda f: w("evaluation.evaluate_predictions", f))
    p.set(evaluation.TableEmbeddingProvider, "embed",
          lambda f: w("evaluation.TableEmbeddingProvider.embed", f))
    p.set(evaluation.EvalReport, "to_json", lambda f: w("evaluation.EvalReport.to_json", f))
    p.set(evaluation, "normalize", lambda f: tracer.counted("evaluation.normalize_calls", f))
    p.set(evaluation, "greedy_match", lambda f: w("kernels.greedy_match", f, on_kernel))
    return p


def counting_cache(base: type, tracer: Tracer) -> type:
    """A TranslationCache subclass that times loads and stores and counts lookups."""

    class CountingCache(base):
        def __init__(self, *args, **kwargs):
            idx = tracer.open("translation.TranslationCache.load")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.count("translation.cache_entries", len(self))

        def lookup(self, key):
            value = super().lookup(key)
            tracer.count("translation.cache_hits" if value is not None else "translation.cache_misses")
            return value

        def store(self, key, value):
            idx = tracer.open("translation.TranslationCache.store")
            try:
                super().store(key, value)
            finally:
                tracer.close(idx)
            tracer.count("translation.cache_stores")

    return CountingCache


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def layer_metrics(tracer: Tracer, run_id: int, batch_size: int) -> dict[str, float]:
    """Every per-layer metric of one traced operation, except the tracing overhead."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == run_id]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    engine_children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, (name, start, end, parent, _) in spans:
        if parent >= 0:
            children[parent].append((start, end))
            if name == "translation.engine":
                engine_children[parent].append((start, end))
    self_time: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    batch_self = 0.0
    for i, (name, start, end, _, _) in spans:
        self_time[name] += (end - start) - _covered(children.get(i, []))
        total[name] += end - start
        calls[name] += 1
        if name == "translation.translate_batch":
            batch_self += (end - start) - _covered(engine_children.get(i, []))

    c = tracer.counters
    m = {name: sum(self_time[s] for s in names) for name, names in SELF_TIME.items()}
    m["corpus.validate_calls"] = calls["corpus.validate_spans"]
    for key in ("filtering.records_in", "filtering.kept", "filtering.rejected",
                "translation.texts_in", "translation.cache_entries", "translation.cache_hits",
                "translation.cache_misses", "translation.cache_stores", "translation.engine_calls",
                "translation.engine_texts", "translation.retries", "translation.engine_failures",
                "script_tools.texts", "script_tools.translit_calls", "script_tools.translit_tokens",
                "script_tools.mixed_warnings", "alignment.candidates", "alignment.aligned",
                "alignment.rejected", "pipeline.output_bytes", "pipeline.warning_lines",
                "evaluation.normalize_calls", "kernels.calls", "kernels.flop", "kernels.bytes"):
        m[key] = c[key]
    m["translation.batch_s"] = total["translation.translate_batch"]
    m["translation.self_s"] = batch_self
    m["translation.unique_sent"] = c["translation.engine_texts"]
    m["translation.dedup_ratio"] = _ratio(m["translation.unique_sent"], m["translation.texts_in"])
    lookups = c["translation.cache_hits"] + c["translation.cache_misses"]
    m["translation.cache_hit_ratio"] = _ratio(c["translation.cache_hits"], lookups)
    m["translation.engine_busy_s"] = total["translation.engine"]
    m["translation.engine_overlap"] = _ratio(m["translation.engine_busy_s"], m["translation.batch_s"])
    m["translation.batch_fill"] = _ratio(c["translation.engine_texts"], c["translation.engine_calls"] * batch_size)
    m["script_tools.unique_texts"] = len(tracer.seen["script_tools.texts"])
    m["script_tools.unique_ratio"] = _ratio(m["script_tools.unique_texts"], m["script_tools.texts"])
    m["alignment.kept_ratio"] = _ratio(m["alignment.aligned"], m["alignment.candidates"])
    m["evaluation.embed_calls"] = calls["evaluation.TableEmbeddingProvider.embed"]
    return m


def layers_reached(tracer: Tracer, run_id: int) -> set[str]:
    return {s[0].split(".")[0] for s in tracer.spans if s[4] == run_id}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0

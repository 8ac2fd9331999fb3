"""Test doubles that behave like remote models: they sleep, then answer from a table.

``LatencyEngine`` is the translation engine of the ``mt-latency`` workload.
Each call sleeps a fixed time plus a time per text, then returns the wrapped
dictionary engine's output, so ``batch_size`` x ``parallelism`` has a real
optimum: bigger batches pay the per-call cost less often, more workers
overlap the waits. It never fails: the gateway's 1 s backoff base would
dominate any run that retried.

``LatencyEmbedder`` is the embedding provider of the ``eval-latency``
workload. BERTScore takes its vectors from a contextual embedding model, and
``evaluate_predictions`` asks for them one answer at a time, so each call
sleeps a fixed time plus a time per token, then returns the wrapped table's
vectors.
"""

from __future__ import annotations

import threading
import time

from transquad.evaluation import EmbeddingProvider
from transquad.translation import TranslationEngine

PER_CALL_S = 0.020
PER_TEXT_S = 0.001
PER_EMBED_CALL_S = 0.0004
PER_TOKEN_S = 0.00005


class LatencyEngine(TranslationEngine):
    """Deterministic engine output after a per-call plus per-text sleep."""

    def __init__(self, inner: TranslationEngine):
        self.inner = inner
        self.engine_id = inner.engine_id
        self._lock = threading.Lock()
        self.calls = 0
        self.texts = 0
        self.busy_s = 0.0

    def translate(self, texts, source_lang, target_lang):
        started = time.perf_counter()
        time.sleep(PER_CALL_S + PER_TEXT_S * len(texts))
        out = self.inner.translate(texts, source_lang, target_lang)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.calls += 1
            self.texts += len(texts)
            self.busy_s += elapsed
        return out


class LatencyEmbedder(EmbeddingProvider):
    """The wrapped provider's vectors after a per-call plus per-token sleep."""

    def __init__(self, inner: EmbeddingProvider):
        self.inner = inner

    def embed(self, tokens):
        time.sleep(PER_EMBED_CALL_S + PER_TOKEN_S * len(tokens))
        return self.inner.embed(tokens)

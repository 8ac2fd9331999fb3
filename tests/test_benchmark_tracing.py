"""The benchmark's tracer (``perfbench/spans.py``) still finds every name it wraps.

The traced benchmark run patches module attributes by name. A refactor that
renames or drops one of them fails here, in the test suite, instead of in
the benchmark with "could not be wrapped". Its counters must also stay
exact when the work runs on the gateway's pool threads.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import transquad
from transquad import pipeline, script_tools
from transquad.corpus import serialize_corpus
from transquad.evaluation import EmbeddingProvider, TableEmbeddingProvider, normalize
from transquad.pipeline import config_from_dict, run_pipeline

from conftest import build_english_corpus

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_tracer_wraps_every_name_and_undoes(tmp_path):
    corpus = build_english_corpus(40, seed=4)
    (tmp_path / "in.json").write_bytes(serialize_corpus(corpus))
    cfg = config_from_dict(
        {
            "input_path": str(tmp_path / "in.json"),
            "output_path": str(tmp_path / "out.json"),
            "rejection_log_path": str(tmp_path / "rej.jsonl"),
            "stats_path": str(tmp_path / "stats.json"),
            "source_lang": "en",
            "target_lang": "mr",
            "engine_id": "identity",
            "transliterator_id": "identity",
            "cache_path": str(tmp_path / "cache.jsonl"),
            "parallelism": 2,
        }
    )
    tracer = spans.Tracer()
    patches = spans.install(tracer, transquad)
    try:
        assert patches.missing == []
        run_pipeline(cfg)
    finally:
        patches.undo()
    assert pipeline.transliterate_residuals is script_tools.transliterate_residuals
    assert pipeline.build_transliterator is script_tools.build_transliterator

    # The identity engine leaves every text as it is, so the postprocess
    # stage sees the corpus's own texts: each distinct one is substituted
    # once, and its distinct Latin tokens go out in full chunks.
    texts = {
        text
        for rec in corpus.records
        for text in (rec.context, rec.question, rec.answers[0].text)
    }
    tokens = {
        text[start:end] for text in texts for start, end in script_tools.scan_residuals(text)[0]
    }
    counters = tracer.counters
    assert tracer.seen["script_tools.texts"] == texts
    assert counters["script_tools.texts"] == len(texts)
    assert counters["script_tools.translit_tokens"] == len(tokens)
    assert counters["script_tools.translit_calls"] == math.ceil(len(tokens) / 128)


class RemoteEmbedder(EmbeddingProvider):
    """Stands in for a remote model: the table's vectors, up to four calls at once."""

    def __init__(self, inner: EmbeddingProvider):
        self.inner = inner

    def embed(self, tokens):
        return self.inner.embed(tokens)


def test_tracer_counts_every_kernel_call_on_pool_threads():
    corpus = build_english_corpus(300, split="test", seed=5)
    answers = [rec.answers[0].text for rec in corpus.records]
    # Copies, two-token answers and empty predictions, over three chunks of pairs.
    predictions = {
        rec.qid: (answer, f"{answer} river", "")[i % 3]
        for i, (rec, answer) in enumerate(zip(corpus.records, answers))
    }
    tokens = sorted({t for text in answers + ["river"] for t in normalize(text)})
    table = {t: [1.0 + (i % 7), 1.0 + (i % 5)] for i, t in enumerate(tokens)}
    embedder = RemoteEmbedder(TableEmbeddingProvider(table))
    assert embedder.max_workers > 1

    tracer = spans.Tracer()
    patches = spans.install(tracer, transquad)
    try:
        assert patches.missing == []
        transquad.evaluation.evaluate_predictions(corpus, predictions, embedder)
    finally:
        patches.undo()

    both_sides = [qid for qid, pred in predictions.items() if normalize(pred)]
    metrics = spans.layer_metrics(tracer, tracer.run_id, batch_size=128)
    assert tracer.counters["kernels.calls"] == len(both_sides) == 200
    assert metrics["evaluation.normalize_calls"] == 2 * len(corpus.records)
    # A copy is embedded once, a two-token answer once per side.
    assert metrics["evaluation.embed_calls"] == 100 + 2 * 100

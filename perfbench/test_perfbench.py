"""Tests of the benchmark itself: generator determinism, checker self-test, metric catalog.

Run: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from latency_doubles import LatencyEmbedder, LatencyEngine  # noqa: E402
from transquad.evaluation import TableEmbeddingProvider  # noqa: E402
from transquad.pipeline import config_from_dict, run_pipeline  # noqa: E402
from transquad.translation import DictionaryEngine  # noqa: E402


def _pipeline_outputs(tmp_path: Path, kind: str = "squad", questions: int = 400) -> tuple[Path, list[Path]]:
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir()
    gen.generate_squad(5, questions, inputs, one_per_context=kind == "mt")
    cfg = config_from_dict(
        {
            "input_path": str(inputs / "train.json"),
            "output_path": str(out / "train-mr.json"),
            "rejection_log_path": str(out / "rejections.jsonl"),
            "stats_path": str(out / "stats.json"),
            "source_lang": "en",
            "target_lang": "mr",
            "engine_id": f"dictionary:{inputs / 'dict.tsv'}",
            "transliterator_id": f"table:{inputs / 'translit.tsv'}",
            "cache_path": str(out / "cache.jsonl"),
            "filter": {"exclusion_list_path": str(inputs / "exclude.txt"), "min_context_length": gen.MIN_CONTEXT_LENGTH},
            "parallelism": 2,
        }
    )
    run_pipeline(cfg)
    return inputs / "plan.jsonl", [out / "train-mr.json", out / "rejections.jsonl", out / "stats.json"]


@pytest.mark.parametrize("kind", ["squad", "mt"])
def test_checker_accepts_the_pipeline_output(tmp_path, kind):
    plan, outputs = _pipeline_outputs(tmp_path, kind)
    assert check.check_pipeline(plan, *outputs) == (set(), [])


def test_checker_flags_a_shifted_span_and_a_missing_rejection(tmp_path):
    plan, (corpus_path, log_path, stats_path) = _pipeline_outputs(tmp_path)
    doc = json.loads(corpus_path.read_text(encoding="utf-8"))
    qa = doc["data"][0]["paragraphs"][0]["qas"][0]
    qa["answers"][0]["answer_start"] += 1
    corpus_path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = json.loads(lines[0])["qid"]
    log_path.write_text("".join(lines[1:]), encoding="utf-8")

    failed, problems = check.check_pipeline(plan, corpus_path, log_path, stats_path)
    assert failed == {qa["id"], dropped}
    assert any("kept" in p and "rejected" in p for p in problems)


def test_checker_flags_a_wrong_eval_score(tmp_path):
    gen.generate_eval(5, 300, tmp_path, n_tokens=300, dim=64)
    report_path = tmp_path / "report.json"
    from transquad.corpus import load_corpus
    from transquad.evaluation import TableEmbeddingProvider, evaluate_predictions, load_predictions

    report = evaluate_predictions(
        load_corpus(tmp_path / "gold.json", "test"),
        load_predictions(tmp_path / "predictions.json"),
        TableEmbeddingProvider.from_file(tmp_path / "embeddings.txt"),
    )
    report_path.write_text(report.to_json(), encoding="utf-8")
    assert check.check_eval(tmp_path / "plan.jsonl", report_path) == (set(), [])

    doc = json.loads(report_path.read_text(encoding="utf-8"))
    qid = next(q for q, s in doc["per_question"].items() if s["em"] == 1)
    doc["per_question"][qid]["em"] = 0
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    failed, _ = check.check_eval(tmp_path / "plan.jsonl", report_path)
    assert failed == {qid}


def test_generator_is_deterministic(tmp_path):
    for name in ("a", "b"):
        gen.generate_squad(9, 200, tmp_path / name, one_per_context=False)
    for f in ("train.json", "dict.tsv", "translit.tsv", "exclude.txt", "plan.jsonl"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_generator_plants_every_outcome(tmp_path):
    sizes = gen.generate_squad(3, 3000, tmp_path, one_per_context=False)
    for outcome in ("exact", "multi", "casefold", "not-found", "empty",
                    "manual-exclusion", "non-latin-content", "too-short", "mixed_contexts", "excluded_titles"):
        assert sizes["outcomes"][outcome] > 0, outcome


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.new_run()
    tracer.spans += [
        [spans.ROOT_SPAN, 0.0, 10.0, -1, 1],
        ["translation.translate_batch", 1.0, 5.0, 0, 1],
        ["translation.engine", 2.0, 4.0, 1, 1],
        ["translation.engine", 3.0, 4.5, 1, 1],
    ]
    m = spans.layer_metrics(tracer, 1, batch_size=32)
    assert m["pipeline.other_s"] == pytest.approx(6.0)
    assert m["translation.batch_s"] == pytest.approx(4.0)
    assert m["translation.self_s"] == pytest.approx(1.5)
    assert m["translation.engine_busy_s"] == pytest.approx(3.5)


def test_latency_engine_counters_survive_concurrent_calls():
    engine = LatencyEngine(DictionaryEngine({"a": "b"}))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [engine.translate(["a", "c"], "en", "mr") for _ in range(10)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert (engine.calls, engine.texts) == (80, 160)
    assert engine.busy_s >= 80 * 0.022
    assert engine.translate(["a c"], "en", "mr") == ["b c"]


def test_latency_embedder_returns_the_table_vectors_after_its_sleep():
    embedder = LatencyEmbedder(TableEmbeddingProvider({"a": [1.0, 0.0], "b": [0.0, 2.0]}))
    started = time.perf_counter()
    vectors = embedder.embed(["b", "a"])
    assert time.perf_counter() - started >= 0.0004 + 2 * 0.00005
    assert vectors.tolist() == [[0.0, 2.0], [1.0, 0.0]]

"""The transquad benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload eval-latency --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/`` and nothing is installed. Inputs are generated from
``--seed`` into ``.perfbench-work/`` (not timed), the program's set-up is
timed as ``setup_s``, then whole operations are timed back to back for
``--seconds`` and the median is reported. Every output is compared with the
generator's plan by an independent checker and byte-for-byte with a
reference run (parallelism 1 against 2, cold against warm cache, traced
against untraced). ``--trace 1`` interleaves traced and untraced operations
and reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (for ``all``: the sums,
and each metric prefixed with its workload's name). The exit code is 0
only when every check passed, 1 when a check failed and 2 when the checkout
has no ``src/transquad`` to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib.util
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Sizes keep one operation near 2-5 s on a 2-core machine; cost per question
# is linear in size. squad-cold and eval are diagnostic workloads: on a shared
# 2-core VM the host's speed shifts by up to 40% for minutes at a time, so
# their CPU-bound run_s spreads too widely between runs to bound, and
# BENCHMARK.json leaves them out. Their traced runs are where the filter,
# postprocess and scoring hot paths show. The latency workloads wait on a
# model double for most of an operation, which keeps them steady.
WORKLOADS = {
    "squad-cold": {"kind": "squad", "questions": 3000, "latency": False},
    "mt-latency": {"kind": "mt", "questions": 1200, "latency": True},
    "eval": {"kind": "eval", "questions": 12000, "latency": False},
    "eval-latency": {"kind": "eval", "questions": 3000, "latency": True},
}
END_TO_END = [
    ("run_s", "s", "lower"),
    ("questions_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
PARALLELISM = 2
MIN_OPS = 3
MIN_TRACED_OPS = 2
IMPORT_SAMPLES = 2
GEN_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 180


def _digest_files(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


class PipelineBench:
    """squad-cold and mt-latency: one ``run_pipeline`` call per operation."""

    def __init__(self, workload: str, inputs: Path, out: Path, tq):
        self.tq = tq
        self.warm_gate = True
        self.latency = WORKLOADS[workload]["latency"]
        self.inputs = inputs
        if self.latency:
            from latency_doubles import LatencyEngine  # imports transquad

            self.make_engine = LatencyEngine
        self.cfg = tq.pipeline.config_from_dict(
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
                "filter": {
                    "exclusion_list_path": str(inputs / "exclude.txt"),
                    "min_context_length": gen.MIN_CONTEXT_LENGTH,
                    "non_latin_letter_ratio_threshold": gen.NON_LATIN_THRESHOLD,
                },
                "parallelism": PARALLELISM,
            }
        )
        self.compared = [Path(self.cfg.output_path), Path(self.cfg.rejection_log_path), Path(self.cfg.stats_path)]
        self.written = self.compared + [Path(self.cfg.summary_path)]
        self.layers = spans.PIPELINE_LAYERS

    def prepare(self, keep_cache: bool) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)
        if not keep_cache:
            Path(self.cfg.cache_path).unlink(missing_ok=True)

    def op(self, tracer=None, parallelism: int = PARALLELISM) -> float:
        tq = self.tq
        cfg = dataclasses.replace(self.cfg, parallelism=parallelism)
        started = time.perf_counter()
        root = tracer.open(spans.ROOT_SPAN) if tracer else None
        try:
            engine = None
            if self.latency:
                engine = self.make_engine(tq.translation.build_engine(cfg.engine_id))
                if tracer:
                    engine = spans.TracingEngine(engine, tracer, tq.errors.TransientEngineError)
            tq.pipeline.run_pipeline(cfg, engine=engine)
        finally:
            if tracer:
                tracer.close(root)
        return time.perf_counter() - started

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.compared)

    def check(self) -> tuple[set[str], list[str]]:
        return check.check_pipeline(self.inputs / "plan.jsonl", *self.compared)


class EvalBench:
    """eval and eval-latency: load gold, predictions and embeddings, score, write the report."""

    def __init__(self, workload: str, inputs: Path, out: Path, tq):
        self.tq = tq
        self.warm_gate = False
        self.latency = WORKLOADS[workload]["latency"]
        self.inputs = inputs
        self.report = out / "report.json"
        self.compared = [self.report]
        self.layers = spans.EVAL_LAYERS

    def prepare(self, keep_cache: bool) -> None:
        self.report.unlink(missing_ok=True)

    def op(self, tracer=None, parallelism: int = PARALLELISM) -> float:
        corpus, evaluation = self.tq.corpus, self.tq.evaluation
        started = time.perf_counter()
        root = tracer.open(spans.ROOT_SPAN) if tracer else None
        try:
            gold = corpus.load_corpus(self.inputs / "gold.json", "test")
            predictions = evaluation.load_predictions(self.inputs / "predictions.json")
            embedder = evaluation.TableEmbeddingProvider.from_file(self.inputs / "embeddings.txt")
            if self.latency:
                from latency_doubles import LatencyEmbedder  # imports transquad

                embedder = LatencyEmbedder(embedder)
                if tracer:
                    embedder.embed = tracer.wrap(spans.EMBEDDER_SPAN, embedder.embed)
            report = evaluation.evaluate_predictions(gold, predictions, embedder)
            self.report.write_text(report.to_json() + "\n", encoding="utf-8")
        finally:
            if tracer:
                tracer.close(root)
        return time.perf_counter() - started

    def output_bytes(self) -> int:
        return self.report.stat().st_size

    def check(self) -> tuple[set[str], list[str]]:
        return check.check_eval(self.inputs / "plan.jsonl", self.report)


def import_seconds() -> float:
    """``import transquad`` in a fresh interpreter that already imported numpy.

    numpy's own import (shared libraries, BLAS threads) is most of a plain
    ``import transquad`` and swings with the host; it is not the program's.
    """
    code = "import numpy, time; t = time.perf_counter(); import transquad; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def environment(seed: int, sizes: dict) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "input_sizes": sizes,
    }


def traced_op(bench, tracer, tq, warnings) -> tuple[float, dict, list[str]]:
    """One operation with every wrapper installed; returns run_s, layer metrics, problems."""
    tracer.new_run()
    patches = spans.install(tracer, tq)
    try:
        run_s = bench.op(tracer)
    finally:
        patches.undo()
    tracer.count("pipeline.warning_lines", warnings.lines)
    tracer.count("script_tools.mixed_warnings", warnings.mixed)
    tracer.count("pipeline.output_bytes", bench.output_bytes())
    metrics = spans.layer_metrics(tracer, tracer.run_id, tq.translation.DEFAULT_BATCH_SIZE)
    problems = [f"{name} could not be wrapped" for name in patches.missing]
    absent = set(bench.layers) - spans.layers_reached(tracer, tracer.run_id)
    if absent:
        problems.append(f"traced run recorded no spans in layer(s) {sorted(absent)}")
    return run_s, metrics, problems


def measure(args: argparse.Namespace, work: Path, tq) -> tuple[dict, int]:
    spec = WORKLOADS[args.workload]
    inputs, out = work / "inputs", work / "out"
    out.mkdir(parents=True)
    gen_cmd = [sys.executable, str(HERE / "gen.py"), "--kind", spec["kind"], "--seed", str(args.seed),
               "--questions", str(spec["questions"]), "--out", str(inputs)]
    sizes = json.loads(subprocess.run(gen_cmd, capture_output=True, text=True, timeout=GEN_TIMEOUT_S,
                                      check=True).stdout)
    questions = sizes["questions"]
    env = environment(args.seed, sizes)

    logger = logging.getLogger("transquad")
    warnings = spans.WarningCounter(work / "transquad.log")
    logger.addHandler(warnings)
    logger.propagate = False
    bench = (EvalBench if spec["kind"] == "eval" else PipelineBench)(args.workload, inputs, out, tq)
    tracer = spans.Tracer() if args.trace else None
    problems: list[str] = []
    untraced: list[float] = []
    traced: list[float] = []
    layer_samples: list[dict] = []
    warm: dict = {}
    try:
        # Import timings are spread over the whole run, one after each
        # operation, so that one slow moment of the host does not set setup_s.
        setup = [import_seconds() for _ in range(IMPORT_SAMPLES)]
        # Reference outputs and warm-up: one untimed run at parallelism 1.
        bench.prepare(keep_cache=False)
        gc.collect()
        bench.op(parallelism=1)
        reference = _digest_files(bench.compared)

        begin = time.perf_counter()
        while True:
            bench.prepare(keep_cache=False)
            gc.collect()
            warnings.reset()
            if tracer is not None and len(untraced) > len(traced):
                run_s, metrics, op_problems = traced_op(bench, tracer, tq, warnings)
                traced.append(run_s)
                layer_samples.append(metrics)
                problems += op_problems
            else:
                untraced.append(bench.op())
            if _digest_files(bench.compared) != reference:
                problems.append(f"operation {len(untraced) + len(traced)} differs byte for byte from the reference run")
            setup.append(import_seconds())
            wanted = MIN_TRACED_OPS if tracer else MIN_OPS
            enough = len(untraced) >= wanted and (tracer is None or len(traced) >= wanted)
            typical = statistics.median(untraced + traced)
            if enough and time.perf_counter() - begin + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if bench.warm_gate:
            # The cache the last operation left behind must serve the whole
            # corpus: same bytes out, nothing appended to the cache.
            cache = Path(bench.cfg.cache_path)
            cached = cache.read_bytes()
            bench.prepare(keep_cache=True)
            warnings.reset()
            if tracer is not None:
                _, warm, op_problems = traced_op(bench, tracer, tq, warnings)
                problems += op_problems
            else:
                bench.op()
            if _digest_files(bench.compared) != reference:
                problems.append("the warm-cache run differs byte for byte from the cold runs")
            if cache.read_bytes() != cached:
                problems.append("the warm-cache run wrote to the cache")
    finally:
        logger.removeHandler(warnings)
        warnings.close()

    failed_qids, check_problems = bench.check()
    problems += check_problems
    ops_done = len(untraced) + len(traced)
    run_s = statistics.median(untraced)
    if tracer is not None:
        metrics = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
        for name in spans.WARM:
            metrics[name] = warm.get(name.replace(".warm_", "."), 0.0)
        metrics["trace.overhead_s"] = statistics.median(traced) - run_s
        problems += workload_invariants(args.workload, metrics)
        metrics = {name: metrics[name] for name, _, _ in spans.PER_LAYER}
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        metrics = {
            "run_s": run_s,
            "questions_per_s": questions / run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, unit, _ in END_TO_END}

    failed_per_op = questions if problems else len(failed_qids)
    result = {
        "correct": not problems and not failed_qids,
        "attempted": questions * ops_done,
        "failed": failed_per_op * ops_done,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "run_s_samples": untraced,
        "traced_run_s_samples": traced,
        "setup_import_s_samples": setup,
        "problems": problems,
        "failed_qids": sorted(failed_qids)[:50],
        "failed_ratio": failed_per_op / questions,
        "result": result,
    }
    print(f"environment: {json.dumps(env)}")
    print(f"operations timed: {ops_done} (untraced {len(untraced)}, traced {len(traced)})")
    print(f"failed_ratio = {record['failed_ratio']:.6f} share")
    for problem in problems:
        print(f"problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    return result, 0 if result["correct"] else 1


def workload_invariants(workload: str, m: dict) -> list[str]:
    """What each workload was built to exercise; a violation means the workload is broken."""
    problems = []
    if WORKLOADS[workload]["kind"] != "eval" and (
        m["translation.warm_engine_calls"] != 0 or m["translation.warm_cache_hit_ratio"] != 1.0
    ):
        problems.append("the warm-cache run made engine calls or missed the cache")
    if workload == "mt-latency" and m["translation.dedup_ratio"] != 1.0:
        problems.append("mt-latency inputs share texts, so dedup could apply")
    if m["translation.retries"] or m["translation.engine_failures"]:
        problems.append("the engine failed or was retried")
    return problems


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process so peak memory stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        print(f"== {name}")
        print(done.stdout, end="")
        sys.stderr.write(done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        code = max(code, done.returncode)
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="transquad benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "transquad" / "__init__.py").is_file():
        print(f"error: no transquad package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import transquad

    if Path(transquad.__file__).resolve().parent != SRC / "transquad":
        print(f"error: transquad was imported from {transquad.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, code = measure(args, work, transquad)
    except Exception as exc:  # any failure of the program under test fails the run
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        questions = WORKLOADS[args.workload]["questions"]
        result, code = {"correct": False, "attempted": questions, "failed": questions, "metrics": {}}, 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    raise SystemExit(main())

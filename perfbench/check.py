"""Independent checker: compares the files a run wrote with the generator's plan.

It reads only files and uses only the standard library, so a defect in
``transquad`` cannot hide itself by also breaking the reference. Each
function returns the set of qids whose outcome disagrees with the plan and
a list of problems that concern the run as a whole.
"""

from __future__ import annotations

import json
from pathlib import Path

from gen import digest

F1_TOLERANCE = 1e-9
# Embeddings are written with 6 significant digits, so cosines carry ~1e-6 error.
BERT_TOLERANCE = 1e-4


def _read_plan(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_pipeline(plan_path: Path, corpus_path: Path, log_path: Path, stats_path: Path) -> tuple[set[str], list[str]]:
    plan = _read_plan(plan_path)
    planned = {e["qid"] for e in plan}
    failed: set[str] = set()
    problems: list[str] = []

    kept: dict[str, tuple[str, str, dict]] = {}
    doc = json.loads(corpus_path.read_text(encoding="utf-8"))
    for article in doc["data"]:
        for para in article["paragraphs"]:
            ctx = para["context"]
            for qa in para["qas"]:
                qid = qa["id"]
                answers = qa["answers"]
                if qid in kept or len(answers) != 1:
                    failed.add(qid)
                    continue
                a = answers[0]
                text, start = a["text"], a["answer_start"]
                if not text.strip() or start < 0 or ctx[start : start + len(text)] != text:
                    failed.add(qid)  # unsound span
                kept[qid] = (ctx, qa["question"], a)

    rejected: dict[str, dict] = {}
    for line in log_path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        if entry["qid"] in rejected:
            failed.add(entry["qid"])
        rejected[entry["qid"]] = entry

    for qid in (kept.keys() | rejected.keys()) - planned:
        problems.append(f"qid {qid} is not in the input")
    for qid in kept.keys() & rejected.keys():
        failed.add(qid)
    if len(kept) + len(rejected) != len(plan):
        problems.append(f"kept {len(kept)} + rejected {len(rejected)} != input {len(plan)}")

    expected_order = []
    for e in plan:
        qid = e["qid"]
        if e["outcome"] == "kept":
            expected_order.append(qid)
            got = kept.get(qid)
            if got is None:
                failed.add(qid)
                continue
            ctx, question, a = got
            if (
                a["text"] != e["answer"]
                or a["answer_start"] != e["start"]
                or digest(ctx) != e["context"]
                or digest(question) != e["question"]
            ):
                failed.add(qid)
        else:
            got = rejected.get(qid)
            if got is None or got["reason"] != e["outcome"] or got["stage"] != e["stage"]:
                failed.add(qid)
    if [q for q in kept if q in planned] != [q for q in expected_order if q in kept]:
        problems.append("kept records are not in input order")

    expected_kept = [e for e in plan if e["outcome"] == "kept"]
    expected_stats = {
        "total_questions": len(expected_kept),
        "unique_contexts": len({e["context"] for e in expected_kept}),
        "unique_questions": len({e["question"] for e in expected_kept}),
        "unique_answers": len({e["answer"] for e in expected_kept}),
    }
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    if stats != expected_stats:
        problems.append(f"stats {stats} != expected {expected_stats}")
    return failed, problems


def check_eval(plan_path: Path, report_path: Path) -> tuple[set[str], list[str]]:
    plan = _read_plan(plan_path)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    per_question = report["per_question"]
    skipped = set(report["skipped"])
    failed: set[str] = set()
    problems: list[str] = []
    scored = [e for e in plan if e["kind"] != "skipped"]
    for e in plan:
        qid = e["qid"]
        if e["kind"] == "skipped":
            if qid not in skipped or qid in per_question:
                failed.add(qid)
            continue
        got = per_question.get(qid)
        if (
            got is None
            or got["em"] != e["em"]
            or abs(got["f1"] - e["f1"]) > F1_TOLERANCE
            or got["bert_f"] is None
            or abs(got["bert_f"] - e["bert_f"]) > BERT_TOLERANCE
        ):
            failed.add(qid)
    if len(per_question) != len(scored) or len(skipped) != len(plan) - len(scored):
        problems.append("scored or skipped count differs from the plan")
    agg = report["aggregate"]
    if scored:
        for key, plan_key, tolerance in (("exact_match", "em", 0.0), ("f1", "f1", F1_TOLERANCE),
                                         ("bert_f", "bert_f", BERT_TOLERANCE)):
            want = sum(e[plan_key] for e in scored) / len(scored)
            if agg[key] is None or abs(agg[key] - want) > tolerance:
                problems.append(f"aggregate {key} {agg[key]} != expected {want}")
    return failed, problems

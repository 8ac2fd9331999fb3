"""Command-line interface exposing every pipeline stage.

Subcommands: validate, stats, filter, translate, postprocess, realign,
evaluate, pipeline. Stage commands read paths from the JSON config (global
--config) and accept --input/--output overrides; their defaults chain, so

    transquad --config cfg.json filter
    transquad --config cfg.json translate
    transquad --config cfg.json postprocess
    transquad --config cfg.json realign

writes the same corpus, rejection log and stats as one ``pipeline`` run: each
subcommand runs the one stage function ``pipeline`` runs at that point.
``filter`` writes the pre-filter entries of the rejection log, ``translate``
and ``postprocess`` never touch it, and ``realign`` keeps those entries and
replaces any alignment entries. ``filter`` also writes a manifest beside
the log (``<rejection log>.manifest.json``): the input's record count and
the SHA-256 of its sorted qids. Checks refuse outside input (exit 1):
``translate`` a record without exactly one answer, and ``realign`` a
candidate whose qid the log already rejects in the pre-filter, or
candidates and pre-filter entries that together are not the records the
manifest recorded.

``--input``, ``--output`` and ``--rejection-log`` go through the config's
distinct-path check (``require_distinct_paths``) in place of the paths they
override, and ``stats`` and ``evaluate`` refuse an ``--output`` that names
one of their inputs (exit 2, nothing read or written).

Exit codes: 0 success, 1 data or validation failure, 2 configuration or I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from ._text import INTEGER, STRING, atomic_write, check_fields, json_digest, parse_json
from .alignment import align_corpus
from .corpus import Corpus, compute_stats, load_corpus, save_corpus, validate_spans
from .errors import ConfigError, ConfigValidationError, TransquadError
from .evaluation import TableEmbeddingProvider, evaluate_predictions, load_predictions
from .filtering import STAGE_PRE_FILTER, RejectionLog
from .pipeline import (
    PipelineConfig,
    load_config,
    manifest_path,
    postprocess_candidates,
    prefilter,
    read_candidates,
    require_distinct_paths,
    run_pipeline,
    translate_records,
    write_candidates,
    write_dataset,
)
from .script_tools import build_transliterator
from .translation import TranslationCache, build_engine

logger = logging.getLogger("transquad")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transquad",
        description="Build translated SQuAD-format QA datasets and evaluate predictions.",
    )
    parser.add_argument("--config", metavar="PATH", help="pipeline config file (JSON)")
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check answer spans against contexts")
    p.add_argument("input", nargs="?", help="SQuAD JSON file (default: config input_path)")
    p.add_argument("--split", default="train", choices=("train", "test"))

    p = sub.add_parser("stats", help="corpus totals and unique counts")
    p.add_argument("input", nargs="?", help="SQuAD JSON file (default: config input_path)")
    p.add_argument("--split", default="train", choices=("train", "test"))
    p.add_argument("--output", help="also write the report to this path")

    p = sub.add_parser("filter", help="collapse answers, then apply the content filter")
    p.add_argument("--input", help="override config input_path")
    p.add_argument("--output", help="filtered corpus path (default: <output_path>.filtered.json)")
    p.add_argument("--rejection-log", help="override config rejection_log_path")

    p = sub.add_parser("translate", help="translate every field of the filtered corpus")
    p.add_argument("--input", help="filtered corpus (default: <output_path>.filtered.json)")
    p.add_argument("--output", help="candidates JSONL (default: <output_path>.candidates.jsonl)")

    p = sub.add_parser("postprocess", help="transliterate Latin residue and localize digits")
    p.add_argument("--input", help="candidates JSONL (default: <output_path>.candidates.jsonl)")
    p.add_argument(
        "--output", help="candidates JSONL (default: <output_path>.postprocessed.jsonl)"
    )

    p = sub.add_parser("realign", help="recompute answer starts and emit the final corpus")
    p.add_argument(
        "--input", help="candidates JSONL (default: <output_path>.postprocessed.jsonl)"
    )
    p.add_argument("--output", help="override config output_path")
    p.add_argument("--rejection-log", help="override config rejection_log_path")

    p = sub.add_parser("evaluate", help="score predictions with EM, F1, and BERTScore")
    p.add_argument("--gold", required=True, help="gold corpus (SQuAD JSON, collapsed answers)")
    p.add_argument("--predictions", required=True, help="JSON object mapping qid to answer")
    p.add_argument("--embeddings", help="token embedding table for BERTScore")
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--output", help="also write the report to this path")

    sub.add_parser("pipeline", help="run every stage end to end")
    return parser


def _require_config(args: argparse.Namespace) -> PipelineConfig:
    if not args.config:
        raise ConfigValidationError("this command needs --config", field="config")
    return load_config(args.config)


def _input_corpus(args, output: str | None = None) -> Corpus:
    """The corpus named on the command line, or else the config's ``input_path``.

    ``output``, the file the command writes if any, must not name it.
    """
    if args.input:
        name, path, split = "the input", args.input, args.split
    else:
        cfg = _require_config(args)
        name, path, split = "input_path", cfg.input_path, cfg.split
    require_distinct_paths({name: path, "--output": output})
    return load_corpus(path, split)


def _check_overrides(
    cfg: PipelineConfig,
    source: str | None,
    flags: list[tuple[str, str | None, str | Path | None]],
) -> None:
    """Refuse overrides under which a command would overwrite a file it reads or writes.

    ``flags`` names each config path the command writes, or reads beside
    what it writes, with the flag that overrides it, if any, and the flag's
    value (None when the flag is not given). With the overrides in their
    place, the config's paths must stay distinct, as the config itself
    checks them, and ``--input`` (``source``) must name none of those
    paths. It may name any other path of the config: reading one harms
    nothing.
    """
    paths = cfg.paths
    for role, flag, value in flags:
        if value:
            del paths[role]
            paths[flag] = value
    require_distinct_paths(paths)
    if source:
        used = (flag if value else role for role, flag, value in flags)
        require_distinct_paths({"--input": source, **{name: paths[name] for name in used}})


def _report(payload: str, output: str | None) -> int:
    """Print ``payload``, and write it to ``output`` too when one is given."""
    print(payload)
    if output:
        atomic_write(output, [(payload + "\n").encode("utf-8")])
    return 0


def _cmd_validate(args) -> int:
    report = validate_spans(_input_corpus(args))
    print(json.dumps(report.to_dict(), ensure_ascii=False, indent=2))
    return 0 if report.ok else 1


def _cmd_stats(args) -> int:
    corpus = _input_corpus(args, args.output)
    return _report(json.dumps(compute_stats(corpus).to_dict(), indent=2), args.output)


# What filter read, as realign checks it: the record count and the qid set.
_MANIFEST_TYPES = {"records": INTEGER, "qids_sha256": STRING}


def _manifest(qids: list[str]) -> dict:
    return {"records": len(qids), "qids_sha256": json_digest(sorted(qids))}


def _log_flags(args) -> list[tuple[str, str, str | Path | None]]:
    """``--rejection-log`` and the manifest beside it, as ``_check_overrides`` takes them."""
    log = args.rejection_log
    return [
        ("rejection_log_path", "--rejection-log", log),
        ("filter's manifest", "the manifest of --rejection-log", log and manifest_path(log)),
    ]


def _cmd_filter(args) -> int:
    cfg = _require_config(args)
    _check_overrides(
        cfg, args.input, [("filter's output", "--output", args.output), *_log_flags(args)]
    )
    corpus = load_corpus(args.input or cfg.input_path, cfg.split)
    kept, log = prefilter(corpus, cfg.filter)
    # The log first: a log that cannot be written fails the command before its output.
    log_path = args.rejection_log or cfg.rejection_log_path
    log.write(log_path)
    manifest = _manifest([rec.qid for rec in corpus.records])
    atomic_write(manifest_path(log_path), [(json.dumps(manifest) + "\n").encode("utf-8")])
    # Spans pass through unchecked, as translate takes them; validate audits them.
    save_corpus(kept, args.output or cfg.filtered_path)
    print(f"kept {len(kept)} of {len(corpus)} records ({len(log)} rejected)")
    return 0


def _cmd_translate(args) -> int:
    cfg = _require_config(args)
    _check_overrides(cfg, args.input, [("translate's output", "--output", args.output)])
    filtered = load_corpus(args.input or cfg.filtered_path, cfg.split)
    engine = build_engine(cfg.engine_id)
    with TranslationCache(cfg.cache_path) as cache:
        candidates = translate_records(
            filtered.records,
            engine,
            source_lang=cfg.source_lang,
            target_lang=cfg.target_lang,
            cache=cache,
            parallelism=cfg.parallelism,
        )
    out = args.output or cfg.candidates_path
    write_candidates(candidates, out)
    print(f"translated {len(candidates)} records -> {out}")
    return 0


def _cmd_postprocess(args) -> int:
    cfg = _require_config(args)
    _check_overrides(cfg, args.input, [("postprocess's output", "--output", args.output)])
    candidates = read_candidates(args.input or cfg.candidates_path)
    transliterator = build_transliterator(cfg.transliterator_id)
    fixed = postprocess_candidates(candidates, transliterator, parallelism=cfg.parallelism)
    out = args.output or cfg.postprocessed_path
    write_candidates(fixed, out)
    print(f"postprocessed {len(fixed)} records -> {out}")
    return 0


def _cmd_realign(args) -> int:
    cfg = _require_config(args)
    _check_overrides(
        cfg,
        args.input,
        [("output_path", "--output", args.output), *_log_flags(args), ("stats_path", None, None)],
    )
    candidates = read_candidates(args.input or cfg.postprocessed_path)
    # Keep what filter rejected; alignment entries from an earlier realign are replaced.
    log_path = args.rejection_log or cfg.rejection_log_path
    log = RejectionLog([e for e in RejectionLog.read(log_path) if e.stage == STAGE_PRE_FILTER])
    # A pre-filter entry for a candidate means the log is not this corpus's.
    rejected = {e.qid for e in log}
    for cand in candidates:
        if cand.qid in rejected:
            raise ValueError(
                f"candidate {cand.qid!r} already has a pre-filter entry in {log_path}; "
                "run filter again to write this corpus's log"
            )
    _check_manifest(candidates, log, log_path)
    corpus, alignment_log = align_corpus(candidates, split=cfg.split)
    log.extend(alignment_log)
    write_dataset(corpus, log, args.output or cfg.output_path, log_path, cfg.stats_path)
    print(f"aligned {len(corpus)} of {len(candidates)} candidates ({len(alignment_log)} rejected)")
    return 0


def _check_manifest(candidates: list, log: RejectionLog, log_path: str) -> None:
    """Refuse candidates and pre-filter entries that are not the records filter read."""
    path = manifest_path(log_path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ValueError(f"no manifest {path} beside the rejection log; run filter first") from None
    recorded = parse_json(data, str(path))
    try:
        check_fields(recorded, "a manifest", _MANIFEST_TYPES)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    qids = [cand.qid for cand in candidates] + [e.qid for e in log]
    if _manifest(qids) != {key: recorded[key] for key in _MANIFEST_TYPES}:
        raise ValueError(
            f"{len(candidates)} candidates and {len(log)} pre-filter entries in {log_path} "
            f"are not the {recorded['records']} records filter read ({path}); "
            "run filter again to write this corpus's log"
        )


def _cmd_evaluate(args) -> int:
    require_distinct_paths({
        "--gold": args.gold,
        "--predictions": args.predictions,
        "--embeddings": args.embeddings,
        "--output": args.output,
    })
    gold = load_corpus(args.gold, args.split)
    predictions = load_predictions(args.predictions)
    embedder = TableEmbeddingProvider.from_file(args.embeddings) if args.embeddings else None
    return _report(evaluate_predictions(gold, predictions, embedder).to_json(), args.output)


def _cmd_pipeline(args) -> int:
    cfg = _require_config(args)
    summary = run_pipeline(cfg)
    print(summary.format_table())
    print(f"summary written to {cfg.summary_path}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "filter": _cmd_filter,
    "translate": _cmd_translate,
    "postprocess": _cmd_postprocess,
    "realign": _cmd_realign,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
}


def _exit_code_for(exc: BaseException | None) -> int:
    """2 when a configuration or I/O error is anywhere on the ``__cause__`` chain, else 1."""
    while exc is not None:
        if isinstance(exc, (ConfigError, OSError)):
            return 2
        exc = exc.__cause__
    return 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (TransquadError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())

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
the log (``<rejection log>.manifest.json``; its format is in
``pipeline.write_manifest``): the input's record count and the SHA-256 of
its sorted qids. Checks refuse outside input (exit 1): ``translate`` a
record without exactly one answer, and ``realign`` a candidate whose qid
the log already rejects in the pre-filter, or candidates and pre-filter
entries that together are not the records the manifest recorded
(``pipeline.check_manifest``).

One table, ``_STAGES``, names the paths each stage command reads and
writes, by their names in ``PipelineConfig.paths``; the four subparsers are
built from it, and ``_stage_paths`` resolves every path of a command in one
place. ``--input``, ``--output`` and ``--rejection-log`` go through the
config's distinct-path check (``require_distinct_paths``) in place of the
paths they override, and ``stats`` and ``evaluate`` refuse an ``--output``
that names one of their inputs, or for ``evaluate`` the sidecar of
``--embeddings`` (exit 2, nothing read or written).

Exit codes: 0 success, 1 data or validation failure, 2 configuration or I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from ._text import atomic_write
from .alignment import align_corpus
from .corpus import Corpus, compute_stats, load_corpus, save_corpus, validate_spans
from .errors import ConfigError, ConfigValidationError, TransquadError
from .evaluation import (
    TableEmbeddingProvider,
    evaluate_predictions,
    load_predictions,
    sidecar_path,
)
from .filtering import STAGE_PRE_FILTER, RejectionLog
from .pipeline import (
    PipelineConfig,
    check_manifest,
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
    write_manifest,
)
from .script_tools import build_transliterator
from .translation import TranslationCache, build_engine

logger = logging.getLogger("transquad")


# Each stage command: its help, the name in ``PipelineConfig.paths`` of the
# path it reads (``--input``), then of the paths it writes, or reads beside
# what it writes: its output (``--output``) first, then as the command needs
# them the rejection log (``--rejection-log``), filter's manifest beside that
# log, and the stats. The names are the ones refusal messages use.
_STAGES = {
    "filter": (
        "collapse answers, then apply the content filter",
        "input_path",
        ("filter's output", "rejection_log_path", "filter's manifest"),
    ),
    "translate": (
        "translate every field of the filtered corpus",
        "filter's output",
        ("translate's output",),
    ),
    "postprocess": (
        "transliterate Latin residue and localize digits",
        "translate's output",
        ("postprocess's output",),
    ),
    "realign": (
        "recompute answer starts and emit the final corpus",
        "postprocess's output",
        ("output_path", "rejection_log_path", "filter's manifest", "stats_path"),
    ),
}


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

    for command, (summary, read, written) in _STAGES.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--input", help=f"read this in place of {read}")
        p.add_argument("--output", help=f"write this in place of {written[0]}")
        if "rejection_log_path" in written:
            p.add_argument(
                "--rejection-log",
                help="write this in place of rejection_log_path, and filter's manifest beside it",
            )

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


def _stage_paths(args) -> tuple[PipelineConfig, list[str | Path]]:
    """The config, then the path a stage command reads and each path it writes, as in ``_STAGES``.

    A flag's path takes the place of the config path it overrides, under the
    flag's name. The config's paths must stay distinct with the overrides in
    place, as the config itself checks them, and ``--input`` must name none
    of the paths the command writes. It may name any other path of the
    config: reading one harms nothing.
    """
    cfg = _require_config(args)
    _, read, written = _STAGES[args.command]
    log = getattr(args, "rejection_log", None)
    flags = {
        written[0]: ("--output", args.output),
        "rejection_log_path": ("--rejection-log", log),
        "filter's manifest": ("the manifest of --rejection-log", log and manifest_path(log)),
    }
    paths = cfg.paths
    names = []
    for name in written:
        flag, value = flags.get(name, (name, None))
        if value:
            del paths[name]
            paths[flag] = value
        names.append(flag if value else name)
    require_distinct_paths(paths)
    if args.input:
        require_distinct_paths({"--input": args.input, **{name: paths[name] for name in names}})
        paths[read] = args.input
    return cfg, [paths[name] for name in (read, *names)]


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


def _cmd_filter(args) -> int:
    cfg, (source, out, log_path, _) = _stage_paths(args)
    corpus = load_corpus(source, cfg.split)
    kept, log = prefilter(corpus, cfg.filter)
    # The log first: a log that cannot be written fails the command before its output.
    log.write(log_path)
    write_manifest(log_path, [rec.qid for rec in corpus.records])
    # Spans pass through unchecked, as translate takes them; validate audits them.
    save_corpus(kept, out)
    print(f"kept {len(kept)} of {len(corpus)} records ({len(log)} rejected)")
    return 0


def _cmd_translate(args) -> int:
    cfg, (source, out) = _stage_paths(args)
    filtered = load_corpus(source, cfg.split)
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
    write_candidates(candidates, out)
    print(f"translated {len(candidates)} records -> {out}")
    return 0


def _cmd_postprocess(args) -> int:
    cfg, (source, out) = _stage_paths(args)
    candidates = read_candidates(source)
    transliterator = build_transliterator(cfg.transliterator_id)
    fixed = postprocess_candidates(candidates, transliterator, parallelism=cfg.parallelism)
    write_candidates(fixed, out)
    print(f"postprocessed {len(fixed)} records -> {out}")
    return 0


def _cmd_realign(args) -> int:
    cfg, (source, out, log_path, _, stats_path) = _stage_paths(args)
    candidates = read_candidates(source)
    # Keep what filter rejected; alignment entries from an earlier realign are replaced.
    log = RejectionLog([e for e in RejectionLog.read(log_path) if e.stage == STAGE_PRE_FILTER])
    # A pre-filter entry for a candidate means the log is not this corpus's.
    rejected = {e.qid for e in log}
    for cand in candidates:
        if cand.qid in rejected:
            raise ValueError(
                f"candidate {cand.qid!r} already has a pre-filter entry in {log_path}; "
                "run filter again to write this corpus's log"
            )
    check_manifest(log_path, candidates, log)
    corpus, alignment_log = align_corpus(candidates, split=cfg.split)
    log.extend(alignment_log)
    write_dataset(corpus, log, out, log_path, stats_path)
    print(f"aligned {len(corpus)} of {len(candidates)} candidates ({len(alignment_log)} rejected)")
    return 0


def _cmd_evaluate(args) -> int:
    require_distinct_paths({
        "--gold": args.gold,
        "--predictions": args.predictions,
        "--embeddings": args.embeddings,
        # from_file writes the parsed table there.
        "the sidecar of --embeddings": args.embeddings and sidecar_path(args.embeddings),
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

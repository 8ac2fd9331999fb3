"""End-to-end dataset construction: parse, collapse, filter, translate, fix scripts, realign.

Stage order: parse -> prefilter (collapse_answers, then filter_corpus) ->
translate_records (context, question and answer of every record through one
request queue, each text translated on its own) -> postprocess_candidates
(scan_residuals, one batched transliteration of the distinct Latin tokens
not transliterated yet, then transliterate_residuals and localize_digits,
once per distinct text)
-> align_corpus -> write_dataset. Collapsing first means only one answer per
record is ever translated; translating each text on its own, never the
answer as part of its context, is what makes the answer-not-found rejection
meaningful.

In ``run_corpus_pipeline`` a record is postprocessed and realigned as soon as
all three of its texts are known, cache hits first, then the records each
engine chunk completes as it settles, while later chunks are still at the
engine: ``postprocess_candidates`` and ``align_corpus`` run once per group of
such records, sharing one transliteration table, so a token still goes to
the transliterator once per run, and the mixed-script warning is one line
per run. After the last engine reply only that chunk's records and the
write remain. The ``postprocess`` and ``realign`` subcommands run the same
two functions once, on every record.

``run_pipeline`` and the CLI's stage subcommands call the same stage
functions, one stage per subcommand (``filter`` runs ``prefilter``,
``translate`` only ``translate_records``), so both write the same corpus,
rejection log and stats. Every translation goes through a TranslationCache,
an in-memory one if need be. A ``run_pipeline`` failure is a PipelineError
naming the stage it failed in (``_stage``): setup, parse, filter,
translate, postprocess, realign or write.

Outputs are streamed chunk by chunk into a temp file that is then renamed
over the target, so an aborted run never leaves a truncated dataset behind
and no output is held whole in memory; the source corpus is dropped before
the write. With deterministic engines a fixed config produces
byte-identical corpus/log/stats across runs, whatever the parallelism.

Stage commands exchange intermediate state as "candidates" JSON Lines: one
object per record with qid, title, question, context, answer, and the
answer's relative position in the source context. The split is not in it:
every stage takes the split from the config. ``PipelineConfig.paths`` names
every default path, the stage commands' intermediate files among them, and
``filter``'s manifest beside the rejection log is written and checked here
(``write_manifest``, ``check_manifest``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from ._text import (
    INTEGER, NUMBER, STRING, STRING_OR_NULL,
    atomic_write, check_fields, json_digest, json_lines, parse_json,
)
from .alignment import AlignmentCandidate, align_corpus
from .corpus import (
    Corpus,
    QaRecord,
    SPLITS,
    collapse_answers,
    compute_stats,
    parse_corpus,
    serialize_corpus,
    validate_spans,
)
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    FieldError,
    InvalidCorpusError,
    PipelineError,
    TransliterationError,
    TransquadError,
)
from .filtering import FilterConfig, RejectionLog, filter_corpus
from .script_tools import (
    Transliterator,
    build_transliterator,
    localize_digits,
    scan_residuals,
    transliterate_residuals,
    warn_mixed_tokens,
)
from .translation import (
    DEFAULT_MAX_WORKERS,
    TranslationCache,
    TranslationEngine,
    TranslationRequest,
    build_engine,
    call_model,
    translate_batch,
)


@dataclass
class PipelineConfig:
    input_path: str
    output_path: str
    rejection_log_path: str
    stats_path: str
    source_lang: str
    target_lang: str
    engine_id: str
    transliterator_id: str
    cache_path: str
    filter: FilterConfig = field(default_factory=FilterConfig)
    parallelism: int = DEFAULT_MAX_WORKERS
    split: str = "train"

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigValidationError(
                f"parallelism must be >= 1, got {self.parallelism}", field="parallelism"
            )
        if self.split not in SPLITS:
            raise ConfigValidationError(
                f"split must be one of {SPLITS}, got {self.split!r}", field="split"
            )
        # The paths beside the output take its name: one without a name has none to give.
        if not Path(self.output_path).name:
            raise ConfigValidationError(
                f"'output_path' must be a path with a file name, got {self.output_path!r}",
                field="output_path",
            )
        require_distinct_paths(self.paths)

    @property
    def paths(self) -> dict[str, str | Path | None]:
        """Every path a run or a stage subcommand reads or writes by default, by name.

        The names are those refusal messages use; the CLI's stage table
        (``cli._STAGES``) names each stage command's paths by them.
        """
        return {
            "input_path": self.input_path,
            "output_path": self.output_path,
            "rejection_log_path": self.rejection_log_path,
            "stats_path": self.stats_path,
            "cache_path": self.cache_path,
            "filter.exclusion_list_path": self.filter.exclusion_list_path,
            "the summary": self.summary_path,
            "filter's manifest": manifest_path(self.rejection_log_path),
            "filter's output": self._beside_output(".filtered.json"),
            "translate's output": self._beside_output(".candidates.jsonl"),
            "postprocess's output": self._beside_output(".postprocessed.jsonl"),
        }

    def _beside_output(self, suffix: str) -> str:
        return str(Path(self.output_path).with_suffix(suffix))

    @property
    def summary_path(self) -> str:
        return self._beside_output(".summary.json")


def require_distinct_paths(paths: Mapping[str, str | Path | None]) -> None:
    """Refuse two names in ``paths`` that name one file, under any spelling.

    A file named twice would be overwritten: an output over an input, or one
    output over another. A name whose path is None or empty is not checked.
    """
    seen: dict[str, str] = {}
    for name, path in paths.items():
        first = seen.setdefault(os.path.realpath(path), name) if path else name
        if first != name:
            raise ConfigValidationError(
                f"{first} and {name} are the same path {str(path)!r}; all paths must be distinct",
                field="paths",
            )


def manifest_path(log_path: str | Path) -> Path:
    """Where ``filter`` records the records it read: beside the rejection log it wrote."""
    return Path(f"{log_path}.manifest.json")


# What filter read, as realign checks it: the record count and the qid set.
_MANIFEST_TYPES = {"records": INTEGER, "qids_sha256": STRING}


def _manifest(qids: list[str]) -> dict:
    return {"records": len(qids), "qids_sha256": json_digest(sorted(qids))}


def write_manifest(log_path: str | Path, qids: list[str]) -> None:
    """Record the qids ``filter`` read in the manifest beside its rejection log."""
    atomic_write(manifest_path(log_path), [(json.dumps(_manifest(qids)) + "\n").encode("utf-8")])


def check_manifest(
    log_path: str | Path, candidates: Sequence[AlignmentCandidate], log: RejectionLog
) -> None:
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


# The JSON type of each config key, in the order a missing key is reported.
_CONFIG_TYPES = {
    "input_path": STRING,
    "output_path": STRING,
    "rejection_log_path": STRING,
    "stats_path": STRING,
    "source_lang": STRING,
    "target_lang": STRING,
    "engine_id": STRING,
    "transliterator_id": STRING,
    "cache_path": STRING,
    "filter": ((dict,), "an object"),
    "parallelism": INTEGER,
    "split": STRING,
}
_CONFIG_OPTIONAL = tuple(
    f.name
    for f in dataclass_fields(PipelineConfig)
    if f.default is not MISSING or f.default_factory is not MISSING
)
_FILTER_TYPES = {
    "non_latin_letter_ratio_threshold": NUMBER,
    "exclusion_list_path": STRING_OR_NULL,
    "min_context_length": INTEGER,
}


def config_from_dict(raw: Mapping[str, Any]) -> PipelineConfig:
    try:
        check_fields(raw, "a config", _CONFIG_TYPES, optional=_CONFIG_OPTIONAL)
        filter_raw = raw.get("filter", {})
        check_fields(filter_raw, "filter", _FILTER_TYPES, optional=_FILTER_TYPES, prefix="filter.")
    except FieldError as exc:
        raise ConfigValidationError(str(exc), field=exc.field) from exc
    for keys, known, prefix in ((raw, _CONFIG_TYPES, ""), (filter_raw, _FILTER_TYPES, "filter.")):
        unknown = set(keys) - set(known)
        if unknown:
            key = prefix + sorted(unknown)[0]
            raise ConfigValidationError(f"unknown config key {key!r}", field=key)
    return PipelineConfig(**{**raw, "filter": FilterConfig(**filter_raw)})


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config file, apply defaults, and validate every key; errors name ``path``."""
    try:
        raw = parse_json(Path(path).read_bytes(), str(path))
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc
    try:
        return config_from_dict(raw)
    except ConfigValidationError as exc:
        raise ConfigValidationError(f"{path}: {exc}", field=exc.field) from exc


@dataclass
class PipelineRunSummary:
    input_count: int
    filtered_count: int  # records that survived pre-filtering
    aligned_count: int
    rejected_by_reason: dict[str, int]
    wall_time: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "input_count": self.input_count,
            "filtered_count": self.filtered_count,
            "aligned_count": self.aligned_count,
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
            "wall_time": self.wall_time,
        }

    def format_table(self) -> str:
        lines = [
            f"{'input records':<24}{self.input_count:>8}",
            f"{'after pre-filter':<24}{self.filtered_count:>8}",
            f"{'aligned (kept)':<24}{self.aligned_count:>8}",
        ]
        for reason, count in sorted(self.rejected_by_reason.items()):
            lines.append(f"{'rejected: ' + reason:<24}{count:>8}")
        lines.append(f"{'wall time (s)':<24}{self.wall_time:>8.2f}")
        return "\n".join(lines)


@dataclass
class PipelineResult:
    corpus: Corpus
    rejection_log: RejectionLog
    input_count: int
    filtered_count: int


# -- stages: each one is shared by run_pipeline and its CLI subcommand --


def prefilter(corpus: Corpus, filter_cfg: FilterConfig) -> tuple[Corpus, RejectionLog]:
    """Collapse every record to one answer, then apply the content filter."""
    collapsed = replace(corpus, records=tuple(collapse_answers(rec) for rec in corpus.records))
    return filter_corpus(collapsed, filter_cfg)


def translate_records(
    records: Sequence[QaRecord],
    engine: TranslationEngine,
    *,
    source_lang: str,
    target_lang: str,
    cache: TranslationCache,
    parallelism: int = DEFAULT_MAX_WORKERS,
    on_settled: Callable[[list[AlignmentCandidate]], None] | None = None,
) -> list[AlignmentCandidate]:
    """Translate every context, question and answer through one ``translate_batch`` call.

    The queue is interleaved per record (context, question, answer), and a
    text repeated across fields or records is sent once. Each text is still
    translated on its own, so the output is the same as three separate calls
    would give. Each candidate carries its source record's relative answer
    position.

    ``on_settled(candidates)`` receives the candidates in consecutive
    groups, in input order, each as soon as all three texts of its records
    are known (cache hits first), while later chunks may still be at the
    engine.

    Every record must carry exactly one answer (``prefilter`` collapses
    them); any other raises ValueError naming its qid before anything is
    translated.
    """
    for rec in records:
        if len(rec.answers) != 1:
            raise ValueError(
                f"record {rec.qid!r} has {len(rec.answers)} answers; "
                "run filter first to collapse them"
            )
    if not records:
        return []
    candidates: list[AlignmentCandidate] = []
    texts: list[str] = []  # the outputs of the records not yet complete

    def settled(outputs: list[str]) -> None:
        texts.extend(outputs)
        done = len(candidates)
        # One candidate per whole (context, question, answer) triple.
        for ctx, question, answer in zip(texts[0::3], texts[1::3], texts[2::3]):
            rec = records[len(candidates)]
            # Clamp: the relative position is only a tie-break hint, so a source
            # span that is itself out of bounds must not abort the run.
            relative = rec.answers[0].start / len(rec.context) if rec.context else 0.0
            candidates.append(
                AlignmentCandidate(
                    qid=rec.qid,
                    translated_context=ctx,
                    translated_question=question,
                    translated_answer=answer,
                    original_relative_position=min(1.0, max(0.0, relative)),
                    title=rec.title,
                )
            )
        del texts[: 3 * (len(candidates) - done)]
        if on_settled is not None and len(candidates) > done:
            on_settled(candidates[done:])

    request = TranslationRequest(
        texts=tuple(
            text for rec in records for text in (rec.context, rec.question, rec.answers[0].text)
        ),
        source_lang=source_lang,
        target_lang=target_lang,
    )
    translate_batch(request, engine, cache, max_workers=parallelism, on_settled=settled)
    return candidates


def postprocess_candidates(
    candidates: Sequence[AlignmentCandidate],
    transliterator: Transliterator,
    *,
    parallelism: int = DEFAULT_MAX_WORKERS,
    table: dict[str, str] | None = None,
    mixed: list[str] | None = None,
) -> list[AlignmentCandidate]:
    """Transliterate Latin residue and localize digits in all three translated fields.

    Each distinct text is scanned once. Its distinct Latin tokens that
    ``table`` does not hold yet go through ``call_model`` together, and
    their transliterations are added to it; then each distinct text is
    substituted and digit-localized once. Mixed-script tokens left alone,
    counted once per field that holds them, are added to ``mixed`` when it
    is given, for the caller to report; otherwise they are reported here in
    one warning. A run that postprocesses its candidates group by group
    passes every group the same ``table`` and ``mixed``, so each token goes
    to the transliterator once per run and the run logs one warning.
    """
    fields = [
        (cand.translated_context, cand.translated_question, cand.translated_answer)
        for cand in candidates
    ]
    table = {} if table is None else table
    scans = {text: scan_residuals(text) for text in dict.fromkeys(t for f in fields for t in f)}
    tokens = [
        token
        for token in dict.fromkeys(
            text[start:end] for text, (latin, _) in scans.items() for start, end in latin
        )
        if token not in table
    ]
    call_model(
        transliterator.transliterate,
        tokens,
        "transliterator",
        lambda message, chunk: TransliterationError(message, tokens=tuple(chunk)),
        lambda chunk, out: table.update(zip(chunk, out)),
        max_workers=parallelism,
    )
    # Transliteration first: digit localization only creates Devanagari
    # evidence, never Latin tokens, so this order is the stable one.
    fixed = {
        text: localize_digits(transliterate_residuals(text, latin, table))
        for text, (latin, _) in scans.items()
    }
    found = [token for f in fields for text in f for token in scans[text][1]]
    if mixed is None:
        warn_mixed_tokens(found)
    else:
        mixed.extend(found)
    return [
        replace(
            cand,
            translated_context=fixed[context],
            translated_question=fixed[question],
            translated_answer=fixed[answer],
        )
        for cand, (context, question, answer) in zip(candidates, fields)
    ]


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Raise a failure inside the block as PipelineError naming stage ``name``.

    A PipelineError passes through, so the innermost stage names a failure.
    """
    try:
        yield
    except PipelineError:
        raise
    except (TransquadError, OSError, ValueError) as exc:
        raise PipelineError(name, str(exc)) from exc


def run_corpus_pipeline(
    corpus: Corpus,
    engine: TranslationEngine,
    transliterator: Transliterator,
    filter_cfg: FilterConfig,
    *,
    source_lang: str,
    target_lang: str,
    cache: TranslationCache,
    parallelism: int = DEFAULT_MAX_WORKERS,
) -> PipelineResult:
    """The in-memory pipeline core: every stage between parse and serialize.

    Each group of records ``translate_records`` hands on is postprocessed
    and realigned at once, while later chunks are still at the engine; the
    groups share one transliteration table, and their mixed-script tokens
    are reported in one warning once every group is done. A failure raises
    PipelineError naming its stage: ``filter``, ``translate``,
    ``postprocess`` or ``realign``, the last two also while the engine is
    still translating. Nothing is written here.
    """
    with _stage("filter"):
        kept, log = prefilter(corpus, filter_cfg)
    filtered_count = len(kept)
    table: dict[str, str] = {}
    mixed: list[str] = []
    records: list[QaRecord] = []

    def finish(candidates: list[AlignmentCandidate]) -> None:
        with _stage("postprocess"):
            candidates = postprocess_candidates(
                candidates, transliterator, parallelism=parallelism, table=table, mixed=mixed
            )
        with _stage("realign"):
            aligned, alignment_log = align_corpus(candidates, split=corpus.split)
        records.extend(aligned.records)
        log.extend(alignment_log)

    with _stage("translate"):
        translate_records(
            kept.records,
            engine,
            source_lang=source_lang,
            target_lang=target_lang,
            cache=cache,
            parallelism=parallelism,
            on_settled=finish,
        )
    warn_mixed_tokens(mixed)
    return PipelineResult(
        corpus=Corpus(split=corpus.split, records=tuple(records)),
        rejection_log=log,
        input_count=len(corpus),
        filtered_count=filtered_count,
    )


def _json_bytes(payload: dict[str, Any]) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def write_dataset(
    corpus: Corpus,
    log: RejectionLog,
    output_path: str | Path,
    rejection_log_path: str | Path,
    stats_path: str | Path,
) -> None:
    """Check every span, then write the corpus, the rejection log and the stats, each atomically.

    Nothing is written when the check fails. This is the one span check
    before output: serialization writes spans as they are. The corpus and
    the log are streamed to disk chunk by chunk, so neither is ever held as
    one document.
    """
    report = validate_spans(corpus)
    if not report.ok:
        raise InvalidCorpusError(
            f"pipeline produced {len(report.violations)} invalid span(s); this is a bug"
        )
    atomic_write(output_path, serialize_corpus(corpus))
    log.write(rejection_log_path)
    atomic_write(stats_path, [_json_bytes(compute_stats(corpus).to_dict())])


def run_pipeline(
    cfg: PipelineConfig, engine: TranslationEngine | None = None
) -> PipelineRunSummary:
    """Run the full pipeline per config and write corpus, log, stats, and summary.

    ``engine`` defaults to whatever the config's ``engine_id`` resolves to.
    Any failure raises PipelineError naming its stage: ``setup``, ``parse``,
    those of ``run_corpus_pipeline``, or ``write`` (``translate`` also
    covers opening the cache). Nothing is written until the final corpus
    has been validated.
    """
    started = time.perf_counter()
    with _stage("setup"):
        if engine is None:
            engine = build_engine(cfg.engine_id)
        transliterator = build_transliterator(cfg.transliterator_id)
    with _stage("parse"):
        corpus = parse_corpus(Path(cfg.input_path).read_bytes(), cfg.split, cfg.input_path)
    with _stage("translate"), TranslationCache(cfg.cache_path) as cache:
        result = run_corpus_pipeline(
            corpus,
            engine,
            transliterator,
            cfg.filter,
            source_lang=cfg.source_lang,
            target_lang=cfg.target_lang,
            cache=cache,
            parallelism=cfg.parallelism,
        )
    # The source corpus and the cache's entries are dead: write reuses their memory.
    del corpus, cache
    with _stage("write"):
        write_dataset(
            result.corpus,
            result.rejection_log,
            cfg.output_path,
            cfg.rejection_log_path,
            cfg.stats_path,
        )
        summary = PipelineRunSummary(
            input_count=result.input_count,
            filtered_count=result.filtered_count,
            aligned_count=len(result.corpus),
            rejected_by_reason=result.rejection_log.counts_by_reason(),
            wall_time=time.perf_counter() - started,
        )
        atomic_write(cfg.summary_path, [_json_bytes(summary.to_dict())])
    return summary


# -- candidates JSONL: the interchange format between stage subcommands --


def write_candidates(candidates: Sequence[AlignmentCandidate], path: str | Path) -> None:
    """Stream one JSON object per candidate and line to ``path``, atomically."""
    atomic_write(path, (_candidate_line(cand) for cand in candidates))


def _candidate_line(cand: AlignmentCandidate) -> bytes:
    record = {
        "qid": cand.qid,
        "title": cand.title,
        "question": cand.translated_question,
        "context": cand.translated_context,
        "answer": cand.translated_answer,
        "original_relative_position": cand.original_relative_position,
    }
    return (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")


# Candidate keys and the JSON type each must have; title may be missing. Keys
# outside these, such as the ``split`` older files carry, are ignored.
_CANDIDATE_TYPES = {
    "qid": STRING,
    "title": STRING,
    "question": STRING,
    "context": STRING,
    "answer": STRING,
    "original_relative_position": NUMBER,
}


def read_candidates(path: str | Path) -> list[AlignmentCandidate]:
    """Read a candidates file; a malformed line raises ValueError naming ``path:lineno``."""
    candidates = []
    for where, rec in json_lines(path):
        try:
            check_fields(rec, "a candidate", _CANDIDATE_TYPES, optional=("title",))
            candidates.append(
                AlignmentCandidate(
                    qid=rec["qid"],
                    translated_context=rec["context"],
                    translated_question=rec["question"],
                    translated_answer=rec["answer"],
                    original_relative_position=rec["original_relative_position"],
                    title=rec.get("title", ""),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return candidates

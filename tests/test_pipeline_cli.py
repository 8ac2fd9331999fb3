"""Pipeline orchestration and the CLI surface."""

from __future__ import annotations

import ast
import collections
import functools
import hashlib
import json
import os
import stat
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest

import transquad.cli
from transquad.cli import main
import transquad._text
import transquad.corpus
import transquad.pipeline
from transquad.alignment import AlignmentCandidate
from transquad.corpus import AnswerSpan, Corpus, collapse_answers, load_corpus, serialize_corpus
from transquad.errors import (
    ConfigParseError,
    ConfigValidationError,
    EngineError,
    InvalidCorpusError,
    MissingEmbeddingError,
    PipelineError,
    TransliterationError,
)
from transquad.evaluation import TableEmbeddingProvider
from transquad.filtering import STAGE_PRE_FILTER, FilterConfig, RejectionEntry, RejectionLog
from transquad.pipeline import (
    PipelineConfig,
    load_config,
    postprocess_candidates,
    read_candidates,
    run_corpus_pipeline,
    run_pipeline,
    translate_records,
    write_candidates,
    write_dataset,
)
from transquad.script_tools import MIXED_SAMPLE_SIZE, IdentityTransliterator
from transquad.translation import (
    DictionaryEngine,
    IdentityEngine,
    TranslationCache,
    TranslationEngine,
    translate_batch,
)

from conftest import CountingEngine, UppercaseEngine, build_english_corpus, make_record


def write_config(tmp_path, **overrides):
    cfg = {
        "input_path": str(tmp_path / "input.json"),
        "output_path": str(tmp_path / "output.json"),
        "rejection_log_path": str(tmp_path / "rejections.jsonl"),
        "stats_path": str(tmp_path / "stats.json"),
        "source_lang": "en",
        "target_lang": "mr",
        "engine_id": "identity",
        "transliterator_id": "identity",
        "cache_path": str(tmp_path / "cache.jsonl"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


def write_input(tmp_path, corpus):
    (tmp_path / "input.json").write_bytes(b"".join(serialize_corpus(corpus)))


# -- load_config --


def test_minimal_config_gets_defaults(tmp_path):
    path, _ = write_config(tmp_path)
    cfg = load_config(path)
    assert cfg.parallelism == 4
    assert cfg.split == "train"
    assert cfg.filter == FilterConfig()
    assert cfg.filter.non_latin_letter_ratio_threshold == 0.05


def test_config_rejects_zero_parallelism(tmp_path):
    path, _ = write_config(tmp_path, parallelism=0)
    with pytest.raises(ConfigValidationError) as err:
        load_config(path)
    assert err.value.field == "parallelism"


def test_config_rejects_unknown_key(tmp_path):
    path, _ = write_config(tmp_path, paralelism=4)
    with pytest.raises(ConfigValidationError) as err:
        load_config(path)
    assert "paralelism" in str(err.value)


def test_config_rejects_unknown_filter_key(tmp_path):
    path, _ = write_config(tmp_path, filter={"thresold": 0.1})
    with pytest.raises(ConfigValidationError):
        load_config(path)


@pytest.mark.parametrize(
    "command, names",
    [
        ("pipeline", {"output_path": "input.json"}),
        # the summary would overwrite the stats
        ("pipeline", {"output_path": "out.json", "stats_path": "out.summary.json"}),
        # filter would overwrite its own input with an empty corpus
        ("filter", {"output_path": "out.json", "input_path": "out.filtered.json"}),
        ("pipeline", {"output_path": "out.json", "stats_path": "sub/../out.summary.json"}),
    ],
    ids=["output-is-input", "stats-is-summary", "input-is-filtered", "spelled-apart"],
)
def test_config_rejects_duplicate_paths(tmp_path, capsys, command, names):
    (tmp_path / "sub").mkdir()
    path, cfg = write_config(tmp_path, **{key: str(tmp_path / name) for key, name in names.items()})
    Path(cfg["input_path"]).write_bytes(b"".join(serialize_corpus(build_english_corpus(3))))
    with pytest.raises(ConfigValidationError) as err:
        load_config(path)
    assert err.value.field == "paths"
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert main(["--config", str(path), command]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize(
    "argv",
    [
        # filter would leave its own input holding the rejection log
        ["filter", "--rejection-log", "in.json"],
        ["filter", "--output", "in.json"],
        ["filter", "--input", "out.filtered.json"],
        # translate would replace its own default input with candidates
        ["translate", "--output", "out.filtered.json"],
        ["translate", "--input", "out.candidates.jsonl"],
        ["postprocess", "--output", "sub/../out.candidates.jsonl"],
        # realign would write the corpus, then the log over it
        ["realign", "--output", "rej.jsonl"],
        ["realign", "--rejection-log", "out.json"],
        ["realign", "--output", "in.json"],
        ["stats", "in.json", "--output", "in.json"],
        ["stats", "--output", "sub/../in.json"],
        ["evaluate", "--gold", "in.json", "--predictions", "pred.json", "--output", "pred.json"],
        ["evaluate", "--gold", "in.json", "--predictions", "pred.json", "--output", "in.json"],
        ["evaluate", "--gold", "in.json", "--predictions", "pred.json",
         "--embeddings", "emb.txt", "--output", "emb.txt"],
        # the report would sit where the next load writes the parsed table
        ["evaluate", "--gold", "in.json", "--predictions", "pred.json",
         "--embeddings", "emb.txt", "--output", "emb.txt.tqemb"],
        ["evaluate", "--gold", "in.json", "--predictions", "pred.json",
         "--embeddings", "emb.txt", "--output", "sub/../emb.txt.tqemb"],
        ["evaluate", "--gold", "emb.txt.tqemb", "--predictions", "pred.json",
         "--embeddings", "emb.txt"],
    ],
    ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv),
)
def test_cli_refuses_an_override_that_names_another_of_its_paths(tmp_path, capsys, argv):
    """The config's distinct-path check, run again with the command line's paths in place."""
    (tmp_path / "sub").mkdir()
    names = {"input_path": "in.json", "output_path": "out.json", "rejection_log_path": "rej.jsonl"}
    path, _ = write_config(tmp_path, **{key: str(tmp_path / name) for key, name in names.items()})
    (tmp_path / "in.json").write_bytes(b"".join(serialize_corpus(build_english_corpus(3))))
    for command in ("filter", "translate", "postprocess", "realign"):
        assert main(["--config", str(path), command]) == 0
    (tmp_path / "pred.json").write_text('{"q0": "river"}', encoding="utf-8")
    (tmp_path / "emb.txt").write_text("river 1 0\n", encoding="utf-8")
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = [str(tmp_path / arg) if "." in arg else arg for arg in argv]
    assert main(["--config", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "all paths must be distinct" in line
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_config_rejects_missing_key_and_bad_json(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"input_path": "x"}', encoding="utf-8")
    with pytest.raises(ConfigValidationError):
        load_config(path)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigParseError):
        load_config(path)
    with pytest.raises(ConfigParseError):
        load_config(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "override, field",
    [
        ({"parallelism": "2"}, "parallelism"),
        ({"parallelism": 2.5}, "parallelism"),
        ({"parallelism": True}, "parallelism"),
        ({"cache_path": ["a"]}, "cache_path"),
        ({"split": None}, "split"),
        ({"filter": ["a"]}, "filter"),
        ({"filter": {"min_context_length": "3"}}, "filter.min_context_length"),
        ({"filter": {"min_context_length": False}}, "filter.min_context_length"),
        ({"filter": {"non_latin_letter_ratio_threshold": None}},
         "filter.non_latin_letter_ratio_threshold"),
        ({"filter": {"exclusion_list_path": 3}}, "filter.exclusion_list_path"),
        # the paths beside the output take its file name
        ({"output_path": ""}, "output_path"),
        ({"output_path": "."}, "output_path"),
        ({"output_path": "/"}, "output_path"),
    ],
)
def test_config_rejects_a_value_of_the_wrong_type(tmp_path, capsys, override, field):
    path, _ = write_config(tmp_path, **override)
    with pytest.raises(ConfigValidationError) as err:
        load_config(path)
    assert err.value.field == field
    assert main(["--config", str(path), "pipeline"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: '{field}' must be ")


def test_config_accepts_whole_numbers_for_the_ratio(tmp_path):
    path, _ = write_config(tmp_path, filter={"non_latin_letter_ratio_threshold": 1})
    assert load_config(path).filter.non_latin_letter_ratio_threshold == 1


def test_config_types_name_exactly_the_config_fields():
    # In field order, so a config missing several keys names the first field.
    assert list(transquad.pipeline._CONFIG_TYPES) == [f.name for f in fields(PipelineConfig)]
    assert list(transquad.pipeline._FILTER_TYPES) == [f.name for f in fields(FilterConfig)]


# -- run_pipeline --


def test_identity_pipeline_reproduces_input(tmp_path):
    corpus = build_english_corpus(20, seed=3)
    write_input(tmp_path, corpus)
    path, raw = write_config(tmp_path)
    summary = run_pipeline(load_config(path))

    assert summary.input_count == 20
    assert summary.aligned_count == 20
    assert summary.rejected_by_reason == {}
    out = load_corpus(raw["output_path"], "train")
    collapsed = [collapse_answers(r) for r in corpus.records]
    assert [r.qid for r in out.records] == [r.qid for r in collapsed]
    assert [r.answers for r in out.records] == [r.answers for r in collapsed]

    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["total_questions"] == 20
    summary_file = json.loads((tmp_path / "output.summary.json").read_text())
    assert summary_file["aligned_count"] == 20


def test_dictionary_pipeline_rejects_divergent_answers(tmp_path):
    corpus = build_english_corpus(10, seed=8)
    # Translate two answers differently from their contexts: the table maps
    # the bare token only, but inside these two contexts the token is fused
    # with a suffix the dictionary does not know.
    records = list(corpus.records)
    table = {}
    divergent = set()
    for i, rec in enumerate(records):
        answer = rec.answers[0].text
        if i in (2, 7):
            table[answer] = f"अनुवाद{i}"
            context = rec.context.replace(answer, answer + "tail")
            records[i] = type(rec)(
                qid=rec.qid,
                question=rec.question,
                context=context,
                answers=(type(rec.answers[0])(answer, rec.answers[0].start),),
                title=rec.title,
            )
            divergent.add(rec.qid)
    corpus = type(corpus)(split="train", records=tuple(records), version=corpus.version)

    result = run_corpus_pipeline(
        corpus,
        DictionaryEngine(table),
        IdentityTransliterator(),
        FilterConfig(),
        source_lang="en",
        target_lang="mr",
        cache=TranslationCache(),
    )
    assert {e.qid for e in result.rejection_log} == divergent
    assert all(e.reason == "answer-not-found" for e in result.rejection_log)
    assert len(result.corpus) == 8
    assert result.input_count == len(result.corpus) + len(result.rejection_log)


def test_warm_cache_skips_engine_and_reproduces_bytes(tmp_path):
    corpus = build_english_corpus(15, seed=4)
    write_input(tmp_path, corpus)
    engine = CountingEngine(IdentityEngine())

    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    run1.mkdir(), run2.mkdir()
    outputs = []
    for run_dir in (run1, run2):
        path, raw = write_config(
            tmp_path,
            output_path=str(run_dir / "output.json"),
            rejection_log_path=str(run_dir / "rej.jsonl"),
            stats_path=str(run_dir / "stats.json"),
        )
        calls_before = engine.calls
        run_pipeline(load_config(path), engine=engine)
        outputs.append(
            (
                (run_dir / "output.json").read_bytes(),
                (run_dir / "rej.jsonl").read_bytes(),
                (run_dir / "stats.json").read_bytes(),
            )
        )
        if run_dir is run2:
            assert engine.calls == calls_before  # warm cache: zero invocations
        else:
            assert engine.calls > calls_before
    assert outputs[0] == outputs[1]


def test_text_repeated_across_fields_reaches_the_engine_once():
    corpus = build_english_corpus(4, seed=5)
    a, b, c, d = corpus.records
    # b asks a's answer as its question; c's question is its own context.
    b = replace(b, question=a.answers[0].text)
    c = replace(c, question=c.context)
    engine = CountingEngine(UppercaseEngine())
    candidates = translate_records(
        [a, b, c, d],
        engine,
        source_lang="en",
        target_lang="mr",
        cache=TranslationCache(),
        parallelism=1,
    )
    texts = [t for r in (a, b, c, d) for t in (r.context, r.question, r.answers[0].text)]
    # Each distinct text once, in the interleaved queue order.
    assert engine.sent == [list(dict.fromkeys(texts))]
    assert engine.texts_translated == len(texts) - 2
    for rec, cand in zip((a, b, c, d), candidates):
        assert cand.translated_context == rec.context.upper()
        assert cand.translated_question == rec.question.upper()
        assert cand.translated_answer == rec.answers[0].text.upper()
    assert candidates[1].translated_question == candidates[0].translated_answer


@pytest.mark.parametrize("command", ["pipeline", "translate"])
def test_one_gateway_call_for_all_three_fields(tmp_path, monkeypatch, command):
    seen = []
    real = transquad.pipeline.translate_batch

    def spy(request, *args, **kwargs):
        seen.append((len(request.texts), kwargs["max_workers"]))
        return real(request, *args, **kwargs)

    monkeypatch.setattr(transquad.pipeline, "translate_batch", spy)
    write_input(tmp_path, build_english_corpus(6))
    path, _ = write_config(tmp_path, parallelism=2)
    if command == "translate":
        assert main(["--config", str(path), "filter"]) == 0
    assert main(["--config", str(path), command]) == 0
    assert seen == [(3 * 6, 2)]


def test_pipeline_failure_leaves_no_output(tmp_path):
    write_input(tmp_path, build_english_corpus(5))
    path, raw = write_config(tmp_path, engine_id="no-such-engine")
    with pytest.raises(PipelineError):
        run_pipeline(load_config(path))
    assert not (tmp_path / "output.json").exists()


def test_pipeline_error_names_parse_stage(tmp_path):
    (tmp_path / "input.json").write_text("{broken", encoding="utf-8")
    path, _ = write_config(tmp_path)
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_config(path))
    assert err.value.stage == "parse"


class RefusingTransliterator(IdentityTransliterator):
    def transliterate(self, tokens):
        raise TransliterationError("service refused the request")


@pytest.mark.parametrize("stage, code", [("setup", 2), ("filter", 2), ("postprocess", 1)])
def test_cli_pipeline_failure_names_its_stage(tmp_path, capsys, monkeypatch, stage, code):
    write_input(tmp_path, build_english_corpus(4, seed=5))
    if stage == "setup":
        path, _ = write_config(tmp_path, engine_id="no-such-engine")
        reason = "unknown engine id 'no-such-engine'"
    elif stage == "filter":
        (tmp_path / "excl").mkdir()
        path, _ = write_config(tmp_path, filter={"exclusion_list_path": str(tmp_path / "excl")})
        reason = f"cannot read exclusion list {tmp_path / 'excl'}: Is a directory"
    else:
        path, _ = write_config(tmp_path)
        monkeypatch.setattr(
            transquad.pipeline, "build_transliterator", lambda tid: RefusingTransliterator()
        )
        reason = "service refused the request"
    assert main(["--config", str(path), "pipeline"]) == code
    assert capsys.readouterr().err.splitlines() == [f"error: stage '{stage}' failed: {reason}"]
    assert not (tmp_path / "output.json").exists()


CHUNK = 8  # texts per engine call in the tests below


def engine_chunks(corpus: Corpus) -> list[list[str]]:
    """The engine calls a cold run makes on ``corpus``: its distinct texts, ``CHUNK`` at a time.

    Records of ``build_english_corpus`` pass the default filter, and every
    text of theirs is distinct.
    """
    texts = [t for r in corpus.records for t in (r.context, r.question, r.answers[0].text)]
    assert len(set(texts)) == len(texts)
    return [texts[i : i + CHUNK] for i in range(0, len(texts), CHUNK)]


def run_outputs(tmp_path, name, engine, parallelism):
    """Run the pipeline into ``tmp_path/name`` (cache in ``tmp_path``); returns corpus, log, stats."""
    out = tmp_path / name
    out.mkdir(exist_ok=True)
    path, raw = write_config(
        tmp_path,
        output_path=str(out / "output.json"),
        rejection_log_path=str(out / "rej.jsonl"),
        stats_path=str(out / "stats.json"),
        parallelism=parallelism,
    )
    run_pipeline(load_config(path), engine=engine)
    return [Path(raw[key]).read_bytes() for key in ("output_path", "rejection_log_path",
                                                    "stats_path")]


class RefusingChunkEngine(UppercaseEngine):
    """Uppercases, but refuses for good every call that holds ``bad``."""

    def __init__(self, bad: str):
        self.bad = bad

    def translate(self, texts, source_lang, target_lang):
        if self.bad in texts:
            raise EngineError("the model refused this chunk")
        return super().translate(texts, source_lang, target_lang)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_crash_on_chunk_k_then_rerun_matches_an_uninterrupted_run(
    tmp_path, monkeypatch, parallelism, k
):
    corpus = build_english_corpus(12, seed=13)
    chunks = engine_chunks(corpus)
    assert len(chunks) == 5
    write_input(tmp_path, corpus)
    monkeypatch.setattr(
        transquad.pipeline, "translate_batch", functools.partial(translate_batch, batch_size=CHUNK)
    )
    crashed = tmp_path / "crashed"
    with pytest.raises(PipelineError) as err:
        run_outputs(tmp_path, "crashed", RefusingChunkEngine(chunks[k][0]), parallelism)
    assert err.value.stage == "translate"
    assert list(crashed.iterdir()) == []  # no corpus, log, stats or summary
    cache_path = tmp_path / "cache.jsonl"
    stored = cache_path.read_text(encoding="utf-8").splitlines() if cache_path.exists() else []
    # Exactly the chunks settled before the failure, in order.
    assert [json.loads(line)["source_text"] for line in stored] == sum(chunks[:k], [])

    engine = CountingEngine(UppercaseEngine())
    rerun = run_outputs(tmp_path, "crashed", engine, parallelism)
    assert sorted(sum(engine.sent, [])) == sorted(sum(chunks[k:], []))
    cache_path.unlink()
    assert rerun == run_outputs(tmp_path, "uninterrupted", UppercaseEngine(), parallelism)


def test_each_text_is_scanned_once_and_while_the_engine_runs(tmp_path, monkeypatch):
    corpus = build_english_corpus(12, seed=14)
    chunks = engine_chunks(corpus)
    assert len(chunks) >= 3
    first = {t.upper() for t in chunks[0]}
    write_input(tmp_path, corpus)
    monkeypatch.setattr(
        transquad.pipeline, "translate_batch", functools.partial(translate_batch, batch_size=CHUNK)
    )
    events = []
    lock = threading.Lock()
    first_scanned = threading.Event()
    real_scan = transquad.pipeline.scan_residuals

    def scan(text):
        with lock:
            events.append(("scan", text))
            if first <= {t for kind, t in events if kind == "scan"}:
                first_scanned.set()
        return real_scan(text)

    class GatedEngine(UppercaseEngine):
        """Holds the last chunk back until the first chunk's texts are scanned (or 5 s)."""

        def translate(self, texts, source_lang, target_lang):
            if list(texts) == chunks[-1]:
                first_scanned.wait(timeout=5)
            out = super().translate(texts, source_lang, target_lang)
            with lock:
                events.append(("returned", texts[0]))
            return out

    monkeypatch.setattr(transquad.pipeline, "scan_residuals", scan)
    outputs = {t.upper() for chunk in chunks for t in chunk}
    for run in ("cold", "warm"):
        events.clear()
        run_outputs(tmp_path, run, GatedEngine(), parallelism=2)
        scans = collections.Counter(t for kind, t in events if kind == "scan")
        assert scans == collections.Counter(outputs), run
        if run == "cold":
            last_return = events.index(("returned", chunks[-1][0]))
            assert all(events.index(("scan", t)) < last_return for t in first)
        else:
            assert not any(kind == "returned" for kind, _ in events)


def test_pipeline_validates_spans_once(tmp_path, monkeypatch):
    write_input(tmp_path, build_english_corpus(5))
    path, _ = write_config(tmp_path)
    calls = []
    real = transquad.corpus.validate_spans

    def counting(corpus):
        calls.append(len(corpus))
        return real(corpus)

    # serialize_corpus looks the name up in corpus, write_dataset in pipeline.
    monkeypatch.setattr(transquad.corpus, "validate_spans", counting)
    monkeypatch.setattr(transquad.pipeline, "validate_spans", counting)
    run_pipeline(load_config(path))
    assert calls == [5]


def test_write_dataset_refuses_invalid_spans_and_writes_nothing(tmp_path):
    corpus = build_english_corpus(3)
    rec = corpus.records[0]
    bad = replace(rec, answers=(AnswerSpan(text="zzz", start=0),))
    corpus = replace(corpus, records=(bad,) + corpus.records[1:])
    outputs = [tmp_path / name for name in ("out.json", "log.jsonl", "stats.json")]
    with pytest.raises(InvalidCorpusError):
        write_dataset(corpus, RejectionLog(), *outputs)
    assert not any(p.exists() for p in outputs)


def test_postprocess_reports_mixed_tokens_in_one_bounded_warning(caplog):
    def mixed(i):
        return "x" + chr(0x0915 + i)  # a Latin and a Devanagari letter

    candidates = [
        AlignmentCandidate(
            qid=f"q{i}",
            translated_context=f"मराठी {mixed(i)} जन्म",
            translated_question=f"{mixed(i)} काय?",
            translated_answer="जन्म",
            original_relative_position=0.0,
        )
        for i in range(3 * MIXED_SAMPLE_SIZE)
    ]
    with caplog.at_level("WARNING", logger="transquad.script_tools"):
        fixed = postprocess_candidates(candidates, IdentityTransliterator())
    assert fixed == candidates
    (record,) = caplog.records
    assert record.name == "transquad.script_tools" and "mixed-script" in record.msg
    message = record.getMessage()
    # 60 occurrences of 30 distinct tokens; only the first ten are quoted.
    assert f"{6 * MIXED_SAMPLE_SIZE} mixed-script" in message
    assert repr(mixed(MIXED_SAMPLE_SIZE - 1)) in message
    assert repr(mixed(MIXED_SAMPLE_SIZE)) not in message


def test_postprocess_counts_mixed_tokens_in_shared_texts_per_field(caplog):
    # One context asked about three times: fixed once, counted three times.
    candidates = [
        AlignmentCandidate(
            qid=f"q{i}",
            translated_context="मराठी abcक जन्म",
            translated_question=f"प्रश्न {i}?",
            translated_answer="जन्म",
            original_relative_position=0.0,
        )
        for i in range(3)
    ]
    with caplog.at_level("WARNING", logger="transquad.script_tools"):
        postprocess_candidates(candidates, IdentityTransliterator())
    (record,) = caplog.records
    assert "left 3 mixed-script token(s)" in record.getMessage()
    assert "['abcक']" in record.getMessage()


# -- CLI --


def test_cli_validate_ok(tmp_path, capsys):
    write_input(tmp_path, build_english_corpus(3))
    assert main(["validate", str(tmp_path / "input.json")]) == 0
    assert json.loads(capsys.readouterr().out)["valid_count"] == 3


def test_cli_validate_reports_violations_with_exit_1(tmp_path, capsys):
    doc = {
        "version": "1.1",
        "data": [
            {
                "title": "t",
                "paragraphs": [
                    {
                        "context": "abc",
                        "qas": [
                            {
                                "id": "q1",
                                "question": "?",
                                "answers": [{"text": "zzz", "answer_start": 0}],
                            }
                        ],
                    }
                ],
            }
        ],
    }
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(target)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"][0]["reason"] == "substring-mismatch"


def test_cli_stats(tmp_path, capsys):
    write_input(tmp_path, build_english_corpus(4))
    assert main(["stats", str(tmp_path / "input.json")]) == 0
    assert json.loads(capsys.readouterr().out)["total_questions"] == 4


def test_cli_pipeline_and_exit_codes(tmp_path, capsys):
    write_input(tmp_path, build_english_corpus(6, seed=11))
    path, raw = write_config(tmp_path)
    assert main(["--config", str(path), "pipeline"]) == 0
    assert "aligned (kept)" in capsys.readouterr().out
    assert (tmp_path / "output.json").exists()

    # config problems exit 2
    assert main(["--config", str(tmp_path / "nope.json"), "pipeline"]) == 2
    bad_cfg, _ = write_config(tmp_path, parallelism=0)
    assert main(["--config", str(bad_cfg), "pipeline"]) == 2

    # data problems exit 1
    (tmp_path / "input.json").write_text("{broken", encoding="utf-8")
    good_cfg, _ = write_config(tmp_path)
    assert main(["--config", str(good_cfg), "pipeline"]) == 1


def test_cli_stage_chain_matches_pipeline(tmp_path, capsys):
    corpus = build_english_corpus(12, seed=6)
    # Records 2 and 7 diverge: the dictionary translates the bare answer, but
    # in the context the answer is fused with a suffix it does not know.
    records = list(corpus.records)
    table_lines = []
    for i in (2, 7):
        rec = records[i]
        answer = rec.answers[0].text
        table_lines.append(f"{answer}\tअनुवाद{i}\n")
        records[i] = replace(rec, context=rec.context.replace(answer, answer + "tail"))
    write_input(tmp_path, replace(corpus, records=tuple(records)))
    table = tmp_path / "dict.tsv"
    table.write_text("".join(table_lines), encoding="utf-8")
    # Pre-filter rejections: one qid, and a title that covers records 3 and 8.
    excl = tmp_path / "excl.txt"
    excl.write_text(f"{records[0].qid}\n{records[3].title}\n", encoding="utf-8")
    settings = {"engine_id": f"dictionary:{table}", "filter": {"exclusion_list_path": str(excl)}}
    path, raw = write_config(tmp_path, **settings)

    assert main(["--config", str(path), "filter"]) == 0
    assert main(["--config", str(path), "translate"]) == 0
    assert len(read_candidates(tmp_path / "output.candidates.jsonl")) == 9
    assert main(["--config", str(path), "postprocess"]) == 0
    # A second realign replaces the alignment entries of the first.
    assert main(["--config", str(path), "realign"]) == 0
    assert main(["--config", str(path), "realign"]) == 0

    pipeline_out = tmp_path / "direct"
    pipeline_out.mkdir()
    path2, raw2 = write_config(
        tmp_path,
        output_path=str(pipeline_out / "output.json"),
        rejection_log_path=str(pipeline_out / "rej.jsonl"),
        stats_path=str(pipeline_out / "stats.json"),
        cache_path=str(pipeline_out / "cache.jsonl"),
        **settings,
    )
    assert main(["--config", str(path2), "pipeline"]) == 0
    for key in ("output_path", "rejection_log_path", "stats_path"):
        assert Path(raw[key]).read_bytes() == Path(raw2[key]).read_bytes(), key

    kept = load_corpus(raw["output_path"], "train")
    log = RejectionLog.read(raw["rejection_log_path"])
    assert len(kept) + len(log) == len(records)
    assert {e.qid: e.reason for e in log} == {
        records[0].qid: "manual-exclusion",
        records[3].qid: "manual-exclusion",
        records[8].qid: "manual-exclusion",
        records[2].qid: "answer-not-found",
        records[7].qid: "answer-not-found",
    }
    # Atomic writes honour the umask like the plain write of the log does.
    umask = os.umask(0)
    os.umask(umask)
    written = [raw2[key] for key in ("output_path", "rejection_log_path", "stats_path")]
    for written_path in written + [pipeline_out / "output.summary.json", raw["output_path"]]:
        assert stat.S_IMODE(os.stat(written_path).st_mode) == 0o666 & ~umask, written_path


def test_cli_stage_chain_through_overrides_alone_matches_pipeline(tmp_path, capsys):
    """Every stage path on the command line, away from the config's defaults."""
    corpus = build_english_corpus(8, seed=6)
    records = list(corpus.records)
    # Record 2 is rejected at realign: its answer is fused with a suffix in the context.
    answer = records[2].answers[0].text
    records[2] = replace(records[2], context=records[2].context.replace(answer, answer + "tail"))
    source = tmp_path / "source.json"
    source.write_bytes(b"".join(serialize_corpus(replace(corpus, records=tuple(records)))))
    table = tmp_path / "dict.tsv"
    table.write_text(f"{answer}\tअनुवाद\n", encoding="utf-8")
    excl = tmp_path / "excl.txt"
    excl.write_text(records[0].qid + "\n", encoding="utf-8")
    settings = {"engine_id": f"dictionary:{table}", "filter": {"exclusion_list_path": str(excl)}}
    path, raw = write_config(tmp_path, **settings)
    moved = tmp_path / "moved"
    moved.mkdir()
    chain = [
        ["filter", "--input", source, "--output", moved / "kept.json",
         "--rejection-log", moved / "log.jsonl"],
        ["translate", "--input", moved / "kept.json", "--output", moved / "translated.jsonl"],
        ["postprocess", "--input", moved / "translated.jsonl", "--output", moved / "fixed.jsonl"],
        ["realign", "--input", moved / "fixed.jsonl", "--output", moved / "out.json",
         "--rejection-log", moved / "log.jsonl"],
    ]
    for argv in chain:
        assert main(["--config", str(path), *map(str, argv)]) == 0, capsys.readouterr().err
    # The manifest followed the log, and no stage touched a default path it has a flag for.
    assert (moved / "log.jsonl.manifest.json").exists()
    defaults = ["output.json", "rejections.jsonl", "rejections.jsonl.manifest.json",
                "output.filtered.json", "output.candidates.jsonl", "output.postprocessed.jsonl"]
    assert [name for name in defaults if (tmp_path / name).exists()] == []
    assert {e.qid: e.reason for e in RejectionLog.read(moved / "log.jsonl")} == {
        records[0].qid: "manual-exclusion",
        records[2].qid: "answer-not-found",
    }

    direct = tmp_path / "direct"
    direct.mkdir()
    path2, raw2 = write_config(
        tmp_path,
        input_path=str(source),
        output_path=str(direct / "output.json"),
        rejection_log_path=str(direct / "rej.jsonl"),
        stats_path=str(direct / "stats.json"),
        cache_path=str(direct / "cache.jsonl"),
        **settings,
    )
    assert main(["--config", str(path2), "pipeline"]) == 0
    for chained, piped in [
        (moved / "out.json", raw2["output_path"]),
        (moved / "log.jsonl", raw2["rejection_log_path"]),
        (raw["stats_path"], raw2["stats_path"]),
    ]:
        assert Path(chained).read_bytes() == Path(piped).read_bytes(), chained


def test_cli_postprocess_exits_1_on_a_permanent_transliterator_failure(
    tmp_path, capsys, monkeypatch
):
    class BrokenTransliterator(IdentityTransliterator):
        def transliterate(self, tokens):
            raise RuntimeError("service refused the request")

    write_input(tmp_path, build_english_corpus(4, seed=5))
    path, _ = write_config(tmp_path)
    assert main(["--config", str(path), "filter"]) == 0
    assert main(["--config", str(path), "translate"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(transquad.cli, "build_transliterator", lambda tid: BrokenTransliterator())
    assert main(["--config", str(path), "postprocess"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: transliterator failed on ")
    assert "service refused the request" in line
    assert not (tmp_path / "output.postprocessed.jsonl").exists()


GOOD_CANDIDATE = {
    "qid": "q1",
    "title": "t",
    "question": "काय?",
    "context": "मराठी जन्म",
    "answer": "जन्म",
    "original_relative_position": 0.5,
}


@pytest.mark.parametrize("command", ["postprocess", "realign"])
@pytest.mark.parametrize(
    "line, message",
    [
        ({k: v for k, v in GOOD_CANDIDATE.items() if k != "original_relative_position"},
         "missing key 'original_relative_position'"),
        ([1, 2], "a candidate must be a JSON object, got list"),
        ({**GOOD_CANDIDATE, "context": 5}, "'context' must be a string, got 5"),
        ({**GOOD_CANDIDATE, "title": None}, "'title' must be a string, got None"),
        ({**GOOD_CANDIDATE, "original_relative_position": "0.5"},
         "'original_relative_position' must be a number, got '0.5'"),
        ({**GOOD_CANDIDATE, "original_relative_position": 1.5},
         "original_relative_position must be in [0, 1], got 1.5"),
        ('{"qid": "q1", ', "not valid JSON: "),
    ],
)
def test_cli_malformed_candidates_line_exits_1_naming_it(tmp_path, capsys, command, line, message):
    path, _ = write_config(tmp_path)
    candidates = tmp_path / "candidates.jsonl"
    bad = line if isinstance(line, str) else json.dumps(line, ensure_ascii=False)
    # A blank line between the good line and the bad one still counts.
    candidates.write_text(
        json.dumps(GOOD_CANDIDATE, ensure_ascii=False) + "\n\n" + bad + "\n", encoding="utf-8"
    )
    out = tmp_path / "out.jsonl"
    assert main(["--config", str(path), command, "--input", str(candidates),
                 "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (err,) = captured.err.splitlines()
    assert err.startswith(f"error: {candidates}:3: {message}")
    assert not out.exists()


def test_cli_filter_subcommand(tmp_path, capsys):
    corpus = build_english_corpus(5, seed=2)
    write_input(tmp_path, corpus)
    excl = tmp_path / "excl.txt"
    excl.write_text(corpus.records[0].qid + "\n", encoding="utf-8")
    path, raw = write_config(tmp_path, filter={"exclusion_list_path": str(excl)})
    assert main(["--config", str(path), "filter"]) == 0
    kept = load_corpus(tmp_path / "output.filtered.json", "train")
    assert len(kept) == 4
    log_lines = (tmp_path / "rejections.jsonl").read_text().strip().splitlines()
    assert json.loads(log_lines[0])["reason"] == "manual-exclusion"


def test_cli_filter_passes_spans_through_as_translate_and_pipeline_do(tmp_path, capsys):
    corpus = build_english_corpus(3, seed=2)
    first = corpus.records[0]
    far = replace(first, answers=(replace(first.answers[0], start=1_000_000),))
    corpus = replace(corpus, records=(far, *corpus.records[1:]))
    (tmp_path / "input.json").write_bytes(b"".join(serialize_corpus(corpus)))
    path, _ = write_config(tmp_path)
    for command in ("filter", "translate", "pipeline"):
        assert main(["--config", str(path), command]) == 0, capsys.readouterr().err
    kept = load_corpus(tmp_path / "output.filtered.json", "train")
    assert kept.records == corpus.records


def test_cli_chain_through_translate_input_keeps_what_filter_rejected(tmp_path, capsys):
    corpus = build_english_corpus(6, seed=2)
    write_input(tmp_path, corpus)
    excluded = corpus.records[0].qid
    excl = tmp_path / "excl.txt"
    excl.write_text(excluded + "\n", encoding="utf-8")
    path, raw = write_config(tmp_path, filter={"exclusion_list_path": str(excl)})
    filtered = tmp_path / "elsewhere.json"
    assert main(["--config", str(path), "filter", "--output", str(filtered)]) == 0
    assert main(["--config", str(path), "translate", "--input", str(filtered)]) == 0
    assert main(["--config", str(path), "postprocess"]) == 0
    assert main(["--config", str(path), "realign"]) == 0
    assert [r.qid for r in load_corpus(raw["output_path"], "train")] == [
        r.qid for r in corpus.records[1:]
    ]
    log = RejectionLog.read(raw["rejection_log_path"])
    assert log.entries == [
        RejectionEntry(excluded, STAGE_PRE_FILTER, "manual-exclusion", log.entries[0].detail)
    ]


def test_cli_translate_without_a_filtered_corpus_exits_2(tmp_path, capsys):
    write_input(tmp_path, build_english_corpus(3))
    path, _ = write_config(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(["--config", str(path), "translate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and str(tmp_path / "output.filtered.json") in line
    assert sorted(tmp_path.iterdir()) == before


def test_cli_translate_refuses_a_record_with_several_answers(tmp_path, capsys):
    a, b, c = build_english_corpus(3).records
    write_input(tmp_path, Corpus(split="train", records=(a, replace(b, answers=b.answers * 2), c)))
    path, _ = write_config(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(["--config", str(path), "translate", "--input", str(tmp_path / "input.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: record {b.qid!r} has 2 answers; run filter first to collapse them\n"
    )
    assert sorted(tmp_path.iterdir()) == before  # no candidates, no cache


def test_cli_realign_refuses_a_candidate_the_log_rejected_pre_filter(tmp_path, capsys):
    corpus = build_english_corpus(4, seed=3)
    write_input(tmp_path, corpus)
    path, raw = write_config(tmp_path)
    for command in ("filter", "translate", "postprocess"):
        assert main(["--config", str(path), command]) == 0
    # A log left by a run on another corpus, which rejected one of these qids.
    stale = corpus.records[2].qid
    log_path = Path(raw["rejection_log_path"])
    RejectionLog([RejectionEntry(stale, STAGE_PRE_FILTER, "too-short")]).write(log_path)
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["--config", str(path), "realign"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: candidate {stale!r} ") and str(log_path) in line
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def run_chain_to_realign(tmp_path, corpus):
    """filter, translate and postprocess ``corpus``; returns the config path and its keys."""
    write_input(tmp_path, corpus)
    path, raw = write_config(tmp_path)
    for command in ("filter", "translate", "postprocess"):
        assert main(["--config", str(path), command]) == 0
    return path, raw


def assert_realign_refuses(tmp_path, capsys, path, *words):
    """realign exits 1 with one ``error:`` line holding ``words``, and writes nothing."""
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert main(["--config", str(path), "realign"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    for word in words:
        assert word in line, line
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--output", "output.filtered.json"],
        ["filter", "--rejection-log", "rejections.jsonl"],
        ["translate", "--output", "output.candidates.jsonl"],
        ["postprocess", "--output", "output.postprocessed.jsonl"],
        ["realign", "--output", "output.json"],
        ["realign", "--rejection-log", "rejections.jsonl"],
    ],
    ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv),
)
def test_cli_override_may_name_the_path_it_replaces(tmp_path, capsys, argv):
    path, _ = run_chain_to_realign(tmp_path, build_english_corpus(4, seed=3))
    command, flag, name = argv
    assert main(["--config", str(path), command, flag, str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""


def test_filter_writes_a_manifest_of_what_it_read(tmp_path, capsys):
    corpus = build_english_corpus(4, seed=3)
    write_input(tmp_path, corpus)
    excl = tmp_path / "excl.txt"
    excl.write_text(corpus.records[1].qid + "\n", encoding="utf-8")
    path, raw = write_config(tmp_path, filter={"exclusion_list_path": str(excl)})
    assert main(["--config", str(path), "filter"]) == 0
    manifest = json.loads(Path(raw["rejection_log_path"] + ".manifest.json").read_bytes())
    qids = json.dumps(sorted(rec.qid for rec in corpus.records), ensure_ascii=False)
    assert manifest == {
        "records": 4,
        "qids_sha256": hashlib.sha256(qids.encode("utf-8")).hexdigest(),
    }


def test_cli_realign_refuses_a_log_from_another_corpus(tmp_path, capsys):
    path, raw = run_chain_to_realign(tmp_path, build_english_corpus(4, seed=3))
    log_path = raw["rejection_log_path"]
    RejectionLog([RejectionEntry("other-corpus-q", STAGE_PRE_FILTER, "too-short")]).write(log_path)
    assert_realign_refuses(tmp_path, capsys, path, log_path, "4 records filter read")


def test_cli_realign_refuses_candidates_filter_did_not_read(tmp_path, capsys):
    path, raw = run_chain_to_realign(tmp_path, build_english_corpus(4, seed=3))
    # filter run again on another corpus of as many records: the log is
    # empty again, and the manifest is the other corpus's.
    other_records = build_english_corpus(4, seed=4).records
    write_input(tmp_path, Corpus(
        split="train", records=tuple(replace(rec, qid=f"other-{rec.qid}") for rec in other_records)
    ))
    other = tmp_path / "other.filtered.json"
    assert main(["--config", str(path), "filter", "--output", str(other)]) == 0
    assert_realign_refuses(tmp_path, capsys, path, "4 candidates and 0 pre-filter entries")


def test_cli_realign_refuses_a_log_without_a_manifest(tmp_path, capsys):
    path, raw = run_chain_to_realign(tmp_path, build_english_corpus(4, seed=3))
    manifest = Path(raw["rejection_log_path"] + ".manifest.json")
    manifest.unlink()
    assert_realign_refuses(tmp_path, capsys, path, str(manifest), "run filter first")


def test_read_candidates_ignores_the_split_of_older_files(tmp_path):
    path = tmp_path / "candidates.jsonl"
    line = json.dumps({**GOOD_CANDIDATE, "split": "test"}, ensure_ascii=False)
    path.write_text(line + "\n", encoding="utf-8")
    assert read_candidates(path) == [
        AlignmentCandidate(
            qid="q1",
            translated_context="मराठी जन्म",
            translated_question="काय?",
            translated_answer="जन्म",
            original_relative_position=0.5,
            title="t",
        )
    ]


@pytest.mark.parametrize("command, output", [("filter", "output.filtered.json")])
def test_cli_unwritable_rejection_log_fails_before_the_output(tmp_path, capsys, command, output):
    write_input(tmp_path, build_english_corpus(3))
    log = tmp_path / "rejections"
    log.mkdir()
    path, _ = write_config(tmp_path, rejection_log_path=str(log))
    assert main(["--config", str(path), command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(log) in captured.err
    assert not (tmp_path / output).exists()


def test_cli_evaluate(tmp_path, capsys):
    corpus = build_english_corpus(2, seed=9)
    collapsed = type(corpus)(
        split="test",
        records=tuple(collapse_answers(r) for r in corpus.records),
        version=corpus.version,
    )
    gold_path = tmp_path / "gold.json"
    gold_path.write_bytes(b"".join(serialize_corpus(collapsed)))
    answers = {r.qid: r.answers[0].text for r in collapsed.records}
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(answers), encoding="utf-8")

    code = main(["evaluate", "--gold", str(gold_path), "--predictions", str(pred_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["aggregate"]["exact_match"] == 1.0
    assert report["aggregate"]["f1"] == 1.0


def run_evaluate_with_embeddings(tmp_path, prediction, table="alpha 1 0\nbeta 0 1\n"):
    """``evaluate --embeddings`` on one gold answer "alpha beta" and a 2-token table."""
    doc = {
        "version": "1.1",
        "data": [
            {
                "title": "t",
                "paragraphs": [
                    {
                        "context": "alpha beta",
                        "qas": [
                            {
                                "id": "q1",
                                "question": "?",
                                "answers": [{"text": "alpha beta", "answer_start": 0}],
                            }
                        ],
                    }
                ],
            }
        ],
    }
    gold_path = tmp_path / "gold.json"
    gold_path.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "pred.json").write_text(json.dumps({"q1": prediction}), encoding="utf-8")
    (tmp_path / "emb.txt").write_text(table, encoding="utf-8")
    return main(
        [
            "evaluate",
            "--gold", str(gold_path),
            "--predictions", str(tmp_path / "pred.json"),
            "--embeddings", str(tmp_path / "emb.txt"),
        ]
    )


def test_cli_evaluate_with_embeddings(tmp_path, capsys):
    assert run_evaluate_with_embeddings(tmp_path, "alpha") == 0
    parsed = capsys.readouterr().out
    report = json.loads(parsed)
    assert report["per_question"]["q1"]["bert_f"] == pytest.approx(2 / 3, abs=1e-9)
    # The second run reads the table's sidecar, and reports the same bytes.
    assert (tmp_path / "emb.txt.tqemb").is_file()
    assert run_evaluate_with_embeddings(tmp_path, "alpha") == 0
    assert capsys.readouterr().out == parsed


def test_cli_evaluate_refuses_a_report_over_the_embeddings_sidecar(tmp_path, capsys):
    """The next load would find no sidecar there, and write the table over the report."""
    assert run_evaluate_with_embeddings(tmp_path, "alpha") == 0
    sidecar = tmp_path / "emb.txt.tqemb"
    assert sidecar.is_file()
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [
        "evaluate",
        "--gold", str(tmp_path / "gold.json"),
        "--predictions", str(tmp_path / "pred.json"),
        "--embeddings", str(tmp_path / "emb.txt"),
        "--output", str(sidecar),
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == (
        f"error: the sidecar of --embeddings and --output are the same path {str(sidecar)!r}; "
        "all paths must be distinct"
    )
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_cli_evaluate_token_missing_from_embeddings_exits_1(tmp_path, capsys):
    assert run_evaluate_with_embeddings(tmp_path, "alpha gamma") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no embedding for token 'gamma'\n"


def test_cli_evaluate_malformed_embedding_number_exits_1(tmp_path, capsys):
    assert run_evaluate_with_embeddings(tmp_path, "alpha", "alpha 1 0\nbeta 0 1,5\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {tmp_path / 'emb.txt'}:2: could not convert string to float: '1,5'\n"
    )


@pytest.mark.parametrize("component", ["nan", "-inf"])
def test_cli_evaluate_non_finite_embedding_exits_1(tmp_path, capsys, component):
    table = f"alpha {component} 1\nbeta 0 1\n"
    assert run_evaluate_with_embeddings(tmp_path, "alpha", table) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'emb.txt'}:1: non-finite vector component\n"
    assert not (tmp_path / "report.json").exists()


def test_cli_evaluate_all_zero_embedding_exits_1_naming_the_line(tmp_path, capsys):
    assert run_evaluate_with_embeddings(tmp_path, "alpha", "beta 0 1\nalpha 0 0\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'emb.txt'}:2: vector for 'alpha' is all zeros\n"
    assert not (tmp_path / "emb.txt.tqemb").exists()


def test_cli_evaluate_missing_embedding_on_a_pool_thread_exits_1(tmp_path, monkeypatch, capsys):
    # 300 questions are three gateway chunks; the unknown token is in the last.
    records = [
        make_record(f"q{i}", f"alpha beta {i}", "alpha beta", start=0) for i in range(300)
    ]
    gold_path = tmp_path / "gold.json"
    gold_path.write_bytes(b"".join(serialize_corpus(Corpus(split="test", records=tuple(records)))))
    predictions = {rec.qid: "beta" for rec in records}
    predictions["q290"] = "alpha gamma"
    (tmp_path / "pred.json").write_text(json.dumps(predictions), encoding="utf-8")
    (tmp_path / "emb.txt").write_text("alpha 1 0\nbeta 0 1\n", encoding="utf-8")

    failed_on = []
    embed = TableEmbeddingProvider.embed

    def recording_embed(self, tokens):
        try:
            return embed(self, tokens)
        except MissingEmbeddingError:
            failed_on.append(threading.current_thread())
            raise

    monkeypatch.setattr(TableEmbeddingProvider, "embed", recording_embed)
    monkeypatch.setattr(TableEmbeddingProvider, "max_workers", 4)
    code = main(
        [
            "evaluate",
            "--gold", str(gold_path),
            "--predictions", str(tmp_path / "pred.json"),
            "--embeddings", str(tmp_path / "emb.txt"),
        ]
    )
    assert code == 1
    assert failed_on and threading.main_thread() not in failed_on
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no embedding for token 'gamma'\n"


@pytest.mark.parametrize("command", ["stats", "evaluate"])
def test_cli_failed_report_write_leaves_the_old_file(tmp_path, monkeypatch, capsys, command):
    corpus = build_english_corpus(3)
    gold_path = tmp_path / "gold.json"
    gold_path.write_bytes(b"".join(serialize_corpus(replace(corpus, split="test"))))
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps({r.qid: r.answers[0].text for r in corpus.records}))
    out = tmp_path / "reports" / "report.json"
    out.parent.mkdir()
    out.write_bytes(b"old contents\n")
    if command == "stats":
        argv = ["stats", str(gold_path), "--split", "test", "--output", str(out)]
    else:
        argv = ["evaluate", "--gold", str(gold_path), "--predictions", str(pred_path),
                "--output", str(out)]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(transquad._text.os, "replace", fail)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: disk full\n"
    assert out.read_bytes() == b"old contents\n"
    assert [p.name for p in out.parent.iterdir()] == ["report.json"]  # no temp file left
    monkeypatch.undo()
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def write_each_output(tmp_path, name):
    """Write one output file the way its writer does; returns the path."""
    path = tmp_path / name
    corpus = build_english_corpus(3)
    if name == "corpus.json":
        transquad.corpus.save_corpus(corpus, path)
    elif name == "rejections.jsonl":
        RejectionLog([RejectionEntry("q1", STAGE_PRE_FILTER, "too-short")]).write(path)
    else:
        candidates = translate_records(
            corpus.records,
            IdentityEngine(),
            source_lang="en",
            target_lang="mr",
            cache=TranslationCache(),
        )
        write_candidates(candidates, path)
    return path


@pytest.mark.parametrize("name", ["corpus.json", "rejections.jsonl", "candidates.jsonl"])
def test_failed_write_leaves_the_old_file_intact(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_bytes(b"old contents\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(transquad._text.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_each_output(tmp_path, name)
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]  # no temp file left behind
    monkeypatch.undo()
    assert write_each_output(tmp_path, name).read_bytes() != b"old contents\n"


def test_a_stream_that_fails_midway_leaves_the_old_file_intact(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_bytes(b"old contents\n")

    def chunks():
        yield b"new contents"
        raise ValueError("no more chunks")

    with pytest.raises(ValueError, match="no more chunks"):
        transquad._text.atomic_write(path, chunks())
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]  # no .corpus.json.* left


def test_an_encode_error_in_a_later_article_leaves_the_old_corpus_intact(tmp_path):
    """A lone surrogate built in code fails the second article's chunk, mid-write."""
    path = tmp_path / "corpus.json"
    path.write_bytes(b"old contents\n")
    good = make_record("q1", "plain context", "plain", title="first")
    bad = make_record("q2", "odd \ud800 context", "odd", title="second")
    with pytest.raises(UnicodeEncodeError):
        transquad.corpus.save_corpus(Corpus(split="train", records=(good, bad)), path)
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]


def test_write_dataset_holds_one_article_at_a_time_not_the_document(tmp_path):
    """Peak memory of the write is bounded by the largest article's JSON, not the corpus's."""
    records = tuple(
        make_record(f"q{i}", f"answer{i} " + "x" * 50_000, f"answer{i}", title=f"article {i}")
        for i in range(40)
    )
    corpus = Corpus(split="train", records=records)
    article = max(len(json.dumps({"title": r.title, "context": r.context})) for r in records)
    outputs = [tmp_path / name for name in ("out.json", "log.jsonl", "stats.json")]
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        write_dataset(corpus, RejectionLog(), *outputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    document = outputs[0].stat().st_size
    assert document > 35 * article
    assert peak < 4 * article, (peak, article, document)


def test_write_through_a_symlink_keeps_the_link(tmp_path):
    real = tmp_path / "real"
    real.mkdir()
    (real / "corpus.json").write_bytes(b"old contents\n")
    link = tmp_path / "corpus.json"
    link.symlink_to(real / "corpus.json")
    transquad.corpus.save_corpus(build_english_corpus(3), link)
    assert link.is_symlink()
    assert transquad.corpus.load_corpus(real / "corpus.json", "train") == build_english_corpus(3)
    assert sorted(p.name for p in real.iterdir()) == ["corpus.json"]


def test_one_cache_keeps_two_dictionary_tables_apart(tmp_path):
    """Two tables, one cache, two runs: each run translates with its own table."""
    context = "the cat sat on the mat"
    record = make_record("q1", context, "cat", question="what sat on the mat")
    write_input(tmp_path, Corpus(split="train", records=(record,)))
    outputs = []
    for name, word in (("a.tsv", "मांजर"), ("b.tsv", "बोका"), ("a.tsv", "मांजर")):
        table = tmp_path / name
        table.write_text(f"cat\t{word}\n", encoding="utf-8")
        path, raw = write_config(tmp_path, engine_id=f"dictionary:{table}")
        assert main(["--config", str(path), "pipeline"]) == 0
        kept = load_corpus(raw["output_path"], "train").records
        outputs.append(kept[0].context)
    assert outputs == [
        "the मांजर sat on the mat",
        "the बोका sat on the mat",
        "the मांजर sat on the mat",
    ]
    # The third run was served from the cache the first one wrote.
    lines = (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 * 3  # context, question and answer of each table


def test_write_to_a_fifo_writes_in_place(tmp_path):
    fifo = tmp_path / "rejections.jsonl"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    log = RejectionLog([RejectionEntry("q1", STAGE_PRE_FILTER, "too-short")])
    log.write(fifo)
    reader.join(timeout=10)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == [b'{"qid": "q1", "stage": "pre-filter", "reason": "too-short", "detail": null}\n']
    assert [p.name for p in tmp_path.iterdir()] == ["rejections.jsonl"]


def test_stage_paths_are_resolved_in_one_place():
    """No ``args.x or cfg.y`` in ``cli.py``: ``_stage_paths`` resolves every stage path."""

    def operand(node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return {"args": "args", "cfg": "config"}.get(node.value.id)
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "paths":
            return "config"
        return None

    tree = ast.parse(Path(transquad.cli.__file__).read_text(encoding="utf-8"))
    pairs = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
        for left, right in zip(node.values, node.values[1:])
        if {operand(left), operand(right)} == {"args", "config"}
    ]
    assert pairs == []


def test_cli_stage_command_requires_config(tmp_path, capsys):
    assert main(["filter"]) == 2

"""Every input the CLI reads fails the same way when it is malformed.

The config, the corpus, the exclusion list, the dictionary-engine and
transliterator tables, the translation cache, the candidates, the rejection
log with the manifest ``filter`` writes beside it, the predictions and the
embedding table are each fed one malformation per class, through every
subcommand that reads them. Each case must end in exactly one ``error:``
line on stderr that names the file once, with the exit code the README
assigns (2 for the config, the exclusion list and any I/O failure, 1 for
data), and must leave every file as it was: no output created or changed.

JSON and JSON Lines inputs go through one reader, ``_text.parse_json``,
and plain-text inputs through one line reader, ``_text.text_lines``; tests
below parse the package's sources to keep each the only one.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from transquad._text import json_digest
from transquad.cli import main
from transquad.corpus import parse_corpus, serialize_corpus
from transquad.errors import CacheIOError, ConfigParseError, MalformedDocumentError
from transquad.evaluation import load_predictions
from transquad.filtering import RejectionLog
from transquad.pipeline import load_config, read_candidates
from transquad.translation import TranslationCache

from conftest import build_english_corpus

SOURCES = Path(__file__).resolve().parents[1] / "src" / "transquad"

DEEP = b"[" * 200_000 + b"]" * 200_000
BOM = b"\xef\xbb\xbf"  # dropped by the line reader, so a bad first line is still line 1
DIRECTORY = object()  # in place of bytes: the input is a directory

CORPUS = build_english_corpus(2, seed=3)
CONFIG = {
    "input_path": "input.json",
    "output_path": "output.json",
    "rejection_log_path": "rejections.jsonl",
    "stats_path": "stats.json",
    "source_lang": "en",
    "target_lang": "mr",
    "engine_id": "dictionary:dict.tsv",
    "transliterator_id": "table:translit.tsv",
    "cache_path": "cache.jsonl",
    "filter": {"exclusion_list_path": "excl.txt"},
}
CACHE_LINE = {
    "engine_id": "identity",
    "source_lang": "en",
    "target_lang": "mr",
    "source_text": "word",
    "value": "word",
    "timestamp": 0.0,
}
CANDIDATE = {
    "qid": "q1",
    "title": "t",
    "question": "काय?",
    "context": "मराठी जन्म",
    "answer": "जन्म",
    "original_relative_position": 0.5,
}
ENTRY = {"qid": "q0", "stage": "pre-filter", "reason": "manual-exclusion", "detail": "qid listed"}
FIRST = CORPUS.records[0]
# What filter records of a corpus of CANDIDATE's and ENTRY's records.
MANIFEST = {"records": 2, "qids_sha256": json_digest(sorted([CANDIDATE["qid"], ENTRY["qid"]]))}


def without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


def surrogate(record: dict, key: str) -> bytes:
    """``record`` as JSON with a lone surrogate, written as the escape ``\\ud800``, in ``key``."""
    return json.dumps({**record, key: "q\ud800"}).encode("utf-8")


def json_lines_input(name: str, good: dict, field: str, bad_value: object, missing: str):
    """A JSON Lines input of one ``good`` line; each malformation adds a bad second line."""
    first = json.dumps(good, ensure_ascii=False).encode("utf-8") + b"\n"
    bad_lines = {
        "not-utf8": b'{"qid": "\xff"}',
        "not-json": b'{"qid": ',
        "deep": DEEP,
        "top-level-type": b"[]",
        "field-type": json.dumps({**good, field: bad_value}).encode("utf-8"),
        "missing-field": json.dumps(without(good, missing)).encode("utf-8"),
        "surrogate": surrogate(good, "qid"),
    }
    bad = {case: first + line + b"\n" for case, line in bad_lines.items()}
    return name, first, {**bad, "directory": DIRECTORY}


# Each input: its file name, its good bytes, and its malformations by class.
INPUTS = {
    "config": (
        "config.json",
        json.dumps(CONFIG).encode("utf-8"),
        {
            "not-utf8": b'{"input_path": "\xff"}',
            "not-json": b'{"input_path": ',
            "deep": DEEP,
            "top-level-type": b"[]",
            "field-type": json.dumps({**CONFIG, "parallelism": "2"}).encode("utf-8"),
            "missing-field": json.dumps(without(CONFIG, "input_path")).encode("utf-8"),
            "surrogate": surrogate(CONFIG, "source_lang"),
            "directory": DIRECTORY,
        },
    ),
    "corpus": (
        "input.json",
        b"".join(serialize_corpus(CORPUS)),
        {
            "not-utf8": b'{"version": "\xff", "data": []}',
            "not-json": b'{"data": [',
            "deep": DEEP,
            "top-level-type": b"[]",
            "field-type": b'{"version": "1.1", "data": {}}',
            "missing-field": b'{"version": "1.1"}',
            "surrogate": surrogate(json.loads(b"".join(serialize_corpus(CORPUS))), "version"),
            "directory": DIRECTORY,
        },
    ),
    "exclusion list": (
        "excl.txt",
        b"no-such-qid\n",
        {"not-utf8": b"no-such-qid\n\xff\n", "bom": BOM + b"\xff\n", "directory": DIRECTORY},
    ),
    "dictionary table": (
        "dict.tsv",
        "word\tशब्द\n".encode("utf-8"),
        {
            "not-utf8": b"word\tx\n\xff\ty\n",
            "missing-field": b"word\tx\nword\n",
            "bom": BOM + b"word\n",
            "directory": DIRECTORY,
        },
    ),
    "transliterator table": (
        "translit.tsv",
        "word\tवर्ड\n".encode("utf-8"),
        {
            "not-utf8": b"word\tx\n\xff\ty\n",
            "missing-field": b"word\tx\nword\n",
            "bom": BOM + b"word\n",
            "directory": DIRECTORY,
        },
    ),
    "cache": json_lines_input("cache.jsonl", CACHE_LINE, "value", 5, "value"),
    "candidates": json_lines_input("candidates.jsonl", CANDIDATE, "context", 5, "answer"),
    "rejection log": json_lines_input("rejections.jsonl", ENTRY, "qid", 5, "stage"),
    "manifest": (
        "rejections.jsonl.manifest.json",
        json.dumps(MANIFEST).encode("utf-8"),
        {
            "not-utf8": b'{"records": 2, "qids_sha256": "\xff"}',
            "not-json": b'{"records": ',
            "deep": DEEP,
            "top-level-type": b"[]",
            "field-type": json.dumps({**MANIFEST, "records": "2"}).encode("utf-8"),
            "missing-field": json.dumps(without(MANIFEST, "qids_sha256")).encode("utf-8"),
            "surrogate": surrogate(MANIFEST, "qids_sha256"),
            "directory": DIRECTORY,
        },
    ),
    "predictions": (
        "pred.json",
        json.dumps({FIRST.qid: FIRST.answers[0].text}).encode("utf-8"),
        {
            "not-utf8": b'{"q": "\xff"}',
            "not-json": b'{"q": ',
            "deep": DEEP,
            "top-level-type": b"[]",
            "field-type": json.dumps({FIRST.qid: 5}).encode("utf-8"),
            "surrogate": surrogate({}, FIRST.qid),
            "directory": DIRECTORY,
        },
    ),
    "embeddings": (
        "emb.txt",
        f"{FIRST.answers[0].text} 1 0\n".encode("utf-8"),
        {
            "not-utf8": b"alpha 1 0\n\xff 0 1\n",
            "field-type": b"alpha 1 0\nbeta 0 x\n",
            "missing-field": b"alpha 1 0\nbeta\n",
            "all-zero": b"beta 0 1\nalpha 0 0\n",
            "bom": BOM + b"\n# no rows\n",
            "directory": DIRECTORY,
        },
    ),
}
CONFIG_INPUTS = {"config", "exclusion list"}  # exit 2 whatever is wrong with them

COMMANDS = {
    "validate": (["--config", "config.json", "validate"], ["config", "corpus"]),
    "stats": (["stats", "input.json", "--output", "report.json"], ["corpus"]),
    "filter": (["--config", "config.json", "filter"], ["config", "corpus", "exclusion list"]),
    "translate": (
        ["--config", "config.json", "translate", "--input", "input.json"],
        ["config", "corpus", "dictionary table", "cache"],
    ),
    "postprocess": (
        ["--config", "config.json", "postprocess", "--input", "candidates.jsonl"],
        ["config", "candidates", "transliterator table"],
    ),
    "realign": (
        ["--config", "config.json", "realign", "--input", "candidates.jsonl"],
        ["config", "candidates", "rejection log", "manifest"],
    ),
    "evaluate": (
        ["evaluate", "--gold", "input.json", "--predictions", "pred.json",
         "--embeddings", "emb.txt", "--output", "report.json"],
        ["corpus", "predictions", "embeddings"],
    ),
    "pipeline": (
        ["--config", "config.json", "pipeline"],
        ["config", "corpus", "exclusion list", "dictionary table", "transliterator table", "cache"],
    ),
}

CASES = [
    (command, role, case)
    for command, (_, roles) in COMMANDS.items()
    for role in roles
    for case in INPUTS[role][2]
]


def snapshot(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {
        str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
        for p in sorted(root.rglob("*"))
    }


@pytest.mark.parametrize("command, role, case", CASES, ids=lambda v: str(v).replace(" ", "-"))
def test_malformed_input_fails_in_one_line(tmp_path, monkeypatch, capsys, command, role, case):
    monkeypatch.chdir(tmp_path)  # a command that wrongly succeeds writes nowhere else
    for name, good, _ in INPUTS.values():
        (tmp_path / name).write_bytes(good)
    # Absolute paths throughout, so that a message can be searched for them.
    config = {k: str(tmp_path / v) if k.endswith("_path") else v for k, v in CONFIG.items()}
    config["filter"] = {"exclusion_list_path": str(tmp_path / "excl.txt")}
    config["engine_id"] = f"dictionary:{tmp_path / 'dict.tsv'}"
    config["transliterator_id"] = f"table:{tmp_path / 'translit.tsv'}"
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = [str(tmp_path / arg) if "." in arg else arg for arg in COMMANDS[command][0]]
    name, _, malformed = INPUTS[role]
    bad = malformed[case]
    if bad is DIRECTORY:
        (tmp_path / name).unlink()
        (tmp_path / name).mkdir()
    else:
        (tmp_path / name).write_bytes(bad)
    before = snapshot(tmp_path)

    code = main(argv)

    captured = capsys.readouterr()
    assert code == (2 if role in CONFIG_INPUTS or bad is DIRECTORY else 1), captured.err
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert line.count(str(tmp_path / name)) == 1, line
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "read, error",
    [
        (lambda path: parse_corpus(path.read_bytes(), "train", str(path)), MalformedDocumentError),
        (load_config, ConfigParseError),
        (load_predictions, ValueError),
        (read_candidates, ValueError),
        (RejectionLog.read, ValueError),
        (TranslationCache, CacheIOError),
    ],
    ids=["corpus", "config", "predictions", "candidates", "rejection-log", "cache"],
)
def test_deep_nesting_is_refused_naming_the_file(tmp_path, read, error):
    path = tmp_path / "deep.json"
    path.write_bytes(DEEP + b"\n")
    with pytest.raises(error, match="JSON nested too deeply") as err:
        read(path)
    assert str(err.value).count(str(path)) == 1


class ScopedFinder(ast.NodeVisitor):
    """``record`` notes the function (or ``<module>``) being visited in ``found``."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def record(self, what: str = "") -> None:
        self.found.append(f"{what}{self.scope[-1]}")


class JsonReaders(ScopedFinder):
    """Every reference to ``json.load(s)``."""

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "json":
            if node.attr in ("load", "loads"):
                self.record()
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "json":
            self.record("from json import in ")


class TextReaders(ScopedFinder):
    """Every call of ``read_text`` or ``.decode``, and every ``open`` not in binary mode."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("read_text", "decode"):
            self.record(f"{name} in ")
        elif name == "open":
            # open(file, mode) as a function, path.open(mode) as a method; "r" by default.
            at = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None and len(node.args) > at:
                mode = node.args[at]
            text = mode.value if isinstance(mode, ast.Constant) else "r"
            if "b" not in text:
                self.record(f"open({text!r}) in ")
        self.generic_visit(node)


def find_in_sources(finder: type[ScopedFinder]) -> list[str]:
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        visitor = finder()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [f"{path.name}:{where}" for where in visitor.found]
    return found


def test_json_is_parsed_in_one_place():
    assert find_in_sources(JsonReaders) == ["_text.py:parse_json"]


def test_text_is_decoded_in_one_place():
    """Outside ``_text.py`` no module decodes input text; the cache appends in text mode."""
    found = [where for where in find_in_sources(TextReaders) if not where.startswith("_text.py:")]
    assert found == ["translation.py:open('a') in store_many"]


class LogWriters(ScopedFinder):
    """Every ``.write(...)`` call but the cache's, and every ``write_dataset(...)`` call."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "write":
            if ast.unparse(func.value) != "self._handle":  # the cache's open file
                self.record("write in ")
        elif isinstance(func, ast.Name) and func.id == "write_dataset":
            self.record("write_dataset in ")
        self.generic_visit(node)


def test_rejection_log_is_written_in_three_places():
    """``RejectionLog.write`` runs from ``_cmd_filter``, ``_cmd_realign`` and ``write_dataset``.

    ``filter`` writes the pre-filter entries, and ``realign`` and ``pipeline``
    the whole log, through ``write_dataset``. No other stage may write it: a
    stage that rewrote the log from its own view of the records could drop a
    rejection.
    """
    assert find_in_sources(LogWriters) == [
        "cli.py:write in _cmd_filter",
        "cli.py:write_dataset in _cmd_realign",
        "pipeline.py:write in write_dataset",
        "pipeline.py:write_dataset in run_pipeline",
    ]


class ThreadStarters(ScopedFinder):
    """Every call that creates a ``ThreadPoolExecutor`` or a ``threading.Thread``."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("ThreadPoolExecutor", "Thread"):
            self.record(f"{name} in ")
        self.generic_visit(node)


def test_threads_are_started_in_one_place():
    """``call_model`` is the only fan-out, so its bounded window bounds every thread's work.

    A second pool elsewhere would hold its own queue of chunks, and its
    replies, outside the window.
    """
    assert find_in_sources(ThreadStarters) == ["translation.py:ThreadPoolExecutor in call_model"]


class StageSteps(ScopedFinder):
    """Every call of the per-text postprocess steps and of the per-candidate realign."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("transliterate_residuals", "localize_digits", "realign"):
            self.record(f"{name} in ")
        self.generic_visit(node)


def test_postprocess_and_realign_steps_run_in_one_place():
    """The steps of a record's postprocess and realign run only in their stage functions.

    ``pipeline`` runs those stages once per group of settled records, and
    the stage commands once on everything, both through
    ``postprocess_candidates`` and ``align_corpus``. A second caller of the
    steps would be a second implementation of a stage, free to drift from
    the one the other path runs.
    """
    assert find_in_sources(StageSteps) == [
        "alignment.py:realign in align_corpus",
        "pipeline.py:localize_digits in postprocess_candidates",
        "pipeline.py:transliterate_residuals in postprocess_candidates",
    ]


class TableParsers(ScopedFinder):
    """Every call of numpy's text parsers, and every call of ``_table_rows``."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("loadtxt", "genfromtxt", "fromstring", "_table_rows"):
            self.record(f"{name} in ")
        self.generic_visit(node)


def test_embedding_tables_are_parsed_in_one_place():
    """``_load_table`` parses every table text, each number with ``float()``.

    ``from_file`` reads the rows again only to name the line of a bad row. A
    second parser would have to take exactly the spellings ``float()`` takes,
    to the same bits, and fall back to the first where it does not.
    """
    assert find_in_sources(TableParsers) == [
        "evaluation.py:_table_rows in from_file",
        "evaluation.py:_table_rows in _load_table",
    ]

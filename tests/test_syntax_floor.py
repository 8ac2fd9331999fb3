"""Every module parses as Python 3.10, the floor ``pyproject.toml`` declares.

``ast.parse`` with ``feature_version`` refuses the grammar that later
versions added (``except*``, PEP 695 type parameters, and so on), so the
floor is checked by whichever newer interpreter runs the tests. It does not
catch a newer library API, or regular-expression syntax such as possessive
quantifiers, which ``re`` only rejects at run time.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def test_floor_matches_pyproject():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert ROOT / "src" / "transquad" / "evaluation.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

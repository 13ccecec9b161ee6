"""Every Python file of the repository keeps to the grammar of Python 3.10,
the oldest Python that pyproject.toml declares: `ast.parse` with
`feature_version=(3, 10)` refuses newer syntax such as `except*`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_every_file_parses_as_python_3_10():
    failed = []
    for path in FILES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as e:
            failed.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert FILES and failed == []


def test_newer_grammar_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))

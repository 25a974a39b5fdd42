"""Rules on the package source that no runtime test would catch."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "dualis"


def test_no_assert_statements():
    # python -O strips asserts, so internal checks raise typed errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found

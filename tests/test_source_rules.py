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


def _referenced_names(path: Path) -> set:
    """Every identifier a module uses, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_trivariate_gcds_stay_off_the_counting_paths():
    # square-freeness and coprimality are certified on a pencil of lines;
    # the primitive-PRS gcd and the radical built on it are public API only
    gcds = {"poly_gcd", "poly_gcd_many", "radical"}
    found = [
        f"{path.name}: {name}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name not in {"exact.py", "__init__.py"}
        for name in sorted(_referenced_names(path) & gcds)
    ]
    assert not found


def test_trusted_construction_stays_in_exact():
    # MultiPoly._trusted skips validation; only the ring's own results,
    # clean by construction, may use it
    found = [path.name for path in sorted(SOURCE.glob("*.py"))
             if path.name != "exact.py" and "_trusted" in _referenced_names(path)]
    assert not found

"""Properties of the package source itself."""

import ast
from enum import Enum
from pathlib import Path

import bcoloring
from bcoloring.errors import _Record

SRC = Path(__file__).resolve().parent.parent / "src" / "bcoloring"


def test_source_holds_no_assert():
    # python -O strips assert statements, and the witness checks must survive it.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/bcoloring: {found}"


def test_public_classes_are_records_enums_or_errors():
    # errors._Record alone defines immutability, equality, hashing and copying for public values.
    public = [getattr(bcoloring, name) for name in bcoloring.__all__]
    classes = [cls for cls in public if isinstance(cls, type)]
    assert classes
    loose = [cls.__name__ for cls in classes if not issubclass(cls, (_Record, Enum, Exception))]
    assert not loose, f"public classes outside errors._Record: {loose}"


def _int_tests(node, scope):
    """(scope, source) of each isinstance(..., int) call under node; scope is module.Class.function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _int_tests(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
            kinds = child.args[1:]
            if kinds and isinstance(kinds[0], ast.Tuple):
                kinds = kinds[0].elts
            if any(isinstance(kind, ast.Name) and kind.id == "int" for kind in kinds):
                yield scope, ast.unparse(child)
        yield from _int_tests(child, scope)


def test_one_rule_decides_what_is_an_int():
    # errors._check_ints decides, for every count, vertex, color, image, Kneser parameter
    # and k, what is an int in range. A certificate check answers False instead of raising,
    # and a time budget may be a float: those are other rules.
    others = {
        ("coloring.Budget.__init__", "isinstance(max_seconds, (int, float))"),
        ("homomorphism.SlsCertificate.verify", "isinstance(a, int)"),
    }
    found = [
        test
        for path in sorted(SRC.glob("*.py"))
        for test in _int_tests(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if test[0] != "errors._check_ints" and test not in others
    ]
    assert not found, f"isinstance(..., int) outside errors._check_ints: {found}"

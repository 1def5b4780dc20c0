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

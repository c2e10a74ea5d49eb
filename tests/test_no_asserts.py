"""No safety check in the package is an `assert`: `python -O` strips them."""

import ast
from pathlib import Path

import packbound

SOURCES = sorted(Path(packbound.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/packbound: {found}"

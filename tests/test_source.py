"""Rules the package source keeps, checked on its syntax trees."""

import ast
import pathlib

import actlab

PACKAGE = pathlib.Path(actlab.__file__).parent


def test_package_code_has_no_assert():
    # `python -O` strips asserts, so a check the package relies on raises
    # ContractError or DimensionError instead.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

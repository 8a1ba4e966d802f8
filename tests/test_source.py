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


def test_package_draws_only_from_seeded_generators():
    # A run is a pure function of (config, seed): every draw comes from a
    # Generator seeded by the caller, never from numpy's or Python's
    # global random state.
    allowed = {"default_rng", "SeedSequence", "Generator"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                bad = any(a.name == "random" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                bad = (node.module == "random"
                       or node.module == "numpy.random" and names - allowed
                       or node.module == "numpy" and "random" in names)
            else:
                bad = (isinstance(node, ast.Attribute) and node.attr not in allowed
                       and ast.unparse(node.value) in ("np.random", "numpy.random"))
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

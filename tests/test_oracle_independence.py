"""The oracles share no code with the closed forms they check.

oracle_fd and green_perturbation are the numerical references for the
closed forms in sommerfeld and bound_edge (and for specfun's F inside
them).  An import from those modules would let a defect in the closed
form reach its own check, so this test reads their import statements.
"""

import ast
from pathlib import Path

import pytest

import edgewave

PACKAGE = Path(edgewave.__file__).parent
CLOSED_FORMS = {"sommerfeld", "bound_edge", "specfun"}


def _imports(module: str) -> dict[str, set[str]]:
    """Package module name -> names taken from it, over every import;
    "*" stands for the whole module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("edgewave."):
                    found.setdefault(alias.name.split(".")[1], set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0:
                if mod != "edgewave" and not mod.startswith("edgewave."):
                    continue
                mod = mod[len("edgewave."):]
            if mod:
                found.setdefault(mod.split(".")[0], set()).update(
                    alias.name for alias in node.names)
            else:                   # from . import m / from edgewave import m
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
    return found


@pytest.mark.parametrize("oracle", ["oracle_fd", "green_perturbation"])
def test_oracle_imports_no_closed_form(oracle):
    found = _imports(oracle)
    assert not CLOSED_FORMS & set(found), found
    assert found.get("geometry", {"PlanePoint"}) == {"PlanePoint"}, found

"""Module boundaries of the package: no module imports a sibling module's
private (underscore-prefixed) name, and the package exports each name of
``cohsets.__all__`` once. Importing the ``_accel`` module, or its public
names, is allowed."""

import ast
from pathlib import Path

import cohsets

PACKAGE = Path(cohsets.__file__).parent


def private_imports(path: Path) -> list[str]:
    """``file:line name`` for each private name ``path`` imports from a sibling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        # ``from .x import ...`` or ``from cohsets.x import ...``; ``from . import x``
        # imports the module x itself.
        sibling = node.module is not None and (
            node.level > 0 or node.module.startswith("cohsets.")
        )
        if sibling:
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_a_siblings_private_name():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in private_imports(path)]
    assert found == []


def test_every_exported_name_resolves_once():
    assert len(cohsets.__all__) == len(set(cohsets.__all__))
    assert [name for name in cohsets.__all__ if not hasattr(cohsets, name)] == []

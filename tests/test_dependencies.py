"""numpy is fpsynth's only runtime dependency (`dependencies` in pyproject.toml):
every module of the package imports only the standard library, numpy and
fpsynth itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fpsynth"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "fpsynth"}


def imported_packages(tree: ast.Module):
    """The top-level package of every absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("module", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_fpsynth(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    assert set(imported_packages(tree)) - ALLOWED == set()

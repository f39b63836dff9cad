"""No module of the package, the tests or the scripts imports a name that it
never uses.  There is no linter among the dependencies, so this walks the
syntax trees itself: a name bound by an import counts as used when it is
read as a name (the root of an attribute chain included) or listed in the
module's ``__all__``."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(name for name in bound if name not in used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\nimport numpy as np\n"
        "from .core import A, B as b, C\n"
        "__all__ = ['C']\n"
        "x = np.zeros(os.sep)\n"
    )
    assert unused_imports(source) == ["A", "b", "math"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""numpy is the only runtime dependency; scipy is a test oracle; and no
module imports a name it does not use.

Checked from the source and `pyproject.toml` alone, without starting a
process: `test_import_cost.py` checks the running commands.
"""

import ast
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "veloscore"
PYPROJECT = ROOT / "pyproject.toml"


def requirement_names(requirements: list[str]) -> list[str]:
    return [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements]


def imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each name an import in ``source`` binds that no
    code of the module reads.  Names are matched module-wide, not per
    scope.  An import whose first line is marked ``# noqa: F401``
    re-exports its names, and is not checked."""
    lines = source.splitlines()
    imported, read = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1] or \
                    isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [f"{lineno}: {name}" for lineno, name in imported if name not in read]


def test_unused_import_found():
    source = ("from __future__ import annotations\n"
              "import os.path, re as regex\n"
              "from itertools import islice, repeat\n"
              "from .core import replacing  # noqa: F401\n"
              "def f(path: os.PathLike) -> list:\n"
              "    return list(repeat(path, 2))\n")
    assert unused_imports(source) == ["2: regex", "3: islice"]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_only_what_it_uses(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_package_imports_no_scipy():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "evaluation.py" in sources
    assert [p.name for p in sources if "scipy" in imported_roots(p)] == []


def test_scipy_is_a_test_dependency_only():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert requirement_names(project["dependencies"]) == ["numpy"]
    assert "scipy" in requirement_names(project["optional-dependencies"]["test"])

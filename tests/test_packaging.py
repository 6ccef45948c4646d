"""numpy is the only runtime dependency; scipy is a test oracle.

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


def test_package_imports_no_scipy():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "evaluation.py" in sources
    assert [p.name for p in sources if "scipy" in imported_roots(p)] == []


def test_scipy_is_a_test_dependency_only():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert requirement_names(project["dependencies"]) == ["numpy"]
    assert "scipy" in requirement_names(project["optional-dependencies"]["test"])

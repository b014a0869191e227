"""The package imports no third-party module that pyproject.toml does not declare."""

import ast
import re
import sys
from pathlib import Path

import pytest

import phonon_inverse

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PACKAGE = Path(phonon_inverse.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return modules


def declared_dependencies() -> set[str]:
    """Names of the requirements in [project] dependencies, as import names."""
    requirements = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    return {
        re.match(r"[A-Za-z0-9._-]+", requirement).group().lower().replace("-", "_")
        for requirement in requirements
    }


def test_every_import_is_stdlib_first_party_or_declared():
    allowed = set(sys.stdlib_module_names) | {"phonon_inverse"} | declared_dependencies()
    undeclared = sorted(
        f"{path.relative_to(PACKAGE)}: {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for module in imported_modules(path)
        if module not in allowed
    )
    assert not undeclared, "imports missing from pyproject dependencies:\n" + "\n".join(undeclared)


def test_the_parser_sees_every_import_form(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import os.path\nimport scipy.linalg as la\nfrom yaml import safe_load\n"
        "from . import grid\n\n\ndef f():\n    import json\n"
    )
    assert imported_modules(source) == {"os", "scipy", "yaml", "json"}

"""The package has no runtime dependencies: it imports the standard library
and itself only, and ``pyproject.toml`` declares none."""

import ast
import re
import sys

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "kripkelewis"


def _absolute_imports(path) -> list[str]:
    """Top-level module of every absolute import in the file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        outside = [name for name in _absolute_imports(path) if name not in sys.stdlib_module_names]
        assert not outside, (path.name, outside)


def test_pyproject_declares_no_dependencies():
    text = (REPO_ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE), text

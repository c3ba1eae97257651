"""The package has no runtime dependencies: it imports the standard library
and itself only, and ``pyproject.toml`` declares none.  Its modules read
every name they import, and ``__all__`` lists each public name once."""

import ast
import inspect
import os
import re
import subprocess
import sys

import kripkelewis
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


def _unused_imports(path) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads, unless
    its import line carries ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                if name not in read and not any("# noqa: F401" in line for line in marked):
                    unused.append((alias.lineno, name))
    return unused


def test_modules_read_every_name_they_import():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 8
    for path in paths:
        assert not _unused_imports(path), (path.name, _unused_imports(path))


def test_unused_import_check_sees_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import (\n    Iterator,\n    Mapping,  # noqa: F401\n)\n"
        "print(sys.argv)\n"
    )
    assert _unused_imports(module) == [(2, "os"), (4, "Iterator")]


def test_all_lists_each_public_name_once():
    names = kripkelewis.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(kripkelewis, name) for name in names)
    public = {
        name for name, value in vars(kripkelewis).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(names), public ^ set(names)


def test_no_module_imports_dataclasses():
    # the record classes are plain classes and NamedTuples: a dataclass
    # generates and compiles its methods in every process that imports it
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in _absolute_imports(path), path.name


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, kripkelewis.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    # -S: no site hooks, which on some installs import inspect themselves
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"

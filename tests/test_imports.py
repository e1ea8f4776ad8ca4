"""Every name a test file or package module imports is used in that file.

The package's `__init__.py` is not scanned: its imports are the package's
exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
PACKAGE = Path(__file__).parent.parent / "src" / "hcdirac"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Names a module imports only to re-export them; tests/test_cli.py imports
# report_schema_version from the CLI.
REEXPORTS = {"cli.py": {"report_schema_version"}}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression refers to."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_unused_names():
    source = "import os\nimport a.b\nfrom x import y, z as w\nfrom __future__ import annotations\nprint(a.b, w)\n"
    assert unused_imports(source) == ["os (line 1)", "y (line 3)"]


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "engine.py", "linalg.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"hcdirac/{path.name}")
def test_no_unused_imports_in_package(path):
    reexported = REEXPORTS.get(path.name, set())
    unused = unused_imports(path.read_text())
    assert [entry for entry in unused if entry.split(" ")[0] not in reexported] == []

"""Every name a test file or package module imports is used in that file,
every definition in the package is referred to somewhere, and importing the
CLI loads no module it does not need.

The package's `__init__.py` is not scanned for unused imports: its imports
are the package's exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "hcdirac"
# Where a package definition may be referred to.
REFERRING_FILES = sorted(
    path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")
)
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


def definitions(source: str) -> list[str]:
    """Top-level functions and classes, and the classes' non-dunder methods,
    by qualified name."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return out


def referred_names(source: str) -> set[str]:
    """Every name an ast.Name or ast.Attribute of the source refers to."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dead_definitions(package: dict[str, str], referring: list[str]) -> list[str]:
    """The definitions of the package sources, by file, that no referring source names."""
    used = set().union(*map(referred_names, referring))
    return [
        f"{name}:{qualname}"
        for name, source in package.items()
        for qualname in definitions(source)
        if qualname.rsplit(".", 1)[-1] not in used
    ]


def test_dead_scan_finds_unreferenced_definitions():
    package = {"m.py": "def f(): pass\ndef g(): pass\nclass C:\n    def h(self): pass\n"
                       "    def k(self): pass\n    def __len__(self): return 0\n"}
    referring = [package["m.py"], "f()\nC().h\n"]
    assert dead_definitions(package, referring) == ["m.py:g", "m.py:C.k"]


def test_no_dead_definitions_in_package():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "engine.py" in package
    assert dead_definitions(package, [path.read_text() for path in REFERRING_FILES]) == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI run imports the package first, so its import time is part
    of every check; `dataclasses` alone pulls in `inspect`, `ast` and `dis`.
    -S keeps the site packages of the host out of the count."""
    code = "import sys, hcdirac.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"

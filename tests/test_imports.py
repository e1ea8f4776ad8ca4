"""Every name a test file or package module imports is used in that file,
every definition in the package is referred to somewhere, the definitions
that only tests and perfbench refer to are pinned, and importing the CLI
loads no module it does not need.

The package's `__init__.py` is not scanned for unused imports: its imports
are the package's exports.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
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
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[tuple[str, ast.AST]]:
    """Top-level functions and classes, and the classes' non-dunder methods,
    by qualified name, with their nodes."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{item.name}", item)
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
        for qualname, _ in definitions(source)
        if qualname.rsplit(".", 1)[-1] not in used
    ]


def unused_in_package(package: dict[str, str]) -> list[str]:
    """The definitions of the package sources, by file, that no code of the
    package reaches.

    Module-level code is reached.  A definition is reached by a reference
    from outside it whose enclosing definitions are all reached: a method by
    an attribute of its name, anything else by a name or an attribute.  So a
    definition referred to only from itself, or only from unreached ones,
    is not reached.
    """
    spans = {
        f"{name}:{qualname}": (name, qualname.rsplit(".", 1)[-1], "." in qualname, node.lineno, node.end_lineno)
        for name, source in package.items()
        for qualname, node in definitions(source)
    }
    # short name -> [(is an attribute, keys of the enclosing definitions)]
    uses: dict[str, list[tuple[bool, frozenset]]] = {}
    for name, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                short, is_attribute = node.id, False
            elif isinstance(node, ast.Attribute):
                short, is_attribute = node.attr, True
            else:
                continue
            enclosing = frozenset(key for key, (where, _, _, first, last) in spans.items()
                                  if where == name and first <= node.lineno <= last)
            uses.setdefault(short, []).append((is_attribute, enclosing))
    reached: set[str] = set()
    while True:
        found = {
            key for key, (_, short, method, _, _) in spans.items()
            if any((is_attribute or not method) and key not in enclosing and enclosing <= reached
                   for is_attribute, enclosing in uses.get(short, []))
        }
        if found == reached:
            return sorted(set(spans) - reached)
        reached = found


def test_dead_scan_finds_unreferenced_definitions():
    package = {"m.py": "def f(): pass\ndef g(): pass\nclass C:\n    def h(self): pass\n"
                       "    def k(self): pass\n    def __len__(self): return 0\n"}
    referring = [package["m.py"], "f()\nC().h\n"]
    assert dead_definitions(package, referring) == ["m.py:g", "m.py:C.k"]


def test_no_dead_definitions_in_package():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "engine.py" in package
    assert dead_definitions(package, [path.read_text() for path in REFERRING_FILES]) == []


def test_unused_scan_follows_unused_callers():
    package = {"m.py": "def f(): g()\ndef g(): f()\ndef h(): k()\ndef k(): pass\nclass C:\n"
                       "    def a(self): return self.b()\n    def b(self): return self.a()\n"
                       "    def c(self): pass\n    def d(self): pass\nh()\nd = C()\n",
               "n.py": "def p(): return m.C().c()\np()\n"}
    # f and g, and C.a and C.b, refer only to each other; h and p are called
    # at module level, k from h and C.c from p.  d is a local name, not the
    # method C.d.
    assert unused_in_package(package) == ["m.py:C.a", "m.py:C.b", "m.py:C.d", "m.py:f", "m.py:g"]


# The package definitions that only tests/ and perfbench/ refer to (ROADMAP
# item 7).  The set may only shrink: entries leave it when they are deleted
# or come into use in src/, and a definition that src/ stops using is deleted
# rather than added here.  Subspace.image and Subspace.coords are not listed
# although src/ does not use them: the scan matches methods by name, and the
# live SignedPerm.image and Root.coords share their names.
UNUSED_IN_PACKAGE = {
    "linalg.py:Matrix.column",
    "linalg.py:Matrix.columns",
    "linalg.py:Matrix.matvec",
    "linalg.py:Matrix.rows",
    "linalg.py:Subspace",
    "linalg.py:Subspace._residual",
    "linalg.py:Subspace.contains",
    "linalg.py:Subspace.intersect",
    "linalg.py:Subspace.is_invariant",
    "linalg.py:Subspace.kernel",
    "linalg.py:Subspace.spanned_by",
    "linalg.py:dense",
    "linalg.py:quotient_matrix",
    "linalg.py:sparse",
    "weyl.py:RootSystemCtx._build_words",
    "weyl.py:RootSystemCtx._word_table",
    "weyl.py:RootSystemCtx.elements",
    "weyl.py:RootSystemCtx.reduced_word",
}


def test_definitions_unused_in_package_are_pinned():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_in_package(package) == sorted(UNUSED_IN_PACKAGE)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI run imports the package first, so its import time is part
    of every check; `dataclasses` alone pulls in `inspect`, `ast` and `dis`.
    -S keeps the site packages of the host out of the count."""
    code = "import sys, hcdirac.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr


def test_every_traced_name_resolves():
    """perfbench/tracer.py wraps package functions by (module, qualified name),
    so a renamed one would otherwise show only in the traced benchmark runs.
    The tracer is loaded by path and resolves each name its own way."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, qualname) for _, module, qualname in tracer.SPANS + tracer.COUNTERS]
    assert names
    for module, qualname in names:
        importlib.import_module(f"hcdirac.{module}")
        raw = tracer._resolve(module, qualname)[2]
        assert isinstance(raw, classmethod) or callable(raw), (module, qualname)

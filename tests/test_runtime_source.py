"""The runtime is exact and standard-library only, checked on its source.

Every module of the package is parsed; a float or complex literal, a call
to `float` or `complex`, or an import of anything but the standard library
and the package itself is reported with its line.  So is a name that a
module other than `__init__.py` imports and never uses, and a module-level
function or class that `__all__` does not export and the package never reads,
and a read of a private `derivations` name from any other module.
Every function the benchmark's tracer wraps must still be there to wrap.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import leibniz_aid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leibniz_aid"
# public names that only callers outside the package read: the benchmark's
# tracer wraps `restrict` by attribute, and README documents it
READ_OUTSIDE = {"restrict"}


def violations(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        names: list[str] = []
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"line {node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            out.append(f"line {node.lineno}: call to {node.func.id}")
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != PACKAGE.name:
                out.append(f"line {node.lineno}: import of {name}")
    return out


def unused_imports(tree: ast.AST) -> list[str]:
    """The names bound by imports (`from __future__` aside) that no Name
    node of the module reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: unused import {name}" for line, name in imported if name not in used]


def orphans(trees: dict[str, ast.AST], kept: set[str]) -> list[str]:
    """The module-level functions and classes, outside `__init__.py`, that
    are not in `kept` and that no Name or Attribute node of any of the
    modules reads."""
    known = set(kept)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                known.add(node.id)
            elif isinstance(node, ast.Attribute):
                known.add(node.attr)
    return [
        f"{module} line {node.lineno}: orphan {node.name}"
        for module, tree in trees.items() if module != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in known
    ]


def test_runtime_has_no_floats_and_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 7
    found = {p.name: violations(ast.parse(p.read_text(), str(p))) for p in modules}
    assert {name: v for name, v in found.items() if v} == {}


def test_the_source_check_sees_each_kind_of_violation():
    source = "import sympy\nfrom numpy import linalg\nx = 0.5\ny = 2j\nz = float(1)\n"
    assert violations(ast.parse(source)) == [
        "line 1: import of sympy",
        "line 2: import of numpy",
        "line 3: float literal 0.5",
        "line 4: float literal 2j",
        "line 5: call to float",
    ]


def test_every_imported_name_is_used():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 6
    found = {p.name: unused_imports(ast.parse(p.read_text(), str(p))) for p in modules}
    assert {name: u for name, u in found.items() if u} == {}


def test_the_unused_import_check_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random as rnd\n"
        "from math import gcd, lcm\n"
        "from typing import Iterable\n"
        "def f(x: Iterable):\n"
        "    from .exactlin import Q\n"
        "    return gcd(x, 2)\n"
    )
    assert unused_imports(ast.parse(source)) == [
        "line 2: unused import os",
        "line 3: unused import rnd",
        "line 4: unused import lcm",
        "line 7: unused import Q",
    ]


def test_every_function_and_class_is_exported_or_read():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 7
    assert orphans(trees, set(leibniz_aid.__all__) | READ_OUTSIDE) == []


def test_the_orphan_check_sees_each_kind_of_read():
    trees = {
        "__init__.py": ast.parse("from .m import public\n"),
        "m.py": ast.parse(
            "import mod\n"
            "class Kept: pass\n"
            "def public(): return _by_name() + mod._by_attribute\n"
            "def _by_name(): return 1\n"
            "def _by_attribute(): return 2\n"
            "def _helper(): return 3\n"
            "class _Orphan: pass\n"
        ),
    }
    assert orphans(trees, {"public", "Kept"}) == [
        "m.py line 6: orphan _helper",
        "m.py line 7: orphan _Orphan",
    ]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(tree: ast.AST, module: str = "derivations") -> list[str]:
    """The private names of the package's `module` that a source reads:
    imported by name (`from .derivations import _x`) or read as an
    attribute of the module (`der_mod._x`, for `der_mod` bound by
    `from . import derivations as der_mod` or by `import ... as`)."""
    full = f"{PACKAGE.name}.{module}"
    aliases = set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, full):
                out += [(node.lineno, a.name) for a in node.names if _private(a.name)]
            elif node.module in (None, PACKAGE.name):
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == full and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if ((isinstance(owner, ast.Name) and owner.id in aliases)
                    or (isinstance(owner, ast.Attribute) and owner.attr == module)):
                out.append((node.lineno, node.attr))
    return [f"line {line}: reads {module}.{name}" for line, name in sorted(out)]


def test_no_module_reads_a_private_derivations_name():
    # the other modules read an analysis through its public value
    found = {p.name: private_reads(ast.parse(p.read_text(), str(p)))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "derivations.py"}
    assert len(found) >= 6
    assert {name: r for name, r in found.items() if r} == {}


def test_the_private_read_check_sees_each_form():
    source = (
        "from .derivations import Deviation, _judged\n"
        "from leibniz_aid.derivations import _cuts\n"
        "from . import derivations as der_mod\n"
        "from leibniz_aid import derivations\n"
        "import leibniz_aid.derivations as dmod\n"
        "from .catalog import _generator_failure\n"
        "import leibniz_aid\n"
        "a = der_mod._envelope_meet(der_mod.analysis, der_mod.__doc__)\n"
        "b = derivations._x + dmod._y + leibniz_aid.derivations._z + catalog._w\n"
    )
    assert private_reads(ast.parse(source)) == [
        "line 1: reads derivations._judged",
        "line 2: reads derivations._cuts",
        "line 8: reads derivations._envelope_meet",
        "line 9: reads derivations._x",
        "line 9: reads derivations._y",
        "line 9: reads derivations._z",
    ]


def test_every_traced_function_resolves():
    # perfbench/tracer.py wraps each `module.name` of TRACED by attribute
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not hasattr(importlib.import_module(f"leibniz_aid.{module}"), name)]
    assert tracer.TRACED and missing == []

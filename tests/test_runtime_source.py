"""The runtime is exact and standard-library only, checked on its source.

Every module of the package is parsed; a float or complex literal, a call
to `float` or `complex`, or an import of anything but the standard library
and the package itself is reported with its line.  So is a name that a
module other than `__init__.py` imports and never uses.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibniz_aid"


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

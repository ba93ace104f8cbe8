"""The runtime is exact and standard-library only, checked on its source.

Every module of the package is parsed; a float or complex literal, a call
to `float` or `complex`, or an import of anything but the standard library
and the package itself is reported with its line.
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

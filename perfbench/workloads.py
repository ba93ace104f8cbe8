"""The three workloads: their items, how they are built, how one runs.

An item is one answer a user waits for: one `aid_space`, one `analyze` or
the one `verify-paper` run.  Items call the package through module
attributes looked up at call time, so the tracer's wrappers see them.
Every analysis uses the default `AidConfig`.

* ``paper``: `verify-paper --deviations-ok` and `analyze --format json`
  for each entry of the catalog battery, all through `cli.main`.
* ``sweep``: `aid_space` in the standard basis for NF:2..16 and
  F3:5..12 with thetas 0,0,1.
* ``basis``: `aid_space` on catalog algebras in random bases.  The bases
  are drawn from the workload seed as `fuzz` draws them: integer matrices
  with entries in [-2, 2], redrawn until invertible.

`paper` and `sweep` have fixed inputs; the seed only draws `basis`.
"""

from __future__ import annotations

import functools
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("paper", "sweep", "basis")
DEFAULT_SEED = 1

# tests/conftest.py::CATALOG_BATTERY, in the same order
CATALOG_BATTERY = (
    "catalog:NF:2",
    "catalog:NF:3",
    "catalog:NF:5",
    "catalog:D3:L1:0",
    "catalog:D3:L1:1",
    "catalog:D3:L1:-1",
    "catalog:D3:L1:2",
    "catalog:D3:L2",
    "catalog:D3:L3",
    "catalog:D3:L4",
    "catalog:D3:L5",
    "catalog:D3:L6",
    "catalog:D4:L4:0",
    "catalog:D4:L4:1",
    "catalog:D4:L9",
    "catalog:D4:L10",
    "catalog:D4:L11",
    "catalog:D4:L12",
    "catalog:D4:L13:0",
    "catalog:D4:L13:1",
    "catalog:D4:L13:2",
    "catalog:D4:L20:0",
    "catalog:D4:L20:2",
    "catalog:F1:4:1,0",
    "catalog:F1:5:0,2,0",
    "catalog:F1:6:0,0,-3/2,0",
    "catalog:F1:5:0,1,1",
    "catalog:F2:5:0,0,3",
    "catalog:F2:6:1,0,0,1",
    "catalog:F3:5:1,2,3",
    "catalog:F3:6:0,0,1",
    "catalog:F3:5:1,1,0",
    "catalog:G53",
)

VERIFY_ARGV = ("verify-paper", "--deviations-ok")

SWEEP_REFS = tuple(f"catalog:NF:{n}" for n in range(2, 17)) + tuple(
    f"catalog:F3:{n}:0,0,1" for n in range(5, 13)
)

# (catalog entry, copies per draw); each draw adds these 12 copies
BASIS_COPIES = (
    ("catalog:G53", 5),
    ("catalog:F3:5:0,0,1", 2),
    ("catalog:F3:5:1,2,3", 3),
    ("catalog:F1:7:0,0,0,1,0", 1),
    ("catalog:F2:6:1,0,0,1", 1),
)
BASIS_DRAWS = 4


@dataclass
class Item:
    label: str
    group: str  # repeats of one answer share a group: the slowest is timed
    ref: str | None  # catalog entry of the algebra; None for verify-paper
    run: Callable[[], object]
    algebra: object = None


def _run_cli(pkg, argv: tuple[str, ...]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pkg.cli.main(list(argv))
    return code, out.getvalue()


def _run_aid(pkg, algebra):
    return pkg.la.aid_space(algebra, pkg.la.AidConfig())


def _random_invertible(pkg, rng: random.Random, n: int):
    """As `fuzz` draws a base change: entries in [-2, 2] until invertible."""
    ex = pkg.exactlin
    while True:
        rows = [[ex.Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        m = ex.RationalMatrix.from_rows(rows)
        if ex.rref(m).rank == n:
            return m


def _aid_item(pkg, label: str, ref: str, algebra) -> Item:
    return Item(label, ref, ref, functools.partial(_run_aid, pkg, algebra),
                algebra)


def build(pkg, workload: str, seed: int) -> list[Item]:
    """The workload's items, in run order; the algebras are built here."""
    if workload == "paper":
        items = [Item("verify-paper", "verify-paper", None,
                      functools.partial(_run_cli, pkg, VERIFY_ARGV))]
        for ref in CATALOG_BATTERY:
            argv = ("analyze", ref, "--format", "json")
            label = f"analyze {ref}"
            items.append(Item(label, label, ref,
                              functools.partial(_run_cli, pkg, argv)))
        return items
    if workload == "sweep":
        return [_aid_item(pkg, ref, ref, pkg.catalog.make(ref))
                for ref in SWEEP_REFS]
    if workload == "basis":
        rng = random.Random(seed)
        bases = {ref: pkg.catalog.make(ref) for ref, _ in BASIS_COPIES}
        items = []
        for draw in range(BASIS_DRAWS):
            for ref, copies in BASIS_COPIES:
                base = bases[ref]
                for copy in range(copies):
                    p = _random_invertible(pkg, rng, base.dim)
                    items.append(_aid_item(
                        pkg, f"{ref} draw {draw}.{copy}", ref,
                        pkg.algebra.change_basis(base, p)))
        return items
    raise ValueError(f"unknown workload {workload!r}")

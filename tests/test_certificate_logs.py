"""Pinned certificate logs of `aid_space` over the catalog battery, in its
given basis and in three seeded random bases: the samples, the witnesses,
every reported generator's outcome and branch log, and every certification
the analysis runs with its outcome and its case tree.

In random bases the certifier substitutes non-integer replacements and
splits on powers of linear forms; a proof's log is empty, so only its case
tree shows them.  Regenerate the data file, only when a change of the logs
is intended, with

    PYTHONPATH=src:tests python tests/test_certificate_logs.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from leibniz_aid import certify, derivations
from leibniz_aid.algebra import change_basis
from leibniz_aid.catalog import make
from leibniz_aid.cli import _random_invertible
from leibniz_aid.exactlin import RationalMatrix, format_rational

from conftest import CATALOG_BATTERY

DATA = Path(__file__).parent / "data" / "certificate_logs.json"
# None is the given basis; each int seeds `random.Random` for one basis
SEEDS = (None, 1, 2, 3)


def _vector(v) -> str:
    return " ".join(format_rational(x) for x in v)


def _matrix(m) -> list[str]:
    return [_vector(row) for row in m.entries]


def _outcome(outcome) -> dict:
    return {
        "kind": outcome.kind,
        "refuting_x": None if outcome.refuting_x is None else _vector(outcome.refuting_x),
        "branch_log": list(outcome.branch_log),
    }


def _given_generator(dm, basis) -> list[str]:
    """A certified generator in the given basis, over its pivot (its first
    nonzero entry, row major), as the report shows a generator: dm, a
    matrix of the series-adapted basis, moved back."""
    m = RationalMatrix.from_rows(basis.endo_back(dm))
    pivot = next(v for row in m.entries for v in row if v)
    return _matrix(m.scale(1 / pivot))


def _logged_analysis(alg) -> dict:
    """aid_space of alg with each `_eliminated` call it makes, its generator
    in the given basis, its outcome and the case label of every elimination
    node it enters, in walk order ("" for the root)."""
    certifications = []
    decide, eliminated = certify._decide, derivations._eliminated

    def decide_spy(ctx, rows, nz, polys, subs, path):
        certifications[-1]["case_tree"].append(path[-1] if path else "")
        return decide(ctx, rows, nz, polys, subs, path)

    def eliminated_spy(alg, dm, basis):
        certifications.append({"generator": _given_generator(dm, basis),
                               "case_tree": []})
        outcome = eliminated(alg, dm, basis)
        certifications[-1].update(_outcome(outcome))
        return outcome

    with pytest.MonkeyPatch.context() as m:
        m.setattr(certify, "_decide", decide_spy)
        m.setattr(derivations, "_eliminated", eliminated_spy)
        aid = derivations.aid_space(alg)
    return {
        "samples_used": aid.samples_used,
        "generators": [{"generator": _matrix(g)} | _outcome(o) for g, o in
                       aid.proved_generators + aid.inconclusive_generators],
        "witnesses": [{"generator": _matrix(g), "refuting_x": _vector(x)}
                      for g, x in aid.witnesses],
        "certifications": certifications,
    }


def certificate_logs() -> dict:
    logs = {}
    for ref in CATALOG_BATTERY:
        alg = make(ref)
        for seed in SEEDS:
            moved = alg if seed is None else change_basis(
                alg, _random_invertible(random.Random(seed), alg.dim))
            logs[f"{ref} seed {seed}"] = _logged_analysis(moved)
    return logs


def test_certificate_logs_are_pinned():
    pinned = json.loads(DATA.read_text())
    logs = certificate_logs()
    # the elimination spy sits where `certify` looks `_decide` up
    assert any(c["case_tree"] for entry in logs.values() for c in entry["certifications"])
    assert logs.keys() == pinned.keys()
    for key, entry in logs.items():
        assert entry == pinned[key], key


if __name__ == "__main__":
    DATA.write_text(json.dumps(certificate_logs(), indent=1) + "\n")

"""Write perfbench/refs.json from the package in src/.

    python3 perfbench/make_refs.py

The references are the outputs of the commit they are made on: the
SHA-256 of every `analyze --format json` document of the catalog battery,
the `verify-paper --deviations-ok` exit code and verdict vector, the five
tower dimensions of every catalog entry that `sweep` and `basis` use, in
its standard basis (Der checked against the package's `derivation_space`),
and the sample counts of the large F3 sweep entries.
Make them again only when a change is meant to alter one of these outputs.
"""

from __future__ import annotations

import json
import sys

import gate
import run
import workloads

SAMPLE_REFS = ("catalog:F3:10:0,0,1", "catalog:F3:12:0,0,1")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pkg = run.load_package()
    paper = {"analyze": {}}
    for item in workloads.build(pkg, "paper", 0):
        code, text = item.run()
        if item.ref is None:
            doc = json.loads(text)
            paper["verify_paper"] = {"exit_code": code,
                                     "verdicts": gate.verdicts(doc)}
        elif code != 0:
            raise SystemExit(f"{item.label} exited with {code}")
        else:
            paper["analyze"][item.ref] = gate.digest(text)
    tower, samples = {}, {}
    refs = list(workloads.SWEEP_REFS) + [r for r, _ in workloads.BASIS_COPIES]
    for ref in refs:
        algebra = pkg.catalog.make(ref)
        aid = pkg.la.aid_space(algebra, pkg.la.AidConfig())
        tower[ref] = gate.tower_dims(pkg, algebra, aid)
        der = pkg.la.derivation_space(algebra).dim
        if tower[ref]["der"] != der:
            raise SystemExit(f"{ref}: modular Der {tower[ref]['der']} != {der}")
        if ref in SAMPLE_REFS:
            samples[ref] = aid.samples_used
    out = {"paper": paper, "tower": tower, "samples": samples}
    path = run.BENCH / "refs.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

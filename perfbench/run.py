"""Benchmark of leibniz-aid, driven from outside the package.

    python3 perfbench/run.py --workload {paper,sweep,basis} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One run sets up several times (import, build every algebra, load
the references) and reports the median as ``setup_s``.  It then runs passes
over the workload's items, untraced, for about ``--seconds``, with at
least one pass, and checks every output against ``perfbench/refs.json``
outside the timed region.  An item that runs past its ceiling, or starts
after the run's deadline, counts as failed instead of stalling the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then installs the tracer and repeats set-up and passes, and
reports the per-layer metrics, the tracing overhead and two checks on the
spans: the item spans must cover the pass wall time within 5%, and the
self times inside each item must add up to its duration.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the benchmark could not run (no package under ``src/``).

The end-to-end times are scaled to a fixed host speed by the gauge in
``pace.py``, which samples the host's speed all through the set-up rounds
and the passes; the raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

import gate
import pace
import tracer as tracer_mod
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 3
ITEM_CEILING_S = 40.0
TIMED_DEADLINE_S = 150.0  # from the start of the run; no item runs past it
GATE_DEADLINE_S = 165.0
COVERAGE_TOLERANCE = 0.05
RESIDUAL_TOLERANCE_S = 1e-6

# the standard modules the package imports, loaded once up front so that
# every set-up round times the same work
for _name in ("argparse", "dataclasses", "fractions", "itertools", "math",
              "random", "typing"):
    importlib.import_module(_name)


class ItemTimeout(BaseException):
    """Raised in an item that runs past its ceiling.

    A BaseException, so no handler inside the package can swallow it.
    """


def _on_alarm(signum, frame):
    raise ItemTimeout


class Record:
    __slots__ = ("item", "seconds", "span", "outcome", "output", "error")

    def __init__(self, item, seconds, outcome, output=None, error=None,
                 span=None):
        self.item = item
        self.seconds = seconds  # raw, less the gauge's handler
        self.span = span  # the gauge's marks at start and end
        self.outcome = outcome  # 'ok' | 'error' | 'timeout' | 'skipped'
        self.output = output
        self.error = error


# ---------------------------------------------------------------------------
# set-up


def load_package():
    """Import `leibniz_aid` afresh from src/ and return its modules."""
    for name in [k for k in sys.modules
                 if k == "leibniz_aid" or k.startswith("leibniz_aid.")]:
        del sys.modules[name]
    la = importlib.import_module("leibniz_aid")
    if Path(la.__file__).resolve().parent != SRC / "leibniz_aid":
        raise ImportError(f"leibniz_aid imported from {la.__file__}, not src/")
    mods = {name: importlib.import_module(f"leibniz_aid.{name}")
            for name in ("cli", "catalog", "derivations", "algebra",
                         "exactlin", "_poly")}
    return types.SimpleNamespace(la=la, poly=mods.pop("_poly"), **mods)


def _setup(workload: str, seed: int, gauge: pace.Gauge, pkg=None):
    """One set-up round; imports the package again unless given one.

    Returns its span of gauge marks, the package, refs and items.
    """
    mark = gauge.mark()
    if pkg is None:
        pkg = load_package()
    refs = json.loads((BENCH / "refs.json").read_text(encoding="utf-8"))
    items = workloads.build(pkg, workload, seed)
    return (mark, gauge.mark()), pkg, refs, items


# ---------------------------------------------------------------------------
# the timed region


def _run_item(item, deadline: float, gauge: pace.Gauge, tracer=None) -> Record:
    budget = min(ITEM_CEILING_S, deadline - time.perf_counter())
    if budget <= 0:
        return Record(item, 0.0, "skipped", error="started after the run deadline")
    frame = tracer.push(tracer_mod.ITEM) if tracer else None
    mark = gauge.mark()
    outcome, output, error = "ok", None, None
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            output = item.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        outcome, error = "timeout", f"ran past its {budget:.3g} s ceiling"
    except Exception as exc:  # an item's failure is a result, not a crash
        outcome, error = "error", f"{type(exc).__name__}: {exc}"
    end = gauge.mark()
    if tracer:
        tracer.pop(frame, item.label)
    return Record(item, gauge.raw(mark, end), outcome, output, error,
                  (mark, end))


def _run_passes(items, seconds: float, deadline: float, gauge: pace.Gauge,
                tracer=None):
    """Passes over all items for about `seconds`; at least one.

    Another pass starts only while it would end by `seconds`, judged by
    the last one, so only a first pass longer than `seconds` overruns it.
    A busy host runs passes up to 2x slower; this keeps a run's length
    within `seconds` plus set-up and checking even then.
    """
    passes = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.begin_segment()
        t0 = time.perf_counter()
        records = [_run_item(item, deadline, gauge, tracer) for item in items]
        wall = time.perf_counter() - t0
        passes.append((wall, records))
        elapsed = time.perf_counter() - start
        if elapsed + wall > seconds or start + elapsed >= deadline:
            return passes


# ---------------------------------------------------------------------------
# correctness


def _gate_all(pkg, refs, passes, deadline: float):
    """(attempted, failed, certified, problem lines) over all passes."""
    check = gate.Gate(pkg, refs)
    attempted = failed = certified = 0
    problems = []
    for _, records in passes:
        for rec in records:
            attempted += 1
            if rec.outcome != "ok":
                found, cert = [f"{rec.outcome}: {rec.error}"], False
            elif time.perf_counter() > deadline:
                found, cert = ["not checked: gate deadline passed"], False
            else:
                try:
                    found, cert = check.check(rec.item, rec.output)
                except Exception as exc:  # a malformed output fails the item
                    found, cert = [f"check raised {type(exc).__name__}: {exc}"], False
            if found:
                failed += 1
                problems.extend(f"{rec.item.label}: {p}" for p in found)
            certified += cert
    return attempted, failed, certified, problems


# ---------------------------------------------------------------------------
# metrics


def _item_times(passes, gauge: pace.Gauge) -> list[tuple[object, float]]:
    """Each item with the median over the passes of its scaled time."""
    return [(recs[0].item,
             statistics.median(gauge.scaled(*r.span) if r.span else r.seconds
                               for r in recs))
            for recs in zip(*(records for _, records in passes))]


def _slowest_item(item_times) -> tuple[str, float]:
    """The group whose median item time is largest, with that median."""
    times: dict[str, list[float]] = {}
    for item, seconds in item_times:
        times.setdefault(item.group, []).append(seconds)
    medians = {g: statistics.median(t) for g, t in times.items()}
    group = max(medians, key=medians.get)
    return group, medians[group]


def _end_to_end(passes, setups, gauge, rss_kib, attempted, certified):
    walls = [wall for wall, _ in passes]
    item_times = _item_times(passes, gauge)
    group, slowest = _slowest_item(item_times)
    metrics = {
        "wall_s": (sum(seconds for _, seconds in item_times), "s"),
        "slowest_item_s": (slowest, "s"),
        "setup_s": (statistics.median(gauge.scaled(*s) for s in setups), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        "certified_share": (certified / attempted, "ratio"),
    }
    raw_items = sum(r.seconds for _, records in passes for r in records)
    scaled_items = sum(gauge.scaled(*r.span) for _, records in passes
                       for r in records if r.span)
    notes = [
        f"times scaled to the reference host speed: {len(gauge.samples)} "
        f"gauge samples, scaled over raw item time {scaled_items / raw_items}",
        f"wall_s: per item the median over {len(walls)} pass(es), summed "
        f"over {len(passes[0][1])} items; raw median pass wall "
        f"{statistics.median(walls)} s",
        f"slowest_item_s: {group}",
        f"setup_s: median of {len(setups)} set-up rounds; raw "
        f"{statistics.median(gauge.raw(*s) for s in setups)} s",
    ]
    return metrics, notes


def _per_layer(tracer, untraced_wall: float, traced_walls: list[float]):
    """Per-layer figures: the traced set-up plus the median traced pass."""
    setup_spans, setup_counts = tracer.segments[0]
    per_pass = []
    coverage = []
    residual = 0.0
    for (spans, counts), wall in zip(tracer.segments[1:], traced_walls):
        per_pass.append(tracer_mod.segment_metrics(
            setup_spans + spans, setup_counts + counts))
        items = sum(s.duration for s in spans if s.name == tracer_mod.ITEM)
        coverage.append(items / wall)
        residual = max([residual] + tracer_mod.item_residuals(spans))
    metrics = {}
    for key in per_pass[0]:
        value = statistics.median(m[key] for m in per_pass)
        unit = "s" if key.endswith("_s") else (
            "ratio" if key.endswith(("_ratio", "_per_analysis")) else "count")
        metrics[key] = (value, unit)
    overhead = statistics.median(traced_walls) - untraced_wall
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced_wall, "ratio")
    metrics["trace.item_coverage"] = (min(coverage), "ratio")
    metrics["trace.self_residual_s"] = (residual, "s")
    problems = []
    if not all(abs(1.0 - c) <= COVERAGE_TOLERANCE for c in coverage):
        problems.append(f"item spans cover {coverage} of the pass wall time")
    if residual > RESIDUAL_TOLERANCE_S:
        problems.append(f"self times miss an item's duration by {residual} s")
    return metrics, problems


# ---------------------------------------------------------------------------
# entry point


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    if not (SRC / "leibniz_aid" / "__init__.py").is_file():
        print(f"error: no leibniz_aid package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = start + TIMED_DEADLINE_S
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    problems = []
    # the traced run reports raw times, so its gauge is never started
    gauge = pace.Gauge()
    if not args.trace:
        gauge.start()
    try:
        setups = []
        # the traced run reports no setup_s, so one round will do
        for _ in range(1 if args.trace else SETUP_ROUNDS):
            setup, pkg, refs, items = _setup(args.workload, args.seed, gauge)
            setups.append(setup)
        if not args.trace:
            passes = _run_passes(items, args.seconds, deadline, gauge)
    finally:
        gauge.stop()
    if args.trace:
        timed_start = time.perf_counter()
        untraced = _run_passes(items, 0.0, deadline, gauge)
        tracer = tracer_mod.Tracer()
        undo = tracer_mod.install(tracer, pkg)
        try:
            # set-up again to trace it; the passes reuse the untraced items,
            # whose algebras are the same
            tracer.begin_segment()
            _setup(args.workload, args.seed, gauge, pkg)
            remaining = args.seconds - (time.perf_counter() - timed_start)
            traced = _run_passes(items, remaining, deadline, gauge, tracer)
        finally:
            tracer_mod.uninstall(undo)
        passes = untraced + traced
        metrics, problems = _per_layer(
            tracer, untraced[0][0], [wall for wall, _ in traced])
        lines.append(f"untraced pass {untraced[0][0]:.3f} s, "
                     f"{len(traced)} traced pass(es)")
        for rec in traced[0][1]:
            if rec.outcome == "ok" and rec.item.ref in refs["samples"]:
                lines.append(f"samples {rec.item.ref}: {rec.output.samples_used} "
                             f"(reference {refs['samples'][rec.item.ref]})")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, certified, found = _gate_all(
        pkg, refs, passes, start + GATE_DEADLINE_S)
    problems = found + problems
    if not args.trace:
        metrics, notes = _end_to_end(passes, setups, gauge, rss_kib,
                                     attempted, certified)
        lines.extend(notes)
    lines.append(f"failed_share: {failed}/{attempted} = {failed / attempted}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value!r} {unit}")
    lines.extend(f"FAILED {p}" for p in problems)
    print("\n".join(lines))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

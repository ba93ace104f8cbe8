"""Span tracing installed from outside the package.

`install` replaces each traced function of `leibniz_aid` by a wrapper in
every package namespace that holds it, because the modules import one
another's functions by name (`derivations` binds `nullspace`, `cli` calls
`der_mod.aid_space`, `aid_certify` recurses through its module global).
Each wrapper records a span with its parent and its self time: the span's
duration minus the part covered by its child spans.  Counters are read only
from arguments, return values and span nesting, never from private state.
`Poly.__mul__` (module `_poly`, reported as `poly` because a metric name
starts with a letter) is counted without a span, since it runs far too
often for per-call timing.  Spans stay in memory; `segment_metrics` turns
the spans of one segment (a set-up round or a pass) into per-layer figures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# module -> functions that get a span; every namespace holding one is patched
TRACED = {
    "cli": ("report_json",),
    "catalog": ("make", "build_deviations"),
    "derivations": (
        "derivation_space",
        "inner_space",
        "aid_basis_candidate",
        "aid_refine",
        "aid_certify",
        "aid_space",
        "rcaid_caid",
        "analysis_report",
    ),
    "algebra": ("central_series", "annihilators", "change_basis"),
    "exactlin": (
        "nullspace",
        "solve_linear",
        "restrict",
        "complement_in",
        "subspace_sum",
        "subspace_intersect",
    ),
}

CERTIFY = "derivations.aid_certify"
ANALYSIS = "derivations.analysis_report"
AID_SPACE = "derivations.aid_space"
ITEM = "bench.item"


class Span:
    __slots__ = ("sid", "parent", "name", "duration", "self_s", "info")

    def __init__(self, sid, parent, name, duration, self_s, info):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.duration = duration
        self.self_s = self_s
        self.info = info


class Tracer:
    """Open spans on a stack; closed spans in per-segment lists."""

    def __init__(self):
        self.segments: list[tuple[list[Span], Counter]] = []
        self._stack: list[list] = []  # [sid, name, start, child_seconds]
        self._next = 0

    def begin_segment(self) -> None:
        self.segments.append(([], Counter()))

    @property
    def counters(self) -> Counter:
        return self.segments[-1][1]

    def push(self, name: str) -> list:
        self._next += 1
        frame = [self._next, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def pop(self, frame: list, info=None) -> None:
        end = time.perf_counter()
        # an item cut by its ceiling can leave inner frames open
        while self._stack and self._stack[-1] is not frame:
            self._stack.pop()
        self._stack.pop()
        sid, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        span = Span(sid, parent[0] if parent else None, name, duration,
                    duration - child, info)
        self.segments[-1][0].append(span)

    def parent_name(self) -> str | None:
        return self._stack[-2][1] if len(self._stack) > 1 else None


def _wrap(tracer: Tracer, name: str, fn):
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.push(name)
        info = None
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                info = after(tracer, args, out)
            return out
        finally:
            tracer.pop(frame, info)

    return wrapper


def _nullspace_info(tracer, args, out):
    return {"cells": args[0].rows * args[0].cols}


def _refine_info(tracer, args, out):
    space, samples = out
    return {"cut": args[1].dim - space.dim, "samples": samples}


def _certify_info(tracer, args, out):
    return {"kind": out.kind, "nested": tracer.parent_name() == CERTIFY}


def _aid_space_info(tracer, args, out):
    return {"samples": out.samples_used}


_AFTER = {
    "exactlin.nullspace": _nullspace_info,
    "derivations.aid_refine": _refine_info,
    CERTIFY: _certify_info,
    AID_SPACE: _aid_space_info,
}


def install(tracer: Tracer, pkg) -> list:
    """Patch every namespace; returns the undo list for `uninstall`."""
    namespaces = [mod for key, mod in sys.modules.items()
                  if key == "leibniz_aid" or key.startswith("leibniz_aid.")]
    undo = []
    for module, names in TRACED.items():
        mod = getattr(pkg, module)
        for fname in names:
            original = getattr(mod, fname)
            wrapper = _wrap(tracer, f"{module}.{fname}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        undo.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
    poly = pkg.poly.Poly
    mul = poly.__mul__

    def counted_mul(self, other):
        out = mul(self, other)
        counters = tracer.counters
        counters["poly.Poly.mul.calls"] += 1
        counters["poly.Poly.mul.terms_out"] += len(out.terms)
        return out

    undo.append((poly, "__mul__", mul))
    poly.__mul__ = counted_mul
    return undo


def uninstall(undo: list) -> None:
    for ns, attr, original in reversed(undo):
        setattr(ns, attr, original)


# ---------------------------------------------------------------------------
# per-layer figures


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def segment_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Per-layer totals of one segment, keyed `<module>.<function>.<stat>`."""
    out: dict[str, float] = defaultdict(int)
    for module, names in TRACED.items():
        for fname in names:
            out[f"{module}.{fname}.calls"] = 0
            out[f"{module}.{fname}.self_s"] = 0.0
    for key in ("exactlin.nullspace.cells", "derivations.aid_refine.samples",
                "derivations.aid_certify.proved", "derivations.aid_certify.refuted",
                "derivations.aid_certify.inconclusive",
                "derivations.aid_certify.adapted_retries"):
        out[key] = 0
    by_id = {s.sid: s for s in spans}
    analyses = 0
    cut = refine_samples = 0
    for s in spans:
        if s.name == ITEM:
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += s.self_s
        info = s.info
        if s.name == "exactlin.nullspace" and info:
            out["exactlin.nullspace.cells"] += info["cells"]
        elif s.name == "derivations.aid_refine" and info:
            cut += info["cut"]
            refine_samples += info["samples"]
        elif s.name == AID_SPACE:
            if info:
                out["derivations.aid_refine.samples"] += info["samples"]
            if not _has_ancestor(s, by_id, ANALYSIS):
                analyses += 1
        elif s.name == ANALYSIS:
            analyses += 1
        elif s.name == CERTIFY and info:
            if info["nested"]:
                out["derivations.aid_certify.adapted_retries"] += 1
            else:
                out[f"derivations.aid_certify.{info['kind']}"] += 1
    # .calls of aid_certify counts top-level attempts; retries are separate
    retries = out["derivations.aid_certify.adapted_retries"]
    out["derivations.aid_certify.calls"] -= retries
    attempts = out["derivations.aid_certify.calls"]
    decided = (out["derivations.aid_certify.proved"]
               + out["derivations.aid_certify.refuted"])
    out["derivations.aid_certify.decided_ratio"] = _ratio(decided, attempts)
    out["derivations.aid_refine.useful_ratio"] = _ratio(cut, refine_samples)
    out["derivations.analyses"] = analyses
    for name in ("derivations.derivation_space", "derivations.inner_space",
                 "algebra.annihilators"):
        out[f"{name}.calls_per_analysis"] = _ratio(out[f"{name}.calls"], analyses)
    for stat in ("calls", "terms_out"):
        out[f"poly.Poly.mul.{stat}"] = counters[f"poly.Poly.mul.{stat}"]
    return dict(out)


def _has_ancestor(span: Span, by_id: dict, name: str) -> bool:
    pid = span.parent
    while pid is not None:
        parent = by_id.get(pid)
        if parent is None:
            return False
        if parent.name == name:
            return True
        pid = parent.parent
    return False


def item_residuals(spans: list[Span]) -> list[float]:
    """Per item: |sum of self times in its subtree - its duration|."""
    by_id = {s.sid: s for s in spans}
    root_of: dict[int, int] = {}

    def root(s: Span) -> int:
        path = []
        while s.parent is not None and s.sid not in root_of:
            path.append(s.sid)
            s = by_id[s.parent]
        r = root_of.get(s.sid, s.sid)
        for sid in path:
            root_of[sid] = r
        return r

    self_sum: dict[int, float] = defaultdict(float)
    for s in spans:
        self_sum[root(s)] += s.self_s
    return [abs(self_sum[s.sid] - s.duration) for s in spans if s.name == ITEM]

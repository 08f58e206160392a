"""In-memory spans and counters around miconic's layer entry points.

The tracer measures the layers from outside: while installed it replaces
these module attributes with recording wrappers and puts the originals
back when it is removed.

* ``miconic.oa.solve_milp``        -> span ``milp`` (rows, B&B nodes)
* ``miconic.oa.solve_continuous``  -> span ``ipm`` (iterations, status);
  this also catches the root relaxation
* ``miconic.milp.solve_lp``        -> span ``simplex`` (pivots, status)
* ``miconic.cones.barrier_value_grad_hess`` and
  ``miconic.cones.strict_member``  -> call counts and time only; a solve
  makes about 1e5 such calls, too many for spans.  The IPM reaches both
  through the ``cones.`` module attribute.

The benchmark opens its own spans (``instance``, ``model.build``,
``model.verify``, ``compile.emit``, ``oa``, ``check``) around its calls.
A span records its name, start, end, parent and the instance it belongs
to.  A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

from miconic import cones, oa
import miconic.milp as milp

CERTIFIED = ("optimal", "infeasible", "unbounded")

_PROVENANCE = {
    "oa.cuts_init": oa.INITIAL_RELAXATION,
    "oa.cuts_dual": oa.SUBPROBLEM_DUAL,
    "oa.cuts_ray": oa.INFEASIBILITY_RAY,
    "oa.cuts_sep": oa.SEPARATION,
}


@contextlib.contextmanager
def no_span(name, instance=None):
    """The untraced stand-in for ``Tracer.span``."""
    yield {}


def _note_milp(rec, args, res):
    rec["rows"] = int(np.shape(args[0])[0])
    rec["nodes"] = int(res.nodes)


def _note_lp(rec, args, res):
    rec["pivots"] = int(res.iterations)
    rec["status"] = res.status


def _note_ipm(rec, args, res):
    rec["iters"] = int(res.iterations)
    rec["status"] = res.status


class Tracer:
    """Spans and call counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.calls = Counter()
        self.seconds = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name, instance=None):
        parent = self._open[-1] if self._open else None
        if instance is None and parent is not None:
            instance = self.spans[parent]["instance"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "instance": instance}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _spanned(self, name, fn, note):
        def spanned(*args, **kwargs):
            with self.span(name) as rec:
                res = fn(*args, **kwargs)
                note(rec, args, res)
                return res
        return spanned

    def _counted(self, key, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0
                calls[key] += 1
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points; restore the originals on exit."""
        saved = [
            (oa, "solve_milp", "milp", _note_milp),
            (oa, "solve_continuous", "ipm", _note_ipm),
            (milp, "solve_lp", "simplex", _note_lp),
            (cones, "barrier_value_grad_hess", "barrier", None),
            (cones, "strict_member", "strict_member", None),
        ]
        originals = [getattr(mod, attr) for mod, attr, _, _ in saved]
        try:
            for (mod, attr, name, note), fn in zip(saved, originals):
                wrapper = (self._counted(name, fn) if note is None
                           else self._spanned(name, fn, note))
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for (mod, attr, _, _), fn in zip(saved, originals):
                setattr(mod, attr, fn)


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, records, wall_s):
    """Per-layer metrics of one traced pass.

    ``records`` holds one ``(program, outcome)`` pair per instance solved
    in the pass (``None`` entries for instances that never reached OA);
    ``wall_s`` is the traced pass's wall time.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    total = defaultdict(float)
    own = defaultdict(float)
    for s, cov in zip(spans, covered):
        total[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += s["end"] - s["start"] - cov

    def named(name):
        return [s for s in spans if s["name"] == name]

    lps, milps, ipms = named("simplex"), named("milp"), named("ipm")
    pivots = sum(s.get("pivots", 0) for s in lps)
    ipm_iters = sum(s.get("iters", 0) for s in ipms)
    cone_s = tracer.seconds["barrier"] + tracer.seconds["strict_member"]
    solved = [r for r in records if r is not None]
    programs = [p for p, _ in solved]
    factors = [f for p in programs for f in p.cones.factors]
    provenance = Counter(c.provenance for _, o in solved for c in o.cuts)

    m = {
        "simplex.lps": len(lps),
        "simplex.pivots": pivots,
        "simplex.pivots_per_lp": _frac(pivots, len(lps)),
        "simplex.s": total["simplex"],
        "simplex.infeasible_frac": _frac(
            sum(s.get("status") == "infeasible" for s in lps), len(lps)),
        "milp.calls": len(milps),
        "milp.nodes": sum(s.get("nodes", 0) for s in milps),
        "milp.s": total["milp"],
        "milp.self_s": own["milp"],
        "oa.iters": sum(
            s["parent"] is not None and spans[s["parent"]]["name"] == "oa"
            for s in milps),
        "oa.cuts": sum(len(o.cuts) for _, o in solved),
        "oa.milp_rows_max": max((s.get("rows", 0) for s in milps), default=0),
        "oa.self_s": own["oa"],
        "ipm.solves": len(ipms),
        "ipm.iters": ipm_iters,
        "ipm.iters_per_solve": _frac(ipm_iters, len(ipms)),
        "ipm.s": total["ipm"],
        "ipm.self_s": own["ipm"] - cone_s,
        "ipm.certified_frac": _frac(
            sum(s.get("status") in CERTIFIED for s in ipms), len(ipms)),
        "ipm.fastpath_frac": _frac(
            sum(s.get("iters") == 0 for s in ipms), len(ipms)),
        "cones.barrier_calls": tracer.calls["barrier"],
        "cones.barrier_s": tracer.seconds["barrier"],
        "cones.strict_member_calls": tracer.calls["strict_member"],
        "cones.strict_member_s": tracer.seconds["strict_member"],
        "cones.barrier_per_ipm_iter": _frac(
            tracer.calls["barrier"], ipm_iters),
        "compile.emit_s": total["compile.emit"],
        "compile.rows": sum(p.num_rows for p in programs),
        "compile.cols": sum(p.num_integer + p.num_conic for p in programs),
        "compile.factors": len(factors),
        "compile.nonneg1_factors": sum(
            f.kind == cones.NONNEG and f.dim == 1 for f in factors),
        "model.build_s": total["model.build"],
        "model.verify_s": total["model.verify"],
        "check.s": total["check"],
        "trace.wall_s": wall_s,
    }
    for key, prov in _PROVENANCE.items():
        m[key] = provenance[prov]
    accounted = (
        m["oa.self_s"] + m["milp.self_s"] + m["simplex.s"] + m["ipm.self_s"]
        + cone_s + m["compile.emit_s"] + m["model.build_s"]
        + m["model.verify_s"] + m["check.s"]
    )
    m["trace.accounted_frac"] = _frac(accounted, wall_s)
    return m

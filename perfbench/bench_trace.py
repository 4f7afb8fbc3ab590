"""Span tracing of detlab's layers, installed from outside the library.

A layer is one module of the package.  ``Tracer.install`` wraps every public
function and every public method (plus ``__init__``) of each layer module,
and rebinds every module-level name that holds one of those functions, so a
call through an alias bound by value (``asymptotics.nystrom_det``,
``orthopoly.y_moment``, ``fredholm.quadrature``, ...) is recorded too.
``numpy.linalg.det`` and ``numpy.linalg.solve`` are wrapped as well; their
time is charged to the layer of the span that called them.

Spans (name, layer, start, end, parent, op id) are kept in memory and written
out once, after the traced pass.  Work counters are taken at the same
boundaries from argument and result sizes, so they repeat exactly between
runs at the same seed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = {
    "detlab._series": "series",
    "detlab.symbols": "symbols",
    "detlab.contours": "contours",
    "detlab.cauchy": "cauchy",
    "detlab.fredholm": "fredholm",
    "detlab.toeplitz": "toeplitz",
    "detlab.asymptotics": "asymptotics",
    "detlab.formfactors": "formfactors",
    "detlab.orthopoly": "orthopoly",
}
# private helpers traced because a counter lives at their boundary
PRIVATE = {"detlab.cauchy": ("_converged_split",)}
HARNESS = "harness"
LU_FUNCS = ("det", "solve")

# metric group -> span names; calls and seconds of a group count only spans
# not nested inside another span of the same group
GROUPS = {
    "series.split": ("series.LaurentSplit.__init__",),
    "series.eval": ("series.LaurentSplit.plus", "series.LaurentSplit.minus",
                    "series.LaurentSplit.reconstruct"),
    "symbols.analyze": ("symbols.analyze",),
    "symbols.eval": ("symbols.eval_phi", "symbols.eval_theta",
                     "symbols.eval_dphi", "symbols.eval_dnu",
                     "symbols.eval_nu_grid"),
    "cauchy.suite": ("cauchy.CauchySuite.__init__",
                     "cauchy.WindingAdjustedSuite.__init__"),
    "fredholm.det": ("fredholm.nystrom_det",),
    "fredholm.fill": ("fredholm.Kernel.matrix",
                      "fredholm.SeparableKernel.matrix",
                      "fredholm.SumKernel.matrix"),
    "toeplitz.det": ("toeplitz.toeplitz_det",),
    "toeplitz.moment": ("toeplitz.moment_table",),
    "asymptotics.bo": ("asymptotics.borodin_okounkov",),
    "asymptotics.series": ("asymptotics.slavnov_series",),
    "asymptotics.hf": ("asymptotics.hartwig_fisher",),
    "asymptotics.leading": ("asymptotics.tau_leading",),
    "asymptotics.tau_eff": ("asymptotics.tau_eff",),
    "formfactors.solve": ("formfactors.solve_shifted",),
    "formfactors.sum": ("formfactors.tau_eff_finite",),
    "formfactors.form_factor": ("formfactors.form_factor",),
    "orthopoly.measure": ("orthopoly.MeasureMu.__init__",),
    "orthopoly.moment": ("orthopoly.MeasureMu.moment",),
    "orthopoly.rhp": ("orthopoly.RHPSolution.__init__",
                      "orthopoly.RHPSolution.matrix",
                      "orthopoly.RHPSolution.jump_residual",
                      "orthopoly.RHPSolution.normalization_residual",
                      "orthopoly.RHPSolution.far_field_residual"),
}
GROUP_OF = {span: group for group, spans in GROUPS.items() for span in spans}

# (metric, unit, source); every metric reported by a traced run
PER_LAYER = (
    ("series.split_calls", "count", ("calls", "series.split")),
    ("series.split_s", "s", ("seconds", "series.split")),
    ("series.eval_calls", "count", ("calls", "series.eval")),
    ("series.eval_s", "s", ("seconds", "series.eval")),
    ("series.eval_work", "count", ("counter", "series.eval_work")),
    ("series.ongrid_share", "1",
     ("ratio", "series.ongrid_points", "series.eval_points")),
    ("symbols.analyze_calls", "count", ("calls", "symbols.analyze")),
    ("symbols.analyze_s", "s", ("seconds", "symbols.analyze")),
    ("symbols.eval_calls", "count", ("calls", "symbols.eval")),
    ("symbols.eval_s", "s", ("seconds", "symbols.eval")),
    ("cauchy.suite_calls", "count", ("calls", "cauchy.suite")),
    ("cauchy.suite_self_s", "s", ("self", "cauchy.suite")),
    ("cauchy.sample_efficiency", "1",
     ("ratio", "cauchy.final_nodes", "cauchy.sampled_nodes")),
    ("fredholm.det_calls", "count", ("calls", "fredholm.det")),
    ("fredholm.det_s", "s", ("seconds", "fredholm.det")),
    ("fredholm.fill_s", "s", ("seconds", "fredholm.fill")),
    ("fredholm.lu_s", "s", ("lu", "fredholm")),
    ("fredholm.fill_per_det", "1",
     ("ratio", "fredholm.fills_in_det", "fredholm.det_calls")),
    ("fredholm.fill_entries", "count", ("counter", "fredholm.fill_entries")),
    ("fredholm.lu_flops", "count", ("counter", "fredholm.lu_flops")),
    ("toeplitz.det_calls", "count", ("calls", "toeplitz.det")),
    ("toeplitz.det_s", "s", ("seconds", "toeplitz.det")),
    ("toeplitz.moment_s", "s", ("seconds", "toeplitz.moment")),
    ("toeplitz.lu_s", "s", ("lu", "toeplitz")),
    ("asymptotics.bo_s", "s", ("seconds", "asymptotics.bo")),
    ("asymptotics.series_s", "s", ("seconds", "asymptotics.series")),
    ("asymptotics.hf_s", "s", ("seconds", "asymptotics.hf")),
    ("asymptotics.leading_s", "s", ("seconds", "asymptotics.leading")),
    ("asymptotics.tau_eff_s", "s", ("seconds", "asymptotics.tau_eff")),
    ("asymptotics.lu_s", "s", ("lu", "asymptotics")),
    ("formfactors.solve_calls", "count", ("calls", "formfactors.solve")),
    ("formfactors.solve_s", "s", ("seconds", "formfactors.solve")),
    ("formfactors.sum_self_s", "s", ("self", "formfactors.sum")),
    ("formfactors.form_factor_calls", "count",
     ("calls", "formfactors.form_factor")),
    ("formfactors.subsets", "count", ("counter", "formfactors.subsets")),
    ("orthopoly.measure_s", "s", ("seconds", "orthopoly.measure")),
    ("orthopoly.moment_calls", "count", ("calls", "orthopoly.moment")),
    ("orthopoly.moment_s", "s", ("seconds", "orthopoly.moment")),
    ("orthopoly.rhp_s", "s", ("seconds", "orthopoly.rhp")),
    ("orthopoly.lu_s", "s", ("lu", "orthopoly")),
)
EXACT_METRICS = tuple(name for name, unit, _ in PER_LAYER
                      if unit == "count" or name in (
                          "series.ongrid_share", "cauchy.sample_efficiency",
                          "fredholm.fill_per_det"))

# span record fields
NAME, LAYER, START, END, PARENT, OP, OUTER = range(7)


class Tracer:
    """Records nested spans and work counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = Counter()
        self.group_depth = Counter()
        self._undo = []

    # --- recording -----------------------------------------------------------

    def open(self, name: str, layer: str, group: str | None = None) -> int:
        outer = group is None or self.group_depth[group] == 0
        if group is not None:
            self.group_depth[group] += 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, self.clock(), None, parent, self.op,
                           outer])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int, group: str | None = None):
        span = self.spans[idx]
        span[END] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {span[NAME]} closed out of order")
        if group is not None:
            self.group_depth[group] -= 1

    def current_layer(self) -> str:
        return self.spans[self.stack[-1]][LAYER] if self.stack else HARNESS

    def wrap(self, fn, name: str, layer: str, prepare=None, finish=None):
        """Wrapper recording one span per call of ``fn``.

        ``prepare(args, kwargs) -> (args, kwargs)`` runs inside the span before
        the call, ``finish(args, kwargs, result)`` after a successful return.
        """
        group = GROUP_OF.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, layer, group)
            try:
                if prepare is not None:
                    args, kwargs = prepare(args, kwargs)
                result = fn(*args, **kwargs)
                if finish is not None:
                    finish(args, kwargs, result)
                return result
            finally:
                tracer.close(idx, group)
        return traced

    # --- installation --------------------------------------------------------

    def install(self):
        """Wrap the layer entry points and numpy's LU routines."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "detlab" or n.startswith("detlab."))]
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for owner, attr, fn in _entry_points(module):
                qual = f"{layer}.{fn.__qualname__}"
                prepare, finish = self._hooks(qual, fn)
                traced = self.wrap(fn, qual, layer, prepare, finish)
                if owner is None:
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                self._set(mod, key, traced)
                else:
                    self._set(owner, attr, traced)
        for attr in LU_FUNCS:
            self._set(np.linalg, attr, self._lu_wrapper(getattr(np.linalg, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _lu_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            layer = tracer.current_layer()
            n = int(np.shape(a)[-1])
            tracer.counters[f"{layer}.lu_flops"] += 8 * n ** 3 // 3
            idx = tracer.open(f"{layer}.lu", layer)
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    def _hooks(self, qual: str, fn):
        counters = self.counters
        if qual in GROUPS["series.eval"]:
            kind = qual.rsplit(".", 1)[1]

            def prepare(args, kwargs):
                split, q = args[0], args[1] if len(args) > 1 else kwargs["q"]
                q = np.asarray(q, dtype=complex).ravel()
                if kind == "plus":
                    modes = int(np.count_nonzero(split.j >= 0))
                elif kind == "minus":
                    modes = int(np.count_nonzero(split.j < 0))
                else:
                    modes = int(split.j.size)
                counters["series.eval_points"] += q.size
                counters["series.eval_work"] += q.size * modes
                if q.size == split.m and on_grid(q, split.radius, split.m):
                    counters["series.ongrid_points"] += q.size
                return args, kwargs
            return prepare, None
        if qual == "cauchy._converged_split":
            def prepare(args, kwargs):
                sample = args[0] if args else kwargs.pop("sample")

                def counted(m):
                    counters["cauchy.sampled_nodes"] += m
                    return sample(m)
                return (counted,) + tuple(args[1:]), kwargs

            def finish(args, kwargs, result):
                counters["cauchy.final_nodes"] += result[1]
            return prepare, finish
        if qual in ("fredholm.Kernel.matrix", "fredholm.SeparableKernel.matrix"):
            def prepare(args, kwargs):
                nodes = args[1] if len(args) > 1 else kwargs["nodes"]
                counters["fredholm.fill_entries"] += len(nodes) ** 2
                return args, kwargs
            return prepare, None
        if qual == "formfactors.tau_eff_finite":
            sig = inspect.signature(fn)

            def finish(args, kwargs, result):
                bound = sig.bind(*args, **kwargs).arguments
                L, N = bound["L"], bound.get("N")
                counters["formfactors.subsets"] += math.comb(
                    L, L if N is None else N)
            return None, finish
        return None, None

    def count_fills_in_det(self):
        """Outermost fills made inside a nystrom_det span."""
        in_det = []
        for span in self.spans:
            parent = span[PARENT]
            inside = parent >= 0 and (in_det[parent] or
                                      self.spans[parent][NAME] == "fredholm.nystrom_det")
            in_det.append(inside)
        fills = sum(1 for span, inside in zip(self.spans, in_det)
                    if inside and span[OUTER] and
                    GROUP_OF.get(span[NAME]) == "fredholm.fill")
        self.counters["fredholm.fills_in_det"] = fills

    # --- output --------------------------------------------------------------

    def write(self, path: str):
        """All spans as gzipped JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "layer": s[LAYER],
                    "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "op": s[OP]}) + "\n")


def _entry_points(module):
    """(owner class or None, attribute, function) for every traced callable."""
    private = PRIVATE.get(module.__name__, ())
    for name, obj in list(vars(module).items()):
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if not name.startswith("_") or name in private:
                yield None, name, obj
        elif (inspect.isclass(obj) and obj.__module__ == module.__name__
              and not issubclass(obj, BaseException)):
            for attr, fn in list(vars(obj).items()):
                if inspect.isfunction(fn) and (not attr.startswith("_")
                                               or attr == "__init__"):
                    yield obj, attr, fn


def on_grid(q, radius: float, m: int) -> bool:
    """True when every point of ``q`` is a node of the m-point circle grid
    starting at angle -pi (the grid of ``_series.circle_nodes``)."""
    q = np.asarray(q, dtype=complex).ravel()
    on_circle = np.abs(np.abs(q) - radius) <= 1e-10 * max(radius, 1.0)
    k = (np.angle(q) + np.pi) * m / (2.0 * np.pi)
    return bool(np.all(on_circle & (np.abs(k - np.round(k)) <= 1e-6)))


# --- analysis -----------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_self_times(spans) -> dict:
    totals = Counter()
    for s, t in zip(spans, self_times(spans)):
        totals[s[LAYER]] += t
    return dict(totals)


def per_layer_metrics(tracer: Tracer, speed: dict | None = None) -> dict:
    """Every PER_LAYER metric from one traced pass.

    ``speed`` maps an op id to the factor that brings its times to the
    reference CPU speed; spans of ops not in it keep their clock time.
    """
    tracer.count_fills_in_det()
    speed = speed or {}
    selfs = self_times(tracer.spans)
    calls, seconds, self_s, lu = Counter(), Counter(), Counter(), Counter()
    for s, t in zip(tracer.spans, selfs):
        group = GROUP_OF.get(s[NAME])
        f = speed.get(s[OP], 1.0)
        if group is not None:
            self_s[group] += t * f
            if s[OUTER]:
                calls[group] += 1
                seconds[group] += (s[END] - s[START]) * f
        elif s[NAME].endswith(".lu"):
            lu[s[LAYER]] += (s[END] - s[START]) * f
    counters = Counter(tracer.counters)
    counters["fredholm.det_calls"] = calls["fredholm.det"]
    out = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "calls":
            value = calls[source[1]]
        elif kind == "seconds":
            value = seconds[source[1]]
        elif kind == "self":
            value = self_s[source[1]]
        elif kind == "lu":
            value = lu[source[1]]
        elif kind == "counter":
            value = counters[source[1]]
        else:
            den = counters[source[2]]
            value = counters[source[1]] / den if den else 0.0
        out[name] = {"value": value, "unit": unit}
    return out

"""The benchmark's tracer hooks still find the library's layers.

``perfbench/bench_trace.py`` wraps detlab's public callables by name and
``numpy.linalg.det``/``solve`` by attribute.  A refactor that renames a
traced callable, or computes a determinant another way, would silently
zero a per-layer metric; these tests make it fail loudly instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from detlab import asymptotics, fredholm, symbols, toeplitz

TRACE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"

# span names with nothing left to trace: the subset enumeration that
# form_factor timed is gone, and the unit-circle suite is a CauchySuite whose
# __init__ span the cauchy.suite group already counts (ROADMAP item 1, next
# change to the benchmark)
STALE = {"formfactors.form_factor", "cauchy.WindingAdjustedSuite.__init__"}


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_group_spans_resolve_to_traced_callables():
    bt = load_bench_trace()
    traced = set()
    for modname, layer in bt.LAYERS.items():
        module = importlib.import_module(modname)
        traced |= {f"{layer}.{fn.__qualname__}"
                   for _, _, fn in bt._entry_points(module)}
    spans = {span for group in bt.GROUPS.values() for span in group}
    assert spans - traced == STALE


def test_determinants_and_fills_are_counted():
    bt = load_bench_trace()
    real_det = np.linalg.det
    tracer = bt.Tracer()
    tracer.install()
    try:
        toeplitz.toeplitz_det(symbols.fixture("F4"), 5)
        spec = symbols.fixture("F1")
        fredholm.nystrom_det(fredholm.kernel_S(spec, 2),
                             asymptotics.base_contour(spec))
    finally:
        tracer.uninstall()
    assert np.linalg.det is real_det
    # the Levinson recursion calls no dense LU; the tracer does not count it
    assert tracer.counters["toeplitz.lu_flops"] == 0
    # one LU per grid: m = x + 32 and x + 64 at x = 2
    assert tracer.counters["fredholm.lu_flops"] == \
        8 * 34 ** 3 // 3 + 8 * 66 ** 3 // 3
    assert tracer.counters["fredholm.fill_entries"] == 34 ** 2 + 66 ** 2

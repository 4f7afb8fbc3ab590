"""The benchmark's tracer hooks still find the library's layers.

``perfbench/bench_trace.py`` wraps detlab's public callables by name and
``numpy.linalg.det``/``solve`` by attribute.  A refactor that renames a
traced callable, or computes a determinant another way, would silently
zero a per-layer metric; these tests make it fail loudly instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from detlab import asymptotics, errors, fredholm, symbols, toeplitz

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACE_PATH = PERFBENCH / "bench_trace.py"

# span names with nothing left to trace: the subset enumeration that
# form_factor timed is gone, the unit-circle suite is a CauchySuite whose
# __init__ span the cauchy.suite group already counts, and every kernel,
# a sum or a rank-one residue term included, is one fredholm.Kernel whose
# matrix span the fredholm.fill group already counts, and the far-field
# residual of the matrix boundary problem is a helper of its tests (ROADMAP
# item 1, next change to the benchmark)
STALE = {"formfactors.form_factor", "cauchy.WindingAdjustedSuite.__init__",
         "fredholm.SeparableKernel.matrix", "fredholm.SumKernel.matrix",
         "orthopoly.RHPSolution.far_field_residual"}


def load_perfbench(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up while the class is made
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def load_bench_trace():
    return load_perfbench("bench_trace", TRACE_PATH)


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
        kern, radius = fredholm.kernel_S(spec, 2), asymptotics.base_contour(
            spec)
        # S's one grid, and the ladder of its generators with no reach
        res = [fredholm.nystrom_det(kern, radius),
               fredholm.nystrom_det(fredholm.Kernel(kern.generators, 2),
                                    radius)]
    finally:
        tracer.uninstall()
    assert np.linalg.det is real_det
    # below toeplitz.LEVINSON_MIN the oracle takes the dense LU by slogdet,
    # which bench_trace.LU_FUNCS does not wrap, so its flops go uncounted
    assert tracer.counters["toeplitz.lu_flops"] == 0
    # S's one grid (34 nodes) takes the direct side, an LU of its x = 2
    # columns and no fill; the ladder of its generators, with no grid form,
    # one fill and one LU per grid
    ladder = res[1].grids
    assert res[0].grids == (34,) and len(ladder) >= 2
    assert tracer.counters["fredholm.lu_flops"] == \
        8 * 2 ** 3 // 3 + sum(8 * m ** 3 // 3 for m in ladder)
    assert tracer.counters["fredholm.fill_entries"] == \
        sum(m ** 2 for m in ladder)


def test_no_first_grid_past_the_fixed_margin(monkeypatch):
    # every Nystrom ladder of verify and of one x sweep pass starts at most
    # fredholm.M_START nodes past the kernel's bandwidth and doubles that
    # margin a from grid to grid, x + a 2^k; a single grid is the second
    # grid of the ladder it stands for, x + 2a
    ladders = []
    real = fredholm.nystrom_det

    def recorded(kernel, *args, **kwargs):
        res = real(kernel, *args, **kwargs)
        x, grids = kernel.x, res.grids
        margin = grids[0] - x if len(grids) > 1 else (grids[0] - x) // 2
        ladders.append((x, margin, grids))
        return res

    monkeypatch.setattr(fredholm, "nystrom_det", recorded)
    monkeypatch.setattr(asymptotics, "nystrom_det", recorded)
    bw = load_perfbench("bench_workloads", PERFBENCH / "bench_workloads.py")
    ops = bw.Verify(0).ops() + [op for op in bw.XSweep(9).ops()
                                if op.route in ("nystrom_S", "tau_eff")]
    for op in ops:
        try:
            op.call()
        except errors.DetlabError:   # the workload's own failures
            pass
    assert len(ladders) > 100
    assert all(margin <= fredholm.M_START for _, margin, _ in ladders)
    assert all(grids == tuple(x + margin * 2 ** k for k in range(len(grids)))
               for x, margin, grids in ladders if len(grids) > 1)
    # verify's contour-swap check runs two four-grid ladders
    assert sum(len(grids) == 4 for _, _, grids in ladders) >= 2

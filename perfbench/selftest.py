"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They cover the span arithmetic, the percentile rule, failure counting, seed
plumbing and the tracer's installation; none of them times anything.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import bench_trace as bt          # noqa: E402
import bench_workloads as bw      # noqa: E402
import run                        # noqa: E402
from detlab import errors         # noqa: E402


def span(name, start, end, parent, layer="harness"):
    return [name, layer, start, end, parent, None, True]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [span("root", 0.0, 10.0, -1),
                 span("a", 1.0, 3.0, 0), span("b", 2.0, 4.0, 0),
                 span("c", 9.0, 12.0, 0), span("a.1", 1.5, 2.5, 1)]
        selfs = bt.self_times(spans)
        # children cover [1, 4] and [9, 10]: 4 of the root's 10 seconds
        self.assertAlmostEqual(selfs[0], 6.0)
        self.assertAlmostEqual(selfs[1], 1.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_self_times_of_nested_spans_sum_to_root(self):
        spans = [span("root", 0.0, 10.0, -1, "harness"),
                 span("x", 1.0, 6.0, 0, "fredholm"),
                 span("y", 2.0, 5.0, 1, "series"),
                 span("z", 7.0, 8.0, 0, "symbols")]
        layers = bt.layer_self_times(spans)
        self.assertAlmostEqual(sum(layers.values()), 10.0)
        self.assertEqual(layers, {"harness": 4.0, "fredholm": 2.0,
                                  "series": 3.0, "symbols": 1.0})

    def test_wrapped_calls_nest_and_close_on_error(self):
        tracer = bt.Tracer(clock=FakeClock())

        def boom():
            raise errors.NotConverged("no")

        inner = tracer.wrap(boom, "fredholm.nystrom_det", "fredholm")
        outer = tracer.wrap(lambda: inner(), "asymptotics.tau_eff",
                            "asymptotics")
        with self.assertRaises(errors.NotConverged):
            outer()
        self.assertEqual(tracer.stack, [])
        (o_name, _, o_start, o_end, o_parent, _, _), \
            (i_name, _, i_start, i_end, i_parent, _, _) = tracer.spans
        self.assertEqual((o_name, o_parent, i_name, i_parent),
                         ("asymptotics.tau_eff", -1, "fredholm.nystrom_det", 0))
        self.assertTrue(o_start < i_start < i_end < o_end)

    def test_group_counts_only_outermost_spans(self):
        tracer = bt.Tracer(clock=FakeClock())
        phi = tracer.wrap(lambda: None, "symbols.eval_phi", "symbols")
        theta = tracer.wrap(lambda: phi(), "symbols.eval_theta", "symbols")
        theta()
        phi()
        metrics = bt.per_layer_metrics(tracer)
        self.assertEqual(metrics["symbols.eval_calls"]["value"], 2)
        # theta spans 3 ticks (phi nested inside), the second phi 1 tick
        self.assertEqual(metrics["symbols.eval_s"]["value"], 3.0 + 1.0)


class PercentileRule(unittest.TestCase):
    def test_harrell_davis(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(run.percentile(values, 50), 50.5, places=6)
        self.assertAlmostEqual(run.percentile(values, 75), 75.5, delta=0.05)
        self.assertAlmostEqual(run.percentile([3.0], 75), 3.0)
        # two ops of different cost trading places near the rank move the
        # estimate a little, not by the whole gap between them
        a = [1.0] * 70 + [10.0] * 5 + [11.0] * 25
        b = [1.0] * 75 + [10.0] * 25
        self.assertLess(abs(run.percentile(a, 75) - run.percentile(b, 75)),
                        0.5 * 9.0)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.highest_percentile(100), 90)
        self.assertEqual(run.highest_percentile(99), 75)
        self.assertEqual(run.highest_percentile(40), 75)
        self.assertEqual(run.highest_percentile(39), 50)
        self.assertIsNone(run.highest_percentile(15))

    def test_every_workload_samples_the_reported_percentile(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
        ops = {"verify": 38, "xsweep": 220, "finite_size": 16}
        for name, n in ops.items():
            passes = max(run.MIN_PASSES[name],
                         round(seconds / run.NOMINAL_PASS_S[name]))
            self.assertGreaterEqual(
                run.samples_beyond(n * passes, run.OP_PERCENTILE), 10, name)


def stub(op_id, value=None, exc=None, route="toeplitz", symbol="F4", x=2):
    def call():
        if exc is not None:
            raise exc
        return value
    return bw.Op(op_id, symbol, route, {"x": x, "tol": 1e-8}, call)


class FailureCounting(unittest.TestCase):
    def test_raise_and_inf_fail_in_verify_check(self):
        ops = [stub("a", exc=errors.NotConverged("drift")),
               stub("b", value=float("inf")),
               stub("c", value=1e-20), stub("d", value=1e-3)]
        results = [bw.run_op(op, FakeClock()) for op in ops]
        bw.Verify(0).check(results)
        self.assertEqual(run.count_failures(results), (4, 3))
        self.assertEqual(results[0].reason, "raised NotConverged")
        self.assertEqual(results[1].reason, "non-finite value")
        self.assertTrue(results[2].passed)
        self.assertEqual(results[2].digits, bw.DIGITS_CAP)
        self.assertIn("over tolerance", results[3].reason)

    def test_xsweep_routes_fail_on_disagreement_and_without_partner(self):
        values = {"slavnov_series": 2.0, "nystrom_S": 2.0 * (1 + 1e-9),
                  "toeplitz": 3.0, "hartwig_fisher": 5.0}
        ops = [stub(f"F4/{r}/x=2", value=v, route=r)
               for r, v in values.items()]
        ops.append(stub("F4/tau_eff/x=2", route="tau_eff",
                        exc=errors.NotConverged("drift")))
        results = {r.op.route: r for r in
                   (bw.run_op(op, FakeClock()) for op in ops)}
        bw.XSweep(0).check(list(results.values()))
        self.assertTrue(results["slavnov_series"].passed)
        self.assertTrue(results["nystrom_S"].passed)
        self.assertAlmostEqual(results["nystrom_S"].digits, 9.0, places=3)
        self.assertIn("vs slavnov_series", results["toeplitz"].reason)
        self.assertTrue(results["hartwig_fisher"].reason.startswith("unchecked"))
        self.assertEqual(results["tau_eff"].reason, "raised NotConverged")

    def test_unexpected_failures_are_those_not_known(self):
        known = {"xsweep": {"F4/toeplitz/x=128": "gap"},
                 "random_symbols_x_min": {"R1": 64}}
        ops = [stub("F4/toeplitz/x=128", value=float("nan"), x=128),
               stub("R1/toeplitz/x=64", value=float("nan"), symbol="R1", x=64),
               stub("F4/toeplitz/x=2", value=float("nan"))]
        results = [bw.run_op(op, FakeClock()) for op in ops]
        for r in results:
            bw._classify(r)
        bad = run.unexpected(results, "xsweep", known)
        self.assertEqual([r.op.id for r in bad], ["F4/toeplitz/x=2"])


class SeedPlumbing(unittest.TestCase):
    def test_command_line_names_every_workload(self):
        self.assertEqual(set(run.WORKLOADS), set(bw.WORKLOADS))

    def test_xsweep_same_seed_same_inputs(self):
        a, b, c = bw.XSweep(7), bw.XSweep(7), bw.XSweep(8)
        self.assertEqual([op.id for op in a.ops()], [op.id for op in b.ops()])
        self.assertEqual([op.id for op in a.ops()], [op.id for op in c.ops()])
        self.assertEqual(a.symbols, b.symbols)
        for label in ("F1", "F3", "F4"):
            self.assertEqual(a.symbols[label], c.symbols[label])
        for label in ("R0", "R1"):
            self.assertNotEqual(a.symbols[label], c.symbols[label])

    def test_random_symbols_keep_their_winding_class(self):
        from detlab import symbols
        for seed in range(5):
            rand = bw.random_symbols(seed)
            self.assertEqual(symbols.analyze(rand["R0"]).winding, 0)
            self.assertEqual(symbols.analyze(rand["R1"]).winding, -1)

    def test_finite_size_ignores_the_seed(self):
        a, b = bw.FiniteSize(1), bw.FiniteSize(2)
        self.assertEqual([(op.id, op.params) for op in a.ops()],
                         [(op.id, op.params) for op in b.ops()])

    def test_verify_seed_changes_only_the_probes(self):
        seeded = ("mdual", "rhp-jump", "christoffel-darboux")

        def residuals(seed):
            ops = [op for op in bw.Verify(seed).ops()
                   if op.id.startswith(seeded)]
            return {op.id: op.call() for op in ops}

        first, again, other = residuals(3), residuals(3), residuals(4)
        self.assertEqual(first, again)
        self.assertEqual(first.keys(), other.keys())
        self.assertTrue(all(first[k] != other[k] for k in first))
        self.assertEqual([op.id for op in bw.Verify(3).ops()],
                         [op.id for op in bw.Verify(4).ops()])


class TracerInstall(unittest.TestCase):
    def test_aliases_are_rebound_and_restored(self):
        from detlab import asymptotics, fredholm, orthopoly
        original = fredholm.nystrom_det
        tracer = bt.Tracer()
        tracer.install()
        try:
            self.assertIsNot(fredholm.nystrom_det, original)
            self.assertIs(asymptotics.nystrom_det, fredholm.nystrom_det)
            self.assertIs(orthopoly.y_moment, asymptotics.y_moment)
            self.assertEqual(inspect.unwrap(asymptotics.y_moment).__module__,
                             "detlab.asymptotics")
        finally:
            tracer.uninstall()
        self.assertIs(fredholm.nystrom_det, original)
        self.assertIs(asymptotics.nystrom_det, original)

    def test_counters_repeat_exactly(self):
        workload = bw.XSweep(0)
        ops = [op for op in workload.ops()
               if op.symbol == "F4" and op.params["x"] <= 8]

        def traced_metrics():
            tracer = bt.Tracer()
            tracer.install()
            try:
                for op in ops:
                    bw.run_op(op, tracer.clock)
            finally:
                tracer.uninstall()
            m = bt.per_layer_metrics(tracer)
            return {k: m[k]["value"] for k in bt.EXACT_METRICS}

        first, second = traced_metrics(), traced_metrics()
        self.assertEqual(first, second)
        self.assertGreater(first["series.eval_work"], 0)
        self.assertGreater(first["fredholm.lu_flops"], 0)
        self.assertTrue(0 < first["series.ongrid_share"] <= 1)


if __name__ == "__main__":
    unittest.main()

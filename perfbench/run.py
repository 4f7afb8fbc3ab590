"""detlab benchmark: closed-loop workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 12 --trace 0

Workloads are ``verify``, ``xsweep`` and ``finite_size`` (see
perfbench/README.md).  One process runs one workload as a closed loop: a
single caller, each library call starting after the previous one returned.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it traces one pass through every layer and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-op failures,
and in traced runs the span file and the scaling table, are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# bench_workloads and bench_trace import numpy and detlab, so they are
# imported inside functions: after the BLAS thread count is set, and within
# the timed set-up.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASELINE = HERE / "baseline.json"

WORKLOADS = ("verify", "xsweep", "finite_size")
# One BLAS thread: with two, the first pass carries about a second of
# one-time thread start-up spikes that make cold_wall_s unsteady.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds of one warm pass at the seed commit, at the reference speed below.
# They turn --seconds into a fixed pass count, so that the sample count,
# and with it the rank of every percentile, is the same in every run.
NOMINAL_PASS_S = {"verify": 2.7, "xsweep": 12.6, "finite_size": 6.9}
MIN_PASSES = {"verify": 2, "xsweep": 2, "finite_size": 3}
SETUP_PROBES = 4       # extra fresh processes timing set-up alone
# Times are reported at a reference CPU speed.  This host's effective speed
# switches between regimes about 1.6x apart every few seconds, which spreads
# raw pass times by 15% between runs.  Every op is therefore bracketed by a
# fixed calibration kernel (no detlab code) and its time is scaled by
# REFERENCE_CALIBRATION_S / (mean of the two calibration times): a time is
# what the op takes on a CPU that runs the kernel in exactly 1 ms.
REFERENCE_CALIBRATION_S = 1e-3
OP_PERCENTILE = 75     # highest percentile all workloads sample >= 10 beyond
ACCOUNTING_TOL = 0.01  # share of the traced wall time the self times may miss

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cold_wall_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    (f"op_p{OP_PERCENTILE}_ms", "ms", "lower"),
    ("pass_ratio", "1", "higher"),
    ("min_digits", "digits", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


# --- statistics -----------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of the order statistics.  Unlike
    a single order statistic it does not jump when two ops of different cost
    trade places around the rank, which halves the run-to-run spread here.
    """
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf, left=0.0,
                                right=1.0))
    return float(weights @ x)


def samples_beyond(n: int, p: float) -> int:
    """Samples above the nearest rank of the p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_percentile(n: int, candidates=(99, 95, 90, 75, 50)):
    """Highest candidate percentile with at least ten samples beyond it."""
    return next((p for p in candidates if samples_beyond(n, p) >= 10), None)


def count_failures(results) -> tuple[int, int]:
    """(attempted, failed) over checked results."""
    return len(results), sum(1 for r in results if not r.passed)


# --- running --------------------------------------------------------------------

_CAL = {}


def calibration() -> float:
    """Seconds of one run of a fixed ~1 ms kernel mixing interpreter work,
    small numpy calls and a small LU, the mix detlab's calls are made of."""
    import numpy as np
    if not _CAL:
        rng = np.random.default_rng(0)
        _CAL["a"] = rng.standard_normal((64, 64)) * (1.0 + 0.5j)
        _CAL["z"] = np.exp(1j * np.linspace(0.0, 1.0, 256))
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i
    z = _CAL["z"]
    for _ in range(40):
        z = np.abs(np.fft.fft(z)) * (1.0 / 256) + 1j
    np.linalg.det(_CAL["a"])
    return time.perf_counter() - t0


def speed_factor(samples: int = 5) -> float:
    """Reference-speed scale factor of this moment, after a warm-up."""
    for _ in range(3):
        calibration()
    return REFERENCE_CALIBRATION_S / statistics.median(
        calibration() for _ in range(samples))


def run_pass(workload, tracer=None):
    """One closed-loop pass over the workload's ops.

    Returns (wall, raw_wall, results): ``wall`` is the sum of the op times at
    the reference speed, ``raw_wall`` the pass as the clock saw it, with the
    calibration runs between ops.
    """
    import bench_workloads as bw
    clock = time.perf_counter
    ops = workload.ops()
    gc.collect()
    t0 = clock()
    root = tracer.open("pass", "harness") if tracer else None
    before = calibration()
    results = []
    for op in ops:
        if tracer:
            tracer.op = op.id
            idx = tracer.open("op", "harness")
        res = bw.run_op(op, clock)
        if tracer:
            tracer.close(idx)
            tracer.op = None
        after = calibration()
        res.raw_seconds = res.seconds
        res.seconds *= 2.0 * REFERENCE_CALIBRATION_S / (before + after)
        before = after
        results.append(res)
    if tracer:
        tracer.close(root)
    raw_wall = clock() - t0
    workload.check(results)
    return sum(r.seconds for r in results), raw_wall, results


def setup(name: str, seed: int):
    """Import detlab and build the workload's inputs; returns (workload, s)."""
    t0 = time.perf_counter()
    import detlab
    import bench_workloads as bw
    workload = bw.build(name, seed)
    seconds = time.perf_counter() - t0
    if Path(detlab.__file__).resolve().parent != SRC / "detlab":
        raise SystemExit(f"detlab imported from {detlab.__file__}, not {SRC}")
    return workload, seconds * speed_factor()


def probe_setup(args) -> float:
    """Set-up time of a fresh process, measured in a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def known_failures() -> dict:
    with open(BASELINE) as fh:
        return json.load(fh)["known_failures"]


def unexpected(results, workload: str, known: dict) -> list:
    """Failed ops the seed commit passes: the run's outputs are then wrong."""
    listed = known.get(workload, {})
    open_from = known.get("random_symbols_x_min", {})
    bad = []
    for r in results:
        if r.passed or r.op.id in listed:
            continue
        x_min = open_from.get(r.op.symbol)
        if workload == "xsweep" and x_min is not None \
                and r.op.params["x"] >= x_min:
            continue
        bad.append(r)
    return bad


def failure_records(workload, results) -> list:
    recs = []
    for r in results:
        if r.passed:
            continue
        rec = {"workload": workload.name, "op": r.op.id,
               "symbol": r.op.symbol, "route": r.op.route,
               "inputs": r.op.params, "reason": r.reason}
        if r.error:
            rec["error"] = r.error
        spec = getattr(workload, "symbols", {}).get(r.op.symbol)
        if spec is not None and r.op.symbol.startswith("R"):
            rec["numer"] = [[c.real, c.imag] for c in spec.numer]
            rec["denom"] = [[c.real, c.imag] for c in spec.denom]
        recs.append(rec)
    return recs


def end_to_end(args, passes: int):
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload, own = setup(args.workload, args.seed)
    setups.append(own)
    cold, cold_raw, _ = run_pass(workload)
    walls, raw_walls, warm = [], [], []
    for _ in range(passes):
        wall, raw_wall, results = run_pass(workload)
        walls.append(wall)
        raw_walls.append(raw_wall)
        warm.extend(results)
    lat_ms = [r.seconds * 1e3 for r in warm]
    digits = [r.digits for r in warm if r.digits is not None]
    attempted, failed = count_failures(warm)
    values = {
        "setup_s": statistics.median(setups),
        "cold_wall_s": cold,
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile(lat_ms, 50),
        f"op_p{OP_PERCENTILE}_ms": percentile(lat_ms, OP_PERCENTILE),
        "pass_ratio": (attempted - failed) / attempted,
        "min_digits": min(digits) if digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "cold_wall_s": f"first pass of this process; raw {cold_raw:.3f} s",
        "wall_s": f"median of {passes} warm passes; raw "
                  f"{statistics.median(raw_walls):.3f} s",
        "op_p50_ms": f"{len(lat_ms)} op samples",
        f"op_p{OP_PERCENTILE}_ms":
            f"{samples_beyond(len(lat_ms), OP_PERCENTILE)} samples beyond; "
            f"highest supported p{highest_percentile(len(lat_ms))}",
        "pass_ratio": f"{attempted - failed}/{attempted} ops passed",
        "min_digits": f"over {len(digits)} passing ops",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    rows = [(name, values[name], unit, better, notes[name])
            for name, unit, better in END_TO_END]
    return workload, metrics, rows, warm


def traced(args, workload):
    import bench_trace as bt
    run_pass(workload)                      # warm-up, untraced
    base_wall, _, base = run_pass(workload)
    tracer = bt.Tracer()
    tracer.install()
    try:
        wall, raw_wall, results = run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    speed = {r.op.id: r.seconds / r.raw_seconds for r in results}
    metrics = bt.per_layer_metrics(tracer, speed)
    metrics["trace.overhead_s"] = {"value": wall - base_wall, "unit": "s"}

    # raw clock time: the calibration runs count as the harness's own time
    layer_self = bt.layer_self_times(tracer.spans)
    accounted = sum(layer_self.values())
    problems = []
    if abs(accounted - raw_wall) > ACCOUNTING_TOL * raw_wall:
        problems.append(f"layer self times {accounted:.4f} s do not account "
                        f"for the traced wall time {raw_wall:.4f} s")
    rows = [(f"self_s[{layer}]", t, "s", "",
             f"{t / raw_wall:.1%} of traced wall (raw clock)")
            for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1])]
    rows += [(name, m["value"], m["unit"], "", "")
             for name, m in metrics.items()]

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}"
    tracer.write(f"{stem}-spans.jsonl.gz")
    write_scaling(f"{stem}-scaling.csv", workload.name, base, results)
    return metrics, rows, base + results, problems


def write_scaling(path, name, base, traced_results):
    """One row per op: what it computed, at what size, cost and gap."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["workload", "op", "symbol", "route", "x", "L", "N",
                      "m_used", "wall_ms", "raw_ms", "traced_ms", "gap",
                      "vs", "status"])
        for r, t in zip(base, traced_results):
            p = r.op.params
            out.writerow([name, r.op.id, r.op.symbol, r.op.route,
                          p.get("x", ""), p.get("L", ""), p.get("N", ""),
                          "" if r.m_used is None else r.m_used,
                          f"{r.seconds * 1e3:.3f}", f"{r.raw_seconds * 1e3:.3f}",
                          f"{t.seconds * 1e3:.3f}",
                          "" if r.gap is None else f"{r.gap:.3e}",
                          r.partner or "", "ok" if r.passed else r.reason])


def print_table(rows, out=sys.stdout):
    out.write(f"{'metric':34s} {'value':>14s} {'unit':6s} {'better':6s} note\n")
    for name, value, unit, better, note in rows:
        out.write(f"{name:34s} {value:14.6g} {unit:6s} {better:6s} {note}\n")


# --- entry point ----------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "detlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no detlab sources under {SRC}\n")
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        _, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    passes = max(MIN_PASSES[args.workload],
                 round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        workload, _ = setup(args.workload, args.seed)
        metrics, rows, results, problems = traced(args, workload)
    else:
        workload, metrics, rows, results = end_to_end(args, passes)
        problems = []

    attempted, failed = count_failures(results)
    bad = unexpected(results, args.workload, known_failures())
    problems += [f"unexpected failure {r.op.id}: {r.reason}" for r in bad]
    first_pass = results[:len(workload.ops())]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-failures.json", "w") as fh:
        json.dump(failure_records(workload, first_pass), fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {BLAS_THREADS}  ops/pass {len(first_pass)}  "
          f"warm passes {passes if not args.trace else 1}")
    print_table(rows)
    for p in problems:
        print("PROBLEM: " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

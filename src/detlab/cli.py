"""Command-line interface: analysis, determinants, route comparison tables,
finite-size studies, and the self-verification suite.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import (asymptotics, cauchy, errors, formfactors, fredholm, orthopoly,
               symbols, toeplitz)

FMT = "{:.16e}"  # 17 significant digits


# --------------------------------------------------------------------------
# helpers

def _load_spec(path: str) -> symbols.SymbolSpec:
    if os.path.exists(path):
        return symbols.load_symbol(path)
    if path in symbols.FIXTURE_NAMES:
        return symbols.fixture(path)
    raise errors.InputError(f"no such symbol file or fixture: {path}")


def _parse_xrange(text: str) -> range:
    """The x values of ``N`` or ``LO..HI``, as a lazy range."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError as exc:
        raise errors.InputError(f"bad x value or range {text!r}") from exc
    if not 0 <= lo <= hi:
        raise errors.InputError(f"x range {text!r} is empty or negative")
    return range(lo, hi + 1)


def _cell(value, fmt: str = "json"):
    """A JSON value, or with fmt "csv" a CSV cell's text: a str as it is, an
    integer, any other number as a float (FMT in CSV); a complex number as
    {"re", "im"}, in JSON only, since CSV rows hold re and im apart."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value)) if fmt == "csv" else int(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return FMT.format(float(value)) if fmt == "csv" else float(value)


def _write(out: str | None, payload, header=None, fmt: str = "json"):
    """Write ``payload`` to the file ``out``, or stdout if None, as indented
    JSON with sorted keys; given a ``header``, its rows as CSV or JSON."""
    if header is not None and fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_cell(v, fmt) for v in row) for row in payload]
        text = "\n".join(lines) + "\n"
    else:
        if header is not None:
            payload = [{h: _cell(v) for h, v in zip(header, row)}
                       for row in payload]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gap(value, reference) -> float:
    """Relative gap of value to reference; the floor keeps it finite."""
    return abs(value - reference) / max(abs(reference), 1e-300)


# --------------------------------------------------------------------------
# routes: every name that compare and verify accept, each a call
# (spec, x, arg) with arg the route's integer argument or None: the
# correction order of slavnov, the grid size L of ff (default 12; N = L + w)

ROUTES = {
    "toeplitz": lambda spec, x, arg: toeplitz.toeplitz_det(spec, x),
    "fredholm_S": lambda spec, x, arg: fredholm.nystrom_det(
        fredholm.kernel_S(spec, x), asymptotics.base_contour(spec)).value,
    "fredholm_V": lambda spec, x, arg: asymptotics.tau_eff(spec, x),
    "leading": lambda spec, x, arg: asymptotics.tau_leading(spec, x),
    "szego": lambda spec, x, arg: asymptotics.szego(spec, x),
    "hf": lambda spec, x, arg: asymptotics.hartwig_fisher(spec, x),
    "hf-leading": lambda spec, x, arg: asymptotics.hf_leading(spec, x),
    "bo": lambda spec, x, arg: asymptotics.borodin_okounkov(spec, x),
    "slavnov": lambda spec, x, arg: asymptotics.slavnov_series(
        spec, x, max_order=arg),
    "ff": lambda spec, x, arg: formfactors.tau_eff_finite(
        spec, 12 if arg is None else arg, x=x),
}


# --------------------------------------------------------------------------
# commands

def cmd_analyze(args) -> int:
    spec = _load_spec(args.spec)
    ana = symbols.analyze(spec)
    radius = asymptotics.base_contour(spec)
    report = {
        "label": spec.label,
        "zeros": [_cell(z) for z in ana.zeros],
        "poles": [{"location": _cell(p), "multiplicity": mult}
                  for p, mult in ana.poles],
        "pole_moduli": sorted(float(m) for m in ana.pole_moduli),
        "winding": ana.winding,
        "z_list": [_cell(z) for z in ana.z_list],
        "w_list": [_cell(w) for w in ana.w_list],
        "contour": {"components": [{"center": [0.0, 0.0], "radius": radius,
                                    "orientation": 1}]},
    }
    _write(args.out, report)
    return 0


def cmd_toeplitz(args) -> int:
    spec = _load_spec(args.spec)
    rows = []
    for x in _parse_xrange(args.x):
        t = toeplitz.toeplitz_det(spec, x)
        rows.append([x, t.real, t.imag])
    _write(args.out, rows, ["x", "re", "im"], args.format)
    return 0


def cmd_fredholm(args) -> int:
    if not 0 < args.tol < math.inf:
        raise errors.InputError(f"--tol {args.tol} is not finite and positive")
    if args.m < 16:
        raise errors.InputError(f"--m {args.m} is below the 16 nodes of a grid")
    spec = _load_spec(args.spec)
    rows = []
    for x in _parse_xrange(args.x):
        if args.kernel == "V" and symbols.winding_number(spec) > 0:
            # tau_eff's structural 0 (empty sector N = L + w): no kernel
            # is built, and no grid gives it an error
            rows.append([x, 0.0, 0.0, 0.0, 0])
            continue
        fredholm.check_grid_cap(x, args.m)
        if args.kernel == "S":
            radius = asymptotics.base_contour(spec)
            kern = fredholm.kernel_S(spec, x)
        else:
            kern, radius = asymptotics.tau_eff_kernel(spec, x)
        res = fredholm.nystrom_det(kern, radius, tol=args.tol,
                                   m_cap=args.m)
        rows.append([x, res.value.real, res.value.imag, res.err_estimate,
                     res.m_used])
    _write(args.out, rows, ["x", "re", "im", "err_estimate", "m_used"],
           args.format)
    return 0


def cmd_ff(args) -> int:
    spec = _load_spec(args.spec)
    xs = _parse_xrange(args.x)
    x = xs[0]
    if xs[-1] != x:     # not len(xs), which overflows past 2^63 values
        raise errors.InputError("ff takes a single x value")
    winding = symbols.winding_number(spec)
    n_sel = args.L + winding if args.N is None else args.N
    value = formfactors.tau_eff_finite(spec, args.L, n_sel, x)
    payload = {"value": _cell(value), "N": n_sel, "winding": winding,
               "terms": math.comb(args.L, n_sel),
               "oracle_gap": abs(value - asymptotics.tau_eff(spec, x))}
    _write(args.out, payload)
    return 0


def _parse_method(text: str):
    """(name, integer argument or None) of a compare method such as
    ``slavnov:2``; InputError for an unknown name or a bad argument."""
    name, _, arg = text.partition(":")
    if name not in ROUTES:
        raise errors.InputError(f"unknown method {text!r}")
    if not arg:
        return name, None
    try:
        number = int(arg)
    except ValueError as exc:
        raise errors.InputError(f"bad argument in method {text!r}") from exc
    if number < 0:
        raise errors.InputError(f"negative argument in method {text!r}")
    return name, number


def cmd_compare(args) -> int:
    spec = _load_spec(args.spec)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    parsed = [_parse_method(m) for m in methods]
    header = ["x"]
    for m in methods:
        header += [m + "_re", m + "_im", m + "_gap"]
    rows = []
    # one suite per circle and one root system per (L, N) serve every route
    # at every x of the range
    with cauchy.SuiteScope():
        for x in _parse_xrange(args.x):
            row = [x]
            try:
                oracle = toeplitz.toeplitz_det(spec, x)
            except errors.DetlabError as exc:
                oracle = f"n/a({type(exc).__name__})"
            for name, number in parsed:
                if name == "toeplitz":  # the oracle column, computed once
                    value = oracle
                else:
                    try:
                        value = ROUTES[name](spec, x, number)
                    except errors.DetlabError as exc:
                        value = f"n/a({type(exc).__name__})"
                if isinstance(value, str):
                    row += [value, value, value]
                else:
                    gap = (oracle if isinstance(oracle, str)
                           else _gap(value, oracle))
                    row += [value.real, value.imag, gap]
            rows.append(row)
    _write(args.out, rows, header, args.format)
    return 0


# --------------------------------------------------------------------------
# verification suite: each check(spec, x) returns its residual

def _pair(route, reference):
    """The check of the gap of ``route`` to ``reference``, both calls
    (spec, x, arg) as ``ROUTES``."""
    return lambda spec, x: _gap(route(spec, x, None), reference(spec, x, None))


def _kernel_split(spec, x):
    suite = cauchy.suite_for(spec)
    lhs = fredholm.nystrom_det(
        fredholm.kernel_sum(
            [fredholm.kernel_V(spec, x, suite.rho)] +
            [fredholm.kernel_W(spec, z, x) for z in suite.zeros_inside()]),
        suite.rho).value
    rhs = fredholm.nystrom_det(fredholm.kernel_S(spec, x), suite.rho).value
    return _gap(lhs, rhs)


def _rank_one(spec, x):
    res = fredholm.rank_one_shift_identity(spec, x)
    return max(res["residual_difference"], res["residual_closed"])


def _rhp_normalization(spec, x):
    measure = orthopoly.MeasureMu(spec, x)
    return orthopoly.RHPSolution(measure).normalization_residual()


def _ff_convergence(spec, x):
    # the gaps at L = 4 and 8 (2.9e-4 and 2.8e-9 on F2 at x = 2) both lie
    # above the rounding floor, which L = 16 already reaches (~1e-15)
    oracle = ROUTES["fredholm_V"](spec, x, None)
    g4, g8 = (abs(ROUTES["ff"](spec, x, L) - oracle) for L in (4, 8))
    if g4 < 1e-12 and g8 < 1e-12:
        return 0.0
    return g8 / g4


def _rows(prefix, tol, check, *cases):
    """The rows ``prefix-F-xX`` of ``check`` on fixture F at x = X, one for
    each (F, X) of ``cases``."""
    return [(f"{prefix}-{name}-x{x}", tol, check, name, x)
            for name, x in cases]


def _verify_checks(seed: int):
    """Yield (name, tolerance, residual_callable) triples, one for each row
    (name, tolerance, check, fixture, x) of the table below, in its order:
    the callable returns check(spec of fixture, x).  One call is one verify
    pass: its callables run inside one ``cauchy.SuiteScope``, which lives
    as long as they do, so the pass builds each suite once, and the checks
    that probe draw from one generator seeded with ``seed`` as they run."""
    rng = np.random.default_rng(seed)
    scope = cauchy.SuiteScope()

    def mdual(spec, x):
        suite = cauchy.suite_for(spec)
        probes = []
        for _ in range(4):
            r = suite.rho * (0.3 + 0.6 * rng.random())
            probes.append(r * np.exp(1j * (2 * np.pi * rng.random(2))))
        k1, k2 = np.transpose(probes)
        return max(map(_gap, *fredholm.m_function(suite, x, k1, k2)))

    def rhp_jump(spec, x):
        sol = orthopoly.RHPSolution(orthopoly.MeasureMu(spec, x))
        probes = np.exp(2j * np.pi * rng.random(4))
        return max(sol.jump_residual(q) for q in probes)

    def christoffel_darboux(spec, x):
        measure = orthopoly.MeasureMu(spec, x)
        worst = 0.0
        for _ in range(3):
            q = 0.8 * (rng.random() + 1j * rng.random())
            k = 0.8 * (rng.random() + 1j * rng.random())
            worst = max(worst, _gap(
                orthopoly.christoffel_darboux(measure, q, k, "sum"),
                orthopoly.christoffel_darboux(measure, q, k, "closed")))
        return worst

    rows = [
        *((f"scalar-jump-{name}", 1e-10,
           lambda spec, x: cauchy.suite_for(spec).jump_residual, name, None)
          for name in ("F1", "F2", "F3", "F4", "F5", "F6", "F7")),
        *_rows("oracle-S", 1e-8,
               _pair(ROUTES["fredholm_S"], ROUTES["toeplitz"]),
               ("F1", 3), ("F3", 5), ("F4", 2), ("F6", 4)),
        *_rows("kernel-split", 1e-8, _kernel_split, ("F4", 3)),
        *_rows("resolvent-inversion", 1e-8, lambda spec, x:
               fredholm.resolvent_residual(cauchy.suite_for(spec), x),
               ("F2", 2), ("F4", 2)),
        *_rows("mdual", 1e-8, mdual, ("F2", 2), ("F4", 3)),
        *_rows("rank-one", 1e-8, _rank_one, ("F2", 2), ("F6", 5)),
        *_rows("hf-exact", 1e-8, _pair(ROUTES["hf"], ROUTES["fredholm_V"]),
               ("F3", 4), ("F5", 3)),
        *_rows("leading-dual", 1e-9, _pair(
            ROUTES["leading"], lambda spec, x, arg:
            asymptotics.tau_leading(spec, x, route="double")),
            ("F1", 4), ("F4", 3)),
        *_rows("hf-leading-dual", 1e-8, _pair(
            ROUTES["hf-leading"], lambda spec, x, arg:
            asymptotics.hf_leading(spec, x, route="reduced")),
            ("F3", 5), ("F5", 4)),
        *_rows("bo", 1e-8, _pair(ROUTES["bo"], ROUTES["toeplitz"]),
               ("F2", 3), ("F6", 5)),
        *_rows("slavnov-sum", 1e-8,
               _pair(ROUTES["slavnov"], ROUTES["toeplitz"]),
               ("F4", 2), ("F4", 4)),
        *_rows("contour-swap", 1e-6, lambda spec, x: _gap(
            *asymptotics.tau_ratio_swap(spec, x, 1.4, 2.2)[:2]), ("F4", 3)),
        ("variational-F2", 1e-4, lambda spec, x: _gap(
            *asymptotics.variational_check(spec, x, -1)), "F2", 2),
        *_rows("rhp-jump", 1e-8, rhp_jump, ("F3", 2)),
        *_rows("rhp-normalization", 1e-8, _rhp_normalization, ("F3", 2)),
        *_rows("hf-moment", 1e-8, orthopoly.hf_moment_equivalence, ("F3", 2)),
        *_rows("rhp-jump", 1e-8, rhp_jump, ("F5", 3)),
        *_rows("rhp-normalization", 1e-8, _rhp_normalization, ("F5", 3)),
        *_rows("hf-moment", 1e-8, orthopoly.hf_moment_equivalence, ("F5", 3)),
        ("christoffel-darboux-F5", 1e-9, christoffel_darboux, "F5", 2),
        ("ff-convergence-F2", 2.0 / 3.0, _ff_convergence, "F2", 2),
    ]

    def scoped(check, name, x):
        def call():
            with scope:
                return check(symbols.fixture(name), x)
        return call

    for name, tol, check, fixture, x in rows:
        yield name, tol, scoped(check, fixture, x)


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise errors.InputError(f"seed {args.seed} is negative")
    results = []
    for name, tol, run in _verify_checks(args.seed):
        if args.only and args.only not in name:
            continue
        start = time.perf_counter()
        try:
            residual, error = float(run()), None
        except errors.DetlabError as exc:
            residual, error = None, f"{type(exc).__name__}: {exc}"
        record = {"name": name, "tolerance": tol, "residual": residual,
                  "pass": residual is not None and residual < tol,
                  "duration_ms": 1e3 * (time.perf_counter() - start)}
        if error:
            record["error"] = error
        results.append(record)
    if not results:
        raise errors.InputError(f"no check matches --only {args.only!r}")
    failed = [r["name"] for r in results if not r["pass"]]
    report = {"checks": results, "passed": not failed, "failed": failed}
    _write(args.out, report)
    if failed:
        sys.stderr.write("FAILED: " + ", ".join(failed) + "\n")
        return 1
    return 0


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detlab",
        description="Determinants of deformed circular symbols: exact "
                    "oracles, Fredholm kernels, and asymptotic ladders.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, x_default="1..6"):
        p.add_argument("--spec", required=True,
                       help="symbol JSON file or fixture name (F0..F7)")
        p.add_argument("--x", default=x_default, help="x value or range A..B")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("analyze", help="zeros, poles, winding, contour")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("toeplitz", help="exact moment determinants")
    common(p)
    p.set_defaults(func=cmd_toeplitz)

    p = sub.add_parser("fredholm", help="Nystrom determinants")
    common(p)
    p.add_argument("--kernel", choices=("S", "V"), default="S")
    p.add_argument("--m", type=int, default=fredholm.M_CAP,
                   help="cap on the nodes of one grid on the contour; a "
                        "kernel that needs more raises NotConverged "
                        "(exit 3)")
    p.add_argument("--tol", type=float, default=fredholm.TOL)
    p.set_defaults(func=cmd_fredholm)

    p = sub.add_parser("ff", help="finite-size overlap series")
    common(p, x_default="2")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--N", type=int, default=None,
                   help="number of shifted roots (default L + winding)")
    p.set_defaults(func=cmd_ff)

    p = sub.add_parser("compare", help="side-by-side table vs the oracle")
    common(p)
    p.add_argument("--methods", required=True,
                   help="comma list, e.g. toeplitz,szego,bo,slavnov:2,ff:8")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--only", default=None, help="substring filter on checks")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except errors.NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

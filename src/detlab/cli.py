"""Command-line interface: analysis, determinants, asymptotic tables,
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


def _parse_xrange(text: str):
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError as exc:
        raise errors.InputError(f"bad x value or range {text!r}") from exc
    if not 0 <= lo <= hi:
        raise errors.InputError(f"x range {text!r} is empty or negative")
    return list(range(lo, hi + 1))


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return FMT.format(value.real) + "," + FMT.format(value.imag)
    return FMT.format(float(value))


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return float(value)


def _rows_to_json(header, rows) -> str:
    payload = [{h: _json_cell(v) for h, v in zip(header, row)}
               for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table(header, rows, fmt: str, out: str | None):
    if fmt == "json":
        _emit(_rows_to_json(header, rows), out)
    else:
        _emit(_rows_to_csv(header, rows), out)


def _gap(value, reference) -> float:
    """Relative gap of value to reference; the floor keeps it finite."""
    return abs(value - reference) / max(abs(reference), 1e-300)


# --------------------------------------------------------------------------
# routes: every name that asym, compare and verify accept, each a call
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
    contour = asymptotics.base_contour(spec)
    report = {
        "label": spec.label,
        "zeros": [_json_cell(z) for z in ana.zeros],
        "poles": [{"location": _json_cell(p), "multiplicity": mult}
                  for p, mult in ana.poles],
        "pole_moduli": sorted(float(m) for m in ana.pole_moduli),
        "winding": ana.winding,
        "z_list": [_json_cell(z) for z in ana.z_list],
        "w_list": [_json_cell(w) for w in ana.w_list],
        "contour": contour.to_json_dict(),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_toeplitz(args) -> int:
    spec = _load_spec(args.spec)
    rows = []
    for x in _parse_xrange(args.x):
        t = toeplitz.toeplitz_det(spec, x)
        rows.append([x, t.real, t.imag])
    _table(["x", "re", "im"], rows, args.format, args.out)
    return 0


def cmd_fredholm(args) -> int:
    if not 0 < args.tol < math.inf:
        raise errors.InputError(f"--tol {args.tol} is not finite and positive")
    spec = _load_spec(args.spec)
    rows = []
    for x in _parse_xrange(args.x):
        if args.kernel == "S":
            contour = asymptotics.base_contour(spec)
            kern = fredholm.kernel_S(spec, x)
        else:
            kern, contour = asymptotics.tau_eff_kernel(spec, x)
        res = fredholm.nystrom_det(kern, contour, tol=args.tol,
                                   m_cap=args.m)
        rows.append([x, res.value.real, res.value.imag, res.err_estimate,
                     res.m_used])
    _table(["x", "re", "im", "err_estimate", "m_used"], rows, args.format,
           args.out)
    return 0


def cmd_asym(args) -> int:
    spec = _load_spec(args.spec)
    route = ROUTES[args.method]
    rows = []
    for x in _parse_xrange(args.x):
        value = route(spec, x, args.order)
        oracle = toeplitz.toeplitz_det(spec, x)
        rows.append([x, value.real, value.imag, abs(value - oracle)])
    _table(["x", "re", "im", "abs_err_vs_oracle"], rows, args.format,
           args.out)
    return 0


def cmd_ff(args) -> int:
    spec = _load_spec(args.spec)
    x, *more = _parse_xrange(args.x)
    if more:
        raise errors.InputError("ff takes a single x value")
    winding = symbols.winding_number(spec)
    n_sel = args.L + winding if args.N is None else args.N
    value = formfactors.tau_eff_finite(spec, args.L, n_sel, x)
    payload = {"value": _json_cell(value), "N": n_sel, "winding": winding,
               "terms": math.comb(args.L, n_sel),
               "oracle_gap": abs(value - asymptotics.tau_eff(spec, x))}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
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
    for x in _parse_xrange(args.x):
        oracle = toeplitz.toeplitz_det(spec, x)
        row = [x]
        for name, number in parsed:
            try:
                value = ROUTES[name](spec, x, number)
                row += [value.real, value.imag, _gap(value, oracle)]
            except errors.DetlabError as exc:
                reason = f"n/a({type(exc).__name__})"
                row += [reason, reason, reason]
        rows.append(row)
    _table(header, rows, args.format, args.out)
    return 0


# --------------------------------------------------------------------------
# verification suite

def _verify_checks(seed: int):
    """Yield (name, tolerance, residual_callable) triples."""
    rng = np.random.default_rng(seed)

    def jump_check(name):
        def run():
            spec = symbols.fixture(name)
            return cauchy.CauchySuite(spec, 2).jump_residual
        return run

    for name in ("F1", "F2", "F3", "F4", "F5", "F6", "F7"):
        yield f"scalar-jump-{name}", 1e-10, jump_check(name)

    def pair_checks(prefix, tol, route, reference, cases):
        """Checks ``prefix-name-xX``: the gap of ``route`` to ``reference``,
        both calls (spec, x, arg), for each fixture name and order x of
        ``cases``."""
        def check(name, x):
            def run():
                spec = symbols.fixture(name)
                return _gap(route(spec, x, None), reference(spec, x, None))
            return run

        for name, x in cases:
            yield f"{prefix}-{name}-x{x}", tol, check(name, x)

    yield from pair_checks("oracle-S", 1e-8, ROUTES["fredholm_S"],
                           ROUTES["toeplitz"],
                           (("F1", 3), ("F3", 5), ("F4", 2), ("F6", 4)))

    def split_check():
        spec = symbols.fixture("F4")
        suite = cauchy.CauchySuite(spec, 3)
        lhs = fredholm.nystrom_det(
            fredholm.SumKernel(
                [fredholm.kernel_V(suite)] +
                [fredholm.kernel_W(spec, z, 3)
                 for z in suite.zeros_inside()],
                "V-Delta"),
            suite.contour).value
        rhs = fredholm.nystrom_det(fredholm.kernel_S(spec, 3),
                                   suite.contour).value
        return _gap(lhs, rhs)

    yield "kernel-split-F4-x3", 1e-8, split_check

    def inversion_check(name, x):
        def run():
            spec = symbols.fixture(name)
            return fredholm.resolvent_residual(cauchy.CauchySuite(spec, x))
        return run

    for name, x in (("F2", 2), ("F4", 2)):
        yield f"resolvent-inversion-{name}-x{x}", 1e-8, inversion_check(name, x)

    def mdual_check(name, x):
        def run():
            spec = symbols.fixture(name)
            suite = cauchy.CauchySuite(spec, x)
            worst = 0.0
            for _ in range(4):
                r = suite.rho * (0.3 + 0.6 * rng.random())
                ang = 2 * np.pi * rng.random(2)
                k1, k2 = r * np.exp(1j * ang)
                worst = max(worst, _gap(*fredholm.m_function(suite, k1, k2)))
            return worst
        return run

    for name, x in (("F2", 2), ("F4", 3)):
        yield f"mdual-{name}-x{x}", 1e-8, mdual_check(name, x)

    def rank_one_check(name, x):
        def run():
            res = fredholm.rank_one_shift_identity(symbols.fixture(name), x)
            return max(res["residual_difference"], res["residual_closed"])
        return run

    for name, x in (("F2", 2), ("F6", 5)):
        yield f"rank-one-{name}-x{x}", 1e-8, rank_one_check(name, x)

    yield from pair_checks("hf-exact", 1e-8, ROUTES["hf"],
                           ROUTES["fredholm_V"], (("F3", 4), ("F5", 3)))
    yield from pair_checks(
        "leading-dual", 1e-9, ROUTES["leading"],
        lambda spec, x, arg: asymptotics.tau_leading(spec, x, route="double"),
        (("F1", 4), ("F4", 3)))
    yield from pair_checks(
        "hf-leading-dual", 1e-8, ROUTES["hf-leading"],
        lambda spec, x, arg: asymptotics.hf_leading(spec, x, route="reduced"),
        (("F3", 5), ("F5", 4)))
    yield from pair_checks("bo", 1e-8, ROUTES["bo"], ROUTES["toeplitz"],
                           (("F2", 3), ("F6", 5)))
    yield from pair_checks("slavnov-sum", 1e-8, ROUTES["slavnov"],
                           ROUTES["toeplitz"], (("F4", 2), ("F4", 4)))

    def swap_check():
        spec = symbols.fixture("F4")
        return _gap(*asymptotics.tau_ratio_swap(spec, 3, 1.4, 2.2))

    yield "contour-swap-F4-x3", 1e-6, swap_check

    def variational_fn():
        spec = symbols.fixture("F2")
        return _gap(*asymptotics.variational_check(spec, 2, -1))

    yield "variational-F2", 1e-4, variational_fn

    def ortho_checks(name, x):
        def jump():
            sol = orthopoly.RHPSolution(orthopoly.MeasureMu(
                symbols.fixture(name), x))
            probes = np.exp(2j * np.pi * rng.random(4))
            return max(sol.jump_residual(q) for q in probes)

        def norm():
            sol = orthopoly.RHPSolution(orthopoly.MeasureMu(
                symbols.fixture(name), x))
            return sol.normalization_residual()

        def hfm():
            return orthopoly.hf_moment_equivalence(symbols.fixture(name), x)

        return jump, norm, hfm

    for name, x in (("F3", 2), ("F5", 3)):
        jump, norm, hfm = ortho_checks(name, x)
        yield f"rhp-jump-{name}-x{x}", 1e-8, jump
        yield f"rhp-normalization-{name}-x{x}", 1e-8, norm
        yield f"hf-moment-{name}-x{x}", 1e-8, hfm

    def cd_check():
        measure = orthopoly.MeasureMu(symbols.fixture("F5"), 2)
        worst = 0.0
        for _ in range(3):
            q = 0.8 * (rng.random() + 1j * rng.random())
            k = 0.8 * (rng.random() + 1j * rng.random())
            worst = max(worst, _gap(
                orthopoly.christoffel_darboux(measure, q, k, "sum"),
                orthopoly.christoffel_darboux(measure, q, k, "closed")))
        return worst

    yield "christoffel-darboux-F5", 1e-9, cd_check

    def ff_check():
        spec = symbols.fixture("F2")
        oracle = ROUTES["fredholm_V"](spec, 2, None)
        g8 = abs(ROUTES["ff"](spec, 2, 8) - oracle)
        g16 = abs(ROUTES["ff"](spec, 2, 16) - oracle)
        if g8 < 1e-12 and g16 < 1e-12:
            return 0.0
        return g16 / g8

    yield "ff-convergence-F2", 2.0 / 3.0, ff_check


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise errors.InputError(f"seed {args.seed} is negative")
    results = []
    for name, tol, run in _verify_checks(args.seed):
        if args.only and args.only not in name:
            continue
        try:
            residual, error = float(run()), None
        except errors.DetlabError as exc:
            residual, error = None, f"{type(exc).__name__}: {exc}"
        record = {"name": name, "tolerance": tol, "residual": residual,
                  "pass": residual is not None and residual < tol}
        if error:
            record["error"] = error
        results.append(record)
    if not results:
        raise errors.InputError(f"no check matches --only {args.only!r}")
    failed = [r["name"] for r in results if not r["pass"]]
    report = {"checks": results, "passed": not failed, "failed": failed}
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
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
                   help="cap on nodes per contour component; the first grid "
                        "has x + 32 nodes and the margin over x doubles")
    p.add_argument("--tol", type=float, default=fredholm.TOL)
    p.set_defaults(func=cmd_fredholm)

    p = sub.add_parser("asym", help="asymptotic/exact formula ladder")
    common(p)
    p.add_argument("--method", required=True, choices=tuple(ROUTES))
    p.add_argument("--order", type=int, default=None,
                   help="the method's argument: correction order of slavnov, "
                        "grid size of ff")
    p.set_defaults(func=cmd_asym)

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

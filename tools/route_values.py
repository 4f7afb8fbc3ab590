"""Dump every route value and verification residual, exactly, for diffing.

    python3 tools/route_values.py > values.txt

Sets one BLAS thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS``) before numpy is imported, as ``perfbench/run.py``
does: LAPACK's results can round differently with more threads, so two
runs compare their trees alone only at one count.  Imports ``detlab`` from
the ``src`` of the checkout the script sits in, and exits with an error if
it gets it from anywhere else, so two checkouts' outputs compare the two
trees whatever ``PYTHONPATH`` says.

Writes one line per value: every ``cli.ROUTES`` route on the fixtures
F0-F7 at x in {1, 2, 3, 6, 16, 40}, and ``toeplitz`` on them at x = 33,
64, 128, 256 and 512 and at either side of ``toeplitz.LEVINSON_MIN``, each
with the path it took: "levinson" for the recursion, "lu" for a dense LU of
the whole order and "blocks=n" for n LUs of smaller blocks, in the order
they ran, then the Nystrom ladder (``DetResult.grids``, each
with its ``err_estimate``) of ``fredholm_S`` and of ``tau_eff_kernel`` on
the same fixtures and x, and both ladders with their values on F1 and F4
at x = 512, every ladder with the path each of its grids' determinants
took, beside its node count: "lemma R=k" for the complementary side of
Jacobi's identity (the determinant lemma) on k columns, "direct r=k" for its
direct side on k columns and "lu" for the dense LU, and every
``tau_eff_kernel`` ladder led by the form of V that served, "residue k" over
k zeros or "split N" with N tail modes kept; then the reach of
``kernel_S``, of ``tau_eff_kernel`` (labelled with its form of V) and of
``kernel_W`` at each zero inside the base contour on the same fixtures and
x, each its ``modes`` and ``folds(n)`` at n = 2a, 4a and 8a, or None
where the reach reads samples, a its modes (at least 1, doubled while
x + a < 16), read only through
``kernel.reach(radius)``, then every
``detlab verify`` residual at seeds 0, 3 and 9, at seed 0 with the grids,
paths and ``err_estimate`` of every Nystrom ladder the check runs, then
``formfactors.tau_eff_finite`` at x = 2 for F1 and F2 at N = L, L in
{64, 256, 1024, 2048}, F2 at L = 1023 and 4096 and F6 at L = 256, 1024
and 2048 (each rung of the N = L pair sum's torus ladder, an odd L and
the hand-back to the exact sum), and for F2 and F6 at (L, N) = (16, 6).  Numbers
are written as ``repr``, so two checkouts compute bit-identical values, and
try the same grids, exactly when ``diff`` of their outputs is empty; a
route that raises writes its error type and message instead.  Last come the
rows of ``detlab compare --spec F4 --x 1..32`` over every route, as the CLI
prints them (17 significant digits), which run inside compare's suite scope.
Then the off-grid evaluations: on each fixture's own-circle and unit-circle
``CauchySuite``, Omega_gt(0) and, at each zero of phi, the Omega_gt (zero
inside the circle) or Omega_lt (outside) that its residue weight reads; and
phi, phi' and nu of F2 and of F5 exp(0.3 q + 0.2/q + 0.05i q^2) at a few
scalar points.  Then the orthogonal-polynomial values of F3 and F5 at
x = 2 and 5: every Gram determinant, every monic polynomial's coefficients
and norm, both Christoffel-Darboux routes at an off-diagonal and a diagonal
probe pair, the moment equivalence and the boundary problem's normalization
residual; the Toeplitz moment vectors of F1 and F4 at x = 3 and 40; then
on the wide-band symbol exp(sum_{|j| <= 300} 0.4 0.9^|j| q^j), whose
moments and theta take more nodes than any first grid, ``toeplitz`` and
``bo`` at x = 4, 8 and 16 and theta's Laurent bandwidth on the unit circle
(the ``modes`` of ``kernel_S``'s reach at x = 0); and last the output,
byte for byte with its exit code and error line, of ``toeplitz``,
``fredholm --kernel S`` and ``--kernel V`` (CSV and JSON), ``ff --L 12``
and ``analyze`` on F3, F4 and F7.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import sys
from pathlib import Path
from unittest import mock

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import detlab  # noqa: E402
from detlab import (  # noqa: E402
    asymptotics, cauchy, cli, errors, formfactors, fredholm, orthopoly,
    symbols, toeplitz)

if Path(detlab.__file__).resolve().parent != SRC / "detlab":
    raise SystemExit(f"detlab imported from {detlab.__file__}, not {SRC}")

X_VALUES = (1, 2, 3, 6, 16, 40)
TOEPLITZ_X = (33, 64, 128, toeplitz.LEVINSON_MIN - 1, toeplitz.LEVINSON_MIN,
              256, 512)
SEEDS = (0, 3, 9)
FINITE_X = 2
FINITE_CASES = ([(name, L, L) for name in ("F1", "F2")
                 for L in (64, 256, 1024, 2048)] +
                [("F2", L, L) for L in (1023, 4096)] +
                [("F6", L, L) for L in (256, 1024, 2048)] +
                [("F2", 16, 6), ("F6", 16, 6)])
COMPARE = ("compare", "--spec", "F4", "--x", "1..32",
           "--methods", ",".join(cli.ROUTES))
POINTS = (0.5 + 0.3j, 0.2 - 1.2j, 1.7 + 0j, 1.35 + 2.1j)
EXPONENT = {1: 0.3, -1: 0.2, 2: 0.05j}
ORTHO_CASES = [(name, x) for name in ("F3", "F5") for x in (2, 5)]
CD_PROBES = ((0.3 + 0.2j, -0.4 + 0.5j), (0.6 - 0.1j, 0.6 - 0.1j))
MOMENT_CASES = [(name, x) for name in ("F1", "F4") for x in (3, 40)]
WIDE_BAND = symbols.SymbolSpec(
    log_coeffs={j: 0.4 * 0.9 ** abs(j) for j in range(-300, 301)})
WIDE_BAND_X = (4, 8, 16)
VALUE_CASES = [(name, 512) for name in ("F1", "F4")]
CLI_COMMANDS = [(*command, "--format", fmt)
                for command in (("toeplitz",), ("fredholm", "--kernel", "S"),
                                ("fredholm", "--kernel", "V"))
                for fmt in ("csv", "json")] + [("ff", "--L", "12"),
                                               ("analyze",)]


def tau_eff_form(spec, x):
    """``asymptotics.tau_eff_kernel(spec, x)`` as (kernel, radius, form),
    form the V that served: "residue k" over k zeros, or "split N" with N
    tail modes kept; either has rank x + k or x + N on the direct side."""
    with mock.patch.object(asymptotics, "kernel_V_residue",
                           wraps=asymptotics.kernel_V_residue) as residue:
        kernel, radius = asymptotics.tau_eff_kernel(spec, x)
    form = "residue" if residue.called else "split"
    return kernel, radius, f"{form} {kernel.rank - kernel.x}"


LADDERS = {
    "fredholm_S": lambda spec, x: (fredholm.kernel_S(spec, x),
                                   asymptotics.base_contour(spec), None),
    "tau_eff_kernel": tau_eff_form,
}


def outcome(call) -> str:
    try:
        return repr(call())
    except errors.DetlabError as exc:
        return f"{type(exc).__name__}: {exc}"


def toeplitz_path(spec, x):
    """(outcome, path) of ``toeplitz_det(spec, x)``, the path read from the
    calls it made to ``_levinson_log_det`` and ``np.linalg.slogdet``."""
    steps = []
    levinson, slogdet = toeplitz._levinson_log_det, np.linalg.slogdet

    def recorded_levinson(moments):
        steps.append("levinson")
        return levinson(moments)

    def recorded_slogdet(a):
        steps.append("lu" if len(a) == x else "block")
        return slogdet(a)

    toeplitz._levinson_log_det = recorded_levinson
    np.linalg.slogdet = recorded_slogdet
    try:
        value = outcome(lambda: toeplitz.toeplitz_det(spec, x))
    finally:
        toeplitz._levinson_log_det, np.linalg.slogdet = levinson, slogdet
    path = []
    for step, run in itertools.groupby(steps):
        run = list(run)
        path += [f"blocks={len(run)}"] if step == "block" else run
    return value, "+".join(path)


def reach_line(kernel, radius):
    """(modes, folds at n = 2a, 4a, 8a or None) of the kernel's reach on the
    circle of ``radius``, a its modes at least 1, doubled while the grid
    x + a has fewer than 16 nodes: ``nystrom_det``'s first margin wherever
    the modes are at most ``fredholm.M_START``."""
    modes, folds = kernel.reach(radius)
    a = max(1, modes)
    while kernel.x + a < 16:
        a *= 2
    return modes, folds and tuple(folds(n * a) for n in (2, 4, 8))


def reach_kernels(spec, x):
    """(label, kernel, radius) for every kernel whose reach is written."""
    radius = asymptotics.base_contour(spec)
    inside = [z for z in symbols.analyze(spec).zeros if abs(z) < radius]
    kernel, circle, form = tau_eff_form(spec, x)
    return [("kernel_S", fredholm.kernel_S(spec, x), radius),
            (f"tau_eff_kernel[{form}]", kernel, circle)] + \
        [(f"kernel_W({z!r})", fredholm.kernel_W(spec, z, x), radius)
         for z in inside]


@contextlib.contextmanager
def recorded_paths():
    """Yields a list that collects "m:path" for every grid of m nodes whose
    determinant ``fredholm._grid_det`` takes inside the block: "lemma R=k"
    where ``_lemma_det`` returned the value from k columns, "direct r=k"
    where ``_jacobi_det`` took the direct side, else "lu"."""
    paths, taken = [], []
    real = fredholm._grid_det, fredholm._lemma_det, fredholm._jacobi_det

    def grid_det(kernel, nodes, weights):
        taken.clear()
        det = real[0](kernel, nodes, weights)
        paths.append(f"{nodes.size}:{taken[-1] if taken else 'lu'}")
        return det

    def lemma(delta, cap):
        det = real[1](delta, cap)
        if det is not None:
            taken.append(f"lemma R={len(cap)}")
        return det

    def jacobi(form):
        if form.delta is None:
            taken.append(f"direct r={form.powers.size + len(form.cols)}")
        return real[2](form)

    fredholm._grid_det, fredholm._lemma_det, fredholm._jacobi_det = \
        grid_det, lemma, jacobi
    try:
        yield paths
    finally:
        fredholm._grid_det, fredholm._lemma_det, fredholm._jacobi_det = real


def ladder_and_value(kernel, radius, form):
    """(form, if any, then) the ladder's grids, err_estimate, value and
    grid paths."""
    with recorded_paths() as paths:
        res = fredholm.nystrom_det(kernel, radius)
    return (*([form] if form else []), res.grids, res.err_estimate,
            res.value, ",".join(paths))


def ladder_and_path(kernel, radius, form):
    *head, _, path = ladder_and_value(kernel, radius, form)
    return (*head, path)


@contextlib.contextmanager
def recorded_ladders():
    """Yields a list that collects the ``grids``, ``err_estimate`` and grid
    paths (``recorded_paths``) of every ``nystrom_det`` call made inside
    the block, through any module's alias of it."""
    real, ladders = fredholm.nystrom_det, []

    def recorded(*args, **kwargs):
        with recorded_paths() as paths:
            res = real(*args, **kwargs)
        ladders.append((res.grids, res.err_estimate, ",".join(paths)))
        return res

    aliases = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "detlab"
               and getattr(module, "nystrom_det", None) is real]
    for module in aliases:
        module.nystrom_det = recorded
    try:
        yield ladders
    finally:
        for module in aliases:
            module.nystrom_det = real


def gram_det(measure, k):
    """Determinant of the k x k matrix of moments mu_{i+j}, from its log
    (``MeasureMu.gram_log_det``) and the sign of its row reversal."""
    return (-1) ** (k * (k - 1) // 2) * errors.exp_in_range(
        measure.gram_log_det(k))


def monic(measure, k):
    coeffs, norm = orthopoly.monic_orthogonal(measure, k)
    return coeffs.tolist(), norm


def run_cli(argv):
    """(exit code, stdout and stderr) of one ``detlab`` command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout):
        with contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    return code, stdout.getvalue() + stderr.getvalue()


def main(out=sys.stdout) -> None:
    for name in symbols.FIXTURE_NAMES:
        spec = symbols.fixture(name)
        for route, call in cli.ROUTES.items():
            for x in X_VALUES:
                value = outcome(lambda: call(spec, x, None))
                out.write(f"route {name} {route} x={x} {value}\n")
        for x in TOEPLITZ_X:
            value, path = toeplitz_path(spec, x)
            out.write(f"route {name} toeplitz x={x} {value} path={path}\n")
    for name in symbols.FIXTURE_NAMES:
        spec = symbols.fixture(name)
        for kernel, build in LADDERS.items():
            for x in X_VALUES:
                grids = outcome(lambda: ladder_and_path(*build(spec, x)))
                out.write(f"ladder {name} {kernel} x={x} {grids}\n")
    for name, x in VALUE_CASES:
        spec = symbols.fixture(name)
        for kernel, build in LADDERS.items():
            value = outcome(lambda: ladder_and_value(*build(spec, x)))
            out.write(f"ladder {name} {kernel} x={x} {value}\n")
    for name in symbols.FIXTURE_NAMES:
        spec = symbols.fixture(name)
        for x in X_VALUES:
            try:
                kernels = reach_kernels(spec, x)
            except errors.DetlabError as exc:
                out.write(f"reach {name} x={x} {type(exc).__name__}: "
                          f"{exc}\n")
                continue
            for label, kernel, radius in kernels:
                value = outcome(lambda: reach_line(kernel, radius))
                out.write(f"reach {name} {label} x={x} {value}\n")
    for seed in SEEDS:
        for check, _, run in cli._verify_checks(seed):
            with recorded_ladders() as ladders:
                value = outcome(run)
            out.write(f"verify seed={seed} {check} {value}\n")
            if seed == SEEDS[0] and ladders:
                out.write(f"verify seed={seed} {check} ladders "
                          f"{tuple(ladders)}\n")
    for name, L, N in FINITE_CASES:
        value = outcome(lambda: formfactors.tau_eff_finite(
            symbols.fixture(name), L, N, FINITE_X))
        out.write(f"ff {name} L={L} N={N} x={FINITE_X} {value}\n")
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        cli.main(list(COMPARE))
    for row in table.getvalue().splitlines():
        out.write(f"compare F4 {row}\n")
    for name in symbols.FIXTURE_NAMES:
        spec = symbols.fixture(name)
        for circle, unit in (("own", False), ("unit", True)):
            try:
                suite = cauchy.CauchySuite(spec, unit=unit)
            except errors.DetlabError as exc:
                out.write(f"omega {name} {circle} {type(exc).__name__}: "
                          f"{exc}\n")
                continue
            value = outcome(lambda: suite.Omega_gt(0.0))
            out.write(f"omega {name} {circle} Omega_gt(0) {value}\n")
            for z in symbols.analyze(spec).zeros:
                side = "Omega_gt" if abs(z) < suite.rho else "Omega_lt"
                value = outcome(lambda: getattr(suite, side)(z))
                out.write(f"omega {name} {circle} {side}({z!r}) {value}\n")
    f5 = symbols.fixture("F5")
    mixed = symbols.SymbolSpec(numer=f5.numer, denom=f5.denom,
                               log_coeffs=EXPONENT)
    for name, spec in (("F2", symbols.fixture("F2")), ("F5*exp", mixed)):
        for q in POINTS:
            for label, value in (
                    ("phi", lambda: symbols.eval_phi(spec, q)),
                    ("dphi", lambda: symbols.eval_dphi(spec, q)),
                    ("nu", lambda: symbols.eval_nu_grid(spec, np.array([q])))):
                out.write(f"symbol {name} {label}({q!r}) {outcome(value)}\n")
    for name, x in ORTHO_CASES:
        spec = symbols.fixture(name)
        measure = orthopoly.MeasureMu(spec, x)
        head = f"orthopoly {name} x={x}"
        for k in range(1, measure.n + 1):
            value = outcome(lambda: gram_det(measure, k))
            out.write(f"{head} gram_det({k}) {value}\n")
        for k in range(measure.n + 1):
            value = outcome(lambda: monic(measure, k))
            out.write(f"{head} monic({k}) {value}\n")
        for q, k in CD_PROBES:
            for route in ("sum", "closed"):
                value = outcome(lambda: orthopoly.christoffel_darboux(
                    measure, q, k, route))
                out.write(f"{head} cd_{route}({q!r}, {k!r}) {value}\n")
        value = outcome(lambda: orthopoly.hf_moment_equivalence(spec, x))
        out.write(f"{head} hf_moment_equivalence {value}\n")
        value = outcome(
            lambda: orthopoly.RHPSolution(measure).normalization_residual())
        out.write(f"{head} normalization_residual {value}\n")
    for name, x in MOMENT_CASES:
        value = outcome(
            lambda: toeplitz.moment_table(symbols.fixture(name), x).tolist())
        out.write(f"moments {name} x={x} {value}\n")
    for route in ("toeplitz", "bo"):
        for x in WIDE_BAND_X:
            value = outcome(lambda: cli.ROUTES[route](WIDE_BAND, x, None))
            out.write(f"wide-band {route} x={x} {value}\n")
    value = outcome(
        lambda: fredholm.kernel_S(WIDE_BAND, 0).reach(1.0).modes)
    out.write(f"wide-band theta_reach radius=1.0 {value}\n")
    for name in ("F3", "F4", "F7"):
        for command in CLI_COMMANDS:
            argv = (*command, "--spec", name)
            code, text = run_cli(argv)
            for line in text.splitlines():
                out.write(f"cli {' '.join(argv)} exit={code} | {line}\n")


if __name__ == "__main__":
    main()

"""Seeded inputs, operations and cross-route checks of the three workloads.

A workload is a fixed list of operations (one library call each) run as a
closed loop: one caller, each call starting after the previous one returned.
Every result is checked against an independent route after the pass, so the
check costs nothing inside the timed calls.  The library receives only the
generated inputs; the seed never reaches it except as the ``verify`` suite's
own probe seed, which is how ``detlab verify --seed S`` draws its probes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from detlab import asymptotics, cli, formfactors, fredholm, symbols, toeplitz

X_GRID = tuple(2 ** k for k in range(1, 11))        # 2, 4, ..., 1024
XSWEEP_TOL = 1e-6       # relative gap between two routes to the same value
FINITE_REF_TOL = 1e-10  # subset sums against the recorded enumeration
FINITE_LADDER_TOL = 1e-8  # N = L sums against the unit-circle determinant
DIGITS_CAP = 16.0

HERE = os.path.dirname(os.path.abspath(__file__))
FINITE_REFERENCE = os.path.join(HERE, "finite_size_reference.json")


@dataclass
class Op:
    """One library call of a workload pass."""

    id: str
    symbol: str
    route: str
    params: dict
    call: Callable[[], object] = field(repr=False)


@dataclass
class Result:
    """Outcome of one call; ``reason`` is None exactly when the op passed."""

    op: Op
    seconds: float
    raw_seconds: float | None = None
    value: object = None
    m_used: int | None = None
    error: str | None = None
    gap: float | None = None
    partner: str | None = None
    reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.reason is None

    @property
    def digits(self) -> float | None:
        """-log10 of the relative gap to the independent route, capped."""
        if not self.passed or self.gap is None:
            return None
        if self.gap <= 10.0 ** -DIGITS_CAP:
            return DIGITS_CAP
        return min(DIGITS_CAP, -math.log10(self.gap))


def run_op(op: Op, clock) -> Result:
    """Call one op, classifying anything it raises as a failure of that op."""
    t0 = clock()
    try:
        value = op.call()
        error = None
    except Exception as exc:  # the loop must go on; the op is recorded failed
        value, error = None, f"{type(exc).__name__}: {exc}"
    seconds = clock() - t0
    res = Result(op, seconds, error=error)
    if isinstance(value, fredholm.DetResult):
        res.m_used = value.m_used
        value = value.value
    res.value = value
    return res


def _finite(value) -> bool:
    return value is not None and bool(np.isfinite(complex(value)))


def _relgap(a, b) -> float:
    a, b = complex(a), complex(b)
    return abs(a - b) / max(abs(b), 1e-300)


def _classify(res: Result):
    """Raised or non-finite results fail before any comparison."""
    if res.error is not None:
        res.reason = "raised " + res.error.split(":", 1)[0]
        return False
    if not _finite(res.value):
        res.reason = "non-finite value"
        return False
    return True


def _compare(res: Result, ref, partner: str, tol: float):
    res.partner = partner
    res.gap = _relgap(res.value, ref)
    if not res.gap <= tol:
        res.reason = f"gap {res.gap:.1e} over tolerance {tol:.0e} vs {partner}"


class Workload:
    name = ""

    def ops(self) -> list[Op]:
        """The op list of one pass, in call order."""
        raise NotImplementedError

    def check(self, results: list[Result]) -> None:
        """Fill ``gap``, ``partner`` and ``reason`` of every result."""
        raise NotImplementedError


# --- verify -------------------------------------------------------------------

# checks whose residual is a convergence ratio rather than a gap between routes
NOT_A_GAP = ("ff-convergence-F2",)


class Verify(Workload):
    """The invariant suite of ``detlab verify --seed S``, one op per check."""

    name = "verify"

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self):
        # a fresh generator per pass: its rng is drawn inside the checks, so
        # running them in suite order reproduces the CLI's probes every pass
        return [Op(name, "suite", name, {"tol": tol}, run)
                for name, tol, run in cli._verify_checks(self.seed)]

    def check(self, results):
        for res in results:
            if not _classify(res):
                continue
            residual = float(abs(res.value))
            tol = res.op.params["tol"]
            res.gap = None if res.op.id in NOT_A_GAP else residual
            res.partner = "suite"
            if not residual < tol:
                res.reason = f"residual {residual:.1e} over tolerance {tol:.0e}"


# --- xsweep -------------------------------------------------------------------

def _rational(zeros, pole_order: int, label: str) -> symbols.SymbolSpec:
    """phi(q) = prod (q - z) / q**pole_order."""
    numer = np.polynomial.polynomial.polyfromroots(zeros)
    denom = [0.0] * pole_order + [1.0]
    return symbols.SymbolSpec("rational", tuple(numer), tuple(denom),
                              label=label)


def _draw_zero(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random()))


def random_symbols(seed: int) -> dict:
    """Two rational symbols drawn from the seed, zero moduli well apart.

    R0: zero winding, one zero inside and one outside the unit circle.
    R1: winding -1, like F4: one zero inside, an excluded zero outside and
        a further outside zero beyond it.

    The moduli bands keep each route's pass/fail boundary on the x grid, and
    the node count each route converges at, the same for every seed; R1's
    bands sit where toeplitz_det passes at x = 32 with more digits than F4
    at x = 64 and fails from x = 64 on.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    r0 = _rational([_draw_zero(rng, 0.36, 0.42), _draw_zero(rng, 2.3, 2.5)],
                   1, "R0")
    r1 = _rational([_draw_zero(rng, 0.25, 0.4), _draw_zero(rng, 1.6, 1.7),
                    _draw_zero(rng, 2.5, 2.8)], 2, "R1")
    return {"R0": r0, "R1": r1}


ROUTES = {
    "toeplitz": lambda s, x: toeplitz.toeplitz_det(s, x),
    "nystrom_S": lambda s, x: fredholm.nystrom_det(
        fredholm.kernel_S(s, x), asymptotics.base_contour(s)),
    "tau_eff": lambda s, x: asymptotics.tau_eff(s, x),
    "szego": lambda s, x: asymptotics.szego(s, x),
    "slavnov_series": lambda s, x: asymptotics.slavnov_series(s, x),
    "hartwig_fisher": lambda s, x: asymptotics.hartwig_fisher(s, x),
}

# Routes grouped by the value they compute, most trusted first.  The Toeplitz
# determinant and the unit-circle det(1 + V) coincide only for F1, which has
# no zeros; elsewhere they differ by the zeros left outside the unit circle.
FAMILIES = {
    "F1": (("szego", "nystrom_S", "toeplitz", "tau_eff"),),
    "R0": (("nystrom_S", "toeplitz"), ("szego", "tau_eff")),
    "F3": (("nystrom_S", "toeplitz"), ("hartwig_fisher", "tau_eff")),
    "F4": (("slavnov_series", "nystrom_S", "toeplitz"),
           ("hartwig_fisher", "tau_eff")),
    "R1": (("slavnov_series", "nystrom_S", "toeplitz"),
           ("hartwig_fisher", "tau_eff")),
}
CALL_ORDER = ("toeplitz", "nystrom_S", "tau_eff", "szego", "slavnov_series",
              "hartwig_fisher")


class XSweep(Workload):
    """Determinants over x = 2, 4, ..., 1024, one symbol per winding class.

    Every route of a (symbol, x) pair is checked against the most trusted
    other route of its family that returned a finite value.  Routes that
    disagree both fail; a route with no finite partner fails as unchecked.
    """

    name = "xsweep"

    def __init__(self, seed: int):
        rand = random_symbols(seed)
        self.symbols = {"F1": symbols.fixture("F1"), "R0": rand["R0"],
                        "F3": symbols.fixture("F3"),
                        "F4": symbols.fixture("F4"), "R1": rand["R1"]}
        self._ops = []
        for label, spec in self.symbols.items():
            routes = {r for fam in FAMILIES[label] for r in fam}
            for x in X_GRID:
                for route in CALL_ORDER:
                    if route in routes:
                        self._ops.append(Op(
                            f"{label}/{route}/x={x}", label, route, {"x": x},
                            _bind(ROUTES[route], spec, x)))

    def ops(self):
        return self._ops

    def check(self, results):
        groups = {}
        for res in results:
            groups.setdefault((res.op.symbol, res.op.params["x"]),
                              {})[res.op.route] = res
        for (label, _), by_route in groups.items():
            ok = {r: _classify(res) for r, res in by_route.items()}
            for family in FAMILIES[label]:
                for route in family:
                    res = by_route[route]
                    if not ok[route]:
                        continue
                    partner = next((p for p in family
                                    if p != route and ok[p]), None)
                    if partner is None:
                        res.reason = "unchecked: no finite independent route"
                        continue
                    _compare(res, by_route[partner].value, partner,
                             XSWEEP_TOL)


def _bind(route, spec, x):
    return lambda: route(spec, x)


# --- finite_size --------------------------------------------------------------

FINITE_X = 2
SUBSET_N = 6
SUBSET_L = {"F2": (12, 14, 16, 18), "F1": (12, 14, 16)}
LADDER_L = (64, 256, 1024)
F6_CASE = (16, 6)


def load_finite_reference() -> dict:
    with open(FINITE_REFERENCE) as fh:
        data = json.load(fh)
    return {key: complex(*pair) for key, pair in data["values"].items()}


class FiniteSize(Workload):
    """Finite-size overlap sums: subset enumerations with N < L, an N = L
    ladder against the unit-circle determinant, and F6 at one (L, N).

    The inputs are fixed fixtures; the seed does not change this workload.
    """

    name = "finite_size"

    def __init__(self, seed: int):
        self.reference = load_finite_reference()
        self._ops = []
        for label in ("F2", "F1"):
            spec = symbols.fixture(label)
            self._ops.append(Op(
                f"{label}/tau_eff/x={FINITE_X}", label, "tau_eff",
                {"x": FINITE_X}, _bind(ROUTES["tau_eff"], spec, FINITE_X)))
            for L in SUBSET_L[label]:
                self._ops.append(self._ff(label, spec, L, SUBSET_N))
            for L in LADDER_L:
                self._ops.append(self._ff(label, spec, L, L))
        self._ops.append(self._ff("F6", symbols.fixture("F6"), *F6_CASE))

    @staticmethod
    def _ff(label, spec, L, N):
        return Op(f"{label}/tau_eff_finite/L={L},N={N}", label,
                  "tau_eff_finite", {"x": FINITE_X, "L": L, "N": N},
                  lambda: formfactors.tau_eff_finite(spec, L, N, FINITE_X))

    def ops(self):
        return self._ops

    def check(self, results):
        ok = {res.op.id: _classify(res) for res in results}
        by_id = {res.op.id: res for res in results}
        for res in results:
            if not ok[res.op.id]:
                continue
            label, p = res.op.symbol, res.op.params
            oracle = f"{label}/tau_eff/x={FINITE_X}"
            if res.op.route == "tau_eff":
                ladder = [f"{label}/tau_eff_finite/L={L},N={L}"
                          for L in reversed(LADDER_L)]
                partner = next((k for k in ladder if ok.get(k)), None)
                if partner is None:
                    res.reason = "unchecked: no finite independent route"
                else:
                    _compare(res, by_id[partner].value, partner,
                             FINITE_LADDER_TOL)
            elif p["N"] == p["L"]:
                if ok.get(oracle):
                    _compare(res, by_id[oracle].value, oracle,
                             FINITE_LADDER_TOL)
                else:
                    res.reason = "unchecked: no finite independent route"
            elif res.op.id in self.reference:
                _compare(res, self.reference[res.op.id], "seed enumeration",
                         FINITE_REF_TOL)
            else:
                res.reason = "unchecked: no reference value recorded"


WORKLOADS = {"verify": Verify, "xsweep": XSweep, "finite_size": FiniteSize}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

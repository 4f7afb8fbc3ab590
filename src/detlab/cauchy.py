"""Scalar Wiener-Hopf factors on circular contours, and the sampling rule.

A suite is one symbol on one circle, known by its radius: its own (where
phi does not wind) or the unit circle.  Its factors Omega_gt and Omega_lt
are finite sums over the roots on either side of the circle and the halves
of sum_j t_j q^j, with one constant pinned to the sampled phase shift
(``CauchySuite``).  The routes that read them, ``tau_leading``'s modes,
``szego``, ``slavnov_series``, ``hartwig_fisher``, ``hf_leading``'s reduced
route and ``borodin_okounkov``, read roots; ``toeplitz``, ``fredholm_S``,
split V, ``tau_leading(route="double")``, ``variational_check`` and
``hf_leading``'s angular route sample the symbol and read none, so the
checks that pair the two are sampled against exact.  x enters only through
q^{+-x}, as an argument of the b split and the residue weights.
``_converged_split`` sizes every Laurent sample, here and in every other
module: it doubles the grid until the coefficient tail passes TAIL_TOL.

Routes ask ``suite_for`` for a suite.  Inside a ``SuiteScope`` every request
for one (spec, unit) gets the suite the first one built; outside any scope
each request builds a fresh one.  A suite is read-only, each member filled
once on first read, so sharing it moves no value, like all ``scoped`` holds.
"""

from __future__ import annotations

import cmath
import contextvars
import functools

import numpy as np

from . import errors, symbols
from ._series import (LaurentSplit, circle_nodes, clog, horner,
                      pow2_at_least)
from .contours import base_contour

TAIL_TOL = 1e-13
M_CAP = 2048

# the values held by the innermost entered SuiteScope, or None outside any
_SCOPE = contextvars.ContextVar("detlab_suite_scope", default=None)


def _converged_split(sample, m0: int):
    """(split, m) of ``sample(m) -> (values, radius)`` on the first grid of
    m0, 2 m0, ... nodes that passes TAIL_TOL; TruncationFailure past M_CAP."""
    m = m0
    while True:
        split = LaurentSplit(*sample(m))
        tail = split.tail_ratio()
        if tail < TAIL_TOL:
            return split, m
        if m >= M_CAP:
            raise errors.TruncationFailure(
                f"coefficient tail {tail:.2e} at m={m}, cap M_CAP = {M_CAP}")
        m *= 2


def residue_coefficient(spec: symbols.SymbolSpec, z, power: int,
                        log_factor) -> complex:
    """z^power e^{log_factor} / phi'(z) at a simple zero z of phi, formed
    from its logarithm: OverflowGuard past the double range, while an
    underflow goes to 0; NotASimpleZero where phi'(z) vanishes."""
    z = complex(z)
    dphi = symbols.dphi_at(spec, z)
    if abs(dphi) < 1e-10:
        raise errors.NotASimpleZero(f"phi'({z}) = {dphi}")
    if z == 0 and power > 0:   # log 0 is not finite, and 0^power is 0
        return 0j
    log_power = power * cmath.log(z) if power else 0.0
    log_value = complex(log_power + log_factor - cmath.log(dphi))
    if log_value.real >= errors.LOG_MAX:
        raise errors.OverflowGuard(f"residue at {z} is e^{log_value.real:.1f}")
    return cmath.exp(log_value)


class CauchySuite:
    """The Wiener-Hopf factors of one symbol on one circle, from its roots.

    The circle is its radius ``rho``: ``contours.base_contour``'s, where
    phi does not wind (WindingNonzero where ``symbols.winding_on`` counts
    a winding), or with ``unit`` the unit circle, where phi winds w and the
    suite factors psi = q^-w phi, its extra roots at 0 dropped: nu there is
    the phase shift less w (arg q + pi)/(2 pi).  Held, and sampled nowhere:
    the zeros (``symbols.analyze``) and poles of phi as (c, s), s = +1 at a
    zero and -1 at a pole, by multiplicity, ``outside`` and ``inside`` the
    circle but the origin; the ``halves`` j >= 1 and j < 0 of sum_j t_j q^j
    and their derivatives; and C, pinned so that Omega_gt - Omega_lt = 2 pi
    i nu at the grids' first node, angle -pi, where the sampled nu of
    ``symbols.eval_nu_grid`` starts its branch:

        Omega_gt(q) = C + sum_{j>=1} t_j q^j + sum_{c outside} s log(1 - q/c)
        Omega_lt(q) = -sum_{j<0} t_j q^j - sum_{c inside} s log(1 - c/q),

    analytic inside and outside (Day, Trans. AMS 206 (1975)); C = 2 pi i
    nu_0.  The ratio and b splits sample them after ``jump_residual``.
    """

    def __init__(self, spec: symbols.SymbolSpec, *, unit: bool = False):
        self.spec = spec
        self.rho = 1.0 if unit else base_contour(spec)
        self.winding = symbols.winding_on(spec, self.rho)
        if self.winding and not unit:
            raise errors.WindingNonzero(f"phi winds {self.winding:+d} there")
        roots = [(c, 1) for c in symbols.analyze(spec).zeros] + [
            (c, -1) for c in spec._roots[1].tolist()]
        self.outside = tuple((c, s) for c, s in roots if abs(c) > self.rho)
        self.inside = tuple((c, s) for c, s in roots
                            if 0 < abs(c) < self.rho)
        (plus, minus), derivatives = spec._exponent_terms
        self.halves = (([0j, *plus[1:]], minus), derivatives)
        q0 = complex(circle_nodes(self.rho, 256)[0])
        self.C = (cmath.log(symbols._ratio(spec, q0)) +
                  symbols._exponent(spec, q0) -
                  1j * self.winding * (cmath.phase(q0) + cmath.pi) -
                  self._sum(q0, 0, 0) - self._sum(q0, 0, 1))

    def _sum(self, q, derivative: int, side: int):
        """sum_{j>=1} t_{+-j} u^j + sum s log(1 - k u), k = 1/c outside at u
        = q (side 0), k = c inside at u = 1/q (side 1), or its q-derivative:
        by ``cmath`` at a scalar, by ``_series.clog`` on an array."""
        scalar = np.ndim(q) == 0
        u = complex(q) if scalar else np.asarray(q, dtype=complex)
        u = 1.0 / u if side else u
        half = self.halves[derivative][side]
        roots = self.inside if side else [(1.0 / c, s) for c, s in
                                          self.outside]
        out = horner(half, u) if half else 0.0 * u
        if derivative:
            du = -u * u if side else 1.0
            return out - sum(s * k * du / (1.0 - k * u) for k, s in roots)
        log = cmath.log if scalar else clog
        return out + sum(s * log(1.0 - k * u) for k, s in roots)

    def Omega_gt(self, q, derivative: int = 0):
        """Inside-analytic factor, or with ``derivative`` 1 its derivative."""
        return self._sum(q, derivative, 0) + (0.0 if derivative else self.C)

    def Omega_lt(self, q, derivative: int = 0):
        """Outside-analytic factor, vanishing at infinity."""
        return -self._sum(q, derivative, 1)

    @functools.cached_property
    def jump_residual(self) -> float:
        """The largest of |Omega_gt - Omega_lt - 2 pi i nu| and |Omega_lt -
        2 pi i nu_-| on the grid of the Cauchy split nu_+ - nu_- of nu
        sampled by ``symbols.eval_nu_grid``, less w k/m at node k
        (``_converged_split`` from 256 nodes), so Omega_gt meets nu_+ too;
        NumericalError, on every read, past 1e-10.  No value reads nu."""
        def sample(m):
            nodes = circle_nodes(self.rho, m)
            return (symbols.eval_nu_grid(self.spec, nodes) -
                    self.winding * np.arange(m) / m, self.rho)

        split, m = _converged_split(sample, 256)
        nodes = circle_nodes(self.rho, m)
        gt, lt = self.Omega_gt(nodes), self.Omega_lt(nodes)
        jump = np.max(np.abs([gt - lt - 2j * np.pi * split.values,
                              lt - 2j * np.pi * split.minus(nodes)]))
        if not jump <= 1e-10:   # a nan fails too
            raise errors.NumericalError(f"scalar jump residual {jump:.2e}")
        return float(jump)

    def _ratio_at(self, nodes):
        self.jump_residual
        return np.exp(-self.Omega_gt(nodes) - self.Omega_lt(nodes))

    @functools.cached_property
    def ratio(self) -> LaurentSplit:
        """Split of the Wiener-Hopf ratio e^{-Omega_gt - Omega_lt}, from 256
        nodes; on the unit circle its coefficient s is the y-moment y_s."""
        return _converged_split(lambda m: (self._ratio_at(
            circle_nodes(self.rho, m)), self.rho), 256)[0]

    # --- b function and residue weights --------------------------------------

    def b_split(self, x: int) -> LaurentSplit:
        """Split of the density -q^{-x} theta e^{-Omega_gt - Omega_lt} from
        max(256, 4x) nodes, a power of two, so that q^{-x} shifts no mode
        past m/2; OverflowGuard when q^{-x} overflows on the circle."""
        def sample(m):
            nodes = circle_nodes(self.rho, m)
            theta = symbols.eval_theta(self.spec, nodes)
            with np.errstate(over="ignore", invalid="ignore"):
                density = -nodes ** (-x) * theta * self._ratio_at(nodes)
            if not np.all(np.isfinite(density)):
                raise errors.OverflowGuard(f"q^-x density overflows at x={x} "
                                           f"on radius {self.rho:.4g}")
            return density, self.rho

        return _converged_split(sample, max(256, pow2_at_least(4 * x)))[0]

    def residue_weight(self, z, x: int) -> complex:
        """Weight of a zero z of phi in the residue sums over this circle:
        z^x e^{2 Omega_gt(z)} / phi'(z) inside it, z^{-x} e^{-2 Omega_lt(z)}
        / phi'(z) outside it.  WindingNonzero where the factors are psi's;
        NoResidueForm and NotASimpleZero as ``_zeros``."""
        if self.winding:
            raise errors.WindingNonzero(
                f"phi winds {self.winding:+d} on the unit circle: no "
                "factorization of its own there")
        self._zeros
        z = complex(z)
        if abs(z) < self.rho:
            return residue_coefficient(self.spec, z, x, 2.0 * self.Omega_gt(z))
        return residue_coefficient(self.spec, z, -x, -2.0 * self.Omega_lt(z))

    def zeros_outside(self):
        """Zeros of phi outside this circle (phi = P/Q only)."""
        return [z for z in self._zeros if abs(z) > self.rho]

    def zeros_inside(self):
        return [z for z in self._zeros if abs(z) < self.rho]

    @functools.cached_property
    def _zeros(self):
        """The zeros of phi, each simple: ``residue_weight`` divides by phi'.
        NoResidueForm with any t_j, on every read: sums over zeros cannot
        carry exp(...)."""
        if self.spec.log_coeffs:
            raise errors.NoResidueForm("residue route needs phi = P/Q, no t_j")
        zeros = symbols.analyze(self.spec).zeros
        for i, a in enumerate(zeros):
            for b in zeros[i + 1:]:
                if abs(a - b) < symbols.SEP_TOL:
                    raise errors.NotASimpleZero(
                        f"zeros {a} and {b} lie within {symbols.SEP_TOL}")
        return zeros


class SuiteScope:
    """A memo of read-only values, in force while entered: inside ``with
    scope:`` ``scoped`` hands every request for one key the value that the
    first request built, a suite per (spec, unit) through ``suite_for`` and
    a finite-size root system per (spec, L, N); a suite fills its members
    once, on first read, to the same bits whichever route reads first.  A
    scope may be entered again, also within itself; its values live as long
    as the scope object does, and leaving it, by an exception too, restores
    the scope outside."""

    def __init__(self):
        self._held = {}
        self._tokens = []

    def __enter__(self):
        self._tokens.append(_SCOPE.set(self._held))
        return self

    def __exit__(self, *exc_info):
        _SCOPE.reset(self._tokens.pop())


def scoped(build, *args, **kwargs):
    """``build(*args, **kwargs)``, held under its call by the innermost
    entered ``SuiteScope`` and built there on first request; outside any
    scope built afresh on every call.  A build that raises is not held, so
    the next request raises again."""
    held = _SCOPE.get()
    if held is None:
        return build(*args, **kwargs)
    key = (build, args, tuple(sorted(kwargs.items())))
    value = held.get(key)
    if value is None:
        value = held[key] = build(*args, **kwargs)
    return value


def suite_for(spec: symbols.SymbolSpec, *, unit: bool = False) -> CauchySuite:
    """``CauchySuite(spec, unit=unit)``, one per (spec, unit) within a
    ``SuiteScope`` (``scoped``); at winding 0 the symbol's own circle is the
    unit circle (``contours.select_contour``), so both get the unit suite."""
    unit = bool(unit) or base_contour(spec) == 1.0
    return scoped(CauchySuite, spec, unit=unit)

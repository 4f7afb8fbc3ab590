"""Scalar Cauchy-transform machinery on circular contours.

Every plus/minus boundary value is obtained from a truncated Laurent series
of the density sampled on the circle itself (see _series.LaurentSplit); the
slightly-shifted contours of the defining integrals never appear in numerics.
``_converged_split`` sizes every such sample, here and in every other
module: it doubles the grid until the coefficient tail passes TAIL_TOL.
A suite is one symbol on one circle, known by its radius: its own (where
phi does not wind) or the unit circle with the phase shift compensated for
its winding; x enters only through q^{+-x}, as an argument of the b split
and the residue weights.

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
from ._series import LaurentSplit, circle_nodes, circle_weights
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
    """All scalar transforms attached to one symbol on one circle.

    The circle is its radius ``rho``: ``contours.base_contour``'s, where
    phi does not wind, or with ``unit`` 1, the unit circle, where the split
    density ``nu`` is the phase shift compensated for the winding w,
    nu - w (arg q + pi)/(2 pi).
    Provides the inside/outside splits of that density's transform (capital
    Omega), on first read their values on the grid (checked against the
    jump relation) and the split of their Wiener-Hopf ratio e^{-Omega_gt -
    Omega_lt}, the zeros of phi on either side of the circle and their
    residue weights, from the factorization of P/Q there.  None of
    these depends on x: the b split and the residue weights take it as an
    argument, and the q^x theta/(1 + theta) split that deforms the
    integrable kernel is formed by ``fredholm.kernel_V``.
    """

    def __init__(self, spec: symbols.SymbolSpec, *, unit: bool = False):
        self.spec = spec
        self.rho = 1.0 if unit else base_contour(spec)
        self.winding = symbols.winding_number(spec) if unit else 0

        if not unit:
            winding = symbols.grid_winding(spec, circle_nodes(self.rho, 256))
            if abs(winding) > 0.25:
                raise errors.WindingNonzero(
                    f"phase shift winds {winding:+.2f} on the chosen circle")

        self.nu_split, self.m = _converged_split(lambda mm: (self._nu_at(
            circle_nodes(self.rho, mm)), self.rho), 256)
        self.nodes = circle_nodes(self.rho, self.m)
        self.nu = self.nu_split.values

    @functools.cached_property
    def weights(self):
        weights = circle_weights(self.nodes, self.m)
        weights.flags.writeable = False
        return weights

    @functools.cached_property
    def _boundary(self):
        """(Omega_gt, Omega_lt, jump residual) on the grid, or NumericalError,
        on every read, where the jump relation fails there by over 1e-10."""
        gt, lt = self.Omega_gt(self.nodes), self.Omega_lt(self.nodes)
        jump = float(np.max(np.abs(gt - lt - 2j * np.pi * self.nu)))
        if jump > 1e-10:
            raise errors.NumericalError(f"scalar jump residual {jump:.2e}")
        gt.flags.writeable = lt.flags.writeable = False
        return gt, lt, jump

    Omega_gt_nodes = property(lambda self: self._boundary[0])
    Omega_lt_nodes = property(lambda self: self._boundary[1])
    jump_residual = property(lambda self: self._boundary[2])

    def _nu_at(self, nodes):
        """The raw phase shift less the sawtooth w (arg q + pi)/(2 pi), which
        at winding 0 is not formed."""
        nu = symbols.eval_nu_grid(self.spec, nodes)
        if not self.winding:
            return nu
        return nu - self.winding * (np.angle(nodes) + np.pi) / (2.0 * np.pi)

    # --- phase-shift transform ------------------------------------------------

    def Omega_gt(self, q, derivative: int = 0):
        """Inside-analytic piece; jump relation Omega_gt - Omega_lt = 2 pi i nu."""
        return 2j * np.pi * self.nu_split.plus(q, derivative)

    def Omega_lt(self, q, derivative: int = 0):
        """Outside-analytic piece, vanishing at infinity."""
        return 2j * np.pi * self.nu_split.minus(q, derivative)

    @functools.cached_property
    def ratio(self) -> LaurentSplit:
        """Split of the Wiener-Hopf ratio e^{-Omega_gt - Omega_lt}, sampled as
        e^{-2 pi i nu - 2 Omega_lt}; on the unit circle its coefficient s is
        the y-moment y_s.  Doubles from the suite's grid, which it reuses."""
        def sample(mm):
            if mm == self.m:
                nu, om_lt = self.nu, self.Omega_lt_nodes
            else:
                nodes = circle_nodes(self.rho, mm)
                nu, om_lt = self._nu_at(nodes), self.Omega_lt(nodes)
            return np.exp(-2j * np.pi * nu - 2.0 * om_lt), self.rho

        return _converged_split(sample, self.m)[0]

    # --- b function and residue weights --------------------------------------

    def b_split(self, x: int) -> LaurentSplit:
        """Split of the density -q^{-x} theta e^{-Omega_gt - Omega_lt} on the
        suite's grid; OverflowGuard when q^{-x} overflows on the circle."""
        theta = symbols.eval_theta(self.spec, self.nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            density = -self.nodes ** (-x) * theta * np.exp(
                -self.Omega_gt_nodes - self.Omega_lt_nodes)
        if not np.all(np.isfinite(density)):
            raise errors.OverflowGuard(f"q^-x density overflows at x={x} "
                                       f"on radius {self.rho:.4g}")
        return LaurentSplit(density, self.rho)

    @functools.cached_property
    def _factors(self):
        """(Omega_gt(0) = 2 pi i nu_0, the zeros and poles of phi outside the
        circle, those inside it but the origin), each as (c, s) with s = +1
        at a zero and -1 at a pole, repeated by multiplicity, in Python
        scalars.  Where phi does not wind on the circle, the zeros and poles
        inside balance, so log phi(q) = 2 pi i nu_0 + sum_{c outside} s
        log(1 - q/c) + sum_{c inside} s log(1 - c/q), its two sums analytic
        inside and outside: the Wiener-Hopf factors of a rational symbol
        (Day, Trans. AMS 206 (1975)).  nu_0 is the split's own, so the
        constant is the sampled one.  WindingNonzero on a unit-circle suite
        where phi winds; NoResidueForm and NotASimpleZero as ``_zeros``."""
        if self.winding:
            raise errors.WindingNonzero(
                f"phi winds {self.winding:+d} on the unit circle: no "
                "factorization of its own there")
        roots = [(c, 1) for c in self._zeros] + [
            (c, -1) for c in self.spec._roots[1].tolist()]
        return (2j * np.pi * self.nu_split.coefficient(0),
                [(c, s) for c, s in roots if abs(c) > self.rho],
                [(c, s) for c, s in roots if 0 < abs(c) < self.rho])

    def residue_weight(self, z, x: int) -> complex:
        """Weight of a zero z of phi in the residue sums over this circle:
        z^x e^{2 Omega_gt(z)} / phi'(z) inside it, z^{-x} e^{-2 Omega_lt(z)}
        / phi'(z) outside it, Omega read from the factorization
        (``_factors``), so that no series is summed at a zero."""
        z = complex(z)
        omega0, outside, inside = self._factors
        if abs(z) < self.rho:
            omega = omega0 + sum(s * cmath.log(1.0 - z / c) for c, s in outside)
            return residue_coefficient(self.spec, z, x, 2.0 * omega)
        omega = -sum(s * cmath.log(1.0 - c / z) for c, s in inside)
        return residue_coefficient(self.spec, z, -x, -2.0 * omega)

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

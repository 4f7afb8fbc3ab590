"""Scalar Cauchy-transform machinery on circular contours.

Every plus/minus boundary value is obtained from a truncated Laurent series
of the density sampled on the circle itself (see _series.LaurentSplit); the
slightly-shifted contours of the defining integrals never appear in numerics.
A suite sits on its symbol's own circle, where phi does not wind, or on the
unit circle with the phase shift compensated for its winding; it forms a
q^{+-x} density only on first use, so routes that read none never overflow.
"""

from __future__ import annotations

import functools

import numpy as np

from . import errors, symbols
from ._series import LaurentSplit, circle_nodes, circle_weights
from .contours import select_contour, unit_circle

TAIL_TOL = 1e-13
M_CAP = 2048


def _converged_split(sample, m0: int):
    """Build a LaurentSplit from ``sample(m) -> (values, radius)``, doubling the
    node count from m0 until the coefficient tail decays below TAIL_TOL."""
    m = m0
    while True:
        values, radius = sample(m)
        split = LaurentSplit(values, radius)
        if split.tail_ratio() < TAIL_TOL:
            return split, m
        if m >= M_CAP:
            raise errors.TruncationFailure(
                f"coefficient tail {split.tail_ratio():.2e} at m={m}")
        m *= 2


class CauchySuite:
    """All scalar transforms attached to one symbol and one power x.

    The circle is ``select_contour``'s, where phi does not wind, or with
    ``unit`` the unit circle, where the split density ``nu`` is the phase
    shift compensated for the winding w, nu - w (arg q + pi)/(2 pi).
    Provides the inside/outside splits of that density's transform (capital
    Omega) and, on first read, the split of the b function entering the
    explicit resolvent.  The q^x theta/(1 + theta) split whose outside part
    deforms the integrable kernel is formed by ``fredholm.kernel_V``.
    """

    def __init__(self, spec: symbols.SymbolSpec, x: int, m: int = 256, *,
                 unit: bool = False):
        if x < 0 or x != int(x):
            raise errors.InputError("x must be a nonnegative integer")
        self.spec = spec
        self.x = int(x)
        self.contour = (unit_circle() if unit
                        else select_contour(symbols.analyze(spec)))
        self.rho = self.contour.radius
        self.winding = symbols.winding_number(spec) if unit else 0

        def sample_nu(mm):
            # the last sample is taken on the converged grid: kept as self.nu
            nodes = circle_nodes(self.rho, mm)
            self.nu = symbols.eval_nu_grid(spec, nodes) - self.winding * (
                np.angle(nodes) + np.pi) / (2.0 * np.pi)
            return self.nu, self.rho

        if not unit:
            winding = symbols.grid_winding(spec,
                                           circle_nodes(self.rho, max(m, 256)))
            if abs(winding) > 0.25:
                raise errors.WindingNonzero(
                    f"phase shift winds {winding:+.2f} on the chosen circle")

        self.nu_split, self.m = _converged_split(sample_nu, max(m, 256))
        self.nodes = circle_nodes(self.rho, self.m)
        self.weights = circle_weights(self.nodes, self.m)

        # boundary values of the split transforms on the grid itself
        self.Omega_gt_nodes = self.Omega_gt(self.nodes)
        self.Omega_lt_nodes = self.Omega_lt(self.nodes)
        jump = self.Omega_gt_nodes - self.Omega_lt_nodes - 2j * np.pi * self.nu
        self.jump_residual = float(np.max(np.abs(jump)))
        if self.jump_residual > 1e-10:
            raise errors.NumericalError(
                f"scalar jump residual {self.jump_residual:.2e}")

    @functools.cached_property
    def theta(self):
        """theta on the grid, read only by the V kernel and b's split."""
        return symbols.eval_theta(self.spec, self.nodes)

    # --- phase-shift transform ------------------------------------------------

    def Omega_gt(self, q, derivative: int = 0):
        """Inside-analytic piece; jump relation Omega_gt - Omega_lt = 2 pi i nu."""
        return 2j * np.pi * self.nu_split.plus(q, derivative)

    def Omega_lt(self, q, derivative: int = 0):
        """Outside-analytic piece, vanishing at infinity."""
        return 2j * np.pi * self.nu_split.minus(q, derivative)

    # --- b function -----------------------------------------------------------

    @functools.cached_property
    def b_split(self) -> LaurentSplit:
        """Split of the density -q^{-x} theta e^{-Omega_gt - Omega_lt}, formed
        on first read; OverflowGuard when q^{-x} overflows on the circle."""
        with np.errstate(over="ignore", invalid="ignore"):
            density = -self.nodes ** (-self.x) * self.theta * np.exp(
                -self.Omega_gt_nodes - self.Omega_lt_nodes)
        if not np.all(np.isfinite(density)):
            raise errors.OverflowGuard(f"q^-x density overflows at x={self.x} "
                                       f"on radius {self.rho:.4g}")
        return LaurentSplit(density, self.rho)

    def b_plus(self, q, derivative: int = 0):
        """Inside-analytic piece of the b transform (series route)."""
        return self.b_split.plus(q, derivative)

    def b_minus(self, q, derivative: int = 0):
        return self.b_split.minus(q, derivative)

    def residue_weight(self, z) -> complex:
        """Weight of a zero z of phi in the residue sums over this circle:
        z^x e^{2 Omega_gt(z)} / phi'(z) inside it, z^{-x} e^{-2 Omega_lt(z)}
        / phi'(z) outside it."""
        z = complex(z)
        if abs(z) < self.rho:
            value = z ** self.x * np.exp(2.0 * self.Omega_gt(z))
        else:
            value = z ** (-self.x) * np.exp(-2.0 * self.Omega_lt(z))
        return complex(value / symbols.eval_dphi(self.spec, np.asarray(z)))

    def zeros_outside(self):
        """Zeros of phi outside this circle (rational symbols only)."""
        return [z for z in self._zeros() if abs(z) > self.rho]

    def zeros_inside(self):
        return [z for z in self._zeros() if abs(z) < self.rho]

    def _zeros(self):
        if self.spec.kind != "rational":
            raise errors.NoResidueForm("residue route needs a rational symbol")
        return symbols.analyze(self.spec).zeros

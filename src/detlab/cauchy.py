"""Scalar Cauchy-transform machinery on circular contours.

Every plus/minus boundary value is obtained from a truncated Laurent series
of the density sampled on the circle itself (see _series.LaurentSplit); the
slightly-shifted contours of the defining integrals never appear in numerics.
"""

from __future__ import annotations

import numpy as np

from . import errors, symbols
from ._series import LaurentSplit, circle_nodes, circle_weights
from .contours import Contour

TAIL_TOL = 1e-13
M_CAP = 2048


def _converged_split(sample, m0: int = 256, cap: int = M_CAP,
                     tol: float = TAIL_TOL):
    """Build a LaurentSplit from ``sample(m) -> (values, radius)``, doubling the
    node count until the coefficient tail decays below tol."""
    m = m0
    while True:
        values, radius = sample(m)
        split = LaurentSplit(values, radius)
        if split.tail_ratio() < tol:
            return split, m
        if m >= cap:
            raise errors.TruncationFailure(
                f"coefficient tail {split.tail_ratio():.2e} at m={m}")
        m *= 2


class CauchySuite:
    """All scalar transforms attached to one symbol, one circle, one power x.

    Provides the inside/outside splits of the phase-shift transform (capital
    Omega), the split of the q^x theta/(1 + theta) density whose outside part
    deforms the integrable kernel, and the b function entering the explicit
    resolvent.
    """

    def __init__(self, spec: symbols.SymbolSpec, contour: Contour, x: int,
                 m: int = 256):
        if not contour.is_single_circle():
            raise errors.InputError("CauchySuite needs a single-circle contour")
        if x < 0 or x != int(x):
            raise errors.InputError("x must be a nonnegative integer")
        self.spec = spec
        self.contour = contour
        self.rho = contour.radius
        self.x = int(x)

        def sample_nu(mm):
            # the last sample is taken on the converged grid: kept as self.nu
            self.nu = symbols.eval_nu_grid(spec, circle_nodes(self.rho, mm))
            return self.nu, self.rho

        winding = symbols.grid_winding(spec, circle_nodes(self.rho, max(m, 256)))
        if abs(winding) > 0.25:
            raise errors.WindingNonzero(
                f"phase shift winds {winding:+.2f} on the chosen circle")

        self.nu_split, self.m = _converged_split(sample_nu, max(m, 256))
        self.nodes = circle_nodes(self.rho, self.m)
        self.weights = circle_weights(self.nodes, self.m)
        self.theta = symbols.eval_theta(spec, self.nodes)
        self.phi = self.theta + 1.0

        # boundary values of the split transforms on the grid itself
        self.Omega_gt_nodes = self.Omega_gt(self.nodes)
        self.Omega_lt_nodes = self.Omega_lt(self.nodes)
        jump = self.Omega_gt_nodes - self.Omega_lt_nodes - 2j * np.pi * self.nu
        self.jump_residual = float(np.max(np.abs(jump)))
        if self.jump_residual > 1e-10:
            raise errors.NumericalError(
                f"scalar jump residual {self.jump_residual:.2e}")

        with np.errstate(over="ignore", invalid="ignore"):
            self.w_density = self.nodes ** self.x * self.theta / self.phi
            self.b_density = -self.nodes ** (-self.x) * self.theta * np.exp(
                -self.Omega_gt_nodes - self.Omega_lt_nodes)
        if not (np.all(np.isfinite(self.w_density)) and
                np.all(np.isfinite(self.b_density))):
            raise errors.OverflowGuard(
                f"q^x densities overflow at x={self.x} "
                f"on radius {self.rho:.4g}")
        self.w_split = LaurentSplit(self.w_density, self.rho)
        self.b_split = LaurentSplit(self.b_density, self.rho)

    # --- phase-shift transform ------------------------------------------------

    def Omega_gt(self, q, derivative: int = 0):
        """Inside-analytic piece; jump relation Omega_gt - Omega_lt = 2 pi i nu."""
        return 2j * np.pi * self.nu_split.plus(q, derivative)

    def Omega_lt(self, q, derivative: int = 0):
        """Outside-analytic piece, vanishing at infinity."""
        return 2j * np.pi * self.nu_split.minus(q, derivative)

    # --- b function -----------------------------------------------------------

    def b_plus(self, q, derivative: int = 0):
        """Inside-analytic piece of the b transform (series route)."""
        return self.b_split.plus(q, derivative)

    def b_minus(self, q, derivative: int = 0):
        return self.b_split.minus(q, derivative)

    def b_plus_residue(self, q, zeros_outside, derivative: int = 0):
        """b via residues over the zeros of phi outside the circle.

        The overall sign is fixed so that the series and residue routes agree;
        equivalently, so that the explicit resolvent built from b satisfies
        the inversion identity (checked in the test suite).
        """
        q = np.asarray(q, dtype=complex)
        acc = np.zeros(np.shape(q), dtype=complex)
        for w in zeros_outside:
            pref = -self.residue_weight(w)
            if derivative == 0:
                acc = acc + pref / (w - q)
            elif derivative == 1:
                acc = acc + pref / (w - q) ** 2
            else:
                raise errors.InputError("only first derivatives are supported")
        return acc

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
        if self.spec.kind != "rational":
            raise errors.NoResidueForm("residue route needs a rational symbol")
        ana = symbols.analyze(self.spec)
        return [z for z in ana.zeros if abs(z) > self.rho]

    def zeros_inside(self):
        if self.spec.kind != "rational":
            raise errors.NoResidueForm("residue route needs a rational symbol")
        ana = symbols.analyze(self.spec)
        return [z for z in ana.zeros if abs(z) < self.rho]


def varphi_C(suite: CauchySuite, q) -> complex:
    """Direct quadrature of the lower-triangular RHP entry at a point off the circle."""
    q = complex(q)
    mindist = np.min(np.abs(suite.nodes - q))
    if mindist < 2.0 * np.pi * suite.rho / suite.m:
        raise errors.TooCloseToContour(f"distance {mindist:.2e} below node spacing")
    return complex(np.sum(suite.weights * suite.w_density / (suite.nodes - q))
                   / (2j * np.pi))


def b_C_quadrature(suite: CauchySuite, q) -> complex:
    """Direct quadrature of the b transform at a point off the circle."""
    q = complex(q)
    mindist = np.min(np.abs(suite.nodes - q))
    if mindist < 2.0 * np.pi * suite.rho / suite.m:
        raise errors.TooCloseToContour(f"distance {mindist:.2e} below node spacing")
    return complex(np.sum(suite.weights * suite.b_density / (suite.nodes - q))
                   / (2j * np.pi))


class WindingAdjustedSuite:
    """Unit-circle transforms of the winding-compensated phase shift.

    The compensated shift nu_w(q) = nu(q) - w*(ln q + i pi)/(2 pi i) is
    single-valued on the unit circle for a symbol of winding w, so it admits
    the same plus/minus split treatment as the zero-winding case.
    """

    def __init__(self, spec: symbols.SymbolSpec, m: int = 256):
        self.spec = spec
        self.winding = symbols.winding_number(spec)

        self.split, self.m = _converged_split(
            lambda mm: (self.nu_adjusted(circle_nodes(1.0, mm)), 1.0),
            max(m, 256))
        self.nodes = circle_nodes(1.0, self.m)
        self.weights = circle_weights(self.nodes, self.m)
        self.nu_adj = self.split.reconstruct(self.nodes)

    def nu_adjusted(self, nodes):
        """Compensated phase shift on an arbitrary unit-circle grid."""
        nu = symbols.eval_nu_grid(self.spec, nodes)
        ang = np.angle(nodes)
        return nu - self.winding * (ang + np.pi) / (2.0 * np.pi)

    def omega_gt(self, q, derivative: int = 0):
        return 2j * np.pi * self.split.plus(q, derivative)

    def omega_lt(self, q, derivative: int = 0):
        return 2j * np.pi * self.split.minus(q, derivative)


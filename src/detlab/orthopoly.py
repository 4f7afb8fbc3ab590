"""Monic orthogonal polynomials on the unit circle for the winding measure.

For a symbol of winding -n the measure mu(q) = e^{-Omega_gt - Omega_lt} *
q^{-x-n}, built from the unit-circle ``CauchySuite`` of the compensated phase
shift, defines n monic orthogonal polynomials; packed into a 2x2 matrix with
their Cauchy transforms they solve a Riemann-Hilbert problem with the
one-sided jump [[1, -mu], [0, 1]].  The n-by-n determinant of the moments of
mu reproduces the winding-corrected determinant formula.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from . import errors, symbols
from ._series import LaurentSplit, circle_nodes, circle_weights
from .asymptotics import y_moment
from .cauchy import CauchySuite

MOMENT_STABILITY_TOL = 1e-12
GRAM_TOL = 1e-12
M_GRID = 512   # unit-circle nodes of the measure; moments also take 2 M_GRID


class MeasureMu:
    """The orthogonality measure attached to a negative-winding symbol."""

    def __init__(self, spec: symbols.SymbolSpec, x: int):
        ana = symbols.analyze(spec)
        if ana.winding >= 0:
            raise errors.WindingNonnegative(
                f"measure needs negative winding, got {ana.winding}")
        self.suite = CauchySuite(spec, x, M_GRID, unit=True)
        self.spec = spec
        self.x = self.suite.x
        self.winding = ana.winding
        self.n = -ana.winding
        self._grids = {}
        self._moments = {}

    def values(self, m: int):
        """Measure sampled on an m-point unit-circle grid, with weights."""
        if m not in self._grids:
            nodes = circle_nodes(1.0, m)
            weights = circle_weights(nodes, m)
            total = self.suite.Omega_gt(nodes) + self.suite.Omega_lt(nodes)
            vals = np.exp(-total) * nodes ** (-self.x + self.winding)
            self._grids[m] = (nodes, weights, vals)
        return self._grids[m]

    def moment(self, j: int) -> complex:
        """mu_j = oint k^j mu(k) dk, checked stable under grid doubling."""
        j = int(j)
        if abs(j) > 4 * self.n + self.x + 8:
            raise errors.InputError(f"moment order {j} out of supported range")
        if j not in self._moments:
            vals = []
            for m in (M_GRID, 2 * M_GRID):
                nodes, weights, mu = self.values(m)
                vals.append(complex(np.sum(weights * nodes ** j * mu)))
            scale = max(1.0, abs(vals[1]))
            if abs(vals[0] - vals[1]) > MOMENT_STABILITY_TOL * scale:
                raise errors.NotConverged(
                    f"moment {j} unstable under doubling: "
                    f"{abs(vals[0] - vals[1]):.2e}")
            self._moments[j] = vals[1]
        return self._moments[j]

    def gram_det(self, k: int) -> complex:
        """Determinant of the k x k matrix of moments mu_{i+j-2}."""
        mat = np.array([[self.moment(i + j) for j in range(k)]
                        for i in range(k)], dtype=complex)
        return complex(np.linalg.det(mat))

    def check_solvable(self):
        scale = max(abs(self.moment(0)), 1e-30)
        for k in range(1, self.n + 1):
            if abs(self.gram_det(k)) < GRAM_TOL * scale ** k:
                raise errors.SingularGram(
                    f"moment determinant of order {k} vanishes")


def monic_orthogonal(measure: MeasureMu, k: int):
    """Monic degree-k polynomial orthogonal to all lower powers.

    Returns (ascending coefficients, norm h_k with h_k = oint p_k^2 mu dq).
    Solved directly from the k x k moment system; the measure is generally
    not Hermitian-positive, so no recurrence is assumed.
    """
    if k < 0 or k > measure.n:
        raise errors.InputError(f"degree {k} outside 0..{measure.n}")
    if k == 0:
        coeffs = np.array([1.0 + 0.0j])
    else:
        mat = np.array([[measure.moment(i + j) for i in range(k)]
                        for j in range(k)], dtype=complex)
        rhs = -np.array([measure.moment(k + j) for j in range(k)],
                        dtype=complex)
        try:
            low = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise errors.SingularGram(str(exc)) from exc
        if not np.all(np.isfinite(low)):
            raise errors.SingularGram(f"moment system of order {k} singular")
        coeffs = np.concatenate([low, [1.0 + 0.0j]])
    h_k = sum(coeffs[i] * coeffs[j] * measure.moment(i + j)
              for i in range(k + 1) for j in range(k + 1))
    return coeffs, complex(h_k)


class RHPSolution:
    """The 2x2 matrix [[p_n, A], [-2 pi i p_{n-1}/h_{n-1}, B]] and its
    boundary values; A, B are the Cauchy transforms of the first column
    times the measure."""

    def __init__(self, measure: MeasureMu):
        self.measure = measure
        n = measure.n
        measure.check_solvable()
        self.alpha, self.h_n = monic_orthogonal(measure, n)
        pnm1, self.h_nm1 = monic_orthogonal(measure, n - 1)
        if abs(self.h_nm1) < GRAM_TOL:
            raise errors.SingularGram("norm of degree n-1 polynomial vanishes")
        self.beta = -2j * np.pi * pnm1 / self.h_nm1
        nodes, _, mu = measure.values(M_GRID)
        self._split_a = LaurentSplit(P.polyval(nodes, self.alpha) * mu, 1.0)
        self._split_b = LaurentSplit(P.polyval(nodes, self.beta) * mu, 1.0)

    def _transforms(self, q, side: str):
        if side == "inside":
            return self._split_a.plus(q), self._split_b.plus(q)
        return self._split_a.minus(q), self._split_b.minus(q)

    def matrix(self, q, side: str | None = None) -> np.ndarray:
        """Y at a point; side 'inside'/'outside' selects the boundary value
        on the circle and is inferred from |q| elsewhere."""
        q = complex(q)
        if side is None:
            if abs(abs(q) - 1.0) < 1e-12:
                raise errors.InputError(
                    "on-circle evaluation needs an explicit side")
            side = "inside" if abs(q) < 1.0 else "outside"
        a_val, b_val = self._transforms(q, side)
        return np.array([[P.polyval(q, self.alpha), a_val],
                         [P.polyval(q, self.beta), b_val]], dtype=complex)

    def jump_residual(self, q) -> float:
        """Max-norm of Y_>^{-1} Y_< - [[1, -mu], [0, 1]] at a circle point."""
        q = complex(q)
        if abs(abs(q) - 1.0) > 1e-9:
            raise errors.InputError("jump is defined on the unit circle")
        y_gt = self.matrix(q, side="inside")
        y_lt = self.matrix(q, side="outside")
        split_mu = LaurentSplit(self.measure.values(M_GRID)[2], 1.0)
        mu_q = split_mu.reconstruct(np.asarray([q]))[0]
        jump = np.array([[1.0, -mu_q], [0.0, 1.0]], dtype=complex)
        return float(np.max(np.abs(np.linalg.solve(y_gt, y_lt) - jump)))

    def normalization_residual(self) -> float:
        """Deviation from Y_<(q) = (Id + O(1/q)) diag(q^{-n}, q^{n}).

        The statement is equivalent to exact conditions on the outside
        Laurent coefficients of the Cauchy-transform column: the top
        transform decays like q^{-n-1} and the bottom one equals
        q^{-n}(1 + O(1/q)); the polynomial column is monic / degree n-1 by
        construction.  Checked directly on the coefficients, so the residual
        is quadrature-level rather than O(1/radius)."""
        n = self.measure.n
        res = abs(self._split_b.coefficient(-n) + 1.0)
        for j in range(1, n + 1):
            res = max(res, abs(self._split_a.coefficient(-j)))
            if j < n:
                res = max(res, abs(self._split_b.coefficient(-j)))
        return float(res)

    def far_field_residual(self, radius: float = 1e3) -> float:
        """‖Y_<(q) diag(q^{-n}, q^{n}) - Id‖ at |q| = radius; this carries the
        honest O(1/radius) tail of the expansion."""
        n = self.measure.n
        res = 0.0
        for q in radius * np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j):
            y = self.matrix(q, side="outside")
            scaled = y @ np.diag([q ** (-n), q ** n])
            res = max(res, float(np.max(np.abs(scaled - np.eye(2)))))
        return res


def christoffel_darboux(measure: MeasureMu, q, k, route: str = "closed"
                        ) -> complex:
    """Reproducing kernel of the degree-(n-1) polynomial space.

    route 'sum':    sum_{j<n} p_j(q) p_j(k) / h_j
    route 'closed': (p_n(k) p_{n-1}(q) - p_n(q) p_{n-1}(k)) / (h_{n-1} (k-q)),
                    with the confluent limit on the diagonal.
    """
    q, k = complex(q), complex(k)
    n = measure.n
    if route == "sum":
        total = 0.0 + 0.0j
        for j in range(n):
            cj, hj = monic_orthogonal(measure, j)
            total += P.polyval(q, cj) * P.polyval(k, cj) / hj
        return complex(total)
    if route == "closed":
        cn, _ = monic_orthogonal(measure, n)
        cm, hm = monic_orthogonal(measure, n - 1)
        if abs(k - q) < 1e-9:
            dn, dm = P.polyder(cn), P.polyder(cm)
            val = (P.polyval(q, dn) * P.polyval(q, cm) -
                   P.polyval(q, cn) * P.polyval(q, dm)) / hm
            return complex(val)
        return complex((P.polyval(k, cn) * P.polyval(q, cm) -
                        P.polyval(q, cn) * P.polyval(k, cm)) / (hm * (k - q)))
    raise errors.InputError(f"unknown route {route!r}")


def moment_matrix(measure: MeasureMu) -> np.ndarray:
    n = measure.n
    return np.array([[measure.moment(n - 1 + i - j) for j in range(n)]
                     for i in range(n)], dtype=complex)


def hf_moment_equivalence(spec: symbols.SymbolSpec, x: int) -> float:
    """Relative gap between the y-moment determinant of the winding-corrected
    formula and det(moment matrix)/(2 pi i)^n."""
    measure = MeasureMu(spec, x)
    n = measure.n
    ymat = np.array([[y_moment(measure.suite, x + i - j) for j in range(n)]
                     for i in range(n)], dtype=complex)
    det_y = complex(np.linalg.det(ymat))
    det_mu = complex(np.linalg.det(moment_matrix(measure))) / (2j * np.pi) ** n
    return abs(det_y - det_mu) / max(abs(det_mu), 1e-300)


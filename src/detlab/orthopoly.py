"""Monic orthogonal polynomials on the unit circle for the winding measure.

For a symbol of winding -n the measure mu(q) = e^{-Omega_gt - Omega_lt} *
q^{-x-n}, read from the ratio split of the unit-circle ``CauchySuite`` of the
compensated phase shift, defines n monic orthogonal polynomials; packed into
a 2x2 matrix with their Cauchy transforms they solve a Riemann-Hilbert
problem with the one-sided jump [[1, -mu], [0, 1]].  The n-by-n determinant of the moments of
mu reproduces the winding-corrected determinant formula.
"""

from __future__ import annotations

import numpy as np

from . import errors, symbols, toeplitz
from ._series import LaurentSplit, circle_nodes, horner
from .asymptotics import _require_negative_winding, y_log_det, y_moment
from .cauchy import suite_for

GRAM_TOL = 1e-12


class MeasureMu:
    """The orthogonality measure attached to a negative-winding symbol."""

    def __init__(self, spec: symbols.SymbolSpec, x: int):
        self.x = errors.check_x(x)
        self.n = -_require_negative_winding(spec).winding
        self.suite = suite_for(spec, unit=True)
        # (nodes, mu) on the grid of the suite's ratio split, from its samples
        ratio = self.suite.ratio
        nodes = circle_nodes(1.0, ratio.m)
        self.values = (nodes, ratio.values * nodes ** (-self.x - self.n))
        # mu_0 .. mu_2n, and the read-only Hankel matrix [mu_{i+j}],
        # i, j = 0 .. n, whose leading blocks every order reads
        self.moments = np.array([*map(self.moment, range(2 * self.n + 1))])
        index = np.arange(self.n + 1)
        self.gram = self.moments[index[:, None] + index]
        self.gram.flags.writeable = False

    def moment(self, j: int) -> complex:
        """mu_j = oint k^j mu(k) dk = 2 pi i y_{x+n-1-j}."""
        j = int(j)
        if abs(j) > 4 * self.n + self.x + 8:
            raise errors.InputError(f"moment order {j} out of supported range")
        return 2j * np.pi * y_moment(self.suite, self.x + self.n - 1 - j)

    def gram_log_det(self, k: int) -> complex:
        """log det of the k x k matrix of moments mu_{i+j}, up to its sign
        (-1)^{k(k-1)/2}: ``toeplitz.moment_log_det`` of its row reversal
        [mu_{k-1-i+j}], c_d = mu_{k-1-d}."""
        return toeplitz.moment_log_det(
            np.concatenate([[0], self.moments[2 * k - 2::-1], [0]]))

    def check_solvable(self):
        log_scale = np.log(max(abs(self.moments[0]), 1e-30))
        for k in range(1, self.n + 1):
            if self.gram_log_det(k).real < np.log(GRAM_TOL) + k * log_scale:
                raise errors.SingularGram(
                    f"moment determinant of order {k} vanishes")


def monic_orthogonal(measure: MeasureMu, k: int):
    """Monic degree-k polynomial orthogonal to all lower powers.

    Returns (ascending coefficients, norm h_k with h_k = oint p_k^2 mu dq).
    Solved from the k x k block of the Gram matrix; the measure is
    generally not Hermitian-positive, so no recurrence is assumed.
    """
    if k < 0 or k > measure.n:
        raise errors.InputError(f"degree {k} outside 0..{measure.n}")
    gram = measure.gram
    try:
        low = (np.linalg.solve(gram[:k, :k], -gram[:k, k]) if k else
               gram[:0, 0])
    except np.linalg.LinAlgError as exc:
        raise errors.SingularGram(str(exc)) from exc
    if not np.all(np.isfinite(low)):
        raise errors.SingularGram(f"moment system of order {k} singular")
    coeffs = np.concatenate([low, [1.0 + 0.0j]])
    h_k = sum(coeffs[i] * coeffs[j] * gram[i, j]
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
        nodes, mu = measure.values
        self._split_a = LaurentSplit(horner(self.alpha, nodes) * mu, 1.0)
        self._split_b = LaurentSplit(horner(self.beta, nodes) * mu, 1.0)

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
        return np.array([[horner(self.alpha, q), a_val],
                         [horner(self.beta, q), b_val]], dtype=complex)

    def jump_residual(self, q) -> float:
        """Max-norm of Y_>^{-1} Y_< - [[1, -mu], [0, 1]] at a circle point."""
        q = complex(q)
        if abs(abs(q) - 1.0) > 1e-9:
            raise errors.InputError("jump is defined on the unit circle")
        y_gt = self.matrix(q, side="inside")
        y_lt = self.matrix(q, side="outside")
        x, n = self.measure.x, self.measure.n
        mu_q = self.measure.suite.ratio.reconstruct(q) * q ** (-x - n)
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
            total += horner(cj, q) * horner(cj, k) / hj
        return complex(total)
    if route == "closed":
        cn, _ = monic_orthogonal(measure, n)
        cm, hm = monic_orthogonal(measure, n - 1)
        if abs(k - q) < 1e-9:
            dn, dm = symbols.derivative(cn), symbols.derivative(cm)
            val = (horner(dn, q) * horner(cm, q) -
                   horner(cn, q) * horner(dm, q)) / hm
            return complex(val)
        return complex((horner(cn, k) * horner(cm, q) -
                        horner(cn, q) * horner(cm, k)) / (hm * (k - q)))
    raise errors.InputError(f"unknown route {route!r}")


def hf_moment_equivalence(spec: symbols.SymbolSpec, x: int) -> float:
    """Relative gap between the y-moment determinant of the winding-corrected
    formula and the moments' Gram determinant as a product of the norms,
    (-1)^{n(n-1)/2} prod_{k<n} h_k / (2 pi i)^n."""
    measure = MeasureMu(spec, x)
    n = measure.n
    det_y = errors.exp_in_range(y_log_det(measure.suite, x, n))
    norms = np.prod([monic_orthogonal(measure, k)[1] for k in range(n)])
    det_h = (-1) ** (n * (n - 1) // 2) * complex(norms) / (2j * np.pi) ** n
    return abs(det_y - det_h) / max(abs(det_h), 1e-300)

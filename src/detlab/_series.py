"""Laurent-series helpers on origin-centered circles.

Boundary values of Cauchy transforms are evaluated through truncated
Laurent series of the density sampled on the circle, never through
principal-value quadrature.  All grids start at angle -pi and run
counterclockwise, so the angle parametrization matches the branch cut
of the principal logarithm.

Splits are evaluated in one of two ways, chosen from the input alone.  A
1-d array that is, or equals (``np.array_equal``), the memoised grid
``circle_nodes(radius, n)``, with n its length and radius the split's own,
takes one length-n inverse FFT of the coefficients folded by ``j mod n``
(exact aliasing of the truncated series; zero-padding when n >= m); the
d-th derivative multiplies c_j by j(j-1)...(j-d+1) and divides by q^d.
Anything else (scalars, scattered points, the origin, other radii or
rotations) sums powers of q/rho directly.
"""

from __future__ import annotations

import functools

import numpy as np

PHASE0 = -np.pi


@functools.lru_cache(maxsize=32)
def circle_nodes(radius: float, m: int):
    """Counterclockwise nodes q_j = radius*exp(i*phi_j), phi_j in [-pi, pi);
    memoised, so the same read-only array serves every caller of a grid."""
    phi = PHASE0 + 2.0 * np.pi * np.arange(m) / m
    nodes = radius * np.exp(1j * phi)
    nodes.flags.writeable = False
    return nodes


def pow2_at_least(n: int) -> int:
    """Smallest power of two >= n, the node count of an FFT grid."""
    return 1 << (n - 1).bit_length()


def circle_weights(nodes, m: int):
    """Trapezoidal dq weights 2*pi*i*q/m of the nodes of ``circle_nodes``."""
    return 2j * np.pi * nodes / m


def laurent_coeffs(values):
    """Laurent coefficients c_j of f on its sampling circle.

    f(q) ~ sum_j c_j (q/rho)^j for the grid produced by circle_nodes.
    Returns (j, c) with j = -m/2 .. m/2-1 in ascending order.
    """
    m = len(values)
    c = np.fft.fft(np.asarray(values, dtype=complex)) / m
    j = np.fft.fftfreq(m, 1.0 / m).astype(int)
    c = c * np.exp(-1j * j * PHASE0)   # grid starts at angle -pi, not 0
    order = np.argsort(j)
    return j[order], c[order]


class LaurentSplit:
    r"""Plus/minus Cauchy split of a function given on an origin-centered circle.

    For f with Laurent coefficients c_j on the circle |k| = rho,
    the transform F(q) = (1/2pi i) \oint f(k)/(k-q) dk splits into

        plus(q)  = sum_{j>=0} c_j (q/rho)^j     (analytic inside, |q| < rho)
        minus(q) = -sum_{j<0} c_j (q/rho)^j     (analytic outside, |q| > rho)

    Boundary values on the circle itself come from the same series.
    """

    def __init__(self, values, radius: float):
        self.radius = float(radius)
        self.j, self.c = laurent_coeffs(values)
        self.m = len(values)

    def tail_ratio(self) -> float:
        """Relative size of the largest edge coefficient (aliasing indicator)."""
        scale = np.max(np.abs(self.c))
        if scale == 0.0:
            return 0.0
        edge = max(np.abs(self.c[0]), np.abs(self.c[-1]))
        return float(edge / scale)

    def _eval(self, q, mask, derivative=0):
        q = np.asarray(q, dtype=complex)
        c = np.where(mask, self.c, 0.0)
        for k in range(derivative):
            c = c * (self.j - k)
        if q.ndim == 1 and q.size and (
                q is (grid := circle_nodes(self.radius, q.size))
                or np.array_equal(q, grid)):
            n = q.size
            c = c * np.exp(1j * PHASE0 * self.j)
            slot = self.j % n
            out = n * np.fft.ifft(np.bincount(slot, c.real, n) +
                                  1j * np.bincount(slot, c.imag, n))
            return out / q ** derivative if derivative else out
        scalar = q.ndim == 0
        qf = np.atleast_1d(q)
        # drop exactly-zero terms (masked out, or cancelled by the factorial):
        # their powers may overflow, and inf * 0 = nan
        keep = c != 0.0
        j, c = self.j[keep], c[keep]
        # at the origin only the j = derivative term survives
        out = np.full(qf.shape, np.nan if np.any(j < 0) else
                      c[j == derivative].sum() / self.radius ** derivative,
                      dtype=complex)
        nz = qf != 0.0
        # running products of z = q/rho for j >= 0 and of 1/z for j < 0:
        # no complex pow, and no rho**j, which alone overflows for large m
        z = qf[nz, None] / self.radius
        acc = np.zeros(z.shape[0], dtype=complex)
        for sel, base in ((j >= 0, z), (j < 0, 1.0 / z)):
            if np.any(sel):
                k = np.arange(np.max(np.abs(j[sel])) + 1)
                powers = np.cumprod(np.where(k > 0, base, 1.0), axis=1)
                acc += powers[:, np.abs(j[sel])] @ c[sel]
        out[nz] = acc / qf[nz] ** derivative
        return out[0] if scalar else out

    def plus(self, q, derivative=0):
        return self._eval(q, self.j >= 0, derivative)

    def minus(self, q, derivative=0):
        return -self._eval(q, self.j < 0, derivative)

    def reconstruct(self, q, derivative=0):
        """Full series value; valid in the annulus of analyticity."""
        return self._eval(q, np.ones_like(self.j, dtype=bool), derivative)

    def zero_mode(self) -> complex:
        return complex(self.c[self.j == 0][0])

    def coefficient(self, k: int) -> complex:
        hit = self.c[self.j == k]
        return complex(hit[0]) if len(hit) else 0.0

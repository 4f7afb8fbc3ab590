"""Laurent-series helpers on origin-centered circles.

Boundary values of Cauchy transforms are evaluated through truncated
Laurent series of the density sampled on the circle, never through
principal-value quadrature.  All grids start at angle -pi and run
counterclockwise, so the angle parametrization matches the branch cut
of the principal logarithm.

Splits are evaluated in one of two ways, chosen from the input alone.  A
grid of ``circle_nodes`` on the split's own radius, any length n (known by
identity, ``grid_of``), takes one length-n inverse FFT of the coefficients
folded by ``j mod n`` (exact aliasing of the truncated series; zero-padding
when n >= m); the d-th derivative multiplies c_j by j(j-1)...(j-d+1) and
divides by q^d.  Anything else (scalars, scattered points, the origin,
other radii or rotations, copies of a grid) sums powers of q/rho directly.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

PHASE0 = -np.pi
GRID_MEMO = 64      # grids held by circle_nodes: one verify pass asks for 40
LAYOUT_MEMO = 8     # FFT sizes whose coefficient layout laurent_coeffs holds

_GRIDS = {}         # id of every live circle_nodes grid -> (radius, m)


@functools.lru_cache(maxsize=GRID_MEMO)
def circle_nodes(radius: float, m: int):
    """Counterclockwise nodes q_j = radius*exp(i*phi_j), phi_j in [-pi, pi);
    memoised, so the same read-only array serves every caller of a grid."""
    phi = PHASE0 + 2.0 * np.pi * np.arange(m) / m
    nodes = radius * np.exp(1j * phi)
    nodes.flags.writeable = False
    _GRIDS[id(nodes)] = (float(radius), m)
    weakref.finalize(nodes, _GRIDS.pop, id(nodes), None)
    return nodes


def grid_of(q):
    """(radius, m) when ``q`` is itself a grid made by ``circle_nodes`` (one
    still alive, whether or not the memo still holds it), else None.  By
    identity alone: it never builds a grid nor compares values, so an equal
    copy or a view of a grid is not one."""
    return _GRIDS.get(id(q))


def pow2_at_least(n: int) -> int:
    """Smallest power of two >= n, the node count of an FFT grid."""
    return 1 << (n - 1).bit_length()


def circle_weights(nodes, m: int):
    """Trapezoidal dq weights 2*pi*i*q/m of the nodes of ``circle_nodes``."""
    return 2j * np.pi * nodes / m


@functools.lru_cache(maxsize=LAYOUT_MEMO)
def _fft_layout(m: int):
    """(j ascending, the order that sorts the FFT's j, the phase
    e^{-i j PHASE0} in FFT order) of an m-point transform, read-only."""
    j = np.fft.fftfreq(m, 1.0 / m).astype(int)
    phase = np.exp(-1j * j * PHASE0)   # grid starts at angle -pi, not 0
    order = np.argsort(j)
    layout = (j[order], order, phase)
    for a in layout:
        a.flags.writeable = False
    return layout


def laurent_coeffs(values):
    """Laurent coefficients c_j of f on its sampling circle.

    f(q) ~ sum_j c_j (q/rho)^j for the grid produced by circle_nodes.
    Returns (j, c) with j = -m/2 .. m/2-1 in ascending order; j is the
    read-only array shared by every transform of length m.
    """
    m = len(values)
    j, order, phase = _fft_layout(m)
    c = np.fft.fft(np.asarray(values, dtype=complex)) / m
    return j, (c * phase)[order]


SIDES = {"plus": lambda j: j >= 0, "minus": lambda j: j < 0,
         "all": lambda j: np.ones(j.shape, dtype=bool)}


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
        self._terms_memo = {}

    def tail_ratio(self) -> float:
        """Relative size of the largest edge coefficient (aliasing indicator)."""
        scale = np.max(np.abs(self.c))
        if scale == 0.0:
            return 0.0
        edge = max(np.abs(self.c[0]), np.abs(self.c[-1]))
        return float(edge / scale)

    def _terms(self, side: str, derivative: int, path: str):
        """The coefficients of one side ("plus", "minus" or "all") times
        j(j-1)...(j-d+1), prepared for one evaluation path: on "grid" rotated
        by e^{i j PHASE0}, for "direct" the value at the origin and the
        nonzero terms by power base.  Formed once per split."""
        key = (side, derivative, path)
        terms = self._terms_memo.get(key)
        if terms is None:
            c = np.where(SIDES[side](self.j), self.c, 0.0)
            for k in range(derivative):
                c = c * (self.j - k)
            if path == "grid":
                terms = c * np.exp(1j * PHASE0 * self.j)
            else:
                terms = self._power_terms(c, derivative)
            self._terms_memo[key] = terms
        return terms

    def _power_terms(self, c, derivative: int):
        """(value at the origin, [(inverse, |j|, c_j, k > 0 for k = 0 ..
        max |j|)]): the terms j >= 0, powers of z = q/rho, then j < 0,
        powers of 1/z."""
        # drop exactly-zero terms (masked out, or cancelled by the factorial):
        # their powers may overflow, and inf * 0 = nan
        keep = c != 0.0
        j, c = self.j[keep], c[keep]
        # at the origin only the j = derivative term survives
        origin = (np.nan if np.any(j < 0) else
                  c[j == derivative].sum() / self.radius ** derivative)
        terms = []
        for inverse, sel in ((False, j >= 0), (True, j < 0)):
            if np.any(sel):
                absj = np.abs(j[sel])
                terms.append((inverse, absj, c[sel],
                              np.arange(np.max(absj) + 1) > 0))
        return origin, terms

    def _eval(self, q, side: str, derivative=0):
        q = np.asarray(q, dtype=complex)
        n = q.size
        if q.ndim == 1 and n and grid_of(q) == (self.radius, n):
            c = self._terms(side, derivative, "grid")
            slot = self.j % n
            out = n * np.fft.ifft(np.bincount(slot, c.real, n) +
                                  1j * np.bincount(slot, c.imag, n))
            return out / q ** derivative if derivative else out
        origin, terms = self._terms(side, derivative, "direct")
        scalar = q.ndim == 0
        qf = np.atleast_1d(q)
        out = np.full(qf.shape, origin, dtype=complex)
        nz = qf != 0.0
        # running products of z = q/rho for j >= 0 and of 1/z for j < 0:
        # no complex pow, and no rho**j, which alone overflows for large m
        z = qf[nz, None] / self.radius
        acc = np.zeros(z.shape[0], dtype=complex)
        for inverse, absj, c, later in terms:
            powers = np.cumprod(np.where(later, 1.0 / z if inverse else z,
                                         1.0), axis=1)
            acc += powers[:, absj] @ c
        out[nz] = acc / qf[nz] ** derivative
        return out[0] if scalar else out

    def plus(self, q, derivative=0):
        return self._eval(q, "plus", derivative)

    def minus(self, q, derivative=0):
        return -self._eval(q, "minus", derivative)

    def reconstruct(self, q, derivative=0):
        """Full series value; valid in the annulus of analyticity."""
        return self._eval(q, "all", derivative)

    def zero_mode(self) -> complex:
        return self.coefficient(0)

    def coefficient(self, k: int) -> complex:
        """c_k, or 0 past the grid; j runs -m/2 .. m/2 - 1 one by one."""
        at = k - int(self.j[0])
        return complex(self.c[at]) if 0 <= at < self.m else 0.0

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
other radii or rotations, copies of a grid) goes to ``horner``, the one
routine that sums a polynomial or Laurent series off such a grid.
"""

from __future__ import annotations

import copy
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


def horner(c, q):
    """sum_k c[k] q^k by Horner's rule, for ascending coefficients c (a
    nonempty sequence) at a point or an array of points; for an array c the
    recursion, and the bits, of ``numpy.polynomial.polynomial.polyval``."""
    acc = c[-1] + q * 0
    for a in c[-2::-1]:
        acc = a + acc * q
    return acc


def clog(z):
    """The principal logarithm log|z| + i arg z, elementwise: numpy 2's
    complex ``log`` takes 4-10x as long (70-170 against 15-20 us on 1024
    points, one core of an x86-64 host).  The real part is the log of the
    rounded |z|: relative precision at any modulus, but only absolute
    precision, eps, where |z| is near 1."""
    out = np.log(np.abs(z)).astype(complex)
    out.imag = np.angle(z)
    return out


def laurent_terms(e, a):
    """(plus, minus): the lists that ``laurent_sum`` takes for
    sum_e a_e z^e, e distinct integers; a_e at plus[e] for e >= 0 and at
    minus[-e] for e < 0.  Exactly-zero a_e are dropped: neither list ends in
    a zero, except plus = [0] when no e >= 0 is left, and minus is empty
    when no e < 0 is."""
    e, a = np.asarray(e, dtype=int), np.asarray(a, dtype=complex)
    e, a = e[a != 0.0], a[a != 0.0]
    plus = np.zeros(e.max(initial=0) + 1, dtype=complex)
    minus = np.zeros(1 - e.min(initial=0), dtype=complex)
    plus[e[e >= 0]] = a[e >= 0]
    minus[-e[e < 0]] = a[e < 0]
    return plus.tolist(), minus.tolist() if len(minus) > 1 else []


def laurent_sum(terms, z):
    """sum_e a_e z^e from ``laurent_terms``: Horner's rule in z, and in 1/z
    for the e < 0."""
    plus, minus = terms
    out = horner(plus, z)
    return out + horner(minus, 1.0 / z) if minus else out


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


def grid_powers(m: int, p: int):
    """u_j^p for the m nodes u_j of ``circle_nodes(1.0, m)``, from the
    exact index j p mod m: u_j^p = (-1)^p e^{2 pi i j p / m}, the grid
    starting at angle -pi."""
    return (1 - 2 * (p % 2)) * np.exp(2j * np.pi * (np.arange(m) * p % m) / m)


def grid_sums(spectrum, s):
    """sum_j values[..., j] u_j^-s, u_j as in ``grid_powers`` with m =
    values.shape[-1], for every integer in the array s, any range, from
    spectrum = np.fft.fft(values) along the last axis: read at s mod m with
    the sign (-1)^s, so that one FFT serves sums at any indices."""
    s = np.asarray(s)
    return spectrum[..., s % spectrum.shape[-1]] * (1 - 2 * (s % 2))


SIDES = {"plus": lambda j: j >= 0, "minus": lambda j: j < 0,
         "all": lambda j: np.ones(j.shape, dtype=bool)}


class LaurentSplit:
    r"""Plus/minus Cauchy split of a function given on an origin-centered circle.

    For f with Laurent coefficients c_j on the circle |k| = rho,
    the transform F(q) = (1/2pi i) \oint f(k)/(k-q) dk splits into

        plus(q)  = sum_{j>=0} c_j (q/rho)^j     (analytic inside, |q| < rho)
        minus(q) = -sum_{j<0} c_j (q/rho)^j     (analytic outside, |q| > rho)

    Boundary values on the circle itself come from the same series.
    ``values`` holds the samples it was built from, on ``circle_nodes(radius,
    m)``, read-only: routes that share a split read them, and none may write.
    """

    def __init__(self, values, radius: float):
        self.radius = float(radius)
        self.j, self.c = laurent_coeffs(values)
        self.m = len(values)
        self.values = np.asarray(values).view()
        self.values.flags.writeable = False
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
        by e^{i j PHASE0}, for "direct" the ``laurent_terms`` of
        sum_j c_j z^(j-d), z = q/rho.  Formed once per split."""
        key = (side, derivative, path)
        terms = self._terms_memo.get(key)
        if terms is None:
            c = np.where(SIDES[side](self.j), self.c, 0.0)
            for k in range(derivative):
                c = c * (self.j - k)
            if path == "grid":
                terms = c * np.exp(1j * PHASE0 * self.j)
            else:
                terms = laurent_terms(self.j - derivative, c)
            self._terms_memo[key] = terms
        return terms

    def _eval(self, q, side: str, derivative=0):
        q = np.asarray(q, dtype=complex)
        n = q.size
        if q.ndim == 1 and n and grid_of(q) == (self.radius, n):
            c = self._terms(side, derivative, "grid")
            slot = self.j % n
            out = n * np.fft.ifft(np.bincount(slot, c.real, n) +
                                  1j * np.bincount(slot, c.imag, n))
            return out / q ** derivative if derivative else out
        # rho^-d sum_j c_j j(j-1)...(j-d+1) z^(j-d) divides by no power of
        # q, so the plus side holds at the origin too
        out = laurent_sum(self._terms(side, derivative, "direct"),
                          q / self.radius)
        return out / self.radius ** derivative if derivative else out

    def plus(self, q, derivative=0):
        return self._eval(q, "plus", derivative)

    def minus(self, q, derivative=0):
        return -self._eval(q, "minus", derivative)

    def reconstruct(self, q, derivative=0):
        """Full series value; valid in the annulus of analyticity."""
        return self._eval(q, "all", derivative)

    def keep(self, part) -> "LaurentSplit":
        """The same split with only the modes ``part`` selects (a mask over
        ``j``), the others exactly 0, so neither evaluation path sums them;
        it holds no samples (``values`` None), as none are its own."""
        kept = copy.copy(self)
        kept.c = np.where(part, self.c, 0.0)
        kept.values = None
        kept._terms_memo = {}
        return kept

    def coefficient(self, k: int) -> complex:
        """c_k, or 0 past the grid; j runs -m/2 .. m/2 - 1 one by one."""
        at = k - int(self.j[0])
        return complex(self.c[at]) if 0 <= at < self.m else 0.0

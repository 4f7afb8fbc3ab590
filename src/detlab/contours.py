"""The contour: one origin-centered counterclockwise circle, given by its
radius alone, and its choice from a symbol's zeros and poles.  Its grids are
``_series.circle_nodes(radius, m)`` with ``circle_weights(nodes, m)``.

A Fredholm kernel in residue form over a zero set is analytic off that set,
the origin and the poles of phi: a zero swapped out of the set is a regular
point, so the swapped determinant is taken on a larger plain circle, and no
contour needs a second component.
"""

from __future__ import annotations

import functools

import numpy as np

from . import errors, symbols

EXPANSION = 1.25   # default outward factor when nothing obstructs


def radius_past(r: float, obstructions, sign: int) -> float:
    """A radius past r, outward for sign > 0 and inward for sign < 0: the
    geometric mean of r and the nearest of the positive ``obstructions`` on
    that side, or r * EXPANSION, resp. r / EXPANSION, when none lies there."""
    if sign > 0:
        beyond = [p for p in obstructions if p > r]
        return float(np.sqrt(r * min(beyond))) if beyond else r * EXPANSION
    beyond = [p for p in obstructions if 0 < p < r]
    return float(np.sqrt(r * max(beyond))) if beyond else r / EXPANSION


def select_contour(analysis: symbols.SymbolAnalysis) -> float:
    """Radius of the origin-centered circle enclosing (or excluding) the
    selected zeros.

    Zero winding: the unit circle.  Negative winding: ``radius_past`` the
    selected zeros outward, with the remaining zeros and the poles further
    out as obstructions.  Positive winding mirrors this inward.  A pole
    between the unit circle and the selected zeros would leave phi winding
    on that circle: EmptyAnnulus.
    """
    n = analysis.winding
    if n == 0:
        return 1.0
    if not analysis.z_list:
        raise errors.EmptyAnnulus("nonzero winding but no zeros to enclose")
    zmod = (max if n < 0 else min)(abs(z) for z in analysis.z_list)
    if any(min(1.0, zmod) < p < max(1.0, zmod) for p in analysis.pole_moduli):
        raise errors.EmptyAnnulus(
            "a pole lies between the unit circle and the selected zeros")
    obstructions = [abs(w) for w in analysis.w_list] + [*analysis.pole_moduli]
    rho = radius_past(zmod, obstructions, -n)
    if (rho <= zmod * (1 + 1e-9)) if n < 0 else (rho >= zmod * (1 - 1e-9)):
        raise errors.EmptyAnnulus(
            "no radius separates the selected zeros from obstructions")
    return rho


def base_contour(spec: symbols.SymbolSpec) -> float:
    """Radius of the symbol's own circle, where phi does not wind: the
    ``select_contour`` of its memoised analysis, chosen once per analysis;
    EmptyAnnulus, raised on every call, where there is none."""
    return _own_radius(symbols.analyze(spec))


@functools.lru_cache(maxsize=32)
def _own_radius(analysis: symbols.SymbolAnalysis) -> float:
    return select_contour(analysis)

"""The contour: one origin-centered counterclockwise circle, its spectrally
accurate trapezoid quadrature, and its choice from a symbol's zeros and poles.

A Fredholm kernel in residue form over a zero set is analytic off that set,
the origin and the poles of phi: a zero swapped out of the set is a regular
point, so the swapped determinant is taken on a larger plain circle, and no
contour needs a second component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from ._series import circle_nodes, circle_weights
from .symbols import SymbolAnalysis

EXPANSION = 1.25   # default outward factor when nothing obstructs


@dataclass(frozen=True)
class Contour:
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise errors.InputError("contour radius must be positive")

    def to_json_dict(self):
        return {"components": [{"center": [0.0, 0.0], "radius": self.radius,
                                "orientation": 1}]}


@dataclass(frozen=True)
class Quadrature:
    nodes: np.ndarray
    weights: np.ndarray     # dq weights; sum f(q_j) w_j ~ \oint f dq


def unit_circle() -> Contour:
    return Contour(1.0)


def quadrature(contour: Contour, m: int) -> Quadrature:
    if m < 16:
        raise errors.InputError("need at least 16 nodes on the circle")
    nodes = circle_nodes(contour.radius, m)
    return Quadrature(nodes, circle_weights(nodes, m))


def select_contour(analysis: SymbolAnalysis) -> Contour:
    """Single origin-centered circle enclosing (or excluding) the selected zeros.

    Zero winding: the unit circle.  Negative winding: a circle just beyond the
    selected zeros, geometric mean with the nearest obstruction (remaining
    zeros or poles further out), or 25% beyond when nothing obstructs.
    Positive winding mirrors this inward.  A pole between the unit circle and
    the selected zeros would leave phi winding on that circle: EmptyAnnulus.
    """
    n = analysis.winding
    if n == 0:
        return unit_circle()
    if not analysis.z_list:
        raise errors.EmptyAnnulus("nonzero winding but no zeros to enclose")
    zmod = (max if n < 0 else min)(abs(z) for z in analysis.z_list)
    if any(min(1.0, zmod) < p < max(1.0, zmod) for p in analysis.pole_moduli):
        raise errors.EmptyAnnulus(
            "a pole lies between the unit circle and the selected zeros")
    if n < 0:
        obstructions = [abs(w) for w in analysis.w_list if abs(w) > zmod]
        obstructions += [p for p in analysis.pole_moduli if p > zmod]
        rho = np.sqrt(zmod * min(obstructions)) if obstructions else zmod * EXPANSION
        if rho <= zmod * (1 + 1e-9):
            raise errors.EmptyAnnulus("no radius separates selected zeros from obstructions")
    else:
        obstructions = [abs(w) for w in analysis.w_list if abs(w) < zmod]
        obstructions += [p for p in analysis.pole_moduli if 0 < p < zmod]
        rho = np.sqrt(zmod * max(obstructions)) if obstructions else zmod / EXPANSION
        if rho >= zmod * (1 - 1e-9):
            raise errors.EmptyAnnulus("no radius separates excluded zeros from obstructions")
    return Contour(float(rho))

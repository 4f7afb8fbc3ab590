"""Contours as unions of oriented circles, with spectrally accurate quadrature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from ._series import circle_nodes, circle_weights
from .symbols import SymbolAnalysis

EXPANSION = 1.25   # default outward factor when nothing obstructs


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float
    orientation: int = 1      # +1 counterclockwise, -1 clockwise

    def __post_init__(self):
        if self.radius <= 0:
            raise errors.InputError("circle radius must be positive")
        if self.orientation not in (+1, -1):
            raise errors.InputError("orientation must be +1 or -1")


@dataclass(frozen=True)
class Contour:
    components: tuple

    def __post_init__(self):
        outer = [c for c in self.components
                 if c.orientation == 1 and c.center == 0]
        if len(outer) != 1:
            raise errors.GeometryConflict("need exactly one counterclockwise circle at the origin")
        rad = outer[0].radius
        for c in self.components:
            if c is outer[0]:
                continue
            if c.orientation != -1:
                raise errors.GeometryConflict("inner components must be clockwise")
            if abs(c.center) + c.radius >= rad:
                raise errors.GeometryConflict("inner component not strictly inside the outer circle")
        for a in self.components:
            for b in self.components:
                if a is b or a.orientation == 1 or b.orientation == 1:
                    continue
                if a is not b and abs(a.center - b.center) <= a.radius + b.radius \
                        and id(a) < id(b):
                    raise errors.GeometryConflict("contour components intersect")

    @property
    def outer(self) -> Circle:
        return next(c for c in self.components if c.orientation == 1)

    @property
    def radius(self) -> float:
        return self.outer.radius

    def is_single_circle(self) -> bool:
        return len(self.components) == 1

    def contains(self, q) -> bool:
        """True when q lies in the region D enclosed by the contour."""
        if abs(q) >= self.radius:
            return False
        return all(abs(q - c.center) > c.radius
                   for c in self.components if c.orientation == -1)

    def to_json_dict(self):
        return {"components": [{"center": [c.center.real, c.center.imag],
                                "radius": c.radius,
                                "orientation": c.orientation}
                               for c in self.components]}


@dataclass(frozen=True)
class Quadrature:
    nodes: np.ndarray
    weights: np.ndarray     # dq weights; sum f(q_j) w_j ~ \oint f dq


def unit_circle() -> Contour:
    return Contour((Circle(0.0, 1.0, 1),))


def quadrature(contour: Contour, m: int) -> Quadrature:
    if m < 16:
        raise errors.InputError("need at least 16 nodes per component")
    nodes, weights = [], []
    for c in contour.components:
        n = circle_nodes(c.radius, m, c.center)
        nodes.append(n)
        weights.append(circle_weights(n, m, c.center, c.orientation))
    return Quadrature(np.concatenate(nodes), np.concatenate(weights))


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
    return Contour((Circle(0.0, float(rho), 1),))


def deformed_contour(base: Contour, exclude, include, analysis: SymbolAnalysis) -> Contour:
    """Enlarge the outer circle past the ``include`` points and cut clockwise
    loops around each ``exclude`` point."""
    exclude = [complex(z) for z in exclude]
    include = [complex(w) for w in include]
    if not exclude and not include:
        return base
    for z in exclude:
        if not base.contains(z):
            raise errors.GeometryConflict(f"excluded point {z} is not inside the base contour")
    for w in include:
        if base.contains(w):
            raise errors.GeometryConflict(f"included point {w} is already inside the base contour")

    rho = base.radius
    if include:
        rho = max(abs(w) for w in include) * EXPANSION
    others = [z for z in analysis.zeros] + [p for p, _ in analysis.poles]
    loops = []
    for z in exclude:
        dists = [abs(z - o) for o in others if abs(z - o) > 1e-12]
        r = min(0.4, min(dists) / 2.0) if dists else 0.4
        if abs(z) + r >= rho:
            raise errors.GeometryConflict(f"loop around {z} reaches the outer circle")
        for o in others:
            if abs(z - o) > 1e-12 and abs(z - o) <= r:
                raise errors.GeometryConflict(f"loop around {z} would contain {o}")
        loops.append(Circle(z, r, -1))
    for a in loops:
        for b in loops:
            if a is not b and abs(a.center - b.center) <= a.radius + b.radius:
                raise errors.GeometryConflict("exclusion loops intersect")
    comps = (Circle(0.0, float(rho), 1),) + tuple(loops)
    return Contour(comps)

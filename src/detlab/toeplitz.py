"""Exact reference values: finite determinants of Fourier moments.

This module is the ground truth for the whole library; it depends only on
the symbol layer and the contour selection, and shares no code with the
kernel/asymptotics machinery.
"""

from __future__ import annotations

import numpy as np

from . import errors, symbols
from ._series import circle_nodes, laurent_coeffs, pow2_at_least
from .contours import select_contour


def _sample_radius(spec: symbols.SymbolSpec) -> float:
    """Radius of the circle where phi does not wind; 1 if none is found."""
    try:
        return select_contour(symbols.analyze(spec)).radius
    except errors.DetlabError:
        return 1.0


def moment_table(spec: symbols.SymbolSpec, x: int):
    """Moments rho^k c_k of phi for |k| <= x in ascending k, sampled for x
    rows on the circle |q| = rho where phi does not wind: the matrix becomes
    D T D^{-1}, D = diag(rho^i), with the same determinant, better conditioned."""
    nodes = circle_nodes(_sample_radius(spec), pow2_at_least(max(256, 8 * x)))
    ks, c = laurent_coeffs(symbols.eval_phi(spec, nodes))
    if max(abs(c[0]), abs(c[-1])) > 1e-13 * np.max(np.abs(c)):
        raise errors.AliasingSuspected("phi moment tail has not decayed")
    keep = np.abs(ks) <= x
    return dict(zip(ks[keep].tolist(), c[keep].tolist()))


def toeplitz_matrix(spec: symbols.SymbolSpec, x: int) -> np.ndarray:
    """T_ij = c_{i-j}, gathered from the moment vector c_{-x} .. c_x."""
    if x < 1 or x != int(x):
        raise errors.InputError("matrix order must be a positive integer")
    moments = np.array(list(moment_table(spec, x).values()))
    return moments[np.subtract.outer(np.arange(x), np.arange(x)) + x]


def toeplitz_det(spec: symbols.SymbolSpec, x: int) -> complex:
    """Determinant of the x-by-x moment matrix via LU; loud on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = complex(np.linalg.det(toeplitz_matrix(spec, x)))
    if not np.isfinite(det):
        raise errors.OverflowGuard(f"moment determinant at x={x} is {det}")
    return det

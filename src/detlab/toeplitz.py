"""Exact reference values: finite determinants of Fourier moments.

This module is the ground truth for the whole library; it depends only on
the symbol layer and shares no code with the kernel/asymptotics machinery.
"""

from __future__ import annotations

import numpy as np

from . import errors, symbols
from ._series import pow2_at_least


def moment_table(spec: symbols.SymbolSpec, x: int):
    """Moments c_k of phi for |k| <= x in ascending k, sampled for x rows."""
    ks, c, _ = symbols.fourier_coefficients(spec, pow2_at_least(max(256, 8 * x)))
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

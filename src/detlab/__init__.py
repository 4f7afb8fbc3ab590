"""detlab: determinants of deformed symbols on circular contours.

Exact Toeplitz-moment oracles, Nystrom Fredholm determinants of integrable
kernels, scalar Riemann-Hilbert transforms, the full ladder of exact and
asymptotic determinant formulas, finite-size overlap sums, and the
orthogonal-polynomial solution of the associated 2x2 Riemann-Hilbert
problem -- every identity cross-validated against independent routes.
"""

from . import (asymptotics, cauchy, contours, errors, formfactors, fredholm,
               orthopoly, symbols, toeplitz)
from .asymptotics import (base_contour, borodin_okounkov, hartwig_fisher,
                          hf_leading, slavnov_series, szego, tau_eff,
                          tau_leading)
from .cauchy import CauchySuite
from .contours import Circle, Contour, unit_circle
from .formfactors import solve_shifted, tau_eff_finite
from .fredholm import kernel_S, kernel_V, nystrom_det
from .orthopoly import MeasureMu, RHPSolution, hf_moment_equivalence
from .symbols import SymbolSpec, analyze, fixture, load_symbol
from .toeplitz import toeplitz_det

__version__ = "0.1.0"

__all__ = [
    "asymptotics", "cauchy", "contours", "errors", "formfactors", "fredholm",
    "orthopoly", "symbols", "toeplitz",
    "base_contour", "borodin_okounkov", "hartwig_fisher", "hf_leading",
    "slavnov_series", "szego", "tau_eff", "tau_leading",
    "CauchySuite", "Circle", "Contour", "unit_circle",
    "solve_shifted", "tau_eff_finite", "kernel_S", "kernel_V", "nystrom_det",
    "MeasureMu", "RHPSolution", "hf_moment_equivalence",
    "SymbolSpec", "analyze", "fixture", "load_symbol", "toeplitz_det",
    "__version__",
]

"""Exception hierarchy shared by all detlab modules."""

import cmath
import math
import sys

# Re log of a magnitude inside the normal double range
LOG_MAX = math.log(sys.float_info.max)
LOG_TINY = math.log(sys.float_info.min)


class DetlabError(Exception):
    """Base class for all detlab-specific failures."""


class InputError(DetlabError):
    """Invalid symbol file or violated construction invariant (CLI exit 2)."""


class NumericalError(DetlabError):
    """A numerical procedure failed to reach its target (CLI exit 3)."""


# --- symbol module ---

class PoleHit(NumericalError):
    """Evaluation point coincides with a pole of the symbol."""


class ZeroOnContour(NumericalError):
    """The symbol vanishes (numerically) at a quadrature node."""


class WindingInconsistent(NumericalError):
    """Quadrature winding disagrees with zero/pole counting."""


class DegenerateZeros(InputError):
    """Two zeros of a symbol of nonzero winding share a modulus within
    SEP_TOL."""


class RootFindFailure(NumericalError):
    """Newton polishing of a polynomial root diverged."""


# --- contour module ---

class EmptyAnnulus(InputError):
    """No circle radius separates the selected zeros from obstructions."""


# --- cauchy module ---

class TooCloseToContour(NumericalError):
    """Quadrature target point too close to a node for reliable evaluation."""


class NoResidueForm(InputError):
    """Residue evaluation unavailable for this symbol family."""


class TruncationFailure(NumericalError):
    """Laurent coefficient tail did not decay below tolerance at the cap."""


# --- fredholm module ---

class NotConverged(NumericalError):
    """Nystrom determinant did not stabilize within the node budget."""


class NotASimpleZero(InputError):
    """Rank-one residue kernel requested at a non-simple zero."""


# --- asymptotics module ---

class WindingNonzero(InputError):
    """Operation requires a zero-winding symbol."""


class WindingNonnegative(InputError):
    """Operation requires a negative winding number."""


class NotAvailable(InputError):
    """Requested correction term has no zeros to build it from."""


class TailNotConverged(NumericalError):
    """Series tail in a coefficient sum did not fall below cutoff."""


class Cancellation(NumericalError):
    """A determinant so far below the product of its row norms (Hadamard's
    bound) that rounding the entries may leave none of its digits."""


# --- formfactors module ---

class NewtonDiverged(NumericalError):
    """The finite-size roots are not one per cell of the counting function."""


class OverflowGuard(NumericalError):
    """A log-magnitude left the double range: a determinant or closed form
    exponentiated from its logarithm, or a q^x density of a Cauchy suite."""


def exp_in_range(log_value, factor=1.0) -> complex:
    """factor * exp(log_value); OverflowGuard instead of an inf, a NaN, or a
    magnitude that underflows past the normal double range."""
    log_value = complex(log_value)
    if not LOG_TINY <= log_value.real < LOG_MAX:
        raise OverflowGuard(
            f"log-magnitude {log_value.real:.1f} is outside the double range")
    value = complex(factor) * cmath.exp(log_value)
    if not cmath.isfinite(value):
        raise OverflowGuard(f"{value} at log-magnitude {log_value.real:.1f}")
    return value


def check_x(x) -> int:
    """The order x as an int; InputError unless it is a nonnegative integer."""
    try:
        if x >= 0 and x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"x = {x!r} is not a nonnegative integer")


# --- orthopoly module ---

class SingularGram(NumericalError):
    """Moment (Gram) determinant numerically singular; polynomials undefined."""

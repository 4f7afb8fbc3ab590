"""Symbol weights theta(q), phi(q) = 1 + theta(q), and their phase shift.

One form covers every symbol: phi(q) = P(q)/Q(q) * exp(sum_j t_j q^j).  P/Q
carries every zero and pole, so the winding too; the smooth exponential
factor has none off the origin.  Either may be absent: P = Q = 1, or no t_j.
"""

from __future__ import annotations

import collections
import functools
import json
import os
from dataclasses import InitVar, dataclass
from importlib import resources

import numpy as np

from . import errors
from ._series import (circle_nodes, clog, grid_of, horner, laurent_sum,
                      laurent_terms)

SEP_TOL = 1e-6      # smallest gap between two zeros at nonzero winding or
                    # in a residue sum, and between the moduli at the edge
                    # of the zero selection
SAMPLE_MEMO = 1 << 22  # bytes of the grid samples eval_phi and eval_nu_grid
SAMPLE_M_MAX = 4096    # hold, each of at most this many nodes (64 KB)
POLISH_TOL = 1e-12  # backward error of a polished zero of P, relative
POLISH_MAXIT = 40   # Newton steps of one polish


@dataclass(frozen=True)
class SymbolSpec:
    """Weight specification; immutable, hashable and safe to share between
    threads.  ``log_coeffs`` may be given as a dict j -> t_j and is stored as
    a tuple of (j, t_j) pairs sorted by j.  A leading ``kind``, "rational" or
    "laurent_phase" (the two former symbol kinds), is checked, not stored.
    The coefficient lists that evaluation sums, the roots of P and Q, and
    the Laurent form that ``laurent_polynomial`` returns, are formed here,
    once."""

    kind: InitVar[str | None] = None
    numer: tuple = (1.0,)      # P, ascending powers of q
    denom: tuple = (1.0,)      # Q
    log_coeffs: tuple = ()     # (j, t_j) pairs
    label: str = ""

    def __post_init__(self, kind):
        if kind not in (None, "rational", "laurent_phase"):
            raise errors.InputError(f"unknown symbol kind {kind!r}")
        object.__setattr__(self, "numer", tuple(complex(c) for c in self.numer))
        object.__setattr__(self, "denom", tuple(complex(c) for c in self.denom))
        lc = {int(j): complex(t) for j, t in dict(self.log_coeffs).items()}
        if not np.all(np.isfinite([*self.numer, *self.denom, *lc.values()])):
            raise errors.InputError("symbol coefficients must be finite")
        roots = self._validate_rational()
        # the exponent is summed over a dense list of its 1 + max |j| powers
        if lc and max(map(abs, lc)) > 1 << 16:
            raise errors.InputError("exponent index |j| above 2^16")
        object.__setattr__(self, "log_coeffs", tuple(sorted(lc.items())))
        j, t = np.array(list(lc), dtype=int), np.array(list(lc.values()))
        p, *rest = np.flatnonzero(self.denom).tolist()
        for name, value in (
                ("_roots", roots),
                ("_dnumer", derivative(self.numer)),
                ("_laurent", None if lc or rest else (p, tuple(
                    (np.array(self.numer) / self.denom[p]).tolist()))),
                ("_ddenom", derivative(self.denom)),
                ("_pole_scale", max(max(map(abs, self.denom)), 1.0)),
                ("_exponent_terms", (laurent_terms(j, t),
                                     laurent_terms(j - 1, j * t)))):
            object.__setattr__(self, name, value)

    def _validate_rational(self) -> tuple:
        """The roots of P and of Q, read-only, once P/Q is checked."""
        p = np.array(self.numer, dtype=complex)
        q = np.array(self.denom, dtype=complex)
        if not len(p) or not np.any(p) or not len(q) or not np.any(q):
            raise errors.InputError("symbol needs nonzero numerator and denominator")
        pr, qr = _poly_roots(p), _poly_roots(q)
        for r in pr:
            if abs(abs(r) - 1.0) < 1e-8:
                raise errors.InputError(f"numerator root {r} lies on the unit circle")
            if len(qr) and np.min(np.abs(qr - r)) < 1e-10:
                raise errors.InputError("numerator and denominator share a root")
        for r in qr:
            if abs(abs(r) - 1.0) < 1e-8:
                raise errors.InputError(f"denominator root {r} lies on the unit circle")
        pr.flags.writeable = qr.flags.writeable = False
        return pr, qr


def laurent_polynomial(spec: SymbolSpec):
    """(p, P/a) when phi = P(q)/(a q^p) is a Laurent polynomial, P/a a
    tuple of its coefficients ascending from q^-p; None for every other
    symbol.  Formed with the spec, so every call returns the same value."""
    return spec._laurent


def derivative(coeffs) -> list:
    """Ascending coefficients of the derivative of the polynomial of the
    ascending ``coeffs``: k c_k for k >= 1, or [0j] for a constant."""
    return [k * coeffs[k] for k in range(1, len(coeffs))] or [0j]


def _poly_roots(coeffs_ascending):
    c = np.trim_zeros(np.asarray(coeffs_ascending, dtype=complex), "b")
    if len(c) <= 1:
        return np.array([], dtype=complex)
    return np.roots(c[::-1])


def _ratio(spec: SymbolSpec, q, derivative: bool = False):
    """P(q)/Q(q), PoleHit at a root of Q; or (P/Q)'(q)."""
    if derivative:
        den = horner(spec.denom, q)
        return (horner(spec._dnumer, q) * den -
                horner(spec.numer, q) * horner(spec._ddenom, q)) / den ** 2
    return horner(spec.numer, q) / _denominator(spec, q)


def _denominator(spec: SymbolSpec, q):
    """Q(q), PoleHit at a root of Q."""
    den = horner(spec.denom, q)
    if np.any(np.abs(den) < 1e-14 * spec._pole_scale):
        raise errors.PoleHit("evaluation point hits a denominator root")
    return den


def _exponent(spec: SymbolSpec, q, derivative: bool = False):
    """sum_j t_j q^j, or its derivative: Horner's rule in q for j >= 0 and
    in 1/q for j < 0."""
    return laurent_sum(spec._exponent_terms[derivative], q)


_samples = collections.OrderedDict()   # (evaluator, spec, radius, m) -> array
_sample_bytes = 0                      # their nbytes, summed


def _memo_on_grids(evaluate):
    """``evaluate(spec, q)``, memoised for q a ``circle_nodes`` grid (known
    by identity, ``grid_of``) of at most SAMPLE_M_MAX nodes: the latest such
    results, SAMPLE_MEMO bytes at most, are held, read-only, and returned as
    they are; any other q, and every call that raises, is evaluated
    afresh."""
    @functools.wraps(evaluate)
    def memoised(spec, q):
        global _sample_bytes
        grid = grid_of(q)
        if grid is None or grid[1] > SAMPLE_M_MAX:
            return evaluate(spec, q)
        key = (evaluate, spec, *grid)
        out = _samples.get(key)
        if out is None:
            out = evaluate(spec, q)
            out.flags.writeable = False
            _samples[key] = out
            _sample_bytes += out.nbytes
            while _sample_bytes > SAMPLE_MEMO:
                _sample_bytes -= _samples.popitem(last=False)[1].nbytes
        else:
            _samples.move_to_end(key)
        return out
    return memoised


@_memo_on_grids
def eval_phi(spec: SymbolSpec, q):
    """phi(q) = 1 + theta(q); a factor that is 1 is not evaluated."""
    q = np.asarray(q, dtype=complex)
    if not spec.log_coeffs:
        return _ratio(spec, q)
    phi = np.exp(_exponent(spec, q))
    return phi if spec.numer == spec.denom else phi * _ratio(spec, q)


def eval_theta(spec: SymbolSpec, q):
    return eval_phi(spec, q) - 1.0


def eval_dphi(spec: SymbolSpec, q):
    """phi'(q); (R e^E)' = e^E (R' + R E') where both factors are present."""
    q = np.asarray(q, dtype=complex)
    if not spec.log_coeffs:
        return _ratio(spec, q, derivative=True)
    dlog = _exponent(spec, q, derivative=True)
    if spec.numer == spec.denom:
        return eval_phi(spec, q) * dlog
    return np.exp(_exponent(spec, q)) * (_ratio(spec, q, derivative=True) +
                                         _ratio(spec, q) * dlog)


def dphi_at(spec: SymbolSpec, z: complex) -> complex:
    """phi'(z) at one point: for phi = P/Q by Horner's rule in Python
    scalars, ~2 us on F4 against ~10 us for ``eval_dphi`` on a 0-d array
    (one core of an x86-64 host); with t_j ``eval_dphi``'s value."""
    if spec.log_coeffs:
        return complex(eval_dphi(spec, np.asarray(z, dtype=complex)))
    return complex(_ratio(spec, complex(z), derivative=True))


def eval_log_phi(spec: SymbolSpec, q):
    """(a logarithm of phi(q), phi'(q)/phi(q)) in one pass, phi not formed:
    the exponent E itself for the factor e^E and the principal logarithm of
    P/Q, so the first differs from log phi by a multiple of 2 pi i; and
    E' + P'/P - Q'/Q.  PoleHit at a root of Q, as ``eval_phi``."""
    q = np.asarray(q, dtype=complex)
    log, dlog = np.zeros_like(q), np.zeros_like(q)
    if spec.log_coeffs:
        log, dlog = _exponent(spec, q), _exponent(spec, q, derivative=True)
    if spec.numer != spec.denom:
        den, num = _denominator(spec, q), horner(spec.numer, q)
        log = log + clog(num / den)
        dlog = dlog + (horner(spec._dnumer, q) / num -
                       horner(spec._ddenom, q) / den)
    return log, dlog


def eval_dnu(spec: SymbolSpec, q):
    """nu'(q) = phi'(q) / (2 pi i phi(q)); single-valued even when nu is not."""
    return eval_dphi(spec, q) / (2j * np.pi * eval_phi(spec, q))


@_memo_on_grids
def eval_nu_grid(spec: SymbolSpec, q):
    """Phase shift nu = log(phi)/(2 pi i) unwrapped continuously along a circle grid.

    Only log(P/Q) is unwrapped, and its closing increment nu[0 again] - nu[-1]
    accumulates the winding, so the returned array is periodic only for
    zero-winding symbols.  The exponent sum_j t_j q^j is added as it is: that
    factor has no zeros, however small |phi| gets on the circle.
    """
    q = np.asarray(q, dtype=complex)
    if spec.numer == spec.denom:
        return _exponent(spec, q) / (2j * np.pi)
    w = _ratio(spec, q)
    if np.any(np.abs(w) < 1e-12):
        raise errors.ZeroOnContour("phi vanishes at a quadrature node")
    log_phi = np.log(np.abs(w)) + 1j * np.unwrap(np.angle(w))
    if spec.log_coeffs:
        log_phi = log_phi + _exponent(spec, q)
    return log_phi / (2j * np.pi)


def winding_number(spec: SymbolSpec) -> int:
    """Winding of phi around the unit circle: ``winding_on(spec, 1.0)``,
    the count of the zeros and poles of P/Q inside it.  OverflowGuard where
    |phi| leaves the normal double range on the 256 unit-circle nodes that
    ``moment_table`` samples first, as exp(t_0) does past t_0 = 709 or
    below -708, though every coefficient is finite.  Memoised, as every
    route of one symbol asks for it again."""
    return _winding_cached(spec)


def winding_on(spec: SymbolSpec, radius: float) -> int:
    """Winding of phi around the circle of ``radius``: its zeros less its
    poles inside, with multiplicity, counted from the roots of P and Q (the
    exponential factor has none) in Python scalars, quicker for so few."""
    return sum(abs(z) < radius for z in spec._roots[0].tolist()) - sum(
        abs(p) < radius for p in spec._roots[1].tolist())


@functools.lru_cache(maxsize=32)
def _winding_cached(spec: SymbolSpec) -> int:
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(eval_phi(spec, circle_nodes(1.0, 256)))
    if not np.all((size >= np.finfo(float).tiny) & (size < np.inf)):
        raise errors.OverflowGuard(
            "|phi| leaves the normal double range on the unit circle")
    return winding_on(spec, 1.0)


@dataclass(frozen=True)
class SymbolAnalysis:
    zeros: tuple          # all zeros of phi, descending modulus
    poles: tuple          # (location, multiplicity)
    winding: int
    z_list: tuple         # zeros selected for contour enclosure/exclusion
    w_list: tuple         # remaining same-side zeros, ascending distance from |q|=1

    @property
    def pole_moduli(self):
        return tuple(abs(p) for p, _ in self.poles)


def _newton_polish(spec: SymbolSpec, root):
    """Newton steps on the numerator P from ``root`` until z is a root of a
    polynomial within POLISH_TOL of P coefficient by coefficient, |P(z)| <=
    POLISH_TOL sum_k |c_k| |z|^k, which a high degree's large |z|^k does not
    defeat as an absolute residual does; then one more, to the last bit
    (F4's zeros 5.6e-15 to 1.9e-16 off), unless past POLISH_TOL |z|, as the
    rounding noise at a double zero.  RootFindFailure where the steps stall
    first, or past POLISH_MAXIT."""
    c, dc = spec.numer, spec._dnumer
    size = np.abs(c)
    z = complex(root)
    for _ in range(POLISH_MAXIT + 1):
        f = complex(horner(c, z))
        df = complex(horner(dc, z))
        step = f / df if df else np.inf
        if abs(f) <= POLISH_TOL * horner(size, abs(z)):
            return z - step if abs(step) <= POLISH_TOL * abs(z) else z
        if not np.isfinite(step) or abs(step) > 1e6:
            break
        z -= step
    raise errors.RootFindFailure(f"polish stalled at {z}, residual {abs(f):.2e}")


def analyze(spec: SymbolSpec) -> SymbolAnalysis:
    """Locate the zeros and poles of P/Q (the exponential factor has none),
    fix the winding, and pick the zeros the contour must handle; memoised, as
    one symbol is analysed for many x and suites."""
    return _analyze_cached(spec)


@functools.lru_cache(maxsize=32)
def _analyze_cached(spec: SymbolSpec) -> SymbolAnalysis:
    n = winding_number(spec)
    zeros = [_newton_polish(spec, r) for r in spec._roots[0]]
    zeros.sort(key=abs, reverse=True)

    praw = sorted(spec._roots[1], key=abs)
    poles = []
    for r in praw:
        if poles and abs(r - poles[-1][0]) < 1e-8:
            poles[-1] = (poles[-1][0], poles[-1][1] + 1)
        else:
            poles.append((complex(r), 1))

    if n < 0:
        outside = [z for z in zeros if abs(z) > 1.0]
        outside.sort(key=abs)                     # nearest to the circle first
        edge, rest = outside[:-n], outside[-n:]
        z_list = tuple(sorted(edge, key=abs, reverse=True))
    elif n > 0:
        inside = [z for z in zeros if abs(z) < 1.0]
        inside.sort(key=abs, reverse=True)
        edge, rest = inside[:n], inside[n:]
        z_list = tuple(edge)
    else:
        z_list, edge, rest = (), [], []
    # a multiple zero, or equal moduli across the edge of the selection,
    # makes the choice of zeros ambiguous (zeros are sorted by modulus)
    if n and (any(abs(a - b) < SEP_TOL for a, b in zip(zeros, zeros[1:])) or
              rest and abs(abs(rest[0]) - abs(edge[-1])) < SEP_TOL):
        raise errors.DegenerateZeros(
            f"zeros {zeros} hold a multiple zero or equal moduli within "
            f"{SEP_TOL} at the edge of the selection")
    w_list = tuple(sorted(rest, key=lambda z: abs(abs(z) - 1.0)))
    return SymbolAnalysis(tuple(zeros), tuple(poles), n, z_list, w_list)


# --- JSON interface ---------------------------------------------------------

def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def to_json_dict(spec: SymbolSpec) -> dict:
    return {"numer": [_c2pair(c) for c in spec.numer],
            "denom": [_c2pair(c) for c in spec.denom],
            "log_coeffs": {str(j): _c2pair(t) for j, t in spec.log_coeffs}}


def from_json_dict(data: dict, label: str = "") -> SymbolSpec:
    """Read ``to_json_dict``'s form, or any part of it: a missing factor is
    1.  A ``kind`` key, of the two former kinds' files, is checked."""
    try:
        unknown = set(dict(data)) - {"kind", "numer", "denom", "log_coeffs"}
        if unknown:
            raise errors.InputError(f"unknown symbol keys {sorted(unknown)}")
        return SymbolSpec(
            data.get("kind"),
            tuple(complex(a, b) for a, b in data.get("numer", [(1.0, 0.0)])),
            tuple(complex(a, b) for a, b in data.get("denom", [(1.0, 0.0)])),
            {int(j): complex(a, b) for j, (a, b) in data.get("log_coeffs", {}).items()},
            label=label)
    except (AttributeError, TypeError, ValueError) as exc:
        raise errors.InputError(f"malformed symbol data: {exc}") from exc


def load_symbol(path) -> SymbolSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.InputError(f"parse error: {exc}") from exc
    return from_json_dict(data, label=os.path.splitext(os.path.basename(path))[0])


FIXTURE_NAMES = ("F0", "F1", "F2", "F3", "F4", "F5", "F6", "F7")


@functools.lru_cache(maxsize=None)
def fixture(name: str) -> SymbolSpec:
    """Load one of the shipped fixture symbols F0..F7, once per name."""
    if name not in FIXTURE_NAMES:
        raise errors.InputError(f"unknown fixture {name!r}")
    ref = resources.files("detlab") / "fixtures" / f"{name}.json"
    return from_json_dict(json.loads(ref.read_text()), label=name)

"""Symbol weights theta(q), phi(q) = 1 + theta(q), and their phase shift.

Two families cover every scenario exercised by the rest of the library:

* ``rational``      -- phi(q) = P(q)/Q(q), zeros and poles exactly known,
                       any winding number;
* ``laurent_phase`` -- phi(q) = exp(sum_j t_j q^j), nowhere zero, smooth,
                       always zero winding.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.polynomial import polynomial as P

from . import errors
from ._series import circle_nodes, circle_weights

SEP_TOL = 1e-6      # smallest gap between the moduli of two zeros
WINDING_M = 512     # unit-circle nodes of the winding quadrature


@dataclass(frozen=True)
class SymbolSpec:
    """Weight specification; immutable, hashable and safe to share between
    threads.  ``log_coeffs`` may be given as a dict j -> t_j and is stored as
    a tuple of (j, t_j) pairs sorted by j."""

    kind: str
    numer: tuple = ()          # ascending powers of q (rational)
    denom: tuple = (1.0,)
    log_coeffs: tuple = ()     # (j, t_j) pairs (laurent_phase)
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("rational", "laurent_phase"):
            raise errors.InputError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "rational":
            object.__setattr__(self, "numer", tuple(complex(c) for c in self.numer))
            object.__setattr__(self, "denom", tuple(complex(c) for c in self.denom))
            self._validate_rational()
        lc = {int(j): complex(t) for j, t in dict(self.log_coeffs).items()}
        object.__setattr__(self, "log_coeffs", tuple(sorted(lc.items())))

    def _validate_rational(self):
        p = np.array(self.numer, dtype=complex)
        q = np.array(self.denom, dtype=complex)
        if not len(p) or not np.any(p) or not len(q) or not np.any(q):
            raise errors.InputError("rational symbol needs nonzero numerator and denominator")
        pr = _poly_roots(p)
        qr = _poly_roots(q)
        for r in pr:
            if abs(abs(r) - 1.0) < 1e-8:
                raise errors.InputError(f"numerator root {r} lies on the unit circle")
            if len(qr) and np.min(np.abs(qr - r)) < 1e-10:
                raise errors.InputError("numerator and denominator share a root")
        for r in qr:
            if abs(abs(r) - 1.0) < 1e-8:
                raise errors.InputError(f"denominator root {r} lies on the unit circle")


def _poly_roots(coeffs_ascending):
    c = np.trim_zeros(np.asarray(coeffs_ascending, dtype=complex), "b")
    if len(c) <= 1:
        return np.array([], dtype=complex)
    return np.roots(c[::-1])


@functools.lru_cache(maxsize=64)
def _derivative(coeffs: tuple) -> np.ndarray:
    """Ascending coefficients of the derivative, read-only; memoised, as every
    Newton step evaluates phi' and ``P.polyder`` costs more than that."""
    der = P.polyder(coeffs)
    der.flags.writeable = False
    return der


def eval_phi(spec: SymbolSpec, q):
    """phi(q) = 1 + theta(q)."""
    q = np.asarray(q, dtype=complex)
    if spec.kind == "rational":
        den = P.polyval(q, spec.denom)
        scale = max(np.max(np.abs(np.asarray(spec.denom))), 1.0)
        if np.any(np.abs(den) < 1e-14 * scale):
            raise errors.PoleHit("evaluation point hits a denominator root")
        return P.polyval(q, spec.numer) / den
    acc = np.zeros(q.shape, dtype=complex)
    for j, t in spec.log_coeffs:
        acc = acc + t * q ** j
    return np.exp(acc)


def eval_theta(spec: SymbolSpec, q):
    return eval_phi(spec, q) - 1.0


def eval_dphi(spec: SymbolSpec, q):
    """phi'(q)."""
    q = np.asarray(q, dtype=complex)
    if spec.kind == "rational":
        p, d = spec.numer, spec.denom
        den = P.polyval(q, d)
        return (P.polyval(q, _derivative(p)) * den -
                P.polyval(q, p) * P.polyval(q, _derivative(d))) / den ** 2
    dlog = np.zeros(q.shape, dtype=complex)
    for j, t in spec.log_coeffs:
        dlog = dlog + t * j * q ** (j - 1)
    return eval_phi(spec, q) * dlog


def eval_dnu(spec: SymbolSpec, q):
    """nu'(q) = phi'(q) / (2 pi i phi(q)); single-valued even when nu is not."""
    return eval_dphi(spec, q) / (2j * np.pi * eval_phi(spec, q))


def eval_nu_grid(spec: SymbolSpec, nodes):
    """Phase shift nu = log(phi)/(2 pi i) unwrapped continuously along a circle grid.

    The closing increment nu[0 again] - nu[-1] accumulates the winding, so the
    returned array is periodic only for zero-winding symbols.
    """
    nodes = np.asarray(nodes, dtype=complex)
    w = eval_phi(spec, nodes)
    if np.any(np.abs(w) < 1e-12):
        raise errors.ZeroOnContour("phi vanishes at a quadrature node")
    ang = np.unwrap(np.angle(w))
    return (np.log(np.abs(w)) + 1j * ang) / (2j * np.pi)


def grid_winding(spec: SymbolSpec, nodes) -> float:
    """Total increment of nu over one closed loop of the grid (argument principle)."""
    nodes = np.asarray(nodes, dtype=complex)
    w = eval_phi(spec, np.concatenate([nodes, nodes[:1]]))
    ang = np.unwrap(np.angle(w))
    return float((ang[-1] - ang[0]) / (2.0 * np.pi))


def winding_number(spec: SymbolSpec) -> int:
    """Winding of phi around the unit circle, by quadrature, cross-checked by
    counting; memoised, as every route of one symbol asks for it again."""
    return _winding_cached(spec)


@functools.lru_cache(maxsize=32)
def _winding_cached(spec: SymbolSpec) -> int:
    nodes = circle_nodes(1.0, WINDING_M)
    weights = circle_weights(nodes, WINDING_M)
    quad = np.sum(weights * eval_dphi(spec, nodes) / eval_phi(spec, nodes)) / (2j * np.pi)
    n = int(round(quad.real))
    if abs(quad - n) > 0.25:
        raise errors.WindingInconsistent(f"quadrature winding {quad} not near an integer")
    if spec.kind == "rational":
        zeros = _poly_roots(spec.numer)
        poles = _poly_roots(spec.denom)
        count = int(np.sum(np.abs(zeros) < 1.0)) - int(np.sum(np.abs(poles) < 1.0))
        if n != count:
            raise errors.WindingInconsistent(
                f"quadrature winding {n} vs zero/pole count {count}")
    return n


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


def _newton_polish(coeffs, root, tol=1e-12, maxit=40):
    dcoeffs = _derivative(coeffs)
    z = complex(root)
    scale = max(np.max(np.abs(np.asarray(coeffs))), 1.0)
    for _ in range(maxit):
        f = complex(P.polyval(z, coeffs))
        if abs(f) < tol * scale:
            return z
        df = complex(P.polyval(z, dcoeffs))
        if df == 0.0:
            break
        step = f / df
        if not np.isfinite(step) or abs(step) > 1e6:
            break
        z -= step
    f = complex(P.polyval(z, coeffs))
    if abs(f) < tol * scale:
        return z
    raise errors.RootFindFailure(f"polish stalled at {z}, residual {abs(f):.2e}")


def analyze(spec: SymbolSpec) -> SymbolAnalysis:
    """Locate zeros/poles, fix the winding, and pick the zeros the contour
    must handle; memoised, as one symbol is analysed for many x and suites."""
    return _analyze_cached(spec)


@functools.lru_cache(maxsize=32)
def _analyze_cached(spec: SymbolSpec) -> SymbolAnalysis:
    n = winding_number(spec)
    if spec.kind == "laurent_phase":
        return SymbolAnalysis((), (), 0, (), ())

    zeros = [_newton_polish(spec.numer, r) for r in _poly_roots(spec.numer)]
    zeros.sort(key=abs, reverse=True)
    if n:   # equal moduli make the choice of zeros ambiguous; 0 picks none
        mods = sorted(abs(z) for z in zeros)
        for a, b in zip(mods, mods[1:]):
            if b - a < SEP_TOL:
                raise errors.DegenerateZeros(
                    f"zero moduli {a} and {b} within {SEP_TOL}")

    praw = sorted(_poly_roots(spec.denom), key=abs)
    poles = []
    for r in praw:
        if poles and abs(r - poles[-1][0]) < 1e-8:
            poles[-1] = (poles[-1][0], poles[-1][1] + 1)
        else:
            poles.append((complex(r), 1))

    if n < 0:
        outside = [z for z in zeros if abs(z) > 1.0]
        outside.sort(key=abs)                     # nearest to the circle first
        z_list = tuple(sorted(outside[:-n], key=abs, reverse=True))
        rest = outside[-n:]
    elif n > 0:
        inside = [z for z in zeros if abs(z) < 1.0]
        inside.sort(key=abs, reverse=True)
        z_list = tuple(inside[:n])
        rest = inside[n:]
    else:
        z_list, rest = (), []
    w_list = tuple(sorted(rest, key=lambda z: abs(abs(z) - 1.0)))
    return SymbolAnalysis(tuple(zeros), tuple(poles), n, z_list, w_list)


# --- JSON interface ---------------------------------------------------------

def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def to_json_dict(spec: SymbolSpec) -> dict:
    if spec.kind == "rational":
        return {"kind": "rational",
                "numer": [_c2pair(c) for c in spec.numer],
                "denom": [_c2pair(c) for c in spec.denom]}
    return {"kind": "laurent_phase",
            "log_coeffs": {str(j): _c2pair(t) for j, t in spec.log_coeffs}}


def from_json_dict(data: dict, label: str = "") -> SymbolSpec:
    try:
        kind = data["kind"]
        if kind == "rational":
            return SymbolSpec(kind="rational",
                              numer=tuple(complex(a, b) for a, b in data["numer"]),
                              denom=tuple(complex(a, b) for a, b in data["denom"]),
                              label=label)
        if kind == "laurent_phase":
            return SymbolSpec(kind="laurent_phase",
                              log_coeffs={int(j): complex(a, b)
                                          for j, (a, b) in data["log_coeffs"].items()},
                              label=label)
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.InputError(f"malformed symbol data: {exc}") from exc
    raise errors.InputError(f"unknown symbol kind {data.get('kind')!r}")


def load_symbol(path) -> SymbolSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.InputError(f"parse error: {exc}") from exc
    return from_json_dict(data, label=os.path.splitext(os.path.basename(path))[0])


FIXTURE_NAMES = ("F0", "F1", "F2", "F3", "F4", "F5", "F6", "F7")


def fixture(name: str) -> SymbolSpec:
    """Load one of the shipped fixture symbols F0..F7."""
    if name not in FIXTURE_NAMES:
        raise errors.InputError(f"unknown fixture {name!r}")
    ref = resources.files("detlab") / "fixtures" / f"{name}.json"
    return from_json_dict(json.loads(ref.read_text()), label=name)

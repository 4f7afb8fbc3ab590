"""Laurent-series splits of circle samples: the backbone of every transform."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detlab._series import (LaurentSplit, circle_nodes, circle_weights,
                            clog, laurent_coeffs)

KINDS = {"plus": (lambda j: j >= 0, 1.0),
         "minus": (lambda j: j < 0, -1.0),
         "reconstruct": (lambda j: np.ones(j.shape, dtype=bool), 1.0)}


def sample(fn, radius=1.0, m=128):
    nodes = circle_nodes(radius, m)
    return LaurentSplit(fn(nodes), radius), nodes


class TestCoefficients:
    def test_known_polynomial(self):
        # coefficients are stored scaled by radius^k
        split, _ = sample(lambda q: 2.0 + 3.0 * q ** 2 - 1.5 / q, radius=2.0)
        assert abs(split.coefficient(0) - 2.0) < 1e-13
        assert abs(split.coefficient(2) - 3.0 * 2.0 ** 2) < 1e-13
        assert abs(split.coefficient(-1) + 1.5 / 2.0) < 1e-13
        assert abs(split.coefficient(5)) < 1e-13

    def test_zero_mode(self):
        split, _ = sample(lambda q: 7.0 + q)
        assert abs(split.coefficient(0) - 7.0) < 1e-13

    def test_laurent_coeffs_ordering(self):
        nodes = circle_nodes(1.0, 16)
        js, cs = laurent_coeffs(nodes ** 3)
        assert np.all(np.diff(js) == 1)
        assert abs(cs[np.searchsorted(js, 3)] - 1.0) < 1e-13


class TestSplit:
    def test_plus_minus_reconstruct(self):
        split, nodes = sample(lambda q: np.exp(q) + 1.0 / (q - 3.0), radius=1.0)
        full = split.plus(nodes) - split.minus(nodes)
        assert np.max(np.abs(full - split.reconstruct(nodes))) < 1e-12

    def test_plus_is_inside_analytic_part(self):
        # f = q^2 + 5/q: plus part q^2, minus part -5/q
        split, _ = sample(lambda q: q ** 2 + 5.0 / q)
        q = np.array([0.3 + 0.1j, -0.2j])
        assert np.max(np.abs(split.plus(q) - q ** 2)) < 1e-12
        q_out = np.array([2.0, 1.0 + 1.5j])
        assert np.max(np.abs(split.minus(q_out) + 5.0 / q_out)) < 1e-12

    def test_derivative(self):
        split, _ = sample(lambda q: q ** 3 + 2.0 / q ** 2)
        q = np.array([0.4 + 0.2j])
        assert abs(split.plus(q, 1)[0] - 3.0 * q[0] ** 2) < 1e-12
        q_out = np.array([1.8 - 0.3j])
        assert abs(split.minus(q_out, 1)[0] + (-4.0) / q_out[0] ** 3) < 1e-12

    def test_plus_at_origin(self):
        split, _ = sample(lambda q: 4.0 + q)
        assert abs(split.plus(np.array([0.0]))[0] - 4.0) < 1e-13

    def test_tail_ratio_smooth_function(self):
        split, _ = sample(lambda q: np.exp(0.3 * q + 0.2 / q), m=256)
        assert split.tail_ratio() < 1e-13


class TestQuadrature:
    def test_weights_integrate_monomials(self):
        m = 64
        nodes = circle_nodes(1.3, m)
        weights = circle_weights(nodes, m)
        for j in (-3, -1, 0, 2):
            val = np.sum(weights * nodes ** j)
            expect = 2j * np.pi if j == -1 else 0.0
            assert abs(val - expect) < 1e-13

    def test_first_node_on_negative_axis(self):
        nodes = circle_nodes(1.0, 8)
        assert abs(nodes[0] + 1.0) < 1e-15

    def test_grid_is_built_once_and_read_only(self):
        nodes = circle_nodes(1.7, 48)
        assert circle_nodes(1.7, 48) is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0


def direct_sum(split, kind, q, derivative):
    """sign * sum_j c_j j(j-1)...(j-d+1) (q/rho)^j / q^d over the kind's modes,
    with the powers taken as exp(j log(q/rho)); at q = 0, where only j = d
    is left, its limit c_d d! / rho^d."""
    select, sign = KINDS[kind]
    mask = select(split.j)
    j, c = split.j[mask], split.c[mask]
    for k in range(derivative):
        c = c * (j - k)
    q = np.atleast_1d(q)
    out = np.full(q.shape, c[j == derivative].sum() / split.radius **
                  derivative)
    nz = q != 0.0
    logz = np.log(q[nz] / split.radius)
    out[nz] = (np.exp(logz[:, None] * j[None, :]) @ c) / q[nz] ** derivative
    return sign * out


@st.composite
def random_splits(draw):
    """Split of m samples whose Laurent coefficients decay geometrically."""
    radius = draw(st.floats(0.3, 3.0))
    m = 2 ** draw(st.integers(6, 11))
    decay = draw(st.floats(0.5, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    j = np.arange(-(m // 2), m // 2)
    coeffs = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * \
        decay ** np.abs(j)
    # any samples will do: the reference sums the split's own coefficients
    values = m * np.fft.ifft(np.fft.ifftshift(coeffs))
    return LaurentSplit(values, radius), rng


def assert_agrees(split, kind, q, derivative, got):
    # the reference is checked on at most 16 of the points, which keeps its
    # dense points x modes matrix small
    assert np.shape(got) == np.shape(q)
    q, got = np.atleast_1d(q), np.atleast_1d(got)
    rng = np.random.default_rng(q.size)
    idx = rng.choice(q.size, size=min(q.size, 16), replace=False)
    want = direct_sum(split, kind, q[idx], derivative)
    scale = max(np.max(np.abs(got)), np.max(np.abs(want)))
    assert np.max(np.abs(got[idx] - want)) <= 1e-12 * scale


class TestGridEvaluation:
    @settings(max_examples=20, deadline=None)
    @given(random_splits())
    def test_own_circle_grids_match_direct_sum(self, drawn):
        # coarser (folded), equal, finer (zero-padded) and non-dividing grids
        split, _ = drawn
        m = split.m
        for n in (16, m // 4, m, 2 * m, 100, 3 * m // 4):
            q = circle_nodes(split.radius, n)
            for kind in KINDS:
                for derivative in (0, 1, 2):
                    with mock.patch.object(np.fft, "ifft",
                                           wraps=np.fft.ifft) as ifft:
                        got = getattr(split, kind)(q, derivative)
                    assert ifft.call_count == 1
                    assert_agrees(split, kind, q, derivative, got)

    @settings(max_examples=20, deadline=None)
    @given(random_splits(), st.sampled_from(["rotated", "other radius"]))
    def test_perturbed_grids_take_direct_path(self, drawn, perturbation):
        # arrays, and the single points the routes pass: 0-d arrays, Python
        # scalars, and the origin on the plus side
        split, rng = drawn
        n = int(rng.choice([16, 100]))
        q = circle_nodes(split.radius, n)
        q = q * (np.exp(1e-9j) if perturbation == "rotated" else 1.01)
        points = [(kind, q) for kind in KINDS]
        points += [(kind, np.asarray(q[int(rng.integers(n))]))
                   for kind in KINDS]
        points += [(kind, complex(q[int(rng.integers(n))])) for kind in KINDS]
        points += [("plus", 0.0), ("plus", np.array([0.0, q[0]]))]
        for kind, point in points:
            for derivative in (0, 1, 2):
                with mock.patch.object(np.fft, "ifft",
                                       side_effect=AssertionError("FFT path")):
                    got = getattr(split, kind)(point, derivative)
                assert_agrees(split, kind, point, derivative, got)


class TestLog:
    def test_principal_logarithm(self):
        # numpy's own complex log, to rounding, at every modulus and on
        # both sides of the cut: -1 + 0j takes +pi, -1 - 0j takes -pi
        rng = np.random.default_rng(5)
        z = 10.0 ** rng.uniform(-200, 200, 64) * np.exp(
            2j * np.pi * rng.random(64))
        z = np.concatenate([z, [-1.0 + 0.0j, complex(-1.0, -0.0), 1j, 2.0]])
        want = np.log(z)
        assert np.all(np.abs(clog(z) - want) <= 4e-16 * np.abs(want))
        assert clog(np.array([-1.0 + 0.0j]))[0].imag == np.pi
        assert clog(np.array([complex(-1.0, -0.0)]))[0].imag == -np.pi

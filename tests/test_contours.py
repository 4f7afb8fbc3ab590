"""Contour geometry: validation, quadrature, selection."""

import numpy as np
import pytest

from detlab import asymptotics, contours, errors, symbols
from detlab.contours import Contour, quadrature, unit_circle


class TestValidation:
    def test_unit_circle(self):
        assert unit_circle() == Contour(1.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(errors.InputError):
            Contour(radius)


class TestQuadrature:
    def test_residue_on_the_circle(self):
        # 1/(q - 1) on |q| = 2: 2 pi i; 1/(q - 3) on it: 0
        quad = quadrature(Contour(2.0), 256)
        assert abs(np.sum(quad.weights / (quad.nodes - 1.0)) - 2j * np.pi) \
            < 1e-12
        assert abs(np.sum(quad.weights / (quad.nodes - 3.0))) < 1e-12


class TestSelection:
    def test_f3_radius_two(self):
        ct = asymptotics.base_contour(symbols.fixture("F3"))
        assert abs(ct.radius - 2.0) < 1e-9

    def test_zero_winding_uses_unit_circle(self):
        for name in ("F1", "F2", "F6"):
            ct = asymptotics.base_contour(symbols.fixture(name))
            assert abs(ct.radius - 1.0) < 1e-12

    def test_positive_winding_contracts(self):
        ct = asymptotics.base_contour(symbols.fixture("F7"))
        assert ct.radius < 0.4

    def test_selected_contour_has_zero_winding(self):
        for name in symbols.FIXTURE_NAMES:
            spec = symbols.fixture(name)
            ct = asymptotics.base_contour(spec)
            from detlab._series import circle_nodes
            w = symbols.grid_winding(spec, circle_nodes(ct.radius, 512))
            assert abs(w) < 0.25, name

    def test_pole_between_unit_circle_and_zeros(self):
        # zeros 0.3, 2, 4 and poles 0, 0, 1.5: winding -1 on |q| = 1, but
        # any circle past the zero at 2 also encloses the pole at 1.5
        numer = np.polynomial.polynomial.polyfromroots([0.3, 2.0, 4.0])
        denom = np.polynomial.polynomial.polyfromroots([0.0, 0.0, 1.5])
        spec = symbols.SymbolSpec("rational", tuple(numer), tuple(denom))
        with pytest.raises(errors.EmptyAnnulus):
            contours.select_contour(symbols.analyze(spec))

"""Contours as radii: validation, quadrature, the radius rule, selection."""

import numpy as np
import pytest

from detlab import asymptotics, contours, errors, fredholm, symbols
from detlab._series import circle_nodes, circle_weights
from detlab.contours import EXPANSION, radius_past


class TestValidation:
    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, radius):
        kern = fredholm.kernel_S(symbols.fixture("F1"), 2)
        with pytest.raises(errors.InputError):
            fredholm.nystrom_det(kern, radius)


class TestQuadrature:
    def test_residue_on_the_circle(self):
        # 1/(q - 1) on |q| = 2: 2 pi i; 1/(q - 3) on it: 0
        nodes = circle_nodes(2.0, 256)
        weights = circle_weights(nodes, 256)
        assert abs(np.sum(weights / (nodes - 1.0)) - 2j * np.pi) < 1e-12
        assert abs(np.sum(weights / (nodes - 3.0))) < 1e-12


class TestRadiusPast:
    def test_outward(self):
        # the nearest obstruction beyond 2 is 8; those inside do not count
        assert radius_past(2.0, [0.5, 8.0, 18.0], 1) == 4.0
        assert radius_past(2.0, [0.5, 1.0], 1) == 2.0 * EXPANSION

    def test_inward(self):
        # the nearest obstruction inside 2 is 0.5; the origin does not count
        assert radius_past(2.0, [0.0, 0.125, 0.5, 8.0], -1) == 1.0
        assert radius_past(2.0, [0.0, 3.0], -1) == 2.0 / EXPANSION


class TestSelection:
    def test_f3_radius_two(self):
        radius = asymptotics.base_contour(symbols.fixture("F3"))
        assert abs(radius - 2.0) < 1e-9

    def test_zero_winding_uses_unit_circle(self):
        for name in ("F1", "F2", "F6"):
            radius = asymptotics.base_contour(symbols.fixture(name))
            assert abs(radius - 1.0) < 1e-12

    def test_positive_winding_contracts(self):
        assert asymptotics.base_contour(symbols.fixture("F7")) < 0.4

    def test_selected_contour_has_zero_winding(self):
        for name in symbols.FIXTURE_NAMES:
            spec = symbols.fixture(name)
            radius = contours.base_contour(spec)
            assert radius == contours.select_contour(symbols.analyze(spec))
            assert symbols.winding_on(spec, radius) == 0, name

    def test_pole_between_unit_circle_and_zeros(self):
        # zeros 0.3, 2, 4 and poles 0, 0, 1.5: winding -1 on |q| = 1, but
        # any circle past the zero at 2 also encloses the pole at 1.5
        numer = np.polynomial.polynomial.polyfromroots([0.3, 2.0, 4.0])
        denom = np.polynomial.polynomial.polyfromroots([0.0, 0.0, 1.5])
        spec = symbols.SymbolSpec("rational", tuple(numer), tuple(denom))
        with pytest.raises(errors.EmptyAnnulus):
            contours.select_contour(symbols.analyze(spec))

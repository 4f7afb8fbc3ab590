"""Contour geometry: validation, quadrature, selection, deformation."""

import numpy as np
import pytest

from detlab import asymptotics, contours, errors, symbols
from detlab.contours import Circle, Contour, quadrature, unit_circle


class TestValidation:
    def test_unit_circle(self):
        ct = unit_circle()
        assert len(ct.components) == 1 and abs(ct.radius - 1.0) < 1e-15

    def test_inner_loop_must_be_clockwise(self):
        outer = Circle(0.0, 2.0, +1)
        with pytest.raises(errors.GeometryConflict):
            Contour((outer, Circle(1.0, 0.3, +1)))

    def test_inner_loop_must_lie_inside(self):
        outer = Circle(0.0, 1.0, +1)
        with pytest.raises(errors.GeometryConflict):
            Contour((outer, Circle(3.0, 0.3, -1)))

    def test_intersecting_loops_rejected(self):
        outer = Circle(0.0, 2.0, +1)
        with pytest.raises(errors.GeometryConflict):
            Contour((outer, Circle(0.5, 0.4, -1), Circle(0.8, 0.4, -1)))

    def test_contains(self):
        ct = Contour((Circle(0.0, 2.0, +1), Circle(1.0, 0.2, -1)))
        assert ct.contains(0.5)
        assert not ct.contains(1.05)   # excluded by the inner loop
        assert not ct.contains(3.0)


class TestQuadrature:
    def test_residue_on_multi_component(self):
        # 1/(q - 1) with the pole excluded by an inner loop: integral 0
        ct = Contour((Circle(0.0, 2.0, +1), Circle(1.0, 0.3, -1)))
        quad = quadrature(ct, 256)
        val = np.sum(quad.weights / (quad.nodes - 1.0))
        assert abs(val) < 1e-12
        # and with the pole inside: 2 pi i
        full = quadrature(Contour((Circle(0.0, 2.0, +1),)), 256)
        val = np.sum(full.weights / (full.nodes - 1.0))
        assert abs(val - 2j * np.pi) < 1e-12


class TestSelection:
    def test_f3_radius_two(self):
        ct = asymptotics.base_contour(symbols.fixture("F3"))
        assert len(ct.components) == 1
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


class TestDeformation:
    def test_exclude_include(self):
        spec = symbols.fixture("F4")
        ana = symbols.analyze(spec)
        base = asymptotics.base_contour(spec)
        ct = contours.deformed_contour(base, exclude=[1.4], include=[2.2],
                                       analysis=ana)
        assert not ct.contains(1.4)
        assert ct.contains(2.2)
        assert ct.contains(0.3)

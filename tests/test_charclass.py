"""Euler characteristics of standard varieties and invariant-package builders."""

import pytest

from dualis.charclass import (
    GRASSMANNIAN,
    MAX_AMBIENT_DIM,
    MAX_DEGREE,
    PROJECTIVE_SPACE,
    QUADRIC,
    chi_smooth_complete_intersection,
    chi_standard,
    hypersurface_package,
    linear_space_package,
)
from dualis.errors import GuardrailExceeded, InvalidParams


class TestChiStandard:
    def test_projective_spaces(self):
        assert chi_standard(PROJECTIVE_SPACE, 8) == 9
        assert chi_standard(PROJECTIVE_SPACE, 0) == 1

    def test_quadrics(self):
        assert chi_standard(QUADRIC, 4) == 6
        assert chi_standard(QUADRIC, 3) == 4
        assert chi_standard(QUADRIC, 2) == 4
        assert chi_standard(QUADRIC, 1) == 2

    def test_grassmannian_cell_count(self):
        assert chi_standard(GRASSMANNIAN, 2, 6) == 15
        assert chi_standard(GRASSMANNIAN, 2, 4) == 6

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            chi_standard(PROJECTIVE_SPACE, -1)
        with pytest.raises(InvalidParams):
            chi_standard(GRASSMANNIAN, 4, 4)
        with pytest.raises(InvalidParams):
            chi_standard("weird", 3)

    @pytest.mark.parametrize("kind, params", [
        (PROJECTIVE_SPACE, ()), (PROJECTIVE_SPACE, (3, 4)),
        (QUADRIC, ()), (QUADRIC, (2, 3)),
        (GRASSMANNIAN, (3,)), (GRASSMANNIAN, (2, 4, 6)),
    ], ids=["P-none", "P-two", "Q-none", "Q-two", "Gr-one", "Gr-three"])
    def test_wrong_parameter_count_refused(self, kind, params):
        with pytest.raises(InvalidParams, match="parameter"):
            chi_standard(kind, *params)


class TestCompleteIntersections:
    def test_cubic_fourfold(self):
        assert chi_smooth_complete_intersection(5, [3]) == 27

    def test_quartic_k3(self):
        assert chi_smooth_complete_intersection(3, [4]) == 24

    def test_plane_curves(self):
        for d in range(2, 7):
            assert chi_smooth_complete_intersection(2, [d]) == -d * d + 3 * d

    def test_quadric_formula_against_series(self):
        for n in range(1, 9):
            assert chi_standard(QUADRIC, n) == chi_smooth_complete_intersection(
                n + 1, [2]
            )

    def test_two_quadrics_in_p3_is_elliptic(self):
        assert chi_smooth_complete_intersection(3, [2, 2]) == 0

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            chi_smooth_complete_intersection(2, [1, 1, 1])
        with pytest.raises(InvalidParams):
            chi_smooth_complete_intersection(3, [])
        with pytest.raises(InvalidParams):
            chi_smooth_complete_intersection(3, [0])


class TestGuardrails:
    def test_caps_accept_their_own_values(self):
        assert chi_standard(GRASSMANNIAN, 2, MAX_AMBIENT_DIM) == 780
        assert chi_smooth_complete_intersection(2, [MAX_DEGREE]) == -MAX_DEGREE * (MAX_DEGREE - 3)
        assert hypersurface_package(MAX_AMBIENT_DIM, 2).n == MAX_AMBIENT_DIM
        # chi of P^n and Q_n costs nothing, whatever n
        assert chi_standard(PROJECTIVE_SPACE, 10 ** 6) == 10 ** 6 + 1
        assert chi_standard(QUADRIC, 10 ** 6) == 10 ** 6 + 2

    def test_refused_above_the_caps(self):
        big = MAX_AMBIENT_DIM + 1
        for call in (
            lambda: chi_standard(GRASSMANNIAN, 2, big),
            lambda: chi_smooth_complete_intersection(big, [2]),
            lambda: chi_smooth_complete_intersection(3, [2, MAX_DEGREE + 1]),
            lambda: hypersurface_package(big, 3),
            lambda: hypersurface_package(3, MAX_DEGREE + 1),
            lambda: linear_space_package(big, 1),
        ):
            with pytest.raises(GuardrailExceeded):
                call()

    def test_invalid_params_checked_before_the_caps(self):
        with pytest.raises(InvalidParams):
            chi_smooth_complete_intersection(10 ** 6, [])


class TestChernNumbers:
    @pytest.mark.parametrize("degrees", [(1,), (2,), (3,), (7,), (2, 2), (2, 3), (3, 5, 1),
                                         (2, 2, 2, 2)], ids=lambda ds: "x".join(map(str, ds)))
    def test_matches_sympy_series(self, degrees):
        # chi = prod(d) * [h^dim] (1 + h)^(n+1) / prod(1 + d*h), expanded by SymPy
        sympy = pytest.importorskip("sympy")
        h = sympy.Symbol("h")
        inverse = sympy.prod([sympy.Poly(sympy.series(1 / (1 + d * h), h, 0, 13).removeO(), h)
                              for d in degrees])
        for n in range(len(degrees), 13):
            dim = n - len(degrees)
            top = (sympy.Poly((1 + h) ** (n + 1), h) * inverse).coeff_monomial(h ** dim)
            want = sympy.prod(degrees) * top
            assert chi_smooth_complete_intersection(n, degrees) == want, (n, degrees)


class TestPackages:
    def test_conic_package(self):
        pkg = hypersurface_package(2, 2)
        assert pkg.chi_slices == (0, 2, 2)
        assert pkg.c0m == 2
        pkg.validate_slices()

    def test_quadric_surface_package(self):
        pkg = hypersurface_package(3, 2)
        assert pkg.chi_slices == (0, 2, 2, 4)
        assert pkg.c0m == 4

    def test_cubic_fourfold_package(self):
        pkg = hypersurface_package(5, 3)
        assert pkg.chi_slices[5] == 27
        assert pkg.chi_slices[1] == 3
        pkg.validate_slices()

    def test_slice_invariants_hold_for_a_range(self):
        for n in (2, 3, 4, 5):
            for d in (1, 2, 3, 4):
                pkg = hypersurface_package(n, d)
                pkg.validate_slices()
                assert pkg.chi_slices[n - pkg.dim] == pkg.degree
                assert pkg.chi_slices[0] == 0

    def test_linear_space_packages(self):
        line = linear_space_package(2, 1)
        assert line.chi_slices == (0, 1, 2)
        point = linear_space_package(3, 0)
        assert point.chi_slices == (0, 0, 0, 1)
        plane = linear_space_package(3, 2)
        assert plane.chi_slices == (0, 1, 2, 3)
        for pkg in (line, point, plane):
            pkg.validate_slices()

    def test_hyperplane_package_matches_linear(self):
        assert hypersurface_package(4, 1).chi_slices == linear_space_package(4, 3).chi_slices

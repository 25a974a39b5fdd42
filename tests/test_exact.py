"""Tests for the exact scalar and polynomial layer."""

import random
from fractions import Fraction

import pytest

from dualis.errors import (
    PolySyntaxError,
    UnknownVariableError,
    ZeroInput,
)
from dualis.exact import (
    MultiPoly,
    UniPolyView,
    divides,
    exact_div,
    parse_poly,
    poly_gcd,
    radical,
    try_exact_div,
)

XYZ = ("x", "y", "z")
UVW = ("u", "v", "w")


class TestParsing:
    def test_three_unit_terms(self):
        p = parse_poly("x^2 + y^2 + z^2", XYZ)
        assert len(p.terms) == 3
        assert all(c == 1 for c in p.terms.values())

    def test_two_terms_with_signs(self):
        p = parse_poly("y^2*z - x^3", XYZ)
        assert p.terms == {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1)}

    def test_fractional_coefficient(self):
        p = parse_poly("3/2*u*v - w^2", UVW)
        assert p.terms == {(1, 1, 0): Fraction(3, 2), (0, 0, 2): Fraction(-1)}

    def test_zero_polynomial_allowed(self):
        assert parse_poly("0", XYZ).is_zero()

    def test_whitespace_insignificant(self):
        assert parse_poly("x^2+ y ^2", XYZ) == parse_poly("x^2 + y^2", XYZ)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_poly("x + t", XYZ)

    def test_malformed_term(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("x^", XYZ)
        with pytest.raises(PolySyntaxError):
            parse_poly("x y", XYZ)
        with pytest.raises(PolySyntaxError):
            parse_poly("3.5*x", XYZ)

    def test_huge_exponent_refused_before_conversion(self):
        with pytest.raises(PolySyntaxError, match="exponent of 4400 digits"):
            parse_poly("x^" + "9" * 4400 + " + y^2*z", XYZ)
        with pytest.raises(PolySyntaxError):
            parse_poly("x^1000000", XYZ)
        assert parse_poly("x^999999", XYZ).total_degree() == 999999
        assert parse_poly("x^" + "0" * 5000 + "2", XYZ) == parse_poly("x^2", XYZ)

    def test_long_literal_not_echoed(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_poly("9" * 5000 + "/0*x", XYZ)
        assert len(str(info.value)) < 120
        with pytest.raises(UnknownVariableError) as info:
            parse_poly("x + " + "t" * 5000, XYZ)
        assert len(str(info.value)) < 120

    def test_print_parse_fixed_point(self):
        rng = random.Random(20250810)
        for _ in range(50):
            p = _random_poly(rng, XYZ)
            assert parse_poly(p.text(), XYZ) == p
        assert parse_poly(MultiPoly.zero(XYZ).text(), XYZ).is_zero()


def _random_poly(rng, variables, max_terms=6, max_exp=4, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        num = rng.randint(-max_coeff, max_coeff)
        den = rng.randint(1, 4)
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    return MultiPoly(variables, terms)


class TestRationalArithmetic:
    def test_field_axioms_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(200):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            c = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    def test_lowest_terms_invariants(self):
        rng = random.Random(8)
        import math
        for _ in range(200):
            q = Fraction(rng.randint(-100, 100), rng.randint(1, 40))
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1


class TestPolyArithmetic:
    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(11)
        for _ in range(40):
            a = _random_poly(rng, XYZ)
            b = _random_poly(rng, XYZ)
            c = _random_poly(rng, XYZ)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_no_zero_terms_stored(self):
        p = parse_poly("x + y", XYZ) - parse_poly("y", XYZ)
        assert all(c != 0 for c in p.terms.values())
        assert p == parse_poly("x", XYZ)

    def test_substitution_and_evaluation(self):
        p = parse_poly("x^2*y - z", XYZ)
        val = p.evaluate({"x": Fraction(2), "y": Fraction(1, 2), "z": Fraction(-1)})
        assert val == Fraction(3)

    def test_derivative(self):
        p = parse_poly("x^3 + x*y^2", XYZ)
        assert p.derivative("x") == parse_poly("3*x^2 + y^2", XYZ)

    def test_homogeneous(self):
        assert parse_poly("x^2 + y*z", XYZ).is_homogeneous()
        assert not parse_poly("x^2 + y", XYZ).is_homogeneous()


class TestDivisionAndGcd:
    def test_exact_division_roundtrip(self):
        rng = random.Random(13)
        checked = 0
        while checked < 30:
            a = _random_poly(rng, XYZ, max_terms=4, max_exp=3)
            b = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            if a.is_zero() or b.is_zero():
                continue
            prod = a * b
            assert divides(b, prod)
            assert exact_div(prod, b) == a
            checked += 1

    def test_non_divisible_returns_none(self):
        a = parse_poly("x^2 + y", XYZ)
        b = parse_poly("x + 1", XYZ)
        assert try_exact_div(a, b) is None

    def test_gcd_of_known_factorizations(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            g = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            a = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            b = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            if g.is_zero() or a.is_zero() or b.is_zero() or g.is_constant():
                continue
            d = poly_gcd(g * a, g * b)
            assert divides(g.primitive(), d)
            assert divides(d, g * a) and divides(d, g * b)
            checked += 1

    def test_gcd_normalization(self):
        f = parse_poly("x^2*y - y^3", ("x", "y", "z"))
        g = parse_poly("x^2 + 2*x*y + y^2 - x - y", ("x", "y", "z"))
        assert poly_gcd(f, g) == parse_poly("x + y", ("x", "y", "z"))

    def test_radical_strips_repeated_factors(self):
        f = parse_poly("x^2*y^2 - 2*x*y^3 + y^4", ("x", "y"))  # y^2 (x-y)^2
        assert radical(f) == parse_poly("x*y - y^2", ("x", "y"))

    def test_radical_zero_input(self):
        with pytest.raises(ZeroInput):
            radical(MultiPoly.zero(XYZ))


class TestUniPolyView:
    def test_degrees_and_leading_coefficient(self):
        p = parse_poly("y^2*x^3 - z*x + 1", XYZ)
        view = UniPolyView(p, "x")
        assert view.degree == 3
        assert view.lc == parse_poly("y^2", XYZ)

    def test_coefficients_live_in_remaining_variables(self):
        p = parse_poly("y*x^2 + z", XYZ)
        view = UniPolyView(p, "x")
        assert view.coeffs[2] == parse_poly("y", XYZ)
        assert view.coeffs[0] == parse_poly("z", XYZ)
        assert view.coeffs[1].is_zero()

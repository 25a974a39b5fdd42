"""Tests for the exact scalar and polynomial layer."""

import doctest
import math
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import islice, product

import pytest

from dualis import elimination, exact
from dualis.errors import (
    InvalidParams,
    InvariantViolation,
    PolySyntaxError,
    SharedVariableMismatch,
    UnknownVariableError,
    ZeroInput,
)
from dualis.exact import (
    WITNESS_SEQUENCE,
    MultiPoly,
    UniPolyView,
    _gcd_primes,
    _is_prime,
    _interpolate,
    _derivative,
    _subresultant_chain,
    _try_uni_quo,
    _uni_discriminant,
    _uni_gcd,
    _uni_quo,
    discriminant,
    forms_coprime,
    is_squarefree,
    parse_poly,
    parse_rational,
    point_off,
    poly_gcd,
    radical,
    resultant,
    squarefree_part,
    witnesses,
)
from references import chain as sympy_chain, det as sympy_det, minor_matrix, specialised

XYZ = ("x", "y", "z")
UVW = ("u", "v", "w")


def test_doctests_pass():
    # the examples in the docstrings of the exact layer, among them one in
    # one variable for each public eliminant
    tested = {test.name.rpartition(".")[2] for test in doctest.DocTestFinder().find(exact)
              if test.examples}
    assert {"parse_poly", "resultant", "discriminant", "squarefree_part", "poly_gcd",
            "radical"} <= tested
    results = doctest.testmod(exact)
    assert results.attempted == 13 and results.failed == 0


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

    @pytest.mark.parametrize("text, match", [
        ("", "empty input"), ("  ", "empty input"),
        ("x*", "term ended unexpectedly"), ("x*^2", "unexpected token '\\^'"),
    ], ids=["empty", "blank", "dangling-product", "power-without-base"])
    def test_incomplete_input_refused(self, text, match):
        with pytest.raises(PolySyntaxError, match=match):
            parse_poly(text, XYZ)

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

    @pytest.mark.parametrize("text, value", [
        ("7", Fraction(7)), ("-3/4", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)),
        (" 12 ", Fraction(12)), ("0/5", Fraction(0)),
    ])
    def test_rational_literal(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1e5", "1E5", "1e999999999", "1.5", ".5", "1_000", "3/-4", "- 3", "3 / 4", "1/0",
        "", "/3", "inf", "nan", "0x10", "9" * 5000,
    ])
    def test_rational_literal_refused(self, text):
        # only an optional sign, digits and an optional "/" with digits:
        # the rest of the Fraction string grammar is refused
        with pytest.raises(PolySyntaxError):
            parse_rational(text)

    def test_polynomial_grammar_unchanged_by_the_rational_rule(self):
        # coefficients reach parse_rational only as digits or digits/digits
        assert parse_poly("-6/4*x^2 + 10*y", XYZ).terms == {
            (2, 0, 0): Fraction(-3, 2), (0, 1, 0): Fraction(10)}
        for text in ("1e5*x", "1.5*x", "1_000*x", "x/2"):
            with pytest.raises(PolySyntaxError):
                parse_poly(text, XYZ)

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

    def test_truth_value_and_exact_division(self):
        # a MultiPoly is true when nonzero, so a zero polynomial is never
        # silently true; polynomials are not divided by one another (the
        # chain runs on integer lists), so // is not defined on them
        f, g, zero = parse_poly("x^2 - y^2", XYZ), parse_poly("2*x + 2*y", XYZ), MultiPoly.zero(XYZ)
        assert f and not zero
        for a, b in ((f, g), (zero, g), (f, 2), (f, Fraction(2, 3)), (f, zero)):
            with pytest.raises(TypeError):
                a // b


#: the line y = 2, z = 3 on which trivariate inputs become polynomials in x
ON_LINE = {"y": 2, "z": 3}


def _integer_list(poly):
    """The coefficients of a polynomial in x alone, scaled to coprime integers."""
    return exact._primitive_ints([poly.terms.get((k, 0, 0), Fraction(0))
                                  for k in range(poly.degree_in("x") + 1)])


class TestDivisionAndGcd:
    """The served exact quotient of integer lists and the public gcd and
    radical in one variable, against SymPy; trivariate inputs are refused."""

    def test_exact_division_roundtrip(self):
        # the quotient of seeded products on the line y = 2, z = 3 by either
        # factor, over Z, where SymPy's division leaves no remainder
        sympy = pytest.importorskip("sympy")
        rng = random.Random(13)
        checked = 0
        while checked < 30:
            a = _random_poly(rng, XYZ, max_terms=4, max_exp=3)
            b = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            if a.is_zero() or b.is_zero():
                continue
            a, b = (specialised(p, ON_LINE) for p in (a, b))
            if a.is_zero() or b.is_zero():
                continue
            A, B = _integer_list(a), _integer_list(b)
            prod = _poly_mul(A, B)
            assert _uni_quo(prod, B) == A and _try_uni_quo(prod, A) == B
            x = sympy.Symbol("x")
            quotient, rest = sympy.div(sympy.Poly(prod[::-1], x), sympy.Poly(B[::-1], x))
            assert rest.is_zero and quotient.all_coeffs()[::-1] == A
            checked += 1

    def test_non_divisible_returns_none(self):
        # x + 1 divides x^2 + y only at y = -1, as SymPy's remainder says
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for y in (-3, -1, 0, 1, 2):
            quotient = _try_uni_quo([y, 0, 1], [1, 1])
            rest = sympy.rem(x ** 2 + y, x + 1, x)
            assert (quotient is None) == (rest != 0)
            assert quotient is None or quotient == [-1, 1]

    def test_gcd_of_known_factorizations(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            g = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            a = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            b = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            if g.is_zero() or a.is_zero() or b.is_zero() or g.is_constant():
                continue
            if len(set((g * a).used_variables() + (g * b).used_variables())) > 1:
                with pytest.raises(InvalidParams):
                    poly_gcd(g * a, g * b)
            g, a, b = (specialised(p, ON_LINE) for p in (g, a, b))
            d = poly_gcd(g * a, g * b)
            for multiple, divisor in ((d, g), (g * a, d), (g * b, d)):
                assert sympy.rem(_sympy_expr(sympy, multiple), _sympy_expr(sympy, divisor),
                                 sympy.Symbol("x")) == 0
            checked += 1

    def test_gcd_normalization(self):
        # x + y is the gcd of f and g at every integer y but 0, where f
        # vanishes: primitive, with a positive leading coefficient
        f = parse_poly("x^2*y - y^3", ("x", "y", "z"))
        g = parse_poly("x^2 + 2*x*y + y^2 - x - y", ("x", "y", "z"))
        with pytest.raises(InvalidParams):
            poly_gcd(f, g)
        for y in (-5, 1, 2, 3):
            assert poly_gcd(*(specialised(p, {"y": y}) for p in (f, g))) == \
                specialised(parse_poly("x + y", ("x", "y", "z")), {"y": y})

    def test_radical_strips_repeated_factors(self):
        f = parse_poly("x^2*y^2 - 2*x*y^3 + y^4", ("x", "y"))  # y^2 (x-y)^2
        with pytest.raises(InvalidParams):
            radical(f)
        for x, want in ((-2, "y^2 + 2*y"), (1, "y^2 - y"), (3, "y^2 - 3*y")):
            assert radical(specialised(f, {"x": x})) == parse_poly(want, ("x", "y"))

    def test_radical_zero_input(self):
        with pytest.raises(ZeroInput):
            radical(MultiPoly.zero(XYZ))


class TestChainGcd:
    """poly_gcd, and the radical and square-free parts in one variable,
    against SymPy, on pairs f = a*h, g = b*h of ternary forms that share
    the planted factor h: the forms themselves are refused with
    InvalidParams, and their restrictions to the line y = 2, z = 3 are
    polynomials in x that still share h there."""

    #: (deg a, deg b, deg h), up to degree 7
    SHAPES = [(1, 1, 1), (2, 2, 1), (1, 3, 2), (3, 3, 2), (4, 3, 2), (3, 4, 3), (4, 4, 3)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_planted_common_factor(self, shape):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(sum(d * 10**i for i, d in enumerate(shape)))
        for _ in range(3):
            a, b, h = (_random_form(rng, d, size=9) for d in shape)
            f, g = a * h, b * h
            with pytest.raises(InvalidParams):
                poly_gcd(f, g)
            f, g, h = (specialised(p, ON_LINE) for p in (f, g, h))
            want = _from_sympy(sympy, sympy.gcd(_sympy_expr(sympy, f), _sympy_expr(sympy, g)),
                               XYZ).primitive()
            assert poly_gcd(f, g) == poly_gcd(g, f) == want, (f.text(), g.text())
            assert want.total_degree() >= h.total_degree()

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (3, 2)],
                             ids=lambda s: "-".join(map(str, s)))
    def test_radical_and_squarefree_part(self, shape):
        # f = a*h^2, of degree up to 7: refused as a form and as a view in x
        # with coefficients in y and z; its restriction's radical and
        # square-free part in x
        sympy = pytest.importorskip("sympy")
        rng = random.Random(sum(d * 10**i for i, d in enumerate(shape)) + 1)
        for _ in range(3):
            a, h = (_random_form(rng, d, size=9) for d in shape)
            f = a * h * h
            for refused in (lambda: radical(f), lambda: squarefree_part(UniPolyView(f, "x"))):
                with pytest.raises(InvalidParams):
                    refused()
            f = specialised(f, ON_LINE)
            F = _sympy_expr(sympy, f)
            assert radical(f) == _from_sympy(sympy, sympy.sqf_part(F), XYZ).primitive()
            assert squarefree_part(UniPolyView(f, "x")) == _from_sympy(
                sympy, sympy.quo(F, sympy.gcd(F, F.diff("x"))), XYZ).primitive()

    @pytest.mark.timed
    def test_degree_seven_pair_in_seconds(self):
        # two forms of degree 7 sharing a cubic, whose cofactors are coprime
        # quartics: refused at once as forms; on the line their gcd is the
        # cubic's restriction
        rng = random.Random(5)
        a, b, h = (_random_form(rng, d, size=9) for d in (4, 4, 3))
        assert forms_coprime(a, b)
        start = time.perf_counter()
        with pytest.raises(InvalidParams):
            poly_gcd(a * h, b * h)
        common = poly_gcd(*(specialised(p * h, ON_LINE) for p in (a, b)))
        assert time.perf_counter() - start < 3
        assert common == specialised(h, ON_LINE).primitive()


def _linear(coeffs):
    return sum((MultiPoly.var(XYZ, v) * c for v, c in zip(XYZ, coeffs)), MultiPoly.zero(XYZ))


def _random_form(rng, degree, size=4):
    """A nonzero ternary form with numerators up to size, some of the
    coefficients fractions over 2 or 3."""
    while True:
        form = MultiPoly(XYZ, {e: Fraction(rng.randint(-size, size), rng.choice((1, 1, 2, 3)))
                               for e in product(range(degree + 1), repeat=3)
                               if sum(e) == degree and rng.random() < 0.6})
        if not form.is_zero():
            return form


def _witness_lines(rng):
    """Four lines, each through two points of WITNESS_SEQUENCE: their
    product vanishes at every witness."""
    points = list(WITNESS_SEQUENCE)
    rng.shuffle(points)
    return [_linear([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]]) for a, b in zip(points[::2], points[1::2])]


def _sympy_poly(sympy, form):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in form.terms.items()},
        *sympy.symbols(XYZ))


class TestPencilCertificates:
    """Square-freeness and coprimality decided on a pencil of lines."""

    #: the first witness, p = (1, 2, 5), is off every curve below; with
    #: k = 0 the pencil lines join p to q_a = (0, 1, a), so line 0 is
    #: z = 5x and line 1 is z = 3x + y
    LINE_0 = _linear([-5, 0, 1])
    LINE_1 = _linear([-3, -1, 1])

    def test_squarefree_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(29)
        reached_grid = planted = 0
        for _ in range(40):
            factors = [_random_form(rng, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                lines = _witness_lines(rng)
                factors += lines
                reached_grid += 1
                if rng.random() < 0.5:
                    factors.append(rng.choice(lines))  # a square through two witnesses
                    planted += 1
            if rng.random() < 0.4:
                square = _random_form(rng, rng.randint(1, 2))
                factors += [square, square]
                planted += 1
            F = reduce(lambda a, b: a * b, factors)
            assert is_squarefree(F) == _sympy_poly(sympy, F).is_sqf, F.text()
        assert reached_grid >= 10 and planted >= 10

    def test_squarefree_is_coprimality_with_the_polar(self):
        # is_squarefree reads the polar of its pencil centre off as f_a'
        rng = random.Random(37)
        for _ in range(20):
            factors = [_random_form(rng, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                factors.append(rng.choice(factors))
            F = reduce(lambda a, b: a * b, factors)
            p = point_off([F])
            polar = sum((F.derivative(v) * c for v, c in zip(XYZ, p)), MultiPoly.zero(XYZ))
            assert point_off([F, polar]) == p
            assert is_squarefree(F) == forms_coprime(F, polar), F.text()

    def test_coprime_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(31)
        shared = 0
        for _ in range(40):
            F = _random_form(rng, rng.randint(1, 3))
            G = _random_form(rng, rng.randint(1, 3))
            if rng.random() < 0.5:
                # together the two forms vanish at every witness
                lines = _witness_lines(rng)
                F, G = F * lines[0] * lines[1], G * lines[2] * lines[3]
                if rng.random() < 0.5:
                    G = G * lines[0]  # a shared line through two witnesses
                    shared += 1
            if rng.random() < 0.3:
                common = _random_form(rng, rng.randint(1, 2))
                F, G = F * common, G * common
                shared += 1
            gcd = sympy.gcd(_sympy_poly(sympy, F), _sympy_poly(sympy, G))
            assert forms_coprime(F, G) == (gcd.total_degree() == 0), (F.text(), G.text())
        assert shared >= 10

    def test_point_search_reaches_the_grid(self):
        lines = _witness_lines(random.Random(3))
        W = reduce(lambda a, b: a * b, lines)
        p = point_off([W])
        assert p not in WITNESS_SEQUENCE and W.evaluate(dict(zip(XYZ, p))) != 0
        assert is_squarefree(W) and not is_squarefree(W * lines[2])
        assert forms_coprime(W, _linear([1, 1, 1]))
        assert not forms_coprime(lines[0] * lines[1], lines[1] * lines[2])

    def test_conic_tangent_to_the_first_two_lines(self):
        # L0*L1 - x^2 is a smooth conic; the lines L0, L1 through p touch it
        # where x = 0, so the certificate needs line 2 = d(d-1)
        conic = self.LINE_0 * self.LINE_1 - _linear([1, 0, 0]) ** 2
        assert point_off([conic]) == WITNESS_SEQUENCE[0]
        assert is_squarefree(conic)
        assert not is_squarefree(conic * _linear([1, 0, 0]) ** 2)

    def test_line_pair_meeting_on_the_first_line(self):
        # x + z and x - z meet at [0:1:0], on line 0, so the certificate
        # needs line 1 = d1*d2
        f, g = _linear([1, 0, 1]), _linear([1, 0, -1])
        assert self.LINE_0.evaluate({"x": 0, "y": 1, "z": 0}) == 0
        assert point_off([f, g]) == WITNESS_SEQUENCE[0]
        assert forms_coprime(f, g)
        assert not forms_coprime(f * g, g * _linear([1, 1, 1]))

    def test_witnesses_refuse_a_zero_form(self):
        # a zero form vanishes at every point, so no point is off it
        with pytest.raises(ZeroInput):
            witnesses([_linear([1, 0, 0]), MultiPoly.zero(XYZ)])

    def test_point_off_refuses_a_zero_form(self):
        with pytest.raises(ZeroInput):
            point_off([MultiPoly.zero(XYZ)])

    def test_witnesses_refuse_a_form_in_four_variables(self):
        # a witness has three coordinates; the walk tests integer terms by
        # position, so a fourth variable is refused, not dropped
        form = parse_poly("x*w + y*z", ("x", "y", "z", "w"))
        with pytest.raises(InvalidParams):
            witnesses([form])

    def test_witnesses_refuse_an_empty_family(self):
        # an empty family fixes no ring, so it is refused before any walk
        with pytest.raises(InvalidParams):
            witnesses([])
        with pytest.raises(InvalidParams):
            point_off([])

    def test_constants_zero_and_mixed_rings(self):
        one = MultiPoly.const(XYZ, 3)
        assert is_squarefree(one)
        assert not is_squarefree(MultiPoly.zero(XYZ))
        assert forms_coprime(one, _linear([1, 2, 3]))
        with pytest.raises(ZeroInput):
            forms_coprime(MultiPoly.zero(XYZ), one)
        with pytest.raises(SharedVariableMismatch):
            forms_coprime(parse_poly("u", UVW), _linear([1, 0, 0]))

    @pytest.mark.parametrize("text, variables", [
        ("x^2 + y", XYZ),
        ("x^2 + y^2", ("x", "y")),
        ("x^2 + y^2 + z^2 + t^2", ("x", "y", "z", "t")),
    ], ids=["inhomogeneous", "two-variables", "four-variables"])
    def test_other_input_refused(self, text, variables):
        f = parse_poly(text, variables)
        with pytest.raises(InvalidParams):
            is_squarefree(f)
        with pytest.raises(InvalidParams):
            forms_coprime(f, f)

    @pytest.mark.timed
    def test_high_degree_failure_is_bounded(self):
        # every one of the d(d-1)+1 = 111 lines of a degree-11 form with a
        # square factor fails, each at the cost of one univariate gcd
        f = parse_poly("x^7*y + y^7*z + z^7*x + x^3*y^3*z^2", XYZ)
        start = time.perf_counter()
        assert not is_squarefree(f * _linear([1, 2, 3]) ** 2 * _linear([1, 0, 1]))
        assert is_squarefree(f)
        assert time.perf_counter() - start < 1.0


class TestUniPolyView:
    def test_degrees_and_leading_coefficient(self):
        p = parse_poly("y^2*x^3 - z*x + 1", XYZ)
        view = UniPolyView(p, "x")
        assert view.degree == 3 and UniPolyView(MultiPoly.zero(XYZ), "x").degree == -1
        assert view.coeffs[-1] == parse_poly("y^2", XYZ)

    def test_coefficients_live_in_remaining_variables(self):
        p = parse_poly("y*x^2 + z", XYZ)
        view = UniPolyView(p, "x")
        assert view.coeffs[2] == parse_poly("y", XYZ)
        assert view.coeffs[0] == parse_poly("z", XYZ)
        assert view.coeffs[1].is_zero()


#: the dual chart's ring and nonlinear image: z -> -(u*x + v)
CHART = ("x", "u", "v")


def _random_image(rng, kind):
    """A seeded image in CHART of the given kind."""
    gens = [MultiPoly.var(CHART, v) for v in CHART]
    if kind == "zero":
        return MultiPoly.zero(CHART)
    if kind == "constant":
        return MultiPoly.const(CHART, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    if kind == "chart":
        return -(gens[1] * gens[0] + gens[2])
    coeffs = [Fraction(rng.randint(-5, 5), 1 if kind == "integer" else rng.randint(1, 6))
              for _ in CHART]
    image = sum((g * c for g, c in zip(gens, coeffs)), MultiPoly.zero(CHART))
    if kind == "affine":
        image = image + Fraction(rng.randint(-7, 7), rng.randint(1, 4))
    return image


def _sympy_expr(sympy, poly):
    symbols = sympy.symbols(poly.variables)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s ** k for s, k in zip(symbols, e)))
                       for e, c in poly.terms.items()))


def _from_sympy(sympy, expr, variables):
    poly = sympy.Poly(expr, *sympy.symbols(variables))
    return MultiPoly(variables, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


IMAGE_KINDS = ("integer", "rational", "affine", "chart", "zero", "constant")


class TestSubstitution:
    """`MultiPoly.substitute` against SymPy's expansion."""

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41)
        kinds_seen = set()
        for _ in range(30):
            F = _random_poly(rng, XYZ, max_terms=8, max_exp=3)
            kinds = [rng.choice(IMAGE_KINDS) for _ in XYZ]
            kinds_seen.update(kinds)
            images = {v: _random_image(rng, k) for v, k in zip(XYZ, kinds)}
            # simultaneous: the images themselves contain x
            want = sympy.expand(_sympy_expr(sympy, F).subs(
                {sympy.Symbol(v): _sympy_expr(sympy, p) for v, p in images.items()},
                simultaneous=True))
            assert F.substitute(images) == _from_sympy(sympy, want, CHART), (F.text(), kinds)
        assert kinds_seen == set(IMAGE_KINDS)

    def test_dual_chart_of_a_form(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(43)
        x, u, v = (MultiPoly.var(CHART, n) for n in CHART)
        chart = {"x": x, "y": MultiPoly.const(CHART, 1), "z": -(u * x + v)}
        for degree in (2, 3, 4):
            F = _random_form(rng, degree)
            X, U, V = sympy.symbols(CHART)
            want = sympy.expand(_sympy_expr(sympy, F).subs(
                {sympy.Symbol("y"): 1, sympy.Symbol("z"): -(U * X + V)}))
            assert F.substitute(chart) == _from_sympy(sympy, want, CHART)

    def test_images_in_different_rings_refused(self):
        F = parse_poly("x*y + z", XYZ)
        images = {"x": parse_poly("u", UVW), "y": parse_poly("v", UVW),
                  "z": parse_poly("x", CHART)}
        with pytest.raises(SharedVariableMismatch):
            F.substitute(images)

    def test_unmapped_variable_refused(self):
        F = parse_poly("x*y + z", XYZ)
        with pytest.raises(KeyError):
            F.substitute({"x": parse_poly("u", UVW), "y": parse_poly("v", UVW)})


def _assert_clean(r):
    """r holds what the public constructor would build from its own terms."""
    assert type(r.variables) is tuple
    assert r == MultiPoly(r.variables, dict(r.terms))
    for e, c in r.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == len(r.variables)
        assert all(type(k) is int and k >= 0 for k in e)


class TestTrustedResults:
    """Every result the ring builds without validation is clean, including
    the results in which terms cancel."""

    def test_ring_operations(self):
        rng = random.Random(47)
        for _ in range(40):
            a, b = _random_poly(rng, XYZ), _random_poly(rng, XYZ)
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for r in (a + b, a - b, a + (-a), -a, a * q, a * 0, a * b, a * (b - b),
                      a.derivative("y"), b.derivative("z")):
                _assert_clean(r)
        x, y = MultiPoly.var(XYZ, "x"), MultiPoly.var(XYZ, "y")
        _assert_clean((x + y) * (x - y))  # the x*y terms cancel

    def test_univariate_view_coefficients(self):
        rng = random.Random(53)
        for _ in range(20):
            for c in UniPolyView(_random_poly(rng, XYZ), "y").coeffs:
                _assert_clean(c)

    def test_determinants_and_resultants(self):
        # the seeded operands on the line y = 2, z = 3, where they are
        # polynomials in x of degrees 4 and 3
        rng = random.Random(59)
        for _ in range(10):
            f = _random_poly(rng, XYZ, max_exp=3) + parse_poly("x^4", XYZ)
            g = _random_poly(rng, XYZ, max_exp=3) + parse_poly("x^3", XYZ)
            fv, gv = (UniPolyView(specialised(p, ON_LINE), "x") for p in (f, g))
            _assert_clean(resultant(fv, gv))
            _assert_clean(discriminant(fv))
            _assert_clean(discriminant(gv))

    def test_exact_quotients(self):
        # the square-free part f / gcd(f, f') and the gcd of seeded products
        # a*b*b and b on the line y = 2, z = 3
        rng = random.Random(61)
        for _ in range(30):
            a = _random_poly(rng, XYZ, max_terms=4, max_exp=3)
            b = _random_poly(rng, XYZ, max_terms=3, max_exp=2)
            if b.is_zero():
                continue
            a, b = (specialised(p, ON_LINE) for p in (a, b))
            if (a * b).is_zero():
                continue
            for r in (squarefree_part(a * b * b), poly_gcd(a * b * b, b), radical(a * b)):
                _assert_clean(r)
            assert poly_gcd(a * b * b, b) == b.primitive()

    def test_substitutions(self):
        rng = random.Random(67)
        for _ in range(40):
            F = _random_poly(rng, XYZ, max_terms=8)
            images = {v: _random_image(rng, rng.choice(IMAGE_KINDS)) for v in XYZ}
            r = F.substitute(images)
            _assert_clean(r)
            # substitution commutes with evaluation
            point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in CHART}
            at = {v: p.evaluate(point) for v, p in images.items()}
            assert r.evaluate(point) == F.evaluate(at)
        u = parse_poly("u", CHART)
        _assert_clean(parse_poly("x - y", XYZ).substitute({"x": u, "y": u, "z": u}))


def _columns_in_x(sympy, columns):
    """Integer lists in x as SymPy expressions."""
    x = sympy.Symbol("x")
    return [sum((c * x ** i for i, c in enumerate(col)), sympy.Integer(0)) for col in columns]


class TestDeterminantBound:
    """A frame reads s_{k,j} of its integer y-columns at x = 0..D, with
    D = (m-k)(n-k) + k - j a bound on its degree (`_Frame.coefficient`):
    the eliminant R = s_{0,0} of two forms of degrees d1 and d2 has degree
    d1*d2, the SymPy determinant of the Sylvester matrix of the columns."""

    @pytest.mark.parametrize("d1, d2", [(1, 1), (2, 1), (2, 3), (3, 3), (4, 2), (5, 4)])
    def test_sylvester_matrix_of_forms_gives_d1_d2(self, d1, d2):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(10 * d1 + d2)
        forms = [MultiPoly(XYZ, {e: rng.choice((-3, -2, -1, 1, 2, 3))
                                 for e in product(range(d + 1), repeat=3) if sum(e) == d})
                 for d in (d1, d2)]
        frame = elimination._accepted_frame(*forms)
        R = frame.coefficient(0, 0)
        want = sympy.Poly(sympy_det(minor_matrix(*(_columns_in_x(sympy, c)
                                                   for c in (frame.A, frame.B)), 0, 0)),
                          sympy.Symbol("x"))
        assert len(R) - 1 == want.degree() == d1 * d2
        assert R == [int(c) for c in reversed(want.all_coeffs())]

    def test_structurally_singular_matrix_is_zero(self):
        # 2x^3 and x^2 share the root 0 twice: the last two columns of their
        # Sylvester matrix are zero, and so are S_0 and S_1 of the chain;
        # s*x^3, with a coefficient in s, is refused
        f, g = (UniPolyView(parse_poly(t, ("x", "s")), "x") for t in ("2*x^3", "x^2"))
        assert resultant(f, g).is_zero()
        assert sympy_det(minor_matrix([0, 0, 0, 2], [0, 0, 1], 0, 0)) == 0
        assert _subresultant_chain([0, 0, 0, 2], [0, 0, 1]) == [[0], [0, 0]]
        with pytest.raises(InvalidParams):
            resultant(UniPolyView(parse_poly("s*x^3", ("x", "s")), "x"), g)

    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (4, 3)])
    def test_frame_resultant_takes_d1_d2_plus_one_determinants(self, d1, d2):
        # the accepted frame reads the chain at x = 0..d1*d2 and no further:
        # every s_{k,j} it reads has a bound below that of R
        rng = random.Random(7 * d1 + d2)
        F, G = _random_form(rng, d1), _random_form(rng, d2)
        frame = elimination._accepted_frame(F, G)
        assert len(frame.coefficient(0, 0)) - 1 == d1 * d2
        assert len(frame._chains) == d1 * d2 + 1


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _random_ints(rng, degree, size):
    """An integer list of the given degree, coefficients up to size."""
    return ([rng.randint(-size, size) for _ in range(degree)]
            + [rng.choice((-1, 1)) * rng.randint(1, size)])


def _sympy_gcd(sympy, a, b):
    """The gcd of two integer lists by SymPy, primitive with a positive
    leading coefficient."""
    x = sympy.Symbol("x")
    a, b = (sympy.Poly(list(reversed(cs)), x, domain="ZZ") for cs in (a, b))
    g = a.gcd(b)
    cs = [int(c) for c in reversed(g.all_coeffs())]
    content = math.gcd(*cs) * (1 if cs[-1] > 0 else -1)
    return [c // content for c in cs]


@pytest.fixture
def bounded_primes(monkeypatch):
    """_uni_gcd with 40 primes: a gcd that never accepts its candidate runs
    out of them and raises, instead of running on.  Every pair below needs
    at most 6."""
    monkeypatch.setattr(exact, "_gcd_primes", lambda: islice(_gcd_primes(), 40))


@pytest.mark.usefixtures("bounded_primes")
class TestModularGcd:
    """exact._uni_gcd, Brown's modular algorithm, against SymPy."""

    @pytest.mark.parametrize("kind", ["constant", "full-degree", "repeated"])
    def test_against_sympy_on_planted_factors(self, kind):
        sympy = pytest.importorskip("sympy")
        rng = random.Random({"constant": 41, "full-degree": 43, "repeated": 47}[kind])
        for n in range(30):
            size = rng.choice((9, 10**6, 10**40))
            common = _random_ints(rng, rng.randint(1, 5), size)
            a = _random_ints(rng, rng.randint(0, 6), size)
            b = _random_ints(rng, rng.randint(0, 6), size)
            if kind == "constant":
                common = [rng.choice((-3, 1, 2, 7))]
            elif kind == "full-degree":
                b = [rng.choice((-6, 1, 5))]  # b is common itself, up to a constant
            else:
                a, b = _poly_mul(a, common), _poly_mul(_poly_mul(b, common), common)
            a, b = _poly_mul(a, common), _poly_mul(b, common)
            assert _uni_gcd(a, b) == _uni_gcd(b, a) == _sympy_gcd(sympy, a, b), (a, b)

    def test_coefficients_beyond_the_spelled_out_primes(self):
        # a common factor with 100-digit coefficients needs more than the
        # four primes of exact._GCD_PRIMES, so the Miller-Rabin part runs
        sympy = pytest.importorskip("sympy")
        rng = random.Random(53)
        common = _random_ints(rng, 4, 10**100)
        a = _poly_mul(common, _random_ints(rng, 3, 10**100))
        b = _poly_mul(common, _random_ints(rng, 5, 10**100))
        assert _uni_gcd(a, b) == _sympy_gcd(sympy, a, b)
        assert len(_uni_gcd(a, b)) == 5

    def test_leading_coefficients_divisible_by_the_first_primes(self):
        sympy = pytest.importorskip("sympy")
        p0, p1, p2 = islice(_gcd_primes(), 3)
        rng = random.Random(59)
        for lead_a, lead_b in [(p0, p0), (p0 * p1, p0 * p2), (p0 * p1 * p2, 3 * p1),
                               (p1 * p2, p0)]:
            common = _random_ints(rng, 2, 99)
            a = _poly_mul(common, _random_ints(rng, 2, 99)[:-1] + [lead_a])
            b = _poly_mul(common, _random_ints(rng, 3, 99)[:-1] + [lead_b])
            assert _uni_gcd(a, b) == _sympy_gcd(sympy, a, b)

    def test_pair_unlucky_by_degree_at_the_first_prime(self):
        p = next(_gcd_primes())
        # x - 1 and x + p - 1 agree modulo p
        assert _uni_gcd([-1, 1], [p - 1, 1]) == [1]
        # a common factor 2x + 3 under the same coincidence: the first
        # prime's image has degree 2, the second's the true degree 1
        assert _uni_gcd(_poly_mul([-1, 1], [3, 2]), _poly_mul([p - 1, 1], [3, 2])) == [3, 2]

    def test_normalisation_and_zero_operands(self):
        assert _uni_gcd([0, -4, -6], [0, 0]) == [0, 2, 3]
        assert _uni_gcd([0, 0, 0], [5]) == [1]
        assert _uni_gcd([], [0]) == []
        assert _uni_gcd([6, 4], [-9, -6]) == [3, 2]


class TestPrimeSequence:
    def test_primality_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        top = 2**61
        for n in list(range(3, 3000, 2)) + list(range(top - 3001, top, 2)):
            assert _is_prime(n) == sympy.isprime(n), n
        # strong pseudoprimes to the first few bases
        for n in (2047, 3215031751, 3825123056546413051):
            assert not _is_prime(n)

    def test_the_largest_primes_below_2_30_in_order(self):
        # each residue is one 30-bit digit of a Python int
        sympy = pytest.importorskip("sympy")
        expected, p = [], 2**30
        for _ in range(8):
            p = sympy.prevprime(p)
            expected.append(p)
        assert list(islice(_gcd_primes(), 8)) == expected
        assert exact._GCD_PRIMES == (2**30 - 35, 2**30 - 41, 2**30 - 83, 2**30 - 101)


class TestIntegerQuotient:
    def test_exact_quotient(self):
        assert _uni_quo(_poly_mul([3, 2], [-1, 0, 5]), [3, 2]) == [-1, 0, 5]
        assert not any(_uni_quo([0, 0], [3, 2]))

    @pytest.mark.parametrize("a, b", [
        ([1, 0, 1], [1, 1]),
        ([1, 3], [1, 2]),
        ([2, 4, 2], [1, 2, 1, 0, 5]),
    ], ids=["remainder", "non-integral", "longer-divisor"])
    def test_non_divisor_raises(self, a, b):
        with pytest.raises(InvariantViolation):
            _uni_quo(a, b)

    def test_gcd_returning_a_non_divisor_is_caught(self, monkeypatch):
        # x^2 - 1 by a "gcd" x + 2, which does not divide it
        monkeypatch.setattr(elimination, "_uni_gcd", lambda a, b: [2, 1])
        with pytest.raises(InvariantViolation):
            elimination.rational_roots([Fraction(-1), 0, 1])


class TestSubresultantChain:
    """exact._subresultant_chain against SymPy's determinants of the
    Sylvester minors it replaces."""

    @staticmethod
    def _assert_matches_bareiss(a, b):
        """The chain of a and b holds every s_{k,j}, each the determinant
        of its minor (by SymPy, whose integer determinant is fraction-free
        elimination); for a constant operand it holds the resultant alone."""
        chain = _subresultant_chain(a, b)
        assert chain == sympy_chain(a, b), (a, b)
        return chain

    @staticmethod
    def _abnormal(chain) -> bool:
        """Does some principal coefficient psc_k = s_{k,k} vanish?"""
        return not all(s[-1] for s in chain)

    @pytest.mark.parametrize("shape", ["m<n", "m=n", "m>n"])
    def test_seeded_pairs(self, shape):
        rng = random.Random({"m<n": 71, "m=n": 73, "m>n": 79}[shape])
        abnormal = 0
        for _ in range(150):
            m = rng.randint(1, 7)
            n = {"m<n": m + rng.randint(1, 4), "m=n": m, "m>n": max(1, m - rng.randint(1, 4))}[shape]
            if m == n == 1 and shape != "m=n":
                continue
            size = rng.choice((9, 10**6, 10**30))
            a, b = _random_ints(rng, m, size), _random_ints(rng, n, size)
            if rng.random() < 0.4:  # sparse lists, whose chains drop degrees
                a, b = ([c if i == len(cs) - 1 or rng.random() < 0.3 else 0 for i, c in enumerate(cs)]
                        for cs in (a, b))
            abnormal += self._abnormal(self._assert_matches_bareiss(a, b))
        assert abnormal > 10

    def test_common_root_at_the_point(self):
        # a zero remainder: the resultant and every S_k below the common
        # factor's degree vanish
        rng = random.Random(83)
        for _ in range(40):
            common = [rng.randint(-5, 5), 1] if rng.random() < 0.7 else [1, 0, 1]
            a = _poly_mul(common, _random_ints(rng, rng.randint(0, 5), 20))
            b = _poly_mul(common, _random_ints(rng, rng.randint(0, 5), 20))
            chain = self._assert_matches_bareiss(a, b)
            assert chain[0] == [0]
            assert not any(chain[len(common) - 2])

    def test_vanishing_principal_coefficient(self):
        # a remainder that drops two or more degrees: some psc_k with k > 0
        # vanishes while the resultant does not
        for a, b in [([1, 0, 0, 0, 1], [5, 0, 0, 8]),       # y^4 + 1, 8y^3 + 5
                     ([2, 0, 3, 0, 0, 1], [1, 0, 0, 0, 1]),
                     ([1, 1, 0, 0, 1], [0, 0, 0, 3]),
                     ([7, 0, 0, 0, 0, 0, 1], [3, 0, 0, 0, 0, 2])]:
            for chain in (self._assert_matches_bareiss(a, b), self._assert_matches_bareiss(b, a)):
                assert self._abnormal(chain) and chain[0] != [0]

    def test_low_degree_operands(self):
        # a constant operand c gives [[c^m]], m the other operand's degree:
        # the Sylvester determinant, in both operand orders
        assert _subresultant_chain([3, 2], [5]) == [[5]]
        assert _subresultant_chain([5], [1, 0, 1]) == [[25]]
        assert _subresultant_chain([1, 0, 1], [-2]) == [[4]]
        assert _subresultant_chain([3, 2], [-1, 4]) == [[-14]] == sympy_chain([3, 2], [-1, 4])
        rng = random.Random(89)
        for _ in range(40):
            a, b = _random_ints(rng, 1, 50), _random_ints(rng, rng.randint(1, 6), 50)
            self._assert_matches_bareiss(a, b)
            self._assert_matches_bareiss(b, a)
            c, m = [rng.choice((-1, 1)) * rng.randint(1, 50)], len(b) - 1
            assert self._assert_matches_bareiss(c, b) == [[c[0] ** m]]
            assert self._assert_matches_bareiss(b, c) == [[c[0] ** m]]


    def test_swapped_operands_change_sign_by_the_row_blocks(self):
        rng = random.Random(97)
        for _ in range(40):
            a, b = _random_ints(rng, rng.randint(1, 6), 30), _random_ints(rng, rng.randint(1, 6), 30)
            m, n = len(a) - 1, len(b) - 1
            assert _subresultant_chain(b, a) == [
                s if (m - k) * (n - k) % 2 == 0 else [-c for c in s]
                for k, s in enumerate(_subresultant_chain(a, b))]


class TestChainOverPolynomials:
    """exact._subresultant_chain holds, at every (k, j), the s_{k,j} of
    polynomials in y whose coefficients are affine in a and b, at each
    integer point (a, b) of a 4x4 grid where neither leading coefficient
    vanishes: the chain of the specialised operands, scaled to integers,
    against SymPy's determinants of their minors.  The operands themselves
    are refused by the public resultant."""

    RING = ("y", "a", "b")
    POINTS = [(a, b) for a in (-2, 0, 1, 3) for b in (-1, 0, 2, 5)]

    def _operand(self, rng, degree, step=1):
        """A polynomial in the powers 0, step, 2*step, ... of y up to degree,
        with coefficients affine in a and b and fraction coefficients."""
        while True:
            terms = {(i, j, k): Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                     for i in range(0, degree + 1, step)
                     for j, k in ((0, 0), (1, 0), (0, 1)) if rng.random() < 0.7}
            poly = MultiPoly(self.RING, terms)
            if poly.degree_in("y") == degree:
                return poly

    @staticmethod
    def _at(view, point):
        """The coefficients of a view in y at (a, b), as Fractions."""
        return [c.evaluate({"y": 0, "a": point[0], "b": point[1]}) for c in view.coeffs]

    @pytest.mark.parametrize("shape", ["m<n", "m=n", "m>n", "abnormal", "planted"])
    def test_every_coefficient(self, shape):
        sympy = pytest.importorskip("sympy")
        rng = random.Random({"m<n": 101, "m=n": 103, "m>n": 107, "abnormal": 109,
                             "planted": 113}[shape])
        for _ in range(6):
            if shape == "abnormal":  # polynomials in y^2: every remainder drops two degrees
                A, B = self._operand(rng, 4, 2), self._operand(rng, rng.choice((2, 4)), 2)
            else:
                m = rng.randint(2, 4)
                n = {"m<n": m + 1, "m=n": m, "m>n": m - 1, "planted": 2}[shape]
                A, B = self._operand(rng, m), self._operand(rng, n)
            if shape == "planted":  # a common factor of degree 1 or 2: a zero remainder
                common = self._operand(rng, rng.randint(1, 2))
                A, B = A * common, B * common
            Av, Bv = UniPolyView(A, "y"), UniPolyView(B, "y")
            with pytest.raises(InvalidParams):
                resultant(Av, Bv)
            read = 0
            for point in self.POINTS:
                a, b = (self._at(view, point) for view in (Av, Bv))
                if not a[-1] or not b[-1]:
                    continue
                den_a, den_b = (math.lcm(*(c.denominator for c in cs)) for cs in (a, b))
                a, b = [int(c * den_a) for c in a], [int(c * den_b) for c in b]
                chain = _subresultant_chain(a, b)
                assert chain == sympy_chain(a, b), (A.text(), B.text(), point)
                if shape == "abnormal":
                    assert not chain[1][-1]
                if shape == "planted":
                    assert not any(chain[0])
                read += 1
            assert read >= 4


def _modified_discriminant(cs):
    """(-1)^(d(d-1)/2) times the SymPy determinant of the Sylvester matrix
    of cs = [c0..cd] and its derivative, read as of degree d even where cd
    vanishes, with the first column, cd in row 0 and d*cd in row d-1,
    replaced by 1 and d: Res(f, f') / cd where cd != 0."""
    d = len(cs) - 1
    matrix = minor_matrix(cs, _derivative(cs), 0, 0)
    matrix[0][0], matrix[d - 1][0] = 1, d
    return (-1) ** (d * (d - 1) // 2) * sympy_det(matrix)


class TestUniDiscriminant:
    """exact._uni_discriminant, the discriminant of a binary form of degree
    d given as [c0..cd], against the modified Sylvester matrix by SymPy."""

    @pytest.mark.parametrize("zeros", [0, 1, 2], ids=["cd", "cd=0", "cd=c(d-1)=0"])
    def test_seeded_lists(self, zeros):
        rng = random.Random(101 + zeros)
        for _ in range(120):
            d = rng.randint(max(2, zeros), 7)
            cs = [rng.choice((0, rng.randint(-20, 20))) for _ in range(d + 1 - zeros)]
            cs[-1] = cs[-1] or 1
            cs += [0] * zeros
            assert _uni_discriminant(cs) == _modified_discriminant(cs), cs
            if zeros == 2:
                assert _uni_discriminant(cs) == 0  # a double root at infinity

    def test_root_at_infinity_multiplies_by_the_square(self):
        # Disc(y*g) = Disc(g) Res(g, y)^2 = c_{d-1}^2 Disc(g); Disc of a line is 1
        assert _uni_discriminant([5, 3]) == 1
        assert _uni_discriminant([5, 3, 0]) == 9
        assert _uni_discriminant([-4, 0, 1]) == 16
        assert _uni_discriminant([-4, 0, 1, 0]) == 16
        assert _uni_discriminant([1, 2, 1]) == 0 == _uni_discriminant([0, 0, 1, 0])


class TestEvaluation:
    """MultiPoly.evaluate sums integer terms at a point of ints."""

    @staticmethod
    def _reference(poly, point):
        total = Fraction(0)
        for e, c in poly.terms.items():
            for v, k in zip(poly.variables, e):
                c *= Fraction(point[v]) ** k
            total += c
        return total

    def test_against_fraction_evaluation(self):
        rng = random.Random(61)
        for _ in range(60):
            poly = _random_poly(rng, XYZ)
            ints = {v: rng.randint(-5, 5) for v in XYZ}
            rationals = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in XYZ}
            mixed = {**ints, "y": rationals["y"]}
            for point in (ints, rationals, mixed):
                value = poly.evaluate(point)
                assert type(value) is Fraction and value == self._reference(poly, point)

    def test_zero_polynomial(self):
        assert MultiPoly.zero(XYZ).evaluate({"x": 1, "y": 2, "z": 3}) == 0

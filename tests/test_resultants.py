"""Resultants, discriminants and square-free parts in one variable against
independent oracles; operands with a coefficient in a second variable are
refused, and checked at integer values of it instead."""

import math
import random
from fractions import Fraction

import pytest

from dualis.errors import (
    DegenerateInput,
    DegreeGuardrail,
    DegreeTooLow,
    InvalidParams,
    SharedVariableMismatch,
    ZeroInput,
)
from dualis.exact import (
    MultiPoly,
    UniPolyView,
    _subresultant_chain,
    discriminant,
    parse_poly,
    poly_gcd,
    resultant,
    squarefree_part,
)
from references import (chain as sympy_chain, det as sympy_det, minor_matrix, specialised,
                        sympy_expr, sympy_resultant)

X = ("x",)


def _res(ftext, gtext, variables=X, var="x"):
    f = parse_poly(ftext, variables)
    g = parse_poly(gtext, variables)
    return resultant(UniPolyView(f, var), UniPolyView(g, var))


def _product_of_roots_oracle(roots_f, gtext):
    """Res(f, g) = lc(f)^deg(g) prod g(alpha) for monic f with known roots."""
    g = parse_poly(gtext, X)
    total = Fraction(1)
    for alpha in roots_f:
        total *= g.evaluate({"x": Fraction(alpha)})
    return total


class TestResultant:
    def test_linear_pair(self):
        # oracle: f = x - 2 has the single root 2, g(2) = -1
        assert _product_of_roots_oracle([2], "x - 3") == -1
        assert _res("x - 2", "x - 3") == MultiPoly.const(X, -1)

    def test_shared_root_vanishes(self):
        assert _res("x^2 - 1", "x - 1").is_zero()

    def test_two_quadrics(self):
        # roots of x^2 - 4 are +/-2; oracle for g = x^2 - 1: 3 * 3 = 9
        assert _product_of_roots_oracle([2, -2], "x^2 - 1") == 9
        assert _res("x^2 - 4", "x^2 - 1") == MultiPoly.const(X, 9)
        # the spec pair x^2 + 1 vs x^2 - 1: (i^2 - 1)(-i^2 ... ) = (-2)(-2)
        assert _res("x^2 + 1", "x^2 - 1") == MultiPoly.const(X, 4)

    def test_sylvester_convention_f_rows_first(self):
        # Res(2x + b, 3x + c) = det [[2, b], [3, c]] = 2c - 3b, the row of f
        # first, at integer b and c; with b and c as variables it is refused
        ring = ("x", "b", "c")
        f, g = parse_poly("2*x + b", ring), parse_poly("3*x + c", ring)
        with pytest.raises(InvalidParams):
            resultant(UniPolyView(f, "x"), UniPolyView(g, "x"))
        for b, c in ((5, 7), (-1, 4), (0, 3)):
            rows = minor_matrix([b, 2], [c, 3], 0, 0)
            assert rows == [[2, b], [3, c]] and sympy_det(rows) == 2 * c - 3 * b
            fb, gc = (UniPolyView(specialised(p, {"b": b, "c": c}), "x") for p in (f, g))
            assert resultant(fb, gc) == MultiPoly.const(ring, 2 * c - 3 * b)
            assert resultant(gc, fb) == MultiPoly.const(ring, 3 * b - 2 * c)

    def test_symmetry_sign(self):
        rng = random.Random(23)
        for _ in range(25):
            f = _random_uni(rng)
            g = _random_uni(rng)
            m, n = f.degree_in("x"), g.degree_in("x")
            if m < 1 and n < 1:
                continue
            a = resultant(UniPolyView(f, "x"), UniPolyView(g, "x"))
            b = resultant(UniPolyView(g, "x"), UniPolyView(f, "x"))
            assert a == b * ((-1) ** (m * n))

    def test_multiplicativity(self):
        rng = random.Random(29)
        checked = 0
        while checked < 20:
            f = _random_uni(rng, max_deg=3)
            g = _random_uni(rng, max_deg=2)
            h = _random_uni(rng, max_deg=2)
            if min(f.degree_in("x"), g.degree_in("x"), h.degree_in("x")) < 1:
                continue
            lhs = resultant(UniPolyView(f, "x"), UniPolyView(g * h, "x"))
            rhs = resultant(UniPolyView(f, "x"), UniPolyView(g, "x")) * resultant(
                UniPolyView(f, "x"), UniPolyView(h, "x")
            )
            assert lhs == rhs
            checked += 1

    def test_degenerate_and_mismatch_errors(self):
        f = parse_poly("2", X)
        with pytest.raises(DegenerateInput):
            resultant(UniPolyView(f, "x"), UniPolyView(parse_poly("3", X), "x"))
        a = parse_poly("x + y", ("x", "y"))
        with pytest.raises(SharedVariableMismatch):
            resultant(UniPolyView(a, "x"), UniPolyView(a, "y"))

    def test_size_guardrail(self):
        f = parse_poly("x^40 + 1", X)
        g = parse_poly("x^30 - 2", X)
        with pytest.raises(DegreeGuardrail):
            resultant(UniPolyView(f, "x"), UniPolyView(g, "x"))


def _random_uni(rng, max_deg=4):
    coeffs = [rng.randint(-5, 5) for _ in range(max_deg + 1)]
    terms = {(k,): Fraction(c) for k, c in enumerate(coeffs) if c}
    return MultiPoly(X, terms)


def _random_bivariate(rng, deg_x, deg_y):
    """Random polynomial in x, y with Fraction coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = (rng.randint(0, deg_x), rng.randint(0, deg_y))
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return MultiPoly(("x", "y"), terms)


def _cofactor_det(m):
    """Determinant of a matrix of numbers by cofactor expansion along the
    first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _coefficients(view):
    """The coefficients of a view in one variable, as Fractions."""
    return [sum(c.terms.values(), Fraction(0)) for c in view.coeffs]


def _integers(cs):
    """A list of Fractions times the least common denominator den: (den, ints)."""
    den = math.lcm(*(c.denominator for c in cs))
    return den, [int(c * den) for c in cs]


def _check_one_variable(f, g, var):
    """The resultant of f and g, polynomials in var alone, against the
    cofactor expansion and SymPy's determinant of their Sylvester matrix
    and SymPy's resultant, and every s_{k,j} of the chain of their integer
    lists against the cofactor expansion of its minor: the resultant.  A
    zero operand is refused with ZeroInput and two constants with
    DegenerateInput; the refusal type is returned then."""
    sympy = pytest.importorskip("sympy")
    fv, gv = UniPolyView(f, var), UniPolyView(g, var)
    if min(fv.degree, gv.degree) < 0 or max(fv.degree, gv.degree) < 1:
        refusal = ZeroInput if min(fv.degree, gv.degree) < 0 else DegenerateInput
        with pytest.raises(refusal):
            resultant(fv, gv)
        return refusal
    res = resultant(fv, gv)
    a, b = _coefficients(fv), _coefficients(gv)
    matrix = minor_matrix(a, b, 0, 0)
    want = sympy_resultant(f, g, var)
    assert res == MultiPoly.const(f.variables, _cofactor_det(matrix)) \
        == MultiPoly.const(f.variables, Fraction(str(sympy_det(matrix)))) \
        == MultiPoly.const(f.variables, Fraction(str(want))), (f.text(), g.text())
    (_, A), (_, B) = _integers(a), _integers(b)
    chain = _subresultant_chain(A, B)
    for k in range(min(fv.degree, gv.degree)):
        for j in range(k + 1):
            assert chain[k][j] == _cofactor_det(minor_matrix(A, B, k, j)), (k, j)
    return res


class TestEvaluationPath:
    """`resultant` of operands with a coefficient in x, a second variable,
    is refused with InvalidParams; at x = 0..4 the operands are polynomials
    in y alone, and their resultant equals the cofactor expansion of their
    Sylvester matrix and SymPy's resultant exactly."""

    XY = ("x", "y")
    POINTS = range(5)

    def _both(self, f, g):
        """The refusal of f and g when either uses x, then the one-variable
        resultants at each point: their list."""
        if "x" in f.used_variables() + g.used_variables():
            with pytest.raises(InvalidParams):
                resultant(UniPolyView(f, "y"), UniPolyView(g, "y"))
        return [_check_one_variable(*(specialised(p, {"x": x}) for p in (f, g)), "y")
                for x in self.POINTS]

    def test_random_bivariate_pairs(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            f = _random_bivariate(rng, 3, 3)
            g = _random_bivariate(rng, 3, 2)
            if f.is_zero() or g.is_zero() or max(f.degree_in("y"), g.degree_in("y")) < 1:
                continue
            self._both(f, g)
            checked += 1

    def test_vanishing_leading_coefficients(self):
        # lc_y(f) vanishes at x = 0, 1 and lc_y(g) at 2, 3: the degree in y
        # drops there, and the resultant is that of the shorter list
        f = parse_poly("x^2*y^2 - x*y^2 + 1/2*y - x^3", self.XY)
        g = parse_poly("x^2*y^3 - 5*x*y^3 + 6*y^3 + 2/3*x*y + 7", self.XY)
        results = self._both(f, g)
        assert all(not r.is_zero() for r in results)

    def test_no_free_variable(self):
        f = parse_poly("3/2*y^3 - y + 4", self.XY)
        g = parse_poly("y^2 - 1/3", self.XY)
        fast = _check_one_variable(f, g, "y")
        assert fast.is_constant() and not fast.is_zero()

    def test_zero_resultant(self):
        # a common factor x*y - 1/2 in y at every x but 0, where it is
        # constant and the cofactors y and 2*y^2 share the root 0
        common = parse_poly("x*y - 1/2", self.XY)
        f = common * parse_poly("y + x^2", self.XY)
        g = common * parse_poly("2*y^2 - x", self.XY)
        assert all(r.is_zero() for r in self._both(f, g))

    def test_one_free_variable_in_a_larger_ring(self):
        ring3 = ("x", "y", "z")
        f = parse_poly("y^3 - 2*x*y + 1/7*x^2", ring3)
        g = parse_poly("3*x*y^2 - x^3 + 5", ring3)
        results = self._both(f, g)
        assert all(r.variables == ring3 and r.is_constant() for r in results)


def _fibre(P, point):
    """The coefficients in y of P at the point, scaled to integers."""
    return _integers([c.evaluate({**point, "y": 0}) for c in UniPolyView(P, "y").coeffs])[1]


def _sympy_gcd(a, b):
    """The gcd of two integer lists in y by SymPy, as a SymPy Poly."""
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    return sympy.Poly(a[::-1], y).gcd(sympy.Poly(b[::-1], y))


class TestFirstSubresultant:
    """psc_1 of the chain against the gcd of the specialised operands.

    Where the y-leading coefficients are constants, A(a, y) and B(a, y) have
    a gcd of degree at least 2 exactly when Res_y and psc_1 of their chain
    both vanish.  Each pair plants a common factor on one fibre x = a: a
    quadratic (gcd degree 2) in half of them, a linear one (gcd degree 1,
    so only the resultant vanishes) in the other half.  The pairs, in two
    variables, are refused by the public resultant.
    """

    FIBRES = range(-4, 5)

    def _random_in_x(self, rng, ring, deg):
        x = MultiPoly.var(ring, "x")
        return sum((x ** k * rng.randint(-3, 3) for k in range(deg + 1)),
                   MultiPoly.zero(ring))

    def _random_monic_y(self, rng, ring, deg):
        y = MultiPoly.var(ring, "y")
        return y ** deg + sum((y ** k * rng.randint(-4, 4) for k in range(deg)),
                              MultiPoly.zero(ring))

    def _planted_pair(self, rng, ring, m, n, a, shared):
        """A, B of y-degrees m, n with constant y-leading coefficients whose
        fibres at x = a share a factor of degree `shared`."""
        y = MultiPoly.var(ring, "y")
        x = MultiPoly.var(ring, "x")
        common = self._random_monic_y(rng, ring, shared)
        out = []
        for d in (m, n):
            tail = sum((y ** k * self._random_in_x(rng, ring, 2) for k in range(d)),
                       MultiPoly.zero(ring))
            lead = rng.choice([-3, -2, -1, 1, 2, 3])
            out.append(common * self._random_monic_y(rng, ring, d - shared) * lead
                       + (x - a) * tail)
        return out

    def _check_fibres(self, A, B, points):
        with pytest.raises(InvalidParams):
            resultant(UniPolyView(A, "y"), UniPolyView(B, "y"))
        seen = set()
        for point in points:
            a, b = _fibre(A, point), _fibre(B, point)
            chain = _subresultant_chain(a, b)
            both_vanish = chain[0][0] == 0 and chain[1][1] == 0
            degree = _sympy_gcd(a, b).degree()
            assert (degree >= 2) == both_vanish, (A.text(), B.text(), point)
            seen.add(degree)
        return seen

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (3, 2), (2, 4)])
    def test_planted_fibres_one_free_variable(self, m, n):
        rng = random.Random(100 * m + n)
        ring = ("x", "y")
        seen = set()
        for trial in range(10):
            a = rng.choice(self.FIBRES)
            A, B = self._planted_pair(rng, ring, m, n, a, 2 if trial % 2 else 1)
            seen |= self._check_fibres(A, B, [{"x": b} for b in self.FIBRES])
        assert {0, 1, 2} <= seen

    def test_planted_fibres_second_free_variable(self):
        # a free variable s besides x: the fibres are taken at points (x, s)
        rng = random.Random(7)
        ring = ("x", "y", "s")
        s = MultiPoly.var(ring, "s")
        seen = set()
        for trial in range(6):
            a = rng.choice(self.FIBRES)
            m, n = (3, 2) if trial % 3 else (2, 2)
            A, B = self._planted_pair(rng, ring, m, n, a, 2 if trial % 2 else 1)
            x, y = MultiPoly.var(ring, "x"), MultiPoly.var(ring, "y")
            A = A + s * y * (x - a) * rng.randint(1, 3)
            B = B - s * s * (x - a)
            seen |= self._check_fibres(
                A, B, [{"x": b, "s": s0} for b in self.FIBRES for s0 in (-1, 0, 2)])
        assert {0, 1, 2} <= seen

    def test_quadratics_by_hand(self):
        # (y - a)(y - b) against (y - a)(y - c): psc_1 = b - c; with a, b, c
        # as variables the pair is refused
        ring = ("y", "a", "b", "c")
        f = parse_poly("y^2 - a*y - b*y + a*b", ring)
        g = parse_poly("y^2 - a*y - c*y + a*c", ring)
        with pytest.raises(InvalidParams):
            resultant(UniPolyView(f, "y"), UniPolyView(g, "y"))
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    chain = _subresultant_chain([a * b, -a - b, 1], [a * c, -a - c, 1])
                    assert chain[1][1] == b - c

    def test_linear_operand_refused(self):
        # a linear operand has no S_1: the chain holds the resultant alone,
        # and a linear polynomial has no discriminant
        chain = _subresultant_chain([1, 0, 0, 1], [-2, 1])
        assert chain == sympy_chain([1, 0, 0, 1], [-2, 1]) == [[-9]]
        with pytest.raises(DegreeTooLow):
            discriminant(UniPolyView(parse_poly("x - 2", X), "x"))


class TestSubresultantCoefficients:
    """s_{k,j} of the chain against the gcd of the specialised operands.

    Where the y-leading coefficients are constants and the fibres at x = a
    have a gcd of degree k, psc_1..psc_{k-1} vanish at a, psc_k does not,
    and S_k(a, y) = sum_j s_{k,j}(a) y^j is proportional to that gcd.  Each
    pair plants a common factor of degree 1, 2 or 3 on one fibre.
    """

    XY = ("x", "y")

    def test_planted_fibres(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(23)
        ring = ("x", "y")
        planted_pair = TestFirstSubresultant()._planted_pair
        seen = set()
        for trial in range(12):
            m, n = rng.choice([(4, 4), (5, 4), (4, 5)])
            a = rng.choice(TestFirstSubresultant.FIBRES)
            A, B = planted_pair(rng, ring, m, n, a, 1 + trial % 3)
            with pytest.raises(InvalidParams):
                resultant(UniPolyView(A, "y"), UniPolyView(B, "y"))
            fa, fb = _fibre(A, {"x": a}), _fibre(B, {"x": a})
            common = _sympy_gcd(fa, fb)
            k = common.degree()
            chain = _subresultant_chain(fa, fb)
            assert all(chain[i][i] == 0 for i in range(min(k, m, n)))
            if k == min(m, n):  # the lower operand's fibre divides the other
                continue
            assert chain[k][k] != 0
            S = sympy.Poly(chain[k][::-1], sympy.Symbol("y"))
            assert S.monic() == common.monic()
            seen.add(k)
        assert seen == {1, 2, 3}

    def test_zeroth_is_the_resultant(self):
        # s_{0,0} of the chain of the scaled lists is the resultant, at y
        # values where the operands are polynomials in x alone
        f = parse_poly("x^3 - 2*x*y + y^2", self.XY)
        g = parse_poly("3*x^2*y - x + 5", self.XY)
        with pytest.raises(InvalidParams):
            resultant(UniPolyView(f, "x"), UniPolyView(g, "x"))
        for y in (-1, 2, Fraction(1, 3)):
            fy, gy = (UniPolyView(specialised(p, {"y": y}), "x") for p in (f, g))
            (den_a, a), (den_b, b) = _integers(_coefficients(fy)), _integers(_coefficients(gy))
            s00 = Fraction(_subresultant_chain(a, b)[0][0], den_a ** gy.degree * den_b ** fy.degree)
            assert resultant(fy, gy) == MultiPoly.const(self.XY, s00) \
                == _check_one_variable(fy.poly, gy.poly, "x")

    @pytest.mark.parametrize("k, j", [(1, 2), (2, 0), (0, -1), (-1, -1)])
    def test_indices_out_of_range_refused(self, k, j):
        # the chain of lists of degrees 3 and 2 holds s_{k,j} for
        # 0 <= j <= k < 2 alone
        chain = _subresultant_chain([1, 0, 0, 1], [-2, 0, 1])
        held = {(k, j) for k, s in enumerate(chain) for j in range(len(s))}
        assert held == {(0, 0), (1, 0), (1, 1)} and (k, j) not in held
        assert chain == sympy_chain([1, 0, 0, 1], [-2, 0, 1])


class TestDeterminant:
    """The public resultant against cofactor expansion and SymPy of the
    Sylvester matrix, and every s_{k,j} of the chain against cofactor
    expansion of its minor, on operands in x; operands whose coefficients
    use further variables are refused, and checked at integer points of
    those variables instead."""

    RINGS = {0: ("x",), 1: ("x", "s"), 2: ("x", "s", "t"), 3: ("x", "s", "t", "r")}
    POINTS = (-1, 2)

    def _random_operand(self, rng, ring, free, degree):
        """A polynomial of the given degree in x over Q[free variables],
        fraction coefficients, leading coefficient often nonconstant."""
        terms = {}
        for k in range(degree + 1):
            for _ in range(rng.randint(0 if k < degree else 1, 2)):
                e = (k,) + tuple(rng.randint(0, 2) if 0 < i <= free else 0
                                 for i in range(1, len(ring)))
                terms[e] = terms.get(e, 0) + Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        return MultiPoly(ring, terms)

    def _check(self, f, g):
        """f and g refused when their coefficients use a free variable, and
        checked at every point of POINTS in those variables: the results
        (resultants or refusal types), the first at x alone."""
        free = sorted(set(f.used_variables() + g.used_variables()) - {"x"})
        if free:
            with pytest.raises(InvalidParams):
                resultant(UniPolyView(f, "x"), UniPolyView(g, "x"))
        points = [{}]
        for v in free:
            points = [{**p, v: c} for p in points for c in self.POINTS]
        return [_check_one_variable(*(specialised(p, point) for p in (f, g)), "x")
                for point in points]

    @pytest.mark.parametrize("free", [0, 1, 2, 3])
    def test_random_fraction_matrices(self, free):
        rng = random.Random(50 + free)
        ring = self.RINGS[free]
        used = set()
        for _ in range(5 if free < 3 else 3):
            f, g = (self._random_operand(rng, ring, free, rng.randint(1, 3)) for _ in range(2))
            if f.degree_in("x") < 1 or g.degree_in("x") < 1:
                continue
            used |= set(f.used_variables() + g.used_variables()) - {"x"}
            self._check(f, g)
        assert len(used) == free

    def test_zero_row(self):
        # f = (s^2 - 1/3*t)(x^2 + 2) vanishes where t = 3s^2, at s = t = 0
        # among them, where the rows of f in every minor are zero: the
        # resultant there refuses a zero operand
        ring = self.RINGS[2]
        f = parse_poly("s^2*x^2 - 1/3*t*x^2 + 2*s^2 - 2/3*t", ring)
        g = parse_poly("x^2 + t*x - s", ring)
        with pytest.raises(InvalidParams):
            resultant(UniPolyView(f, "x"), UniPolyView(g, "x"))
        for s, t in ((0, 0), (1, 3), (1, 0), (2, 1), (-1, 2)):
            got = _check_one_variable(*(specialised(p, {"s": s, "t": t}) for p in (f, g)), "x")
            assert (got is ZeroInput) == (t == 3 * s * s)
            assert got is ZeroInput or not got.is_zero()

    def test_needed_row_swap(self):
        # lc(f) = s vanishes at s = 0 alone, where f is linear and the
        # Sylvester matrix of the shorter list is taken
        ring = self.RINGS[1]
        f = parse_poly("s*x^2 + x + 1/2", ring)
        g = parse_poly("3*x^2 + s^2*x - x + s", ring)
        results = self._check(f, g)
        assert specialised(f, {"s": 0}).degree_in("x") == 1
        assert all(not r.is_zero() for r in results)
        assert not _check_one_variable(*(specialised(p, {"s": 0}) for p in (f, g)), "x").is_zero()

    def test_singular_matrices(self):
        # operands with a common factor of degree c in x: at every point the
        # resultant and every s_{k,j} with k below the degree of the gcd (c
        # or more, by SymPy) vanish, and psc there does not
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        ring = self.RINGS[2]
        for common in ("x - s", "x^2 + 1/2*t*x - s"):
            h = parse_poly(common, ring)
            for _ in range(2):
                f, g = (h * self._random_operand(rng, ring, 2, rng.randint(1, 2)) for _ in range(2))
                with pytest.raises(InvalidParams):
                    resultant(UniPolyView(f, "x"), UniPolyView(g, "x"))
                c = h.degree_in("x")
                for point in ({"s": s, "t": t} for s in self.POINTS for t in self.POINTS):
                    fv, gv = (UniPolyView(specialised(p, point), "x") for p in (f, g))
                    if min(fv.degree, gv.degree) < c:
                        continue
                    assert _check_one_variable(fv.poly, gv.poly, "x").is_zero()
                    a, b = (_integers(_coefficients(v))[1] for v in (fv, gv))
                    chain = _subresultant_chain(a, b)
                    x = sympy.Symbol("x")
                    e = sympy.Poly(a[::-1], x).gcd(sympy.Poly(b[::-1], x)).degree()
                    assert e >= c
                    assert not any(chain[k][j] for k in range(e) for j in range(k + 1))
                    if e < min(fv.degree, gv.degree):  # psc_e is the gcd's leading coefficient
                        assert chain[e][e]

    def test_empty_matrix_refused(self):
        # a zero operand has no Sylvester matrix
        zero, g = UniPolyView(MultiPoly.zero(X), "x"), UniPolyView(parse_poly("x + 1", X), "x")
        with pytest.raises(ZeroInput):
            resultant(zero, g)
        with pytest.raises(ZeroInput):
            resultant(g, zero)


class TestDiscriminant:
    def test_quadratic(self):
        # b^2 - 4c at integer b and c; with b and c as variables it is refused
        ring = ("x", "b", "c")
        p = parse_poly("x^2 + b*x + c", ring)
        with pytest.raises(InvalidParams):
            discriminant(UniPolyView(p, "x"))
        for b in range(-2, 3):
            for c in range(-2, 3):
                assert discriminant(UniPolyView(specialised(p, {"b": b, "c": c}), "x")) \
                    == MultiPoly.const(ring, b * b - 4 * c)

    def test_depressed_cubic(self):
        # oracle: expand Res(f, f') = Res(x^3+px+q, 3x^2+p) by hand:
        # lc(f')^3 prod f(beta) over the two roots beta of 3x^2 + p gives
        # 4p^3 + 27q^2, and the sign prefactor for d = 3 is -1
        ring = ("x", "p", "q")
        cubic = parse_poly("x^3 + p*x + q", ring)
        with pytest.raises(InvalidParams):
            discriminant(UniPolyView(cubic, "x"))
        for p in range(-2, 3):
            for q in (-1, 0, Fraction(1, 2), 3):
                assert discriminant(UniPolyView(specialised(cubic, {"p": p, "q": q}), "x")) \
                    == MultiPoly.const(ring, -4 * p ** 3 - 27 * q ** 2)

    def test_repeated_root_vanishes(self):
        p = parse_poly("x^2 - 2*x + 1", X)
        assert discriminant(UniPolyView(p, "x")).is_zero()

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            discriminant(UniPolyView(parse_poly("x + 1", X), "x"))

    def test_one_determinant_is_res_over_lc(self):
        # seeded f in x over Q[a, b], with a nonconstant leading coefficient,
        # refused; at integer (a, b) it is SymPy's discriminant and
        # (-1)^(d(d-1)/2) Res(f, f') / lc(f) by SymPy's resultant
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        ring = ("x", "a", "b")
        x = sympy.Symbol("x")
        for d in (2, 2, 3, 3, 4, 5):
            terms = {}
            for k in range(d + 1):
                for e in ((0, 0), (1, 0), (0, 1)):
                    if k == d and e == (0, 0) or rng.random() < 0.5:
                        terms[(k,) + e] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
            f = MultiPoly(ring, terms)
            with pytest.raises(InvalidParams):
                discriminant(UniPolyView(f, "x"))
            for a in range(-2, 3):
                for b in range(-2, 3):
                    view = UniPolyView(specialised(f, {"a": a, "b": b}), "x")
                    if view.degree < 2:
                        with pytest.raises(DegreeTooLow):
                            discriminant(view)
                        continue
                    F = sympy.Poly(sympy_expr(view.poly), x)
                    e = view.degree
                    by_resultant = (-1) ** (e * (e - 1) // 2) * sympy.resultant(F, F.diff(x)) / F.LC()
                    want = MultiPoly.const(ring, Fraction(str(sympy.discriminant(F))))
                    assert discriminant(view) == want \
                        == MultiPoly.const(ring, Fraction(str(by_resultant))), f.text()

    def test_fresh_linear_factor_keeps_nonzero(self):
        # (x-1)(x-2)...(x-k) stays square-free as k grows
        f = parse_poly("x - 1", X)
        for k in range(2, 7):
            f = f * parse_poly(f"x - {k}", X)
            assert not discriminant(UniPolyView(f, "x")).is_zero()


class TestSquarefreePart:
    def test_strip_square(self):
        f = parse_poly("x^3 - 3*x + 2", X)  # (x-1)^2 (x+2)
        assert squarefree_part(f) == parse_poly("x^2 + x - 2", X)

    def test_already_squarefree(self):
        f = parse_poly("x^2 + 1", X)
        assert squarefree_part(f) == f

    def test_pure_power(self):
        assert squarefree_part(parse_poly("x^3", X)) == parse_poly("x", X)

    def test_idempotent(self):
        rng = random.Random(37)
        checked = 0
        while checked < 25:
            f = _random_uni(rng, max_deg=3) * _random_uni(rng, max_deg=2)
            if f.is_zero() or f.degree_in("x") < 1:
                continue
            once = squarefree_part(f)
            assert squarefree_part(once) == once
            g = poly_gcd(once, once.derivative("x"))
            assert g.is_constant()
            checked += 1

    def test_one_used_variable_of_a_larger_ring(self):
        p = parse_poly("y^3 - 2*y^2 + y", ("x", "y"))  # y (y-1)^2
        assert squarefree_part(p) == parse_poly("y^2 - y", ("x", "y"))

    def test_multivariate_polynomial_refused(self):
        # a MultiPoly in two used variables names no distinguished one
        with pytest.raises(InvalidParams):
            squarefree_part(parse_poly("x^2*y - y", ("x", "y")))

    def test_multivariate_coefficients(self):
        # a view in x with coefficients in y is refused; at y = 2 the
        # polynomial is 4 (x-1)^2
        p = parse_poly("y^2*x^2 - 2*y^2*x + y^2", ("x", "y"))  # y^2 (x-1)^2
        with pytest.raises(InvalidParams):
            squarefree_part(UniPolyView(p, "x"))
        assert squarefree_part(UniPolyView(specialised(p, {"y": 2}), "x")) == \
            parse_poly("x - 1", ("x", "y"))

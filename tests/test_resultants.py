"""Resultants, discriminants and square-free parts against independent oracles."""

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
from dualis import exact
from dualis.exact import (
    MultiPoly,
    UniPolyView,
    _int_bareiss_determinant,
    _minor_matrix,
    discriminant,
    exact_div,
    parse_poly,
    poly_gcd,
    resultant,
    squarefree_part,
    subresultant_coefficient,
    sylvester_matrix,
)

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
        f = parse_poly("2*x + b", ("x", "b", "c"))
        g = parse_poly("3*x + c", ("x", "b", "c"))
        rows = sylvester_matrix(UniPolyView(f, "x"), UniPolyView(g, "x"))
        assert rows[0][0] == parse_poly("2", ("x", "b", "c"))
        assert rows[1][0] == parse_poly("3", ("x", "b", "c"))

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
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    ring = m[0][0].variables
    total = MultiPoly.zero(ring)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _sympy_det(m):
    """Determinant by SymPy's Matrix.det, read back into the ring of m."""
    sympy = pytest.importorskip("sympy")
    ring = m[0][0].variables
    symbols = sympy.symbols(ring)
    matrix = sympy.Matrix([[sympy.sympify(entry.text().replace("^", "**"),
                                          locals=dict(zip(ring, symbols)))
                            for entry in row] for row in m])
    det = sympy.Poly(matrix.det(method="berkowitz"), *symbols)
    return MultiPoly(ring, {e: Fraction(int(c.p), int(c.q)) for e, c in det.terms()})


class TestEvaluationPath:
    """`resultant` of operands with at most one free variable must equal
    the cofactor expansion of the Sylvester matrix exactly."""

    XY = ("x", "y")

    def _both(self, f, g):
        fv, gv = UniPolyView(f, "y"), UniPolyView(g, "y")
        return resultant(fv, gv), _cofactor_det(sylvester_matrix(fv, gv))

    def test_random_bivariate_pairs(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            f = _random_bivariate(rng, 3, 3)
            g = _random_bivariate(rng, 3, 2)
            if f.is_zero() or g.is_zero() or max(f.degree_in("y"), g.degree_in("y")) < 1:
                continue
            fast, ring = self._both(f, g)
            assert fast == ring
            checked += 1

    def test_vanishing_leading_coefficients(self):
        # lc_y(f) vanishes at the evaluation points x = 0, 1 and lc_y(g) at 2, 3
        f = parse_poly("x^2*y^2 - x*y^2 + 1/2*y - x^3", self.XY)
        g = parse_poly("x^2*y^3 - 5*x*y^3 + 6*y^3 + 2/3*x*y + 7", self.XY)
        fast, ring = self._both(f, g)
        assert not fast.is_zero() and fast == ring

    def test_no_free_variable(self):
        f = parse_poly("3/2*y^3 - y + 4", self.XY)
        g = parse_poly("y^2 - 1/3", self.XY)
        fast, ring = self._both(f, g)
        assert fast.is_constant() and fast == ring

    def test_zero_resultant(self):
        common = parse_poly("x*y - 1/2", self.XY)
        f = common * parse_poly("y + x^2", self.XY)
        g = common * parse_poly("2*y^2 - x", self.XY)
        fast, ring = self._both(f, g)
        assert fast.is_zero() and ring.is_zero()

    def test_one_free_variable_in_a_larger_ring(self):
        ring3 = ("x", "y", "z")
        f = parse_poly("y^3 - 2*x*y + 1/7*x^2", ring3)
        g = parse_poly("3*x*y^2 - x^3 + 5", ring3)
        fast, ring = self._both(f, g)
        assert fast.used_variables() == ("x",) and fast == ring


class TestFirstSubresultant:
    """psc_1 against the gcd of the specialised operands.

    Where the y-leading coefficients are constants, A(a, y) and B(a, y) have
    a gcd of degree at least 2 exactly when Res_y(A, B) and psc_1 both vanish
    at a.  Each pair plants a common factor on one fibre x = a: a quadratic
    (gcd degree 2) in half of them, a linear one (gcd degree 1, so only the
    resultant vanishes) in the other half.
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

    def _gcd_degree(self, f, g, point):
        ring = f.variables
        sub = {v: MultiPoly.const(ring, point[v]) if v in point else MultiPoly.var(ring, v)
               for v in ring}
        return poly_gcd(f.substitute(sub), g.substitute(sub)).degree_in("y")

    def _check_fibres(self, A, B, points):
        Av, Bv = UniPolyView(A, "y"), UniPolyView(B, "y")
        R = resultant(Av, Bv)
        psc1 = subresultant_coefficient(Av, Bv, 1, 1)
        seen = set()
        for point in points:
            both_vanish = R.evaluate({**point, "y": 0}) == 0 and \
                psc1.evaluate({**point, "y": 0}) == 0
            degree = self._gcd_degree(A, B, point)
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
        # a free variable s besides x makes the interpolation grid
        # two-dimensional; psc_1 must also specialise to the one-axis psc_1
        # of each s-slice
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
            psc1 = subresultant_coefficient(UniPolyView(A, "y"), UniPolyView(B, "y"), 1, 1)
            assert "s" in psc1.used_variables()
            for s0 in (-1, 0, 2):
                at = {v: MultiPoly.const(ring, s0) if v == "s" else MultiPoly.var(ring, v)
                      for v in ring}
                sliced = subresultant_coefficient(
                    UniPolyView(A.substitute(at), "y"), UniPolyView(B.substitute(at), "y"), 1, 1)
                assert psc1.substitute(at) == sliced
            seen |= self._check_fibres(
                A, B, [{"x": b, "s": s0} for b in self.FIBRES for s0 in (-1, 0, 2)])
        assert {0, 1, 2} <= seen

    def test_quadratics_by_hand(self):
        # (y - a)(y - b) against (y - a)(y - c): psc_1 = b - c
        ring = ("y", "a", "b", "c")
        f = parse_poly("y^2 - a*y - b*y + a*b", ring)
        g = parse_poly("y^2 - a*y - c*y + a*c", ring)
        assert subresultant_coefficient(UniPolyView(f, "y"), UniPolyView(g, "y"), 1, 1) \
            == parse_poly("b - c", ring)

    def test_linear_operand_refused(self):
        f = parse_poly("x^3 + 1", X)
        with pytest.raises(DegreeTooLow):
            subresultant_coefficient(UniPolyView(f, "x"),
                                     UniPolyView(parse_poly("x - 2", X), "x"), 1, 1)


class TestSubresultantCoefficients:
    """s_{k,j} against the gcd of the specialised operands.

    Where the y-leading coefficients are constants and the fibres at x = a
    have a gcd of degree k, psc_1..psc_{k-1} vanish at a, psc_k does not,
    and S_k(a, y) = sum_j s_{k,j}(a) y^j is proportional to that gcd.  Each
    pair plants a common factor of degree 1, 2 or 3 on one fibre.
    """

    XY = ("x", "y")

    def test_planted_fibres(self):
        rng = random.Random(23)
        ring = ("x", "y")
        y = MultiPoly.var(ring, "y")
        planted_pair = TestFirstSubresultant()._planted_pair
        seen = set()
        for trial in range(12):
            m, n = rng.choice([(4, 4), (5, 4), (4, 5)])
            a = rng.choice(TestFirstSubresultant.FIBRES)
            A, B = planted_pair(rng, ring, m, n, a, 1 + trial % 3)
            Av, Bv = UniPolyView(A, "y"), UniPolyView(B, "y")
            fibre = {"x": MultiPoly.const(ring, a), "y": y}
            common = poly_gcd(A.substitute(fibre), B.substitute(fibre))
            k = common.degree_in("y")
            at = {"x": a, "y": 0}
            assert all(subresultant_coefficient(Av, Bv, i, i).evaluate(at) == 0
                       for i in range(min(k, m, n)))
            if k == min(m, n):  # the lower operand's fibre divides the other
                continue
            assert subresultant_coefficient(Av, Bv, k, k).evaluate(at) != 0
            S = sum((y ** j * subresultant_coefficient(Av, Bv, k, j) for j in range(k + 1)),
                    MultiPoly.zero(ring))
            assert S.substitute(fibre).primitive() == common
            seen.add(k)
        assert seen == {1, 2, 3}

    def test_zeroth_is_the_resultant(self):
        f = parse_poly("x^3 - 2*x*y + y^2", self.XY)
        g = parse_poly("3*x^2*y - x + 5", self.XY)
        fv, gv = UniPolyView(f, "x"), UniPolyView(g, "x")
        assert subresultant_coefficient(fv, gv, 0, 0) == resultant(fv, gv)

    @pytest.mark.parametrize("k, j", [(1, 2), (2, 0), (0, -1), (-1, -1)])
    def test_indices_out_of_range_refused(self, k, j):
        f = parse_poly("x^3 + 1", X)
        g = parse_poly("x^2 - 2", X)
        with pytest.raises(DegreeTooLow):
            subresultant_coefficient(UniPolyView(f, "x"), UniPolyView(g, "x"), k, j)


class TestBareiss:
    """`exact._int_bareiss_determinant`, which takes the minor at a grid
    point where a leading coefficient vanishes, against cofactor expansion."""

    def test_against_cofactor_expansion(self):
        rng = random.Random(31)
        for size in (1, 2, 3, 4, 5):
            for _ in range(6):
                m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(size)]
                     for _ in range(size)]
                want = _cofactor_det([[MultiPoly.const(X, c) for c in row] for row in m])
                assert MultiPoly.const(X, _int_bareiss_determinant([list(r) for r in m])) == want

    def test_singular_matrix(self):
        assert _int_bareiss_determinant([[1, 1], [1, 1]]) == 0
        assert _int_bareiss_determinant([[0, 2, 1], [0, 5, -3], [0, 1, 4]]) == 0


class TestDeterminant:
    """The one Sylvester grid behind `resultant` and
    `subresultant_coefficient` against cofactor expansion and SymPy of the
    minor that `_minor_matrix` lays out."""

    RINGS = {0: ("x",), 1: ("x", "s"), 2: ("x", "s", "t"), 3: ("x", "s", "t", "r")}

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
        """The resultant of f and g against both references, every s_{k,j}
        against cofactor expansion; the resultant."""
        fv, gv = UniPolyView(f, "x"), UniPolyView(g, "x")
        zero = MultiPoly.zero(f.variables)
        res, matrix = resultant(fv, gv), sylvester_matrix(fv, gv)
        assert res == _cofactor_det(matrix) == _sympy_det(matrix)
        for k in range(min(fv.degree, gv.degree)):
            for j in range(k + 1):
                minor = _minor_matrix(fv.coeffs, gv.coeffs, k, j, zero)
                assert subresultant_coefficient(fv, gv, k, j) == _cofactor_det(minor), (k, j)
        return res

    @pytest.mark.parametrize("free", [0, 1, 2, 3])
    def test_random_fraction_matrices(self, free):
        rng = random.Random(50 + free)
        ring = self.RINGS[free]
        used = set()
        for _ in range(5 if free < 3 else 3):
            f, g = (self._random_operand(rng, ring, free, rng.randint(1, 3)) for _ in range(2))
            if f.degree_in("x") < 1 or g.degree_in("x") < 1:
                continue
            used |= set(self._check(f, g).used_variables())
        assert len(used) == free

    def test_zero_row(self, monkeypatch):
        # f = (s^2 - 1/3*t)(x^2 + 2) vanishes at the grid point s = t = 0,
        # where the rows of f in every minor are zero: Bareiss gives 0 there
        ring = self.RINGS[2]
        zeros = []
        bareiss = exact._int_bareiss_determinant
        monkeypatch.setattr(exact, "_int_bareiss_determinant",
                            lambda m: zeros.append(not any(m[0])) or bareiss(m))
        f = parse_poly("s^2*x^2 - 1/3*t*x^2 + 2*s^2 - 2/3*t", ring)
        g = parse_poly("x^2 + t*x - s", ring)
        assert not self._check(f, g).is_zero()
        assert True in zeros

    def test_needed_row_swap(self, monkeypatch):
        # lc(f) = s vanishes at the grid point s = 0 alone, where the minor
        # is taken by Bareiss with a zero first pivot, so rows are swapped
        ring = self.RINGS[1]
        calls = []
        bareiss = exact._int_bareiss_determinant
        monkeypatch.setattr(exact, "_int_bareiss_determinant",
                            lambda m: calls.append([list(r) for r in m]) or bareiss(m))
        f = parse_poly("s*x^2 + x + 1/2", ring)
        g = parse_poly("3*x^2 + s^2*x - x + s", ring)
        assert not self._check(f, g).is_zero()
        assert calls and all(m[0][0] == 0 for m in calls)

    def test_singular_matrices(self):
        # operands with a common factor of degree c in x: the resultant and
        # every s_{k,j} with k < c vanish
        rng = random.Random(61)
        ring = self.RINGS[2]
        for common in ("x - s", "x^2 + 1/2*t*x - s"):
            h = parse_poly(common, ring)
            for _ in range(2):
                f, g = (h * self._random_operand(rng, ring, 2, rng.randint(1, 2)) for _ in range(2))
                fv, gv = UniPolyView(f, "x"), UniPolyView(g, "x")
                c = h.degree_in("x")
                assert resultant(fv, gv).is_zero()
                assert all(subresultant_coefficient(fv, gv, k, j).is_zero()
                           for k in range(c) for j in range(k + 1))
                if c < min(fv.degree, gv.degree):  # psc_c is the gcd's leading coefficient
                    assert not subresultant_coefficient(fv, gv, c, c).is_zero()

    def test_empty_matrix_refused(self):
        # a zero operand has no Sylvester matrix
        zero, g = UniPolyView(MultiPoly.zero(X), "x"), UniPolyView(parse_poly("x + 1", X), "x")
        with pytest.raises(ZeroInput):
            resultant(zero, g)
        with pytest.raises(ZeroInput):
            subresultant_coefficient(g, zero, 0, 0)


class TestDiscriminant:
    def test_quadratic(self):
        p = parse_poly("x^2 + b*x + c", ("x", "b", "c"))
        assert discriminant(UniPolyView(p, "x")) == parse_poly(
            "b^2 - 4*c", ("x", "b", "c")
        )

    def test_depressed_cubic(self):
        p = parse_poly("x^3 + p*x + q", ("x", "p", "q"))
        # oracle: expand Res(f, f') = Res(x^3+px+q, 3x^2+p) by hand:
        # lc(f')^3 prod f(beta) over the two roots beta of 3x^2 + p gives
        # 4p^3 + 27q^2, and the sign prefactor for d = 3 is -1
        assert discriminant(UniPolyView(p, "x")) == parse_poly(
            "-4*p^3 - 27*q^2", ("x", "p", "q")
        )

    def test_repeated_root_vanishes(self):
        p = parse_poly("x^2 - 2*x + 1", X)
        assert discriminant(UniPolyView(p, "x")).is_zero()

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            discriminant(UniPolyView(parse_poly("x + 1", X), "x"))

    def test_one_determinant_is_res_over_lc(self):
        # seeded f in x over Q[a, b], with a nonconstant leading coefficient:
        # (-1)^(d(d-1)/2) Res(f, f') / lc(f), the division taken here
        rng = random.Random(61)
        ring = ("x", "a", "b")
        for d in (2, 2, 3, 3, 4, 5):
            terms = {}
            for k in range(d + 1):
                for e in ((0, 0), (1, 0), (0, 1)):
                    if k == d and e == (0, 0) or rng.random() < 0.5:
                        terms[(k,) + e] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
            f = UniPolyView(MultiPoly(ring, terms), "x")
            df = UniPolyView(f.poly.derivative("x"), "x")
            want = exact_div(resultant(f, df), f.lc) * (-1) ** (d * (d - 1) // 2)
            assert discriminant(f) == want, f.poly.text()

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
        p = parse_poly("y^2*x^2 - 2*y^2*x + y^2", ("x", "y"))  # y^2 (x-1)^2
        assert squarefree_part(UniPolyView(p, "x")) == parse_poly("x - 1", ("x", "y"))

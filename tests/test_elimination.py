"""Unit tests for the counting and root-finding helpers."""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from dualis import elimination
from dualis.elimination import (
    apply_matrix,
    certified_singular_count,
    distinct_intersection_count,
    mat_mul,
    normalize_point,
    rational_roots,
    transversal_intersection_count,
)
from dualis.errors import (
    ChartExhausted,
    DegenerateInput,
    DegreeGuardrail,
    GuardrailExceeded,
    InvalidParams,
    InvariantViolation,
    NonGenericWitness,
    NotTransversal,
    ReducibleCurve,
    ZeroInput,
)
from dualis.exact import (
    MultiPoly,
    UniPolyView,
    _integer_terms,
    parse_poly,
    witnesses,
)
from references import (chain as sympy_chain, det as sympy_det, minor_matrix, sympy_expr,
                        sympy_resultant)

XYZ = ("x", "y", "z")


class TestRationalRoots:
    def _roots(self, text):
        p = parse_poly(text, ("x",))
        return rational_roots([p.terms.get((i,), 0) for i in range(p.degree_in("x") + 1)])

    def test_all_rational(self):
        roots, leftover = self._roots("x^3 - 6*x^2 + 11*x - 6")  # 1, 2, 3
        assert roots == [1, 2, 3] and leftover == 0

    def test_fractional_root(self):
        roots, leftover = self._roots("2*x^2 - 3*x + 1")  # 1/2, 1
        assert roots == [Fraction(1, 2), 1] and leftover == 0

    def test_zero_root_and_irrational_leftover(self):
        roots, leftover = self._roots("2*x^4 - x^3 - 4*x^2 + 2*x")  # x(2x-1)(x^2-2)
        assert roots == [0, Fraction(1, 2)] and leftover == 2

    def test_no_rational_roots(self):
        roots, leftover = self._roots("x^2 + 1")
        assert roots == [] and leftover == 2

    def test_repeated_roots_reported_once(self):
        roots, leftover = self._roots("x^3 - 3*x + 2")  # (x-1)^2 (x+2)
        assert roots == [-2, 1] and leftover == 0

    def test_repeated_factors_counted_once(self):
        # (x^2 - 2)^2 (x - 1) and x^2 (x^2 + 1): leftover counts distinct roots
        assert self._roots("x^5 - x^4 - 4*x^3 + 4*x^2 + 4*x - 4") == ([1], 2)
        assert self._roots("x^4 + x^2") == ([0], 2)

    def test_zero_polynomial(self):
        with pytest.raises(ZeroInput):
            rational_roots([Fraction(0)])

    def test_roots_with_prime_factors_beyond_trial_division(self):
        # (x - 100003)(x - 100019): both primes exceed 10^5
        roots, leftover = self._roots("x^2 - 200022*x + 10002200057")
        assert roots == [100003, 100019] and leftover == 0

    def test_refused_when_no_prime_keeps_the_roots_simple(self, monkeypatch):
        monkeypatch.setattr(elimination, "_PRIMES", (2,))
        with pytest.raises(GuardrailExceeded):
            self._roots("x^2 - 200022*x + 10002200057")  # (x + 1)^2 modulo 2

    def test_planted_roots_against_sympy(self):
        # rational roots u/v with 20-40-digit u and v, some repeated, a zero
        # root (simple or double) in every other list, times monic cubics and
        # quadratics whose roots are mostly irrational; SymPy's factorisation
        # over Q decides which roots are rational
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(2026)
        leftovers = 0
        for trial in range(12):
            g = sympy.Integer(1)
            for _ in range(rng.randint(1, 3)):
                u = rng.choice([-1, 1]) * rng.randrange(10 ** 19, 10 ** 40)
                g *= (rng.randrange(10 ** 19, 10 ** 40) * x - u) ** rng.randint(1, 3)
            for _ in range(rng.randint(0, 2)):
                degree = rng.randint(2, 3)
                g *= x ** degree + sum(rng.randint(-9, 9) * x ** i for i in range(degree))
            if trial % 2:
                g *= x ** rng.randint(1, 2)
            linear, leftover = [], 0
            for h, _ in sympy.factor_list(g)[1]:
                cs = [int(c) for c in sympy.Poly(h, x).all_coeffs()]
                if len(cs) == 2:
                    linear.append(Fraction(-cs[1], cs[0]))
                else:
                    leftover += len(cs) - 1
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            f = [Fraction(int(c)) * scale for c in reversed(sympy.Poly(g, x).all_coeffs())]
            assert rational_roots(f) == (sorted(linear), leftover), trial
            leftovers += leftover
        assert leftovers


class TestBinaryForms:
    def test_infinity_restriction_is_substitution(self):
        # the integer terms of each form at z = 0, y = 1, as untrimmed lists
        # in x: den(F) * F(x, 1, 0), also when the restriction vanishes
        rng = random.Random(83)
        sub = {"x": MultiPoly.var(XYZ, "x"), "y": MultiPoly.const(XYZ, 1),
               "z": MultiPoly.zero(XYZ)}
        forms = [_random_form(rng, rng.randint(1, 4)) for _ in range(40)]
        forms.append(parse_poly("x*z - 1/2*y*z", XYZ))
        got = elimination._infinity_restriction([_integer_terms(F)[1] for F in forms])
        assert len(got) == len(forms) and not any(got[-1])
        for F, cs in zip(forms, got):
            assert len(cs) == F.total_degree() + 1
            assert _in_x(cs) == F.substitute(sub) * _integer_terms(F)[0], F.text()


class TestNormalizePoint:
    def test_clears_denominators_and_sign(self):
        assert normalize_point([Fraction(1, 2), Fraction(-3, 4), Fraction(0)]) == (2, -3, 0)
        assert normalize_point([Fraction(0), Fraction(-2), Fraction(4)]) == (0, 1, -2)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidParams):
            normalize_point([Fraction(0)] * 3)


class TestMatrices:
    def test_transpose_and_product(self):
        a = ((1, 2, 0), (0, 1, 0), (0, 0, 1))
        b = ((1, 0, 0), (0, 1, 3), (0, 0, 1))
        assert mat_mul(a, b) == ((1, 2, 6), (0, 1, 3), (0, 0, 1))
        assert mat_mul(b, a) == ((1, 2, 0), (0, 1, 3), (0, 0, 1))
        # (AB)^T = B^T A^T, the transposes taken by zip
        assert tuple(zip(*mat_mul(a, b))) == mat_mul(tuple(zip(*b)), tuple(zip(*a)))

    def test_apply_matrix_is_substitution(self):
        # G(v) = F(M v), against SymPy's expansion of seeded forms with
        # fractional coefficients, for integer matrices with negative
        # entries, a singular one and a shear
        f = parse_poly("x^2 - y*z", XYZ)
        shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))  # x -> x + y
        assert apply_matrix(f, shear) == parse_poly("x^2 + 2*x*y + y^2 - y*z", XYZ)
        sympy = pytest.importorskip("sympy")
        rng = random.Random(19)
        symbols = sympy.symbols(XYZ)
        for m in [((2, -1, 0), (0, 1, -3), (1, 0, -1)), ((1, 2, 3), (2, 4, 6), (0, -1, 1)),
                  ((1, 3, 0), (0, 1, 0), (0, 0, 1))]:
            images = {s: sum(c * t for c, t in zip(row, symbols)) for s, row in zip(symbols, m)}
            for degree in (1, 2, 3, 4):
                F = _random_form(rng, degree)
                want = sympy.Poly(sympy.expand(
                    sympy.sympify(F.text()).subs(images, simultaneous=True)), *symbols)
                got = apply_matrix(F, m)
                assert got == MultiPoly(XYZ, {e: Fraction(int(c.p), int(c.q))
                                              for e, c in want.terms()}), (F.text(), m)
                den, terms = _integer_terms(F)
                assert elimination._moved(terms, m) == {e: c * den for e, c in got.terms.items()}

    def test_identity_moves_nothing(self):
        # base 0 is the identity, so its forms are the given terms themselves
        assert elimination._BASES[0] == elimination._IDENT
        rng = random.Random(7)
        for degree in (1, 2, 3, 4):
            F = _random_form(rng, degree)
            terms = _integer_terms(F)[1]
            assert elimination._moved(terms, elimination._IDENT) == terms
            assert apply_matrix(F, elimination._IDENT) == F


class TestCounting:
    def test_distinct_count_with_tangency(self):
        # line z = y is tangent to the circle-conic at [0:1:1] and crosses
        # nowhere else, so the pair has one distinct intersection point
        f = parse_poly("x^2 + y^2 - z^2", XYZ)
        g = parse_poly("y - z", XYZ)
        assert distinct_intersection_count(f, g) == 1

    def test_trinodal_quartic_and_polar(self):
        # the quartic's three nodes sit on the line at infinity z = 0 of
        # several bases, which must be skipped; the polar of (1, 2, 5) meets
        # it in the 3 nodes and 6 tangency points
        f = parse_poly("2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2", XYZ)
        polar = f.derivative("x") + f.derivative("y") * 2 + f.derivative("z") * 5
        assert distinct_intersection_count(f, polar) == 9

    def test_polar_is_the_weighted_sum_of_partials(self):
        # integer terms at an integer point, to integer terms of content 1;
        # a Fraction point enters as its primitive integer vector, as
        # P_{c*w} = c*P_w, and the polar keeps its sign
        rng = random.Random(113)
        for d in (1, 2, 3, 4, 5):
            F = _random_form(rng, d)
            for w, point in [((1, 2, 5), (1, 2, 5)), ((0, 1, 0), (0, 1, 0)),
                             ((-3, 0, 7), (-3, 0, 7)),
                             ((Fraction(1, 2), -2, Fraction(5, 3)), (3, -12, 10))]:
                want = sum((F.derivative(v) * c for v, c in zip(XYZ, w)), MultiPoly.zero(XYZ))
                got = elimination.polar(_integer_terms(F)[1], point)
                assert MultiPoly(XYZ, got) * want.content() == want, (F.text(), w)

    def test_transversal_pair(self):
        f = parse_poly("x^2 + y^2 - z^2", XYZ)
        g = parse_poly("x - 2*y", XYZ)
        assert transversal_intersection_count(f, g) == 2

    def test_tangent_pair_not_transversal(self):
        f = parse_poly("x^2 + y^2 - z^2", XYZ)
        g = parse_poly("y - z", XYZ)
        with pytest.raises(NotTransversal):
            transversal_intersection_count(f, g)

    def test_shared_component_rejected(self):
        f = parse_poly("x*y - x*z", XYZ)
        g = parse_poly("y - z", XYZ)
        with pytest.raises(ReducibleCurve):
            distinct_intersection_count(f, g)

    @pytest.mark.timed
    @pytest.mark.parametrize("shared", ["z", "x^2 + y^2 - z^2"], ids=["line", "conic"])
    def test_shared_component_refused_at_the_first_base(self, shared, monkeypatch):
        common = parse_poly(shared, XYZ)
        f = common * parse_poly("x^2 - 3*y*z", XYZ)
        g = common * parse_poly("y + 2*x - 5*z", XYZ)
        bases = []
        usable = elimination._base_usable

        def counted(*args):
            bases.append(usable(*args))
            return bases[-1]

        monkeypatch.setattr(elimination, "_base_usable", counted)
        start = time.perf_counter()
        with pytest.raises(ReducibleCurve):
            distinct_intersection_count(f, g)
        assert time.perf_counter() - start < 1.0
        assert bases == [False]

    def test_every_line_at_infinity_on_the_curve_exhausts_the_schedule(self, monkeypatch):
        # F holds the line z = 0 of every base, so each base test fails and
        # no frame is built; the generic conic shares no component with F
        lines = [(0, 0, 1), (1, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1),
                 (3, 1, 1), (1, 3, 1), (2, 3, 1), (3, 2, 1), (4, 1, 1), (1, 4, 1), (5, 2, 1)]
        f = _line_product(lines)
        g = parse_poly("x^2 + 2*y^2 - 3*z^2 + x*y + 5*y*z - 7*x*z", XYZ)
        calls = []
        for name in ("_base_usable", "_pair_frame_count"):
            step = getattr(elimination, name)
            monkeypatch.setattr(elimination, name,
                                lambda *args, _name=name, _step=step:
                                calls.append(_name) or _step(*args))
        with pytest.raises(ChartExhausted):
            distinct_intersection_count(f, g)
        assert calls == ["_base_usable"] * 14

    def test_pairs_out_of_reach_are_refused_before_any_frame(self):
        # the frame's degree bounds hold for forms only, and its Sylvester
        # matrices stay within the guardrail
        big = parse_poly("x^33 + y^33 + z^33", XYZ)
        cases = [(parse_poly("2", XYZ), parse_poly("3", XYZ), DegenerateInput),
                 (parse_poly("x^2 + y*z - z", XYZ), parse_poly("x - y", XYZ), InvalidParams),
                 (big, big.derivative("x"), DegreeGuardrail)]
        for f, g, refusal in cases:
            with pytest.raises(refusal):
                distinct_intersection_count(f, g)

    def test_singular_counts_out_of_reach_are_refused(self):
        # a zero polar at the witness is refused before the form test: a
        # constant, and 2x - y + 1, whose polar at (1, 2, 5) is 2 - 2; a
        # form in four variables is refused before any witness is tested
        cases = [(parse_poly("3", XYZ), ZeroInput), (parse_poly("2*x - y + 1", XYZ), ZeroInput),
                 (parse_poly("x^2 + y^2 - z", XYZ), InvalidParams),
                 (parse_poly("x*w + y*z", ("x", "y", "z", "w")), InvalidParams)]
        for f, refusal in cases:
            with pytest.raises(refusal):
                certified_singular_count(f)

    def test_zero_form_refused_by_its_witness_walk(self):
        # no point lies off the zero form, so point_off refuses it
        zero = MultiPoly.zero(XYZ)
        for analysis in (elimination.singular_locus, certified_singular_count):
            with pytest.raises(ZeroInput, match="no point lies off the zero form"):
                analysis(zero)

    def test_singular_count_of_three_concurrent_lines(self):
        # x*y*z is three lines in general position, meeting two by two in
        # three double points; x^3 + y^3 is three lines through [0:0:1],
        # which is their one (triple) singular point
        f = parse_poly("x*y*z", XYZ)
        assert certified_singular_count(f) == 3
        assert certified_singular_count(parse_poly("x^3 + y^3", XYZ)) == 1

    @pytest.mark.parametrize("conic", ["5*x*z - z^2 + y^2", "5*y*z - 2*z^2 + x^2"],
                             ids=["vertical", "horizontal"])
    def test_smooth_point_with_one_vanishing_partial(self, conic):
        # the tangent of the conic at [1:0:5] (at [0:2:5]) is the line
        # 5x = z (5y = 2z) through the first witness (1, 2, 5), so the polar
        # passes there and one affine partial vanishes, but not both
        assert certified_singular_count(parse_poly(conic, XYZ)) == 0

    @pytest.mark.timed
    def test_singular_count_needs_no_trivariate_gcd(self):
        # x (x - z)(x + y + z)(x + 2y - z)(x^2 - 3y^2 + 2z^2): 6 crossings of
        # the lines and 8 line-conic points.  The first base fails on this
        # curve and its polar, and the pair is coprime by the choice of the
        # witness, so no gcd of the two forms is taken (it does not finish
        # in 40 s)
        f = (parse_poly("x^2 - x*z", XYZ) * parse_poly("x + y + z", XYZ)
             * parse_poly("x + 2*y - z", XYZ) * parse_poly("x^2 - 3*y^2 + 2*z^2", XYZ))
        start = time.perf_counter()
        assert certified_singular_count(f) == 14
        assert time.perf_counter() - start < 5.0


def _random_form(rng, degree):
    """A nonzero ternary form with small coefficients, some of them fractions."""
    while True:
        form = MultiPoly(XYZ, {e: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                               for e in product(range(degree + 1), repeat=3)
                               if sum(e) == degree and rng.random() < 0.6})
        if not form.is_zero():
            return form


def _in_x(cs):
    """The integer list cs as a polynomial in x."""
    return MultiPoly(XYZ, {(i, 0, 0): c for i, c in enumerate(cs)})


def _x_list(expr):
    """A SymPy polynomial in x as its list of Fraction coefficients, trimmed."""
    import sympy

    cs = [Fraction(str(c)) for c in reversed(sympy.Poly(expr, sympy.Symbol("x")).all_coeffs())]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _jacobi_bound(weights):
    """The largest sum of weights[i][sigma(i)] over the permutations sigma
    that meet no None cell, or None when every one meets one (Jacobi's
    bound on the degree of a determinant), by a dynamic program over the
    sets of columns the first rows use."""
    best = {0: 0}
    for row in weights:
        step = {}
        for used, total in best.items():
            for c, w in enumerate(row):
                if w is not None and not used >> c & 1 and step.get(used | 1 << c, -1) < total + w:
                    step[used | 1 << c] = total + w
        best = step
    return next(iter(best.values()), None)


class TestIntegerFrameKernel:
    """The frame's integer columns, minors and line resultants against the
    MultiPoly chart pair of the same frame and SymPy's determinants and
    resultants."""

    @staticmethod
    def _frame(d1, d2):
        """A seeded pair in its accepted frame, and the frame's chart pair
        A, B as views in y with the common denominators dA, dB of the
        forms: the pair enters the frame as integer terms, so the columns
        are dA*A and dB*B over Z."""
        rng = random.Random(100 * d1 + d2)
        F, G = _random_form(rng, d1), _random_form(rng, d2)
        frame = elimination._accepted_frame(F, G)
        chart = {"x": MultiPoly.var(XYZ, "x") + MultiPoly.var(XYZ, "y") * frame.shear,
                 "y": MultiPoly.var(XYZ, "y"), "z": MultiPoly.const(XYZ, 1)}
        moved = [apply_matrix(form, frame.base) for form in (F, G)]
        A, B = (UniPolyView(form.substitute(chart), "y") for form in moved)
        dA, dB = (_integer_terms(form)[0] for form in (F, G))
        return frame, A, B, dA, dB

    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (4, 3), (5, 4)])
    def test_minors_are_the_subresultant_coefficients(self, d1, d2):
        frame, A, B, dA, dB = self._frame(d1, d2)
        assert [_in_x(c) for c in frame.A] == [c * dA for c in A.coeffs]
        assert [_in_x(c) for c in frame.B] == [c * dB for c in B.coeffs]
        # s_{k,j} has n-k rows of A and m-k rows of B, each scaled by its
        # denominator; R = s_{0,0} is the SymPy determinant of the Sylvester
        # matrix of A and B
        a, b = ([sympy_expr(c) for c in view.coeffs] for view in (A, B))
        for k in range(min(d1, d2)):
            for j in range(k + 1):
                scale = dA ** (d2 - k) * dB ** (d1 - k)
                assert frame.coefficient(k, j) == _x_list(
                    sympy_det(minor_matrix(a, b, k, j)) * scale), (k, j)
        assert (dA, dB) != (1, 1)

    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (4, 3), (5, 4)])
    def test_degree_bound_never_below_the_matching_bound(self, d1, d2):
        # the frame's bound D on the degree of s_{k,j} is never below
        # Jacobi's bound of the minor's entry degrees, which is never below
        # the degree of the minor's SymPy determinant
        _, A, B, _, _ = self._frame(d1, d2)
        for k in range(min(d1, d2)):
            for j in range(k + 1):
                minor = minor_matrix(A.coeffs, B.coeffs, k, j)
                bound = _jacobi_bound([[e.degree_in("x") if e else None for e in row]
                                       for row in minor])
                assert bound is None or bound <= (d1 - k) * (d2 - k) + k - j, (k, j)
                det = _x_list(sympy_det([[sympy_expr(e) if e else 0 for e in row]
                                         for row in minor]))
                assert len(det) - 1 <= (-1 if bound is None else bound), (k, j)

    @pytest.mark.parametrize("text", [
        "x^4 + y^4 + z^4",                                          # abnormal at every point
        "2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2",
        "x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x^2*y*z - 2*x*y^2*z - 2*x*y*z^2",
        "y^2*z - x^3 - x^2*z",
        "x^5 + 3*x^2*y^2*z - y^4*z + 2*y*z^4 - x*z^4",
    ], ids=["fermat-quartic", "trinodal", "tricuspidal", "nodal-cubic", "quintic"])
    def test_chain_and_bareiss_give_the_same_frame(self, text, monkeypatch):
        # every s_{k,j} of the frame is the same whether a point's chain is
        # read or each minor is taken by Bareiss, and so is the analysis
        F = parse_poly(text, XYZ)
        chained = elimination.singular_locus(F)

        def bareiss_chain(a, b):  # SymPy's integer determinants are fraction-free elimination
            return [[int(s) for s in row] for row in sympy_chain(a, b)]
        monkeypatch.setattr(elimination, "_subresultant_chain", bareiss_chain)
        minors = elimination.singular_locus(F)
        frame, reference = chained.frame, minors.frame
        assert (frame.base, frame.shear, frame.classes) == (
            reference.base, reference.shear, reference.classes)
        m, n = len(frame.A) - 1, len(frame.B) - 1
        for k in range(min(m, n)):
            for j in range(k + 1):
                assert frame.coefficient(k, j) == reference.coefficient(k, j), (k, j)
        assert (chained.parts, chained.points) == (minors.parts, minors.points)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_line_resultant_closed_form(self, m):
        rng = random.Random(m)
        XY = ("x", "y")

        def ints(nonzero=False):
            while True:
                cs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
                while cs and not cs[-1]:
                    cs.pop()
                if cs or not nonzero:
                    return cs

        for _ in range(6):
            P = [ints() for _ in range(m)] + [ints(nonzero=True)]
            a, b = ints(nonzero=True), ints()
            poly = MultiPoly(XY, {(i, j): c for j, p in enumerate(P) for i, c in enumerate(p)})
            line = MultiPoly(XY, {**{(i, 1): c for i, c in enumerate(a)},
                                  **{(i, 0): c for i, c in enumerate(b)}})
            want = sympy_resultant(poly, line, "y")
            assert elimination._line_resultant(P, a, b) == _x_list(want), (P, a, b)

    @pytest.mark.timed
    def test_smooth_curve_of_degree_ten_within_three_seconds(self):
        # its 90 polar points form one class of degree 90; the line
        # resultants of the singular parts against L_1 take the closed form
        start = time.perf_counter()
        assert elimination.singular_locus(parse_poly("x^10 + y^10 + z^10", XYZ)).count == 0
        assert time.perf_counter() - start < 3.0


TRINODAL = "2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2"
TRICUSPIDAL = "x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x^2*y*z - 2*x*y^2*z - 2*x*y*z^2"


class TestFrameHint:
    """A hint (base, shear, F's terms there) heads the frame schedule: the
    frame search of a further witness starts at the analysis frame, and
    falls back to the full schedule, without the hint, when that frame is
    not accepted."""

    @staticmethod
    def _check(F):
        """The analysis frame's hint (base, shear, F's terms there) and the
        next witness off F not proportional to the analysis witness."""
        locus = elimination.singular_locus(F)
        second = next(p for p in witnesses([F]) if any(_cross(p, locus.witness)))
        return (locus.frame.base, locus.frame.shear, locus.frame.terms), second

    @staticmethod
    def _hint(F, base, shear):
        """The hint (base, shear, F's integer terms moved there)."""
        m = mat_mul(base, elimination._shear(shear))
        return base, shear, elimination._moved(_integer_terms(F)[1], m)

    @pytest.fixture
    def searched(self, monkeypatch):
        """A search of the pair's frame, returning the frame and the outcomes
        of its base tests and of its frames (True: accepted), in order."""
        outcomes = {"bases": [], "frames": []}
        usable, step = elimination._base_usable, elimination._pair_frame_count

        def base(*args):
            outcomes["bases"].append(usable(*args))
            return outcomes["bases"][-1]

        def frame(*args):
            found = step(*args)
            outcomes["frames"].append(found is not None)
            return found
        monkeypatch.setattr(elimination, "_base_usable", base)
        monkeypatch.setattr(elimination, "_pair_frame_count", frame)

        def search(F, w, hint=None):
            outcomes.update(bases=[], frames=[])
            return elimination._accepted_frame(F, w, hint), outcomes["bases"], outcomes["frames"]
        return search

    def test_hinted_count_is_the_schedule_count(self):
        rng = random.Random(1)
        forms = []
        for text in (TRINODAL, TRICUSPIDAL, "x^4 + y^4 + z^4", "y^2*z - x^3 - x^2*z",
                     "y^2*z - x^3"):
            F = parse_poly(text, XYZ)
            forms.append(F)
            while len(forms) % 3:  # two seeded generic copies
                m = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
                if sum(a * b for a, b in zip(m[0], _cross(m[1], m[2]))):
                    forms.append(apply_matrix(F, m))
        for F in forms:
            hint, second = self._check(F)
            # a frame keeps F's integer terms moved by its base and shear
            assert hint == self._hint(F, hint[0], hint[1]), F.text()
            hinted = elimination._accepted_frame(F, second, hint)
            assert hinted.count() == elimination._accepted_frame(F, second).count(), F.text()
            # every analysis frame here suits the next polar too
            assert (hinted.base, hinted.shear, hinted.terms) == hint, F.text()

    def test_unusable_hint_base_falls_back(self, searched):
        # the line z = 0 of the identity holds the nodes (1:0:0) and (0:1:0)
        F = parse_poly(TRINODAL, XYZ)
        _, second = self._check(F)
        want, bases, frames = searched(F, second)
        got, hinted_bases, hinted_frames = searched(F, second,
                                                    self._hint(F, elimination._IDENT, 0))
        assert (got.count(), got.base, got.shear) == (want.count(), want.base, want.shear)
        # the base test fails at every shear, so the schedule skips that base
        assert bases[0] is False and elimination._BASES[0] == elimination._IDENT
        assert hinted_bases == [False] + bases[1:] and hinted_frames == frames

    def test_rejected_hint_shear_falls_back(self, searched, monkeypatch):
        # the analysis accepts the base of the line x + y + z = 0 at shear 1:
        # at shear 0 one fibre of the next polar carries two points, and the
        # k-th power test says so
        F = parse_poly(TRINODAL, XYZ)
        hint, second = self._check(F)
        base = ((1, 0, 0), (0, 1, 0), (-1, -1, 1))
        assert hint[:2] == (base, 1)
        powers = []
        is_power = elimination._Frame.is_power
        monkeypatch.setattr(elimination._Frame, "is_power",
                            lambda frame, k, phi: powers.append(is_power(frame, k, phi))
                            or powers[-1])
        hint = self._hint(F, base, 0)
        Gm = elimination.polar(hint[2], elimination._preimage(base, second))
        assert elimination._pair_frame_count(hint[2], Gm, base, 0) is None and powers[-1] is False
        want, bases, frames = searched(F, second)
        got, hinted_bases, hinted_frames = searched(F, second, hint)
        assert (got.count(), got.base, got.shear) == (want.count(), want.base, want.shear)
        # the schedule's first frame is that one, and it is not tried again
        assert frames[0] is False and len(frames) == 2
        assert hinted_bases == [True] + bases and hinted_frames == [False] + frames[1:]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _line_product(lines):
    x, y, z = (MultiPoly.var(XYZ, v) for v in XYZ)
    out = MultiPoly.const(XYZ, 1)
    for a, b, c in lines:
        out = out * (x * a + y * b + z * c)
    return out


class TestPolarInTheFrame:
    """Every base and x-shear M has determinant +-1, so the polar of F at w
    moved by M is the polar of F moved by M at the integer point M^-1 w,
    and a frame takes its polar from F's moved terms."""

    @staticmethod
    def _det(m):
        return sum(a * b for a, b in zip(m[0], _cross(m[1], m[2])))

    def test_bases_and_shears_are_unimodular(self):
        # one base per line at infinity, in the order the lines first
        # appear among the swaps composed with the shifts
        lines = list(dict.fromkeys(_infinity_normal(m) for m in _swapped_shifts()))
        assert len(elimination._BASES) == len(lines) == 14
        assert [_infinity_normal(m) for m in elimination._BASES] == lines
        assert all(self._det(m) in (1, -1) for m in elimination._BASES)
        assert all(self._det(elimination._shear(t)) == 1 for t in range(-50, 200))

    def test_polar_in_the_frame_is_the_moved_polar(self):
        # the reference is built from F's partials and moved by apply_matrix
        rng = random.Random(41)
        for d in (1, 2, 3, 4):
            F = _random_form(rng, d)
            terms = _integer_terms(F)[1]
            for w in [(1, 2, 5), (3, -7, 2), (-2, 1, 1)]:
                reference = sum((F.derivative(v) * c for v, c in zip(XYZ, w)),
                                MultiPoly.zero(XYZ))
                assert not reference.is_zero(), (F.text(), w)
                for base, t in product(elimination._BASES, range(4)):
                    m = mat_mul(base, elimination._shear(t))
                    u = elimination._preimage(m, w)
                    assert tuple(sum(a * b for a, b in zip(row, u)) for row in m) == w
                    got = MultiPoly(XYZ, elimination.polar(elimination._moved(terms, m), u))
                    assert not got.is_zero(), (F.text(), w, m)
                    assert got.primitive() == apply_matrix(reference, m).primitive(), (
                        F.text(), w, m)


class TestFrameCertificate:
    """A frame is accepted only when no eliminant root carries two
    intersection points; otherwise the next shear is tried."""

    def test_fibre_with_two_points_is_not_certified(self):
        # the four points (+-1, +-1, 1) sit two by two on the vertical lines
        # x = +-1 of the t = 0 frame, where the eliminant has only 2 roots
        f = parse_poly("x^2 + y^2 - 2*z^2", XYZ)
        g = parse_poly("x^2 - y^2", XYZ)
        terms = [_integer_terms(form)[1] for form in (f, g)]
        assert elimination._pair_frame_count(*terms, elimination._IDENT, 0) is None
        assert distinct_intersection_count(f, g) == 4

    def test_short_eliminant_only_in_an_unusable_base(self):
        # y - x and y^2 - x^2 + z^2 have constant y-leading coefficients and
        # meet at [1:1:0] on z = 0, so their eliminant G(x, x, 1) = 1 falls
        # short of degree 2; _base_usable refuses that base, and a frame of
        # it would break the degree argument
        terms = [_integer_terms(parse_poly(text, XYZ))[1] for text in ("y - x", "y^2 - x^2 + z^2")]
        assert not elimination._base_usable(*elimination._infinity_restriction(terms))
        with pytest.raises(InvariantViolation, match="eliminant of degree 0, not 2"):
            elimination._pair_frame_count(*terms, elimination._IDENT, 0)

    def test_generic_frame_certifies_at_once(self, monkeypatch):
        f = parse_poly("2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2", XYZ)
        polar = f.derivative("x") + f.derivative("y") * 2 + f.derivative("z") * 5
        frames = []
        step = elimination._pair_frame_count

        def counted(*args):
            frames.append(step(*args))
            return frames[-1]

        monkeypatch.setattr(elimination, "_pair_frame_count", counted)
        assert distinct_intersection_count(f, polar) == 9
        # C(12, 2) + 1 = 67 valid frames bound the search for N = 12; a
        # generic frame is accepted at once
        assert frames[-1] is not None and frames[-1].count() == 9 and len(frames) <= 3

    def test_line_arrangements_against_cross_products(self):
        # products of distinct integer lines, sharing no line; in every other
        # pair two lines of each product pass through one point p, so p's
        # fibre carries a double common root in every frame, and the frame
        # is accepted only when that double root is the fibre's one point.
        # The singular points of each product are its pairwise crossings
        rng = random.Random(57)

        def small():
            v = (0, 0, 0)
            while v == (0, 0, 0):
                v = tuple(rng.randint(-3, 3) for _ in range(3))
            return v

        for trial in range(16):
            p = small()
            lines = []
            while len(lines) < 6:
                concurrent = trial % 2 and len(lines) in (0, 1, 3, 4)
                line = _cross(p, small()) if concurrent else small()
                if line != (0, 0, 0) and normalize_point(line) not in lines:
                    lines.append(normalize_point(line))
            fewest = 2 if trial % 2 else 1
            first = lines[:rng.randint(fewest, 3)]
            second = lines[3:3 + rng.randint(fewest, 3)]
            points = {normalize_point(_cross(u, v)) for u in first for v in second}
            got = distinct_intersection_count(_line_product(first), _line_product(second))
            assert got == len(points), (first, second)
            for part in (first, second):
                crossings = {normalize_point(_cross(u, v))
                             for i, u in enumerate(part) for v in part[i + 1:]}
                assert certified_singular_count(_line_product(part)) == len(crossings), part


#: (x^2 - 2z^2)((x - y)^2 - 3z^2) y (y - z): four points share each x = +-sqrt(2)
#: in one frame and each x - y = +-sqrt(3) in the next
SIX_LINES = ("x^4*y^2 - x^4*y*z - 2*x^3*y^3 + 2*x^3*y^2*z + x^2*y^4 - x^2*y^3*z"
             " - 5*x^2*y^2*z^2 + 5*x^2*y*z^3 + 4*x*y^3*z^2 - 4*x*y^2*z^3 - 2*y^4*z^2"
             " + 2*y^3*z^3 + 6*y^2*z^4 - 6*y*z^5")


class TestSingularCountOfConjugateLines:
    """Products of lines with quadratic-conjugate coefficients are rational
    forms whose singular points are the pairwise crossings of the lines,
    most of them irrational; SymPy counts those crossings independently."""

    @staticmethod
    def _form(sympy, lines):
        X, Y, Z = sympy.symbols("x y z")
        product = sympy.expand(sympy.Mul(*(a * X + b * Y + c * Z for a, b, c in lines)))
        terms = sympy.Poly(product, X, Y, Z, domain="QQ").terms()
        return MultiPoly(XYZ, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})

    @staticmethod
    def _crossings(sympy, lines):
        points = []
        for i, u in enumerate(lines):
            for v in lines[i + 1:]:
                p = sympy.Matrix(u).cross(sympy.Matrix(v))
                if not any(all(sympy.expand(c) == 0 for c in p.cross(q)) for q in points):
                    points.append(p)
        return len(points)

    def test_six_lines(self):
        sympy = pytest.importorskip("sympy")
        r2, r3 = sympy.sqrt(2), sympy.sqrt(3)
        lines = [(1, 0, -r2), (1, 0, r2), (1, -1, -r3), (1, -1, r3), (0, 1, 0), (0, 1, -1)]
        f = self._form(sympy, lines)
        assert f == parse_poly(SIX_LINES, XYZ)
        assert self._crossings(sympy, lines) == 15
        assert certified_singular_count(f) == 15

    @pytest.mark.parametrize("collide", [True, False], ids=["two-frame-collisions", "generic"])
    def test_seeded_arrangements(self, collide):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61 + collide)
        for _ in range(4):
            d, e = (sympy.sqrt(rng.choice((2, 3, 5, 7))) for _ in range(2))
            if collide:
                # x = a +- b*d, x - y = c +- g*e and two rational y = r: each
                # irrational line carries four points of one x in its frame
                a, b, c, g = (rng.choice((-2, -1, 1, 2, 3)) for _ in range(4))
                r1, r2 = rng.sample(range(-3, 4), 2)
                lines = [(1, 0, -a - b * d), (1, 0, -a + b * d),
                         (1, -1, -c - g * e), (1, -1, -c + g * e), (0, 1, -r1), (0, 1, -r2)]
            else:
                lines = [(0, 1, rng.randint(-3, 3)), (1, rng.randint(-3, 3), rng.randint(-3, 3))]
                for root in (d, e):
                    u, v = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
                    lines += [tuple(p + q * s * root for p, q in zip(u, v)) for s in (1, -1)]
            f = self._form(sympy, lines)
            assert certified_singular_count(f) == self._crossings(sympy, lines), lines


DUAL_NODAL_RF = "27*x^2*y^2 - 18*x*y*z^2 + 4*x*z^3 + 4*y*z^3 - z^4"
CASE_08 = ("x^3 - y^2*z - 2*y*z^2 - z^3", "z^3 - x^2*y - x*y^2 - 3*x*y*z")


def _swapped_shifts():
    """The 39 bases of each swap (the identity, x <-> y, x <-> z) composed
    after each of 13 shifts of the line at infinity, on 14 lines."""
    swaps = [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
             ((0, 0, 1), (0, 1, 0), (1, 0, 0))]
    shifts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3),
              (2, 3), (3, 2), (4, 1), (1, 4), (5, 2)]
    return [mat_mul(((1, 0, 0), (0, 1, 0), (-k, -m, 1)), s) for k, m in shifts for s in swaps]


def _infinity_normal(m):
    """The line z = 0 of the base m in the given coordinates, the line
    through m e_x and m e_y, as its primitive normal with a positive first
    nonzero entry."""
    normal = _cross(*list(zip(*m))[:2])
    g = gcd(*normal) * (1 if next(c for c in normal if c) > 0 else -1)
    return tuple(c // g for c in normal)


def _reference_frame(F, second):
    """The first accepted frame of the 39 swapped shifts with every base and
    shear moved and tested in order: no line kept, no base skipped, no
    spanning point or y-leading coefficient read before a move."""
    f = _integer_terms(F)[1]
    form = isinstance(second, MultiPoly)
    g = _integer_terms(second)[1] if form else second
    d1 = F.total_degree()
    d2 = second.total_degree() if form else d1 - 1
    for base in _swapped_shifts():
        for t in range(d1 * d2 * (d1 * d2 - 1) // 2 + 1 + d1 + d2 + 8):
            m = mat_mul(base, elimination._shear(t))
            Ft = elimination._moved(f, m)
            Gt = (elimination._moved(g, m) if form
                  else elimination.polar(Ft, elimination._preimage(m, second)))
            if not elimination._base_usable(*elimination._infinity_restriction([Ft, Gt])):
                break
            if Ft.get((0, d1, 0)) and Gt.get((0, d2, 0)):
                frame = elimination._pair_frame_count(Ft, Gt, base, t)
                if frame is not None:
                    return frame
    raise AssertionError("no frame accepted")


def _reference_parts(frame):
    """Each class's singular part from the full line resultants of the
    partials, trimmed of zero top columns, and a gcd with the class."""
    from functools import reduce
    from dualis.exact import _derivative, _uni_gcd, _y_derivative

    partials = [P[:max(j for j, p in enumerate(P) if p) + 1]
                for P in ([_derivative(c) for c in frame.A], _y_derivative(frame.A)) if any(P)]
    return {k: reduce(_uni_gcd, (elimination._line_resultant(P, *frame.line(k)) for P in partials),
                      phi)
            for k, phi in frame.classes.items()}


def _reference_points(frame, parts):
    """The rational points over the parts, from beta as a Fraction."""
    from dualis.exact import _at

    m = mat_mul(frame.base, elimination._shear(frame.shear))
    points = []
    for k, part in parts.items():
        a, b = frame.line(k)
        for alpha in rational_roots(part)[0]:
            beta = -Fraction(_at(b, alpha)) / _at(a, alpha)
            points.append(normalize_point([sum(r * c for r, c in zip(row, (alpha, beta, 1)))
                                           for row in m]))
    return sorted(points)


def _reference_kind(curve, point):
    """(kind, multiplicity) from the Fraction MultiPoly that apply_matrix
    moves to the point."""
    from dualis import curvelab

    k = next(n for n, c in enumerate(point) if c)
    i, j = (n for n in range(3) if n != k)
    M = tuple(tuple(point[r] if col == k else int(r == col) for col in range(3)) for r in range(3))
    parts = {}
    for e, c in apply_matrix(curve.F, M).terms.items():
        parts.setdefault(e[i] + e[j], {})[e[i], e[j]] = c
    m = min(parts)
    if m > 2:
        return curvelab.OTHER, m
    A, B, C = (parts[2].get(e, 0) for e in ((2, 0), (1, 1), (0, 2)))
    if B * B - 4 * A * C:
        return curvelab.NODE, 2
    a, b = (B, -2 * A) if A else (1, 0)
    cubic = sum(c * a ** ea * b ** eb for (ea, eb), c in parts.get(3, {}).items())
    return (curvelab.CUSP if cubic else curvelab.OTHER), 2


def _reference_dual(curve):
    """The dual's equation and stripped factors, each singular point's
    dual line divided out of the chart discriminant by SymPy's division."""
    import sympy

    from dualis import curvelab, dualgeom

    d, dst = curve.degree, dualgeom.dual_ring(curve.variables)
    disc = dualgeom._dual_in_chart(curve.F)
    removed = []
    if disc.total_degree() < 2 * d * (d - 1):
        removed.append((dualgeom._dual_line(dst, (0, 0, 1)), 2 * d * (d - 1) - disc.total_degree()))
    symbols = sympy.symbols(dst)
    disc = sympy.Poly(sympy_expr(disc), *symbols)
    for s in curvelab.singular_points(curve):
        line, k = dualgeom._dual_line(dst, s.point), 0
        quotient, rest = disc.div(sympy.Poly(sympy_expr(line), *symbols))
        while rest.is_zero:
            disc, k = quotient, k + 1
            quotient, rest = disc.div(sympy.Poly(sympy_expr(line), *symbols))
        if k:
            removed.append((line, k))
    return MultiPoly(dst, {e: Fraction(str(c)) for e, c in disc.terms()}).primitive(), tuple(removed)


class TestRepeatedRootAnalysis:
    """The analysis that seeks singular parts at repeated eliminant roots,
    modulo each part, reads points and kinds over Z and strips the dual
    over Z gives what the full resultants, the Fraction points,
    apply_matrix and SymPy's division give, in the same frames; and the
    schedule of one base per line accepts the frame that a walk of the 39
    swapped shifts accepts."""

    @staticmethod
    def _curves():
        from dualis.curvelab import PlaneCurve

        given = [DUAL_NODAL_RF, TRINODAL, TRICUSPIDAL]
        bases = given + [CASE_08[0], CASE_08[1], "y^2*z - x^3 - x^2*z", "y^3*z - x^4"]
        rng = random.Random(34)
        copies = []
        while len(copies) < 33:
            m = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
            if sum(a * b for a, b in zip(m[0], _cross(m[1], m[2]))):
                copies.append(apply_matrix(parse_poly(bases[len(copies) % len(bases)], XYZ), m))
        return [PlaneCurve(parse_poly(text, XYZ)) for text in given] + [
            PlaneCurve(F) for F in copies]

    def test_same_frames_parts_points_kinds_and_duals(self):
        from dualis import curvelab, dualgeom

        for curve in self._curves():
            label = curve.F.text()
            locus = elimination.singular_locus(curve.F)
            frame, reference = locus.frame, _reference_frame(curve.F, locus.witness)
            assert (frame.base, frame.shear, frame.classes) == (
                reference.base, reference.shear, reference.classes), label
            assert locus.parts == _reference_parts(frame), label
            assert locus.points == _reference_points(frame, locus.parts), label
            for p in locus.points:
                s = curvelab.classify_singularity(curve, p)
                assert (s.kind, s.multiplicity) == _reference_kind(curve, p), (label, p)
            if locus.count == len(locus.points):
                dual = dualgeom.dual_equation(curve)
                assert (dual.D, dual.removed_factors) == _reference_dual(curve), label

    def test_form_pair_of_case_08(self):
        F, G = (parse_poly(text, XYZ) for text in CASE_08)
        frame, reference = elimination._accepted_frame(F, G), _reference_frame(F, G)
        assert (frame.base, frame.shear, frame.classes, frame.count()) == (
            reference.base, reference.shear, reference.classes, reference.count())

    def test_frames_keep_their_y_leading_coefficients(self, monkeypatch):
        # every frame built has both y-leading coefficients nonzero; the
        # analysis frame of this copy of the nodal cubic is the identity at
        # shear 1, and at shear 0 the check polar's y-leading coefficient
        # vanishes, so that frame is never built
        from dualis import dualgeom
        from dualis.curvelab import PlaneCurve

        built = []
        step = elimination._pair_frame_count

        def recorded(Fm, Gm, base, t):
            built.append((base, t))
            for terms in (Fm, Gm):
                d = sum(next(iter(terms)))
                assert terms.get((0, d, 0)), (base, t)
            return step(Fm, Gm, base, t)
        monkeypatch.setattr(elimination, "_pair_frame_count", recorded)
        copy = PlaneCurve(apply_matrix(parse_poly("y^2*z - x^3 - x^2*z", XYZ),
                                       ((1, 0, -2), (-1, 1, 1), (1, 0, -1))))
        assert dualgeom.dual_degree_oracle(copy) == 4
        assert (elimination._IDENT, 1) in built and (elimination._IDENT, 0) not in built
        for curve in self._curves()[:12]:
            try:
                dualgeom.dual_degree_oracle(curve)
            except NonGenericWitness:
                pass  # the two witnesses' counts differ on this copy
        distinct_intersection_count(*(parse_poly(text, XYZ) for text in CASE_08))
        assert len(built) > 10


class TestRepeatedRootReach:
    """Analyses that full line resultants made slow."""

    @pytest.mark.timed
    @pytest.mark.parametrize("text, count, points", [
        ("x^4 + y^4 + z^4", 28, [(1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]),
        ("x^3*y + y^3*z + z^3*x", 52, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]),
    ], ids=["fermat-quartic", "klein-quartic"])
    def test_singular_locus_of_a_degree_12_dual(self, text, count, points):
        from dualis import dualgeom
        from dualis.curvelab import PlaneCurve

        D = dualgeom.dual_equation(PlaneCurve(parse_poly(text, XYZ))).D
        start = time.perf_counter()
        locus = elimination.singular_locus(D)
        assert time.perf_counter() - start < 20.0
        assert (locus.count, locus.points) == (count, points)

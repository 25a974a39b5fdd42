"""Plane-curve analysis: singular loci, classification, reports, restrictions."""

import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest

from dualis import corpus, curvelab, dualgeom, elimination
from dualis.curvelab import (
    CUSP,
    NODE,
    OTHER,
    PRIMAL_VARS,
    PlaneCurve,
    SingularPoint,
    classify_singularity,
    curve_report,
    line_transversality,
    singular_analysis,
    singular_points,
    transversal_intersection_chi,
)
from dualis.elimination import apply_matrix, mat_mul, normalize_point
from dualis.errors import (
    DegreeGuardrail,
    InvalidParams,
    InvariantViolation,
    IrrationalSingularity,
    NotSingular,
    NotTransversal,
    ReducibleCurve,
    UnknownVariableError,
    UnsupportedSingularity,
    ZeroInput,
)
from dualis.exact import MultiPoly, _integer_terms, _restriction, _trim, is_squarefree, parse_poly

SMOOTH_CONIC = "x^2 + y^2 + z^2"
CIRCLE = "x^2 + y^2 - z^2"
NODAL = "y^2*z - x^3 - x^2*z"          # node at [0:0:1]
NODAL_RF = "z^3 - x^2*y - x*y^2 - 3*x*y*z"  # node at [1:1:-1], rational flexes
CUSPIDAL = "y^2*z - x^3"               # cusp at [0:0:1]
TACNODAL = "y^2*z^2 - x^4"             # two tacnodes
TRINODAL = "2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2"
TRICUSPIDAL = "x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x^2*y*z - 2*x*y^2*z - 2*x*y*z^2"
FOUR_NODES = "x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2"
TRIPLE_POINTS = "x^3*y^3 + y^3*z^3 + z^3*x^3"   # ordinary triple points at the vertices
#: six lines, 3 of their 15 crossings rational
SIX_LINES = ("x^4*y^2 - x^4*y*z - 2*x^3*y^3 + 2*x^3*y^2*z + x^2*y^4 - x^2*y^3*z"
             " - 5*x^2*y^2*z^2 + 5*x^2*y*z^3 + 4*x*y^3*z^2 - 4*x*y^2*z^3"
             " - 2*y^4*z^2 + 2*y^3*z^3 + 6*y^2*z^4 - 6*y*z^5")
#: (x^2 - 2z^2)(y^2 - 3z^2): crossings [0:1:0], [1:0:0] and (+-sqrt2, +-sqrt3, 1)
FOUR_LINES = "x^2*y^2 - 3*x^2*z^2 - 2*y^2*z^2 + 6*z^4"
#: (x^2 - 2z^2)(y^2 - 2x^2): the crossings (+-sqrt2, 2, 1) lie on y = 2z, and
#: (+-sqrt2, -2, 1) on y = -2z
CONJUGATE_CROSSINGS = "x^2*y^2 - 2*x^4 + 4*x^2*z^2 - 2*y^2*z^2"


def curve(text):
    return PlaneCurve.from_text(text)


class TestConstruction:
    """PlaneCurve refuses what no analysis could finish, before any work."""

    def test_over_the_sylvester_guardrail_refused_quickly(self):
        # a degree-d curve against a line has a (d + 1)x(d + 1) Sylvester
        # matrix, over the 64x64 guardrail from d = 64
        start = time.perf_counter()
        for text in ("x^999999", "x^64 + y^64 + z^64", "x^40*y^30 + z^70"):
            with pytest.raises(DegreeGuardrail):
                PlaneCurve.from_text(text)
        assert time.perf_counter() - start < 0.5

    def test_long_input_refused_quickly(self):
        # x^1 + x^2 + ... + x^32000 is parsed into one term dict, so the
        # degree cap refuses it without a quadratic pile of partial sums
        text = " + ".join(f"x^{k}" for k in range(1, 32001))
        start = time.perf_counter()
        with pytest.raises(InvalidParams):
            curvelab.load_curve(text)
        assert time.perf_counter() - start < 3.0

    def test_degree_63_constructs(self):
        assert PlaneCurve.from_text("x^63 + y^63 + z^63").degree == 63

    def test_high_degree_curve_meets_a_line(self):
        # Bezout: a transversal line meets a degree-40 curve in 40 points;
        # the 41x41 Sylvester matrix of the pair fits the guardrail
        chi = transversal_intersection_chi(PlaneCurve.from_text("x^40 + y^40 + z^40"),
                                           PlaneCurve.from_text("x + 2*y + 3*z"))
        assert chi == 40

    @pytest.mark.parametrize("text, variables, error", [
        ("0", PRIMAL_VARS, ZeroInput),
        ("x^2 + y^2", ("x", "y"), InvalidParams),
        ("x^2 + y", PRIMAL_VARS, InvalidParams),
        ("x^40 + y", PRIMAL_VARS, InvalidParams),
        ("3", PRIMAL_VARS, InvalidParams),
        ("x^2*y", PRIMAL_VARS, ReducibleCurve),
    ], ids=["zero", "two-variables", "inhomogeneous", "inhomogeneous-high", "constant",
            "square"])
    def test_other_refusals_keep_their_type(self, text, variables, error):
        with pytest.raises(error):
            PlaneCurve(parse_poly(text, variables))


class TestSingularPoints:
    def test_smooth_conic_has_none(self):
        assert singular_points(curve(SMOOTH_CONIC)) == []

    def test_nodal_cubic(self):
        pts = singular_points(curve(NODAL))
        assert len(pts) == 1
        assert pts[0].point == (0, 0, 1)
        assert pts[0].kind == NODE
        assert pts[0].multiplicity == 2 and pts[0].euler_obstruction == 2

    def test_cuspidal_cubic(self):
        pts = singular_points(curve(CUSPIDAL))
        assert [(p.point, p.kind) for p in pts] == [((0, 0, 1), CUSP)]

    def test_tacnodal_quartic(self):
        pts = singular_points(curve(TACNODAL))
        assert [(p.point, p.kind, p.multiplicity) for p in pts] == [
            ((0, 0, 1), OTHER, 2),
            ((0, 1, 0), OTHER, 2),
        ]

    def test_node_off_the_origin(self):
        pts = singular_points(curve(NODAL_RF))
        assert [(p.point, p.kind) for p in pts] == [((1, 1, -1), NODE)]

    def test_irrational_singularity_is_refused(self):
        # (x^2 - 2 z^2)^2 - y^3 z is singular exactly at [. /- sqrt2 : 0 : 1]
        c = curve("x^4 - 4*x^2*z^2 + 4*z^4 - y^3*z")
        with pytest.raises(IrrationalSingularity):
            singular_points(c)

    def test_repeated_factor_rejected_at_construction(self):
        with pytest.raises(ReducibleCurve):
            curve("x^2*y^2 - 2*x*y^3 + y^4")  # y^2 (x-y)^2

    def test_chart_independence(self):
        # recompute after permuting coordinates; the point sets must match
        perms = [
            ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
            ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
        ]
        for text in (NODAL, CUSPIDAL, TACNODAL, NODAL_RF):
            base = {p.point for p in singular_points(curve(text))}
            for m in perms:
                moved = PlaneCurve(apply_matrix(curve(text).F, m))
                got = set()
                for p in singular_points(moved):
                    # a point q of the moved curve corresponds to M q
                    coords = [
                        sum(m[i][j] * p.point[j] for j in range(3))
                        for i in range(3)
                    ]
                    got.add(normalize_point([Fraction(c) for c in coords]))
                assert got == base, (text, m)


def _normalized(coords):
    """Coprime integers proportional to SymPy rationals, first nonzero positive."""
    fracs = [Fraction(int(c.p), int(c.q)) for c in coords]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*ints)
    sign = -1 if next(a for a in ints if a) < 0 else 1
    return tuple(sign * a // g for a in ints)


def _rational_zeros(sympy, polys, symbols):
    """Rational common zeros of a zero-dimensional system, from a lex
    Groebner basis: the rational roots of its univariate elements in the
    last symbol, each substituted before the other symbols are solved."""
    polys = [p for p in polys if p != 0]
    if not symbols:
        return [] if polys else [()]
    if not polys:
        raise ValueError("positive-dimensional zero set")
    basis = list(sympy.groebner(polys, *symbols, order="lex"))
    *rest, last = symbols
    tail = [g for g in basis if g.free_symbols <= {last}]
    if not tail:
        raise ValueError("positive-dimensional zero set")
    roots = sympy.Poly(sympy.gcd_list(tail), last).ground_roots()
    return [zero + (r,) for r in roots for zero in
            _rational_zeros(sympy, [sympy.expand(g.subs(last, r)) for g in basis], rest)]


def _sympy_singular_points(text):
    """The gradient's rational projective zeros, sorted, found by SymPy on
    the charts z = 1, then z = 0 and y = 1, then the point [1:0:0]."""
    sympy = pytest.importorskip("sympy")
    X, Y, Z = sympy.symbols("x y z")
    F = sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y, "z": Z})
    grad = [sympy.diff(F, v) for v in (X, Y, Z)]
    one, zero = sympy.Integer(1), sympy.Integer(0)
    points = {_normalized((a, b, one))
              for a, b in _rational_zeros(sympy, [g.subs(Z, 1) for g in grad], [X, Y])}
    points |= {_normalized((a, one, zero))
               for (a,) in _rational_zeros(sympy, [g.subs({Z: 0, Y: 1}) for g in grad], [X])}
    if all(g.subs({X: 1, Y: 0, Z: 0}) == 0 for g in grad):
        points.add((1, 0, 0))
    return sorted(points)


def _generic_copies(text, rng, copies=2):
    """The curve moved by seeded invertible integer matrices, as text."""
    out = []
    while len(out) < copies:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        det = sum(m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3]
                             - m[1][(j + 2) % 3] * m[2][(j + 1) % 3]) for j in range(3))
        if det:
            out.append(apply_matrix(curve(text).F, m).text())
    return out


def _adjugate(m):
    """The adjugate of a 3x3 matrix: its inverse times its determinant."""
    return tuple(tuple(m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                       - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
                       for j in range(3)) for i in range(3))


class TestPointsFromTheFrame:
    """The rational singular points read from the counting frame are the
    gradient's rational zeros that SymPy finds, in the same order."""

    CURVES = (SMOOTH_CONIC, CIRCLE, NODAL, NODAL_RF, CUSPIDAL, TACNODAL, TRINODAL,
              TRICUSPIDAL, FOUR_NODES, TRIPLE_POINTS, "y^3*z - x^4", "x^4 + y^4 + z^4",
              "x^3 + y^3 + z^3", "y^2 - x*z", "x", "y - z", "x + y + z")

    @pytest.mark.parametrize("text", CURVES)
    def test_every_test_curve(self, text):
        assert [p.point for p in singular_points(curve(text))] == _sympy_singular_points(text)

    def test_generic_copies_of_the_reference_cubics_and_quartics(self):
        rng = random.Random(73)
        for text in (NODAL, CUSPIDAL, NODAL_RF, "x^3 + y^3 + z^3", TRINODAL, TRICUSPIDAL,
                     "x^4 + y^4 + z^4"):
            for moved in _generic_copies(text, rng):
                got = [p.point for p in singular_points(curve(moved))]
                assert got == _sympy_singular_points(moved), moved

    def test_triple_point_sextic(self):
        pts = singular_points(curve(TRIPLE_POINTS))
        assert [(p.point, p.kind, p.multiplicity) for p in pts] == [
            ((0, 0, 1), OTHER, 3), ((0, 1, 0), OTHER, 3), ((1, 0, 0), OTHER, 3)]

    @pytest.mark.parametrize("text, message", [
        (SIX_LINES, "found 3 rational singular points but the certified count is 15"),
        (FOUR_LINES, "found 2 rational singular points but the certified count is 6"),
    ], ids=["six-lines", "four-lines"])
    def test_irrational_crossings_refused(self, text, message):
        assert len(_sympy_singular_points(text)) == int(message.split()[1])
        with pytest.raises(IrrationalSingularity) as refusal:
            singular_points(curve(text))
        assert str(refusal.value) == message


class TestInconsistentCounts:
    def test_more_rational_points_than_the_count_is_an_internal_error(self, monkeypatch):
        locus = elimination.singular_locus
        monkeypatch.setattr(elimination, "singular_locus",
                            lambda F: dataclasses.replace(locus(F), parts={}))
        with pytest.raises(InvariantViolation):
            singular_points(curve(NODAL))


class TestSingularLocusRecord:
    """The analysis is one frozen record; its counts derive from its fields."""

    #: reference curves, their distinct singular points and dual degrees
    REFERENCE = [(SMOOTH_CONIC, 0, 2), (NODAL, 1, 4), (CUSPIDAL, 1, 3), (TACNODAL, 2, 4),
                 (TRINODAL, 3, 6), (TRICUSPIDAL, 3, 3), (FOUR_NODES, 4, 4),
                 (TRIPLE_POINTS, 3, 12), (SIX_LINES, 15, 0), (FOUR_LINES, 6, 0)]

    def test_fields_cannot_be_assigned(self):
        locus = singular_analysis(curve(NODAL))
        for name in ("frame", "witness", "parts", "points"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(locus, name, None)

    @pytest.mark.parametrize("text, singular, dual", REFERENCE)
    def test_count_is_the_sum_of_the_part_degrees(self, text, singular, dual):
        locus = singular_analysis(curve(text))
        assert set(locus.parts) == set(locus.frame.classes)
        assert locus.count == sum(len(part) - 1 for part in locus.parts.values()) == singular

    @pytest.mark.parametrize("text, singular, dual", REFERENCE)
    def test_polar_count_less_count_is_the_dual_degree(self, text, singular, dual):
        c = curve(text)
        locus = singular_analysis(c)
        assert locus.polar_count - locus.count == dualgeom.dual_degree_oracle(c) == dual


class TestAnalysisOnce:
    """The singular analysis runs once per curve object and is shared."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        original = elimination.singular_locus

        def counted(*args, **kwargs):
            counts["singular_locus"] = counts.get("singular_locus", 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(elimination, "singular_locus", counted)
        return counts

    def test_every_consumer_reads_one_analysis(self, calls):
        c = curve(NODAL)
        corpus.curve_package(c, "nodal cubic")
        dualgeom.dual_equation(c)
        assert dualgeom.dual_degree_oracle(c) == 4
        assert calls == {"singular_locus": 1}

    def test_curves_of_one_polynomial_analyse_separately(self, calls):
        first, second = curve(NODAL), curve(NODAL)
        assert singular_points(first) == singular_points(second)
        assert calls == {"singular_locus": 2}

    def test_returned_list_is_a_copy(self, calls):
        c = curve(NODAL)
        pts = singular_points(c)
        pts.clear()
        assert [p.point for p in singular_points(c)] == [(0, 0, 1)]

    def test_irrational_singularity_refused_on_every_call(self, calls):
        c = curve("x^4 - 4*x^2*z^2 + 4*z^4 - y^3*z")
        for _ in range(2):
            with pytest.raises(IrrationalSingularity):
                singular_points(c)
        assert calls == {"singular_locus": 1}


class TestClassification:
    def test_node_rank_two(self):
        s = classify_singularity(curve(NODAL), (0, 0, 1))
        assert s.kind == NODE

    def test_cusp_rank_one_with_nondividing_cubic(self):
        s = classify_singularity(curve(CUSPIDAL), (0, 0, 1))
        assert s.kind == CUSP

    def test_tacnode_excluded_from_cusps(self):
        s = classify_singularity(curve(TACNODAL), (0, 0, 1))
        assert s.kind == OTHER and s.multiplicity == 2

    def test_higher_multiplicity(self):
        s = classify_singularity(curve("y^3*z - x^4"), (0, 0, 1))
        assert s.kind == OTHER and s.multiplicity == 3 and s.euler_obstruction == 3

    def test_node_record_needs_multiplicity_two(self):
        from dualis.errors import InvalidParams
        with pytest.raises(InvalidParams):
            SingularPoint((0, 0, 1), NODE, 3, 3)

    def test_not_singular(self):
        with pytest.raises(NotSingular):
            classify_singularity(curve(NODAL), (0, 1, 0))

    @pytest.mark.parametrize("point", [(0, 0, 0), (0, 0), ("a", 0, 1), (0.0, 0, 1), (True, 0, 1)],
                             ids=["zero", "two-coordinates", "string", "float", "bool"])
    def test_malformed_point_refused(self, point):
        # a projective point is three ints or Fractions, not all zero
        with pytest.raises(InvalidParams):
            classify_singularity(curve(NODAL), point)
        with pytest.raises(InvalidParams):
            curve(NODAL).contains(point)

    def test_fraction_point_accepted(self):
        assert classify_singularity(curve(NODAL), (0, 0, Fraction(1, 3))).kind == NODE
        assert curve(NODAL).contains([0, Fraction(0), 5])

    @pytest.mark.parametrize("point, multiplicity", [((1, 1, 1), 0), ((1, 0, -1), 1)],
                             ids=["off-the-curve", "smooth"])
    def test_not_singular_below_multiplicity_two(self, point, multiplicity):
        # F(p) != 0 is multiplicity 0; a smooth point of the curve is 1
        c = curve(NODAL)
        assert c.contains(point) == (multiplicity == 1)
        with pytest.raises(NotSingular) as refusal:
            classify_singularity(c, point)
        assert str(refusal.value) == f"gradient does not vanish at {point}"

    #: unimodular N with N e_z the target point: the first nonzero
    #: coordinate is x or y, 1 or not
    TARGETS = {
        (1, 0, 0): ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        (0, 1, 0): ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
        (2, 3, 5): ((1, 0, 2), (0, 1, 3), (2, 0, 5)),
        (0, 2, 3): ((1, 0, 0), (0, 1, 2), (0, 1, 3)),
        (3, 1, 1): ((1, 0, 3), (0, 1, 1), (0, 0, 1)),
    }

    @pytest.mark.parametrize("text", [NODAL, CUSPIDAL, TACNODAL, "y^3*z - x^4"])
    @pytest.mark.parametrize("target", list(TARGETS), ids=str)
    def test_moved_point_keeps_its_kind(self, text, target):
        # G(v) = F(M v) for M the inverse of N (times det N), composed with a
        # seeded shear fixing e_z: M sends the target to the point (0:0:1)
        # of F, so the point of G there has the same kind and multiplicity
        want = classify_singularity(curve(text), (0, 0, 1))
        rng = random.Random(str(target))
        shear = ((1, 0, 0), (rng.randint(-3, 3), 1, 0), (rng.randint(-3, 3), rng.randint(-3, 3), 1))
        N = mat_mul(self.TARGETS[target], shear)
        assert tuple(row[2] for row in N) == target
        moved = PlaneCurve(apply_matrix(curve(text).F, _adjugate(N)))
        got = classify_singularity(moved, [2 * c for c in target])
        assert got == dataclasses.replace(want, point=target)

    def test_invariant_under_unimodular_changes(self):
        rng = random.Random(41)
        shears = []
        for _ in range(6):
            t = rng.randint(-3, 3)
            u = rng.randint(-3, 3)
            shears.append(((1, t, u), (0, 1, rng.randint(-3, 3)), (0, 0, 1)))
        for text, want in ((NODAL, NODE), (CUSPIDAL, CUSP), (TACNODAL, OTHER)):
            for m in shears:
                moved = PlaneCurve(apply_matrix(curve(text).F, m))
                kinds = {p.kind for p in singular_points(moved)}
                assert want in kinds, (text, m)


class TestCurveReport:
    def test_smooth_conic(self):
        r = curve_report(curve(SMOOTH_CONIC))
        assert (r.d, r.delta, r.kappa, r.g, r.chi, r.c0m) == (2, 0, 0, 0, 2, 2)

    def test_nodal_cubic(self):
        r = curve_report(curve(NODAL))
        assert (r.g, r.chi, r.c0m) == (0, 1, 2)

    def test_cuspidal_cubic(self):
        r = curve_report(curve(CUSPIDAL))
        assert (r.g, r.chi, r.c0m) == (0, 2, 3)

    def test_line(self):
        r = curve_report(curve("x"))
        assert (r.d, r.g, r.chi, r.c0m) == (1, 0, 2, 2)

    def test_smooth_curves_have_chi_equal_c0m(self):
        for d, text in ((2, SMOOTH_CONIC), (4, "x^4 + y^4 + z^4")):
            r = curve_report(curve(text))
            assert r.c0m == r.chi == -d * d + 3 * d

    def test_other_kind_refused(self):
        with pytest.raises(UnsupportedSingularity):
            curve_report(curve(TACNODAL))

    def test_impossible_genus_refused(self):
        # a quartic with four nodes cannot be irreducible (it is a pair of
        # conics); the genus guard converts that into a hard error
        from dualis.errors import InvalidParams
        four_nodes = curve("x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2")
        assert len(singular_points(four_nodes)) == 4
        with pytest.raises(InvalidParams):
            curve_report(four_nodes)

    def test_closed_form_consistency_over_corpus(self):
        for text in (SMOOTH_CONIC, CIRCLE, NODAL, NODAL_RF, CUSPIDAL):
            r = curve_report(curve(text))
            assert r.chi + r.delta + r.kappa == -r.d**2 + 3 * r.d + 2 * r.delta + 3 * r.kappa


class TestLineTransversality:
    def test_triple_contact_line_fails(self):
        # z = 0 meets the nodal cubic only at [0:1:0] with multiplicity 3
        assert not line_transversality(curve(NODAL), parse_poly("z", PRIMAL_VARS))

    def test_generic_line_passes(self):
        assert line_transversality(curve(CIRCLE), parse_poly("x", PRIMAL_VARS))

    def test_tangent_line_fails(self):
        # y - z is tangent to the circle at [0:1:1]
        assert not line_transversality(curve(CIRCLE), parse_poly("y - z", PRIMAL_VARS))

    def test_line_through_singular_point_fails(self):
        assert not line_transversality(curve(NODAL), parse_poly("x", PRIMAL_VARS))

    def test_line_coefficients_read_by_variable_name(self):
        # a reordered ring, or one with an unused extra variable, names the
        # same line; a foreign ring or a used extra variable is refused
        circle = curve(CIRCLE)
        for ring in (("z", "x", "y"), ("y", "z", "x"), ("x", "y", "z", "t")):
            assert line_transversality(circle, parse_poly("x - 2*y + 1/3*z", ring))
            assert not line_transversality(circle, parse_poly("y - z", ring))
        for text, ring in (("u + 2*v", ("u", "v", "w")), ("x + t", ("x", "y", "z", "t"))):
            with pytest.raises(UnknownVariableError):
                line_transversality(circle, parse_poly(text, ring))


def _sympy_meets_in_distinct_points(text, line):
    """Does SymPy find the curve's restriction to the line a square-free
    binary form of the curve's degree?  A form G(s, t) is square-free when
    G, G_s and G_t have a constant gcd."""
    sympy = pytest.importorskip("sympy")
    X, Y, Z, S, T = sympy.symbols("x y z s t")
    F = sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y, "z": Z})
    p, q = sympy.Matrix([line]).nullspace()
    G = sympy.expand(F.subs(dict(zip((X, Y, Z), S * p + T * q)), simultaneous=True))
    if G == 0 or sympy.Poly(G, S, T).total_degree() != sympy.Poly(F, X, Y, Z).total_degree():
        return False
    return sympy.gcd(sympy.gcd(G, G.diff(S)), G.diff(T)).is_number


def _restriction_degree(c, line):
    """The degree of F(s*p + q) for the points p, q that span the line in
    `line_transversality`."""
    p, q = (normalize_point(v) for v in curvelab._line_basis(line))
    return len(_trim(_restriction(_integer_terms(c.F)[1], p, q))) - 1


def _line(coefficients):
    return MultiPoly(PRIMAL_VARS, {tuple(int(i == v) for i in range(3)): c
                                   for v, c in enumerate(coefficients)})


def _sympy_components(sympy, text):
    """The coefficients of the rational lines that divide the curve's form."""
    X, Y, Z = sympy.symbols("x y z")
    F = sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y, "z": Z})
    return [[int(sympy.Poly(g, X, Y, Z).coeff_monomial(v)) for v in (X, Y, Z)]
            for g, _ in sympy.factor_list(F)[1] if sympy.Poly(g, X, Y, Z).total_degree() == 1]


class TestLineTransversalityAgainstSympy:
    """`line_transversality` agrees with SymPy's square-free test of the
    binary form on seeded lines of every kind."""

    def _agrees(self, text, coefficients):
        got = line_transversality(curve(text), _line(coefficients))
        assert got == _sympy_meets_in_distinct_points(text, coefficients), (text, coefficients)
        return got

    def test_lines_through_a_basis_point_on_the_curve(self):
        # seeded curves G(P)*H - H(P)*G through P = (p0 : 0 : p2), p0 != 0,
        # which `_line_basis` returns as the first point of the line
        # (-p2, b, p0): the restriction loses one degree at P, and loses two
        # on the tangent line, which fails
        rng = random.Random(29)
        passed = tangents = 0
        while tangents < 6:
            d = rng.choice((2, 3, 4))
            P = (rng.randint(1, 4), 0, rng.randint(-4, 4))
            G, H = (MultiPoly(PRIMAL_VARS, {(a, b, d - a - b): rng.randint(-4, 4)
                                            for a in range(d + 1) for b in range(d + 1 - a)})
                    for _ in range(2))
            at = dict(zip(PRIMAL_VARS, P))
            F = H * G.evaluate(at) - G * H.evaluate(at)
            grad = [F.derivative(v).evaluate(at) for v in PRIMAL_VARS]
            if F.is_zero() or not grad[2] or not is_squarefree(F):
                continue
            c = PlaneCurve(F)
            for b in rng.sample(range(-6, 7), 3):
                if b * grad[2] != P[0] * grad[1]:
                    line = [-P[2], b, P[0]]
                    assert _restriction_degree(c, line) == d - 1
                    passed += self._agrees(F.text(), line)
            tangent = normalize_point(grad)
            assert _restriction_degree(c, tangent) == d - 2
            assert not self._agrees(F.text(), tangent)
            tangents += 1
        assert passed > 0

    @pytest.mark.parametrize("text, lines", [
        (SIX_LINES, 2),
        ("x*y*z", 3),
        # (x + 2y - z)(x^2 + y^2 - z^2)
        ("x^3 + 2*x^2*y - x^2*z + x*y^2 + 2*y^3 - y^2*z - x*z^2 - 2*y*z^2 + z^3", 1),
    ], ids=["six-lines", "triangle", "circle-and-line"])
    def test_component_lines(self, text, lines):
        sympy = pytest.importorskip("sympy")
        components = _sympy_components(sympy, text)
        assert len(components) == lines
        for line in components:
            assert _restriction_degree(curve(text), line) == -1  # the zero list
            assert not self._agrees(text, line)

    @pytest.mark.parametrize("text", [NODAL, NODAL_RF, CUSPIDAL, TACNODAL, TRINODAL,
                                      TRICUSPIDAL, TRIPLE_POINTS])
    def test_lines_through_singular_points(self, text):
        rng = random.Random(text)
        for s in singular_points(curve(text)):
            for _ in range(3):
                r = [rng.randint(-5, 5) for _ in range(3)]
                line = [s.point[1] * r[2] - s.point[2] * r[1], s.point[2] * r[0] - s.point[0] * r[2],
                        s.point[0] * r[1] - s.point[1] * r[0]]
                if any(line):
                    assert not self._agrees(text, line)

    def test_lines_through_irrational_crossings(self):
        # y = 2z and y = -2z each meet two conjugate crossings of
        # CONJUGATE_CROSSINGS; seeded lines elsewhere pass, as on the other
        # curves with irrational crossings
        for line in ([0, 1, -2], [0, 1, 2]):
            assert not self._agrees(CONJUGATE_CROSSINGS, line)
        rng = random.Random(31)
        for text in (CONJUGATE_CROSSINGS, FOUR_LINES, SIX_LINES):
            lines = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(4)]
            assert sum(self._agrees(text, line) for line in lines if any(line)) > 0, text


class TestSliceLine:
    """The line that certified a curve square-free is transversal to it."""

    @pytest.mark.parametrize("text", [SMOOTH_CONIC, CIRCLE, NODAL, NODAL_RF, CUSPIDAL, TACNODAL,
                                      TRINODAL, TRICUSPIDAL, FOUR_NODES, TRIPLE_POINTS,
                                      "x^4 + y^4 + z^4", "x", "x*y*z"])
    def test_slice_line_is_transversal(self, text):
        c = curve(text)
        line = corpus.transversal_slice_line(c)
        assert line_transversality(c, line)
        assert _sympy_meets_in_distinct_points(text, c.slice_line)

    @pytest.mark.parametrize("text", [SIX_LINES, FOUR_LINES], ids=["six-lines", "four-lines"])
    def test_slice_line_of_irrational_crossings(self, text):
        c = curve(text)
        assert _sympy_meets_in_distinct_points(text, c.slice_line)
        assert line_transversality(c, corpus.transversal_slice_line(c))
        # z and y each meet the lines in fewer than d points: through a
        # crossing, or along a component
        for line in ("z", "y"):
            assert not line_transversality(c, parse_poly(line, PRIMAL_VARS))
            assert not _sympy_meets_in_distinct_points(text, [int(v == line) for v in "xyz"])


class TestPairChi:
    def test_transversal_counts(self):
        assert transversal_intersection_chi(curve("x"), curve("y")) == 1
        assert transversal_intersection_chi(curve("x + y + z"), curve(CIRCLE)) == 2
        assert transversal_intersection_chi(curve("y^2 - x*z"), curve(CIRCLE)) == 4
        assert transversal_intersection_chi(curve(CIRCLE), curve(CUSPIDAL)) == 6

    def test_tangent_pair_refused(self):
        with pytest.raises(NotTransversal):
            transversal_intersection_chi(curve("y - z"), curve(CIRCLE))

    def test_pair_through_singular_point_refused(self):
        # every line through the cusp meets the cubic non-transversally there
        with pytest.raises(NotTransversal):
            transversal_intersection_chi(curve("x"), curve(CUSPIDAL))

    def test_shared_component_refused(self):
        with pytest.raises(ReducibleCurve):
            transversal_intersection_chi(curve("x"), curve("x + y - y"))

"""Plane-curve analysis: singular loci, classification, reports, restrictions."""

import random
from fractions import Fraction

import pytest

from dualis import corpus, dualgeom, elimination
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
    singular_points,
    transversal_intersection_chi,
)
from dualis.elimination import apply_matrix, normalize_point
from dualis.errors import (
    InvariantViolation,
    IrrationalSingularity,
    NotSingular,
    NotTransversal,
    ReducibleCurve,
    UnsupportedSingularity,
)
from dualis.exact import parse_poly

SMOOTH_CONIC = "x^2 + y^2 + z^2"
CIRCLE = "x^2 + y^2 - z^2"
NODAL = "y^2*z - x^3 - x^2*z"          # node at [0:0:1]
NODAL_RF = "z^3 - x^2*y - x*y^2 - 3*x*y*z"  # node at [1:1:-1], rational flexes
CUSPIDAL = "y^2*z - x^3"               # cusp at [0:0:1]
TACNODAL = "y^2*z^2 - x^4"             # two tacnodes


def curve(text):
    return PlaneCurve.from_text(text)


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


class TestInconsistentCounts:
    def test_more_rational_points_than_the_count_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(elimination, "certified_singular_count", lambda F: 0)
        with pytest.raises(InvariantViolation):
            singular_points(curve(NODAL))


class TestAnalysisOnce:
    """The singular analysis runs once per curve object and is shared."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for name in ("rational_system_points", "certified_singular_count"):
            original = getattr(elimination, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(elimination, name, counted)
        return counts

    def test_every_consumer_reads_one_analysis(self, calls):
        c = curve(NODAL)
        corpus.curve_package(c, "nodal cubic")
        dualgeom.dual_equation(c)
        assert dualgeom.dual_degree_oracle(c) == 4
        assert calls == {"rational_system_points": 1, "certified_singular_count": 1}

    def test_curves_of_one_polynomial_analyse_separately(self, calls):
        first, second = curve(NODAL), curve(NODAL)
        assert singular_points(first) == singular_points(second)
        assert calls == {"rational_system_points": 2, "certified_singular_count": 2}

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
        assert calls == {"rational_system_points": 1, "certified_singular_count": 1}


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

"""Identity evaluators, corollaries and the one-unknown solver."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dualis.charclass import hypersurface_package, linear_space_package
from dualis.corpus import build_curve_pair
from dualis.curvelab import PlaneCurve
from dualis.elimination import apply_matrix
from dualis.errors import (
    AmbientMismatch,
    AmbientTooSmall,
    GuardrailExceeded,
    InconsistentPackage,
    InvalidCounts,
    InvalidParams,
    IrrationalSingularity,
    KOutOfRange,
    NoFailureFound,
    NonIntegralResult,
    NotTransversal,
    Overdetermined,
    ReducibleCurve,
    UncertifiedTransversality,
    UnsupportedSingularity,
    ZeroCoefficient,
)
from dualis.flopcalc import (
    CONORMAL,
    IDENTITY_FIELDS,
    INTRO,
    IdentityInstance,
    VarietyInvariants,
    check_forms,
    check_identity,
    classical_plucker,
    detect_dual_codim,
    dual_c0m,
    dual_degree_from_invariants,
    flop_defect,
    identity_sides,
    quadric_pair_check,
    solve_unknown,
)

LINE = linear_space_package(2, 1)
POINT = linear_space_package(2, 0)
CONIC = hypersurface_package(2, 2)
NODAL = VarietyInvariants("nodal cubic", 2, 1, 3, 2, (0, 3, 1), True)
CUSPIDAL = VarietyInvariants("cuspidal cubic", 2, 1, 3, 3, (0, 3, 2), True)
QUARTIC = hypersurface_package(2, 4)
QUADRIC_SURFACE = hypersurface_package(3, 2)
LINE_IN_P3 = linear_space_package(3, 1)


class TestFlopDefect:
    def test_two_lines_value(self):
        assert flop_defect(-2, -2, 2) == Fraction(-4, 3)

    def test_zero_factor(self):
        assert flop_defect(0, 7, 5) == 0

    def test_pfaffian_contribution(self):
        # with n + 1 = 15 the correction of the Grassmannian side is
        # 15 * 9 / ((-1)^15 * 15) = -9, i.e. it subtracts 9
        assert flop_defect(15, 9, 14) == -9

    def test_symmetry(self):
        for a, b, n in ((3, 5, 2), (-2, 7, 3), (4, 4, 6)):
            assert flop_defect(a, b, n) == flop_defect(b, a, n)

    def test_ambient_too_small(self):
        with pytest.raises(AmbientTooSmall):
            flop_defect(1, 1, 1)


class TestCheckIdentity:
    def test_two_lines_both_forms(self):
        for form in (CONORMAL, INTRO):
            rep = check_identity(LINE, LINE, POINT, POINT, 1, 0, form=form)
            assert rep.lhs == rep.rhs == Fraction(-1, 3)
            assert rep.holds

    def test_line_conic_intro(self):
        rep = check_identity(LINE, CONIC, POINT, CONIC, 2, 0, form=INTRO)
        assert rep.lhs == rep.rhs == Fraction(-2, 3)

    def test_self_ambient_pair_refused(self):
        plane = VarietyInvariants("P^2 itself", 2, 2, 1, 3, (0, 1, 2), True)
        with pytest.raises(UncertifiedTransversality):
            check_identity(plane, plane, plane, plane, 3, 3)

    def test_uncertified_flag_refused(self):
        shaky = VarietyInvariants("no certificate", 2, 1, 2, 2, (0, 2, 2), False)
        with pytest.raises(UncertifiedTransversality):
            check_identity(shaky, LINE, POINT, POINT, 2, 0)

    def test_ambient_mismatch(self):
        q3 = hypersurface_package(3, 2)
        with pytest.raises(AmbientMismatch):
            check_identity(LINE, q3, POINT, q3, 1, 0)

    def test_form_equivalence_sign_factor(self):
        # the two evaluators agree on the verdict, and their left sides
        # differ exactly by (-1)^(n + dim S1* + dim S2*)
        for s1, s2, d1, d2, chi, chid in FORM_CASES:
            a = check_identity(s1, s2, d1, d2, chi, chid, form=CONORMAL)
            b = check_identity(s1, s2, d1, d2, chi, chid, form=INTRO)
            assert a.holds == b.holds
            sign = (-1) ** (s1.n + d1.dim + d2.dim)
            assert a.lhs == sign * b.lhs
            assert a.rhs == sign * b.rhs

    def test_solver_recovers_each_field_of_a_holding_instance(self):
        # the solver and the checker state one identity: blanking any field
        # of an instance that holds gives the field back, unless it cancels,
        # which a c0m does exactly when its partner's c0m is 0
        partner = {"c0m_1": "c0m_2", "c0m_2": "c0m_1",
                   "c0m_dual_1": "c0m_dual_2", "c0m_dual_2": "c0m_dual_1"}
        cancelled = 0
        for s1, s2, d1, d2, chi, chid in FORM_CASES:
            values = dict(zip(IDENTITY_FIELDS,
                              (chi, s1.c0m, s2.c0m, chid, d1.c0m, d2.c0m)))
            for form in (CONORMAL, INTRO):
                assert check_identity(s1, s2, d1, d2, chi, chid, form=form).holds
                for field in IDENTITY_FIELDS:
                    inst = IdentityInstance(
                        n=s1.n, dims=(s1.dim, s2.dim, d1.dim, d2.dim), form=form,
                        **{**values, field: None},
                    )
                    if field in partner and values[partner[field]] == 0:
                        cancelled += 1
                        with pytest.raises(ZeroCoefficient):
                            solve_unknown(inst)
                    else:
                        assert solve_unknown(inst) == values[field]
        assert cancelled == 2

    def test_conormal_form_refuses_chi_of_a_too_small_intersection(self):
        # two points of P^2 (dims 0 + 0 < 2) cannot meet transversally in a
        # nonempty set, on either side of the identity
        for args in ((POINT, POINT, LINE, LINE, 1, 0),
                     (LINE, LINE, POINT, POINT, 1, 1)):
            with pytest.raises(InconsistentPackage):
                check_identity(*args, form=CONORMAL)
            check_identity(*args, form=INTRO)  # the intro form has no such refusal


#: package of the tricuspidal quartic dual to a nodal cubic, from the
#: classical counts (4, 0, 3): chi = 2, c0m = 2 + 3 = 5
QUARTIC_DUAL_OF_NODAL = VarietyInvariants(
    "tricuspidal quartic", 2, 1, 4, 5, (0, 4, 2), True
)

#: the sextic dual to a smooth cubic, with 9 cusps and genus 1:
#: chi = 0, c0m = 0 + 9 = 9
SEXTIC_DUAL_OF_CUBIC = VarietyInvariants(
    "nine-cuspidal sextic", 2, 1, 6, 9, (0, 6, 0), True
)

#: instances on which the identity holds in both forms
FORM_CASES = [
    (LINE, LINE, POINT, POINT, 1, 0),
    (LINE, CONIC, POINT, CONIC, 2, 0),
    (CONIC, CONIC, CONIC, CONIC, 4, 4),
    (LINE, NODAL, POINT, QUARTIC_DUAL_OF_NODAL, 3, 0),
    (LINE, hypersurface_package(2, 3), POINT, SEXTIC_DUAL_OF_CUBIC, 3, 0),
    # in P^3 the duals of a quadric surface and a line are again such a pair
    (QUADRIC_SURFACE, LINE_IN_P3, QUADRIC_SURFACE, LINE_IN_P3, 2, 2),
]


class TestClassicalPlucker:
    @pytest.mark.parametrize(
        "d,delta,kappa,expected",
        [
            (2, 0, 0, (2, 0, 0)),
            (3, 0, 0, (6, 0, 9)),
            (3, 1, 0, (4, 0, 3)),
            (3, 0, 1, (3, 0, 1)),
            (4, 0, 0, (12, 28, 24)),
        ],
    )
    def test_table(self, d, delta, kappa, expected):
        got = classical_plucker(d, delta, kappa)
        assert (got.d_dual, got.delta_dual, got.kappa_dual) == expected

    def test_genus_invariance_built_in(self):
        got = classical_plucker(4, 0, 0)
        g_dual = (got.d_dual - 1) * (got.d_dual - 2) // 2 - got.delta_dual - got.kappa_dual
        assert g_dual == got.g == 3

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            classical_plucker(1, 0, 0)
        with pytest.raises(InvalidCounts):
            classical_plucker(2, 1, 0)  # a conic has no room for a node
        with pytest.raises(InvalidCounts):
            classical_plucker(3, 0, 2)  # d* would drop to zero


class TestDualCodim:
    def test_conic(self):
        assert detect_dual_codim(CONIC) == 1

    def test_quadric_surface(self):
        assert detect_dual_codim(hypersurface_package(3, 2)) == 1

    def test_plane_curves(self):
        for pkg in (NODAL, CUSPIDAL, QUARTIC):
            assert detect_dual_codim(pkg) == 1

    def test_linear_spaces_have_full_codim_duals(self):
        # dual of P^m in P^n is P^(n-m-1), codimension m+1
        assert detect_dual_codim(linear_space_package(2, 1)) == 2
        assert detect_dual_codim(linear_space_package(2, 0)) == 1
        assert detect_dual_codim(linear_space_package(3, 1)) == 2

    def test_corrupted_slices_raise(self):
        bad = VarietyInvariants("corrupt", 2, 1, 2, 2, (7, 2, 2), True)
        with pytest.raises(InconsistentPackage):
            detect_dual_codim(bad)
        short = VarietyInvariants("short", 3, 1, 2, 2, (0, 2, 2), True)
        with pytest.raises(InconsistentPackage):
            detect_dual_codim(short)

    def test_no_failure_found(self):
        degenerate = VarietyInvariants("flat", 2, 0, 1, 0, (0, 0, 1), True)
        with pytest.raises(NoFailureFound):
            detect_dual_codim(degenerate)


class TestDualC0m:
    def test_conic(self):
        assert dual_c0m(CONIC, 0) == 2

    def test_nodal_cubic(self):
        assert dual_c0m(NODAL, 0) == 5
        # independently: plug the dual counts (4, 0, 3) into the closed form
        assert -16 + 12 + 2 * 0 + 3 * 3 == 5

    def test_cuspidal_cubic(self):
        assert dual_c0m(CUSPIDAL, 0) == 3

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            dual_c0m(CONIC, 1)

    def test_non_integral_result(self):
        fake = VarietyInvariants("odd", 4, 3, 3, 3, (0, 3, 2, 2, 2), True)
        with pytest.raises(NonIntegralResult):
            dual_c0m(fake, 1, dual_codim=2)

    def test_involution_through_dual_package(self):
        # applying the formula to the dual package returns the original c0m;
        # the dual packages come from actual dual equations where feasible
        from dualis.corpus import curve_package
        from dualis.curvelab import PlaneCurve
        from dualis.dualgeom import dual_equation
        for text, original in (("y^2 - x*z", CONIC), ("y^2*z - x^3", CUSPIDAL)):
            dual = PlaneCurve(dual_equation(PlaneCurve.from_text(text)).D)
            dual_pkg = curve_package(dual, "computed dual")
            assert dual_c0m(dual_pkg, 0) == original.c0m
        assert dual_c0m(QUARTIC_DUAL_OF_NODAL, 0) == NODAL.c0m


class TestDualDegree:
    def test_plane_curves(self):
        assert dual_degree_from_invariants(NODAL, 0, 1) == 4
        assert dual_degree_from_invariants(CONIC, 0, 1) == 2
        assert dual_degree_from_invariants(QUARTIC, 0, 1) == 12

    def test_matches_classical_formula(self):
        for pkg, (d, delta, kappa) in (
            (CONIC, (2, 0, 0)),
            (NODAL, (3, 1, 0)),
            (CUSPIDAL, (3, 0, 1)),
            (QUARTIC, (4, 0, 0)),
        ):
            assert dual_degree_from_invariants(pkg, 0, 1) == classical_plucker(
                d, delta, kappa
            ).d_dual

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            dual_degree_from_invariants(CONIC, 1, 1)

    def test_smooth_hypersurfaces_against_closed_form(self):
        # classical: the dual of a smooth degree-d hypersurface in P^n has
        # degree d(d-1)^(n-1); the slice-data route must reproduce it
        for n in range(2, 7):
            for d in range(2, 6):
                pkg = hypersurface_package(n, d)
                assert dual_degree_from_invariants(pkg, 0, 1) == d * (d - 1) ** (n - 1)


class TestQuadricPair:
    def test_line_against_conic(self):
        rep = quadric_pair_check(LINE, POINT, 2, 0)
        assert rep.lhs == rep.rhs == Fraction(2, 3)

    def test_conic_against_conic(self):
        rep = quadric_pair_check(CONIC, CONIC, 4, 4)
        assert rep.lhs == rep.rhs == Fraction(8, 3)

    def test_conic_pair_with_computed_inputs(self):
        # both chi inputs counted from explicit equations, both dual conics
        # computed by elimination
        from dualis.corpus import curve_package
        from dualis.curvelab import PlaneCurve, transversal_intersection_chi
        from dualis.dualgeom import dual_equation
        s = PlaneCurve.from_text("y^2 - x*z")
        q = PlaneCurve.from_text("x^2 + y^2 - z^2")
        chi_sq = transversal_intersection_chi(s, q)
        s_dual = PlaneCurve(dual_equation(s).D)
        q_dual = PlaneCurve(dual_equation(q).D)
        chi_dual = transversal_intersection_chi(s_dual, q_dual)
        assert chi_sq == chi_dual == 4
        rep = quadric_pair_check(
            curve_package(s, "conic"), curve_package(s_dual, "dual conic"),
            chi_sq, chi_dual,
        )
        assert rep.holds and rep.lhs == Fraction(8, 3)

    def test_hyperplane_reduction_reproduces_quadric_chi(self):
        from dualis.charclass import QUADRIC, chi_standard
        for n in range(2, 8):
            s = linear_space_package(n, n - 1)
            s_dual = linear_space_package(n, 0)
            rep = quadric_pair_check(s, s_dual, chi_standard(QUADRIC, n - 2), 0)
            assert rep.holds

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            quadric_pair_check(LINE, linear_space_package(3, 0), 2, 0)


class TestSolveUnknown:
    def test_pfaffian_cubic_hypersurface(self):
        inst = IdentityInstance(
            n=14, dims=(13, 5, 8, 8),
            chi_cap=27, c0m_1=None, c0m_2=6,
            chi_cap_dual=24, c0m_dual_1=15, c0m_dual_2=9,
        )
        assert solve_unknown(inst) == 30

    def test_two_lines_chi(self):
        inst = IdentityInstance(
            n=2, dims=(1, 1, 0, 0),
            chi_cap=None, c0m_1=2, c0m_2=2,
            chi_cap_dual=0, c0m_dual_1=1, c0m_dual_2=1,
        )
        assert solve_unknown(inst) == 1

    def test_conormal_form_gives_same_solution(self):
        for form in (INTRO, CONORMAL):
            inst = IdentityInstance(
                n=2, dims=(1, 1, 0, 0), form=form,
                chi_cap=None, c0m_1=2, c0m_2=2,
                chi_cap_dual=0, c0m_dual_1=1, c0m_dual_2=1,
            )
            assert solve_unknown(inst) == 1

    def test_zero_coefficient(self):
        inst = IdentityInstance(
            n=2, dims=(1, 1, 0, 0),
            chi_cap=1, c0m_1=None, c0m_2=0,
            chi_cap_dual=0, c0m_dual_1=1, c0m_dual_2=1,
        )
        with pytest.raises(ZeroCoefficient):
            solve_unknown(inst)

    def test_more_than_one_unknown(self):
        inst = IdentityInstance(
            n=2, dims=(1, 1, 0, 0),
            chi_cap=None, c0m_1=None, c0m_2=2,
            chi_cap_dual=0, c0m_dual_1=1, c0m_dual_2=1,
        )
        with pytest.raises(Overdetermined):
            solve_unknown(inst)


class TestRefusals:
    """Each refusal keeps its exception type; the inputs reach the named rule."""

    @pytest.mark.parametrize("n, dim, match", [
        (0, 0, "ambient dimension must be positive"),
        (2, 3, "dim 3 outside 0..2"),
        (2, -1, "dim -1 outside 0..2"),
    ], ids=["n-0", "dim-above-n", "negative-dim"])
    def test_package_dimensions(self, n, dim, match):
        with pytest.raises(InvalidParams, match=match):
            VarietyInvariants("bad", n, dim, 1, 1)

    @pytest.mark.parametrize("slices, match", [
        (None, "no slice data"),
        ((0, 3, 2), "complementary slice must equal the degree"),
    ], ids=["no-slices", "complementary-slice"])
    def test_package_slices(self, slices, match):
        with pytest.raises(InconsistentPackage, match=match):
            VarietyInvariants("conic", 2, 1, 2, 2, slices).validate_slices()

    def test_unknown_identity_form(self):
        with pytest.raises(InvalidParams, match="unknown identity form"):
            identity_sides("other", 2, (1, 1, 0, 0), 1, 1, 1, 0, 1, 1)

    @pytest.mark.parametrize("counts, match", [
        ((3, -1, 0), "negative singularity counts"),
        ((3, 0, -1), "negative singularity counts"),
        ((5, 0, 6), "outside the nodal/cuspidal regime"),  # kappa* = -3
        ((6, 0, 10), "outside the nodal/cuspidal regime"),  # d* = 0
        ((7, 0, 12), "negative dual node count"),
    ], ids=["negative-delta", "negative-kappa", "negative-dual-cusps", "zero-dual-degree",
            "negative-dual-nodes"])
    def test_classical_counts(self, counts, match):
        with pytest.raises(InvalidCounts, match=match):
            classical_plucker(*counts)

    def test_dual_codimension_too_large_for_the_ambient(self):
        with pytest.raises(KOutOfRange, match="l = 2 too large"):
            dual_degree_from_invariants(CONIC, 0, 2)

    def test_non_integral_dual_degree(self):
        # a curve of degree 2 in P^3 with c0m = 1 gives (1/2) c0m at k = 1
        pkg = VarietyInvariants("odd", 3, 1, 2, 1, (0, 0, 2, 0), True)
        pkg.validate_slices()
        with pytest.raises(NonIntegralResult, match="dual degree came out 1/2"):
            dual_degree_from_invariants(pkg, 1, 2)

    def test_pair_in_a_line_is_too_small(self):
        point = VarietyInvariants("point", 1, 0, 1, 1, (0, 1), True)
        with pytest.raises(AmbientTooSmall):
            check_identity(point, point, point, point, 0, 0)

    def test_solver_needs_n_at_least_2(self):
        instance = IdentityInstance(n=1, dims=(0, 0, 0, 0), chi_cap=None, c0m_1=1, c0m_2=1,
                                    chi_cap_dual=0, c0m_dual_1=1, c0m_dual_2=1)
        with pytest.raises(AmbientTooSmall):
            solve_unknown(instance)


class TestFlopIdentitySweep:
    """The flop identity on seeded pairs of moved corpus curves: a line, two
    conics, the cuspidal cubic and the nodal cubic with rational flexes,
    each moved by an invertible integer matrix with entries in [-3, 3] and
    built in-process by `build_curve_pair`.  The paper proves the identity,
    so both forms must hold, or the pair must be refused with one of
    REFUSALS; a failure is a defect in dualis, never in the identity."""

    CURVES = ("line_125", "conic_circle", "conic_parabola", "cubic_cusp", "cubic_nodal_rf")
    REFUSALS = (NotTransversal, ReducibleCurve, IrrationalSingularity, UnsupportedSingularity,
                GuardrailExceeded)
    PAIRS = 600

    @staticmethod
    def _moved(rng, curve):
        while True:
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
            if (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])):
                return PlaneCurve(apply_matrix(curve.F, m))

    def test_both_forms_hold_or_the_pair_is_refused(self):
        corpus = Path(__file__).resolve().parent.parent / "corpus" / "curves"
        curves = [PlaneCurve.from_text((corpus / f"{name}.txt").read_text())
                  for name in self.CURVES]
        rng = random.Random(18)
        held = refused = 0
        for _ in range(self.PAIRS):
            pair = [self._moved(rng, rng.choice(curves)) for _ in range(2)]
            try:
                data = build_curve_pair(*pair)
            except self.REFUSALS:
                refused += 1
                continue
            reports = check_forms(data.s1, data.s2, data.d1, data.d2, data.chi_cap,
                                  data.chi_cap_dual)
            assert all(report.holds for report in reports.values()), (
                [c.F.text() for c in pair], data.chi_cap, data.chi_cap_dual,
                {form: report.as_dict() for form, report in reports.items()})
            held += 1
        assert held + refused == self.PAIRS and held >= self.PAIRS * 9 // 10

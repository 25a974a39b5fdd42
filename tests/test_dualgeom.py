"""Dual curves against independent oracles: quadric inversion, Gauss maps, polars."""

import random
from fractions import Fraction
from itertools import product

import pytest

from dualis import dualgeom
from dualis.curvelab import (
    DUAL_VARS,
    PRIMAL_VARS,
    PlaneCurve,
    curve_report,
    singular_analysis,
)
from dualis.dualgeom import (
    biduality_check,
    dual_curve_report,
    dual_degree_oracle,
    dual_equation,
)
from dualis.errors import (
    ChartExhausted,
    GuardrailExceeded,
    InvalidParams,
    InvariantViolation,
    NonGenericWitness,
    WitnessOnCurve,
)
from dualis.exact import MultiPoly, UniPolyView, discriminant, parse_poly

CONIC = "y^2 - x*z"
SPHERE = "x^2 + y^2 + z^2"
CIRCLE = "x^2 + y^2 - z^2"
NODAL = "y^2*z - x^3 - x^2*z"
NODAL_RF = "z^3 - x^2*y - x*y^2 - 3*x*y*z"
CUSPIDAL = "y^2*z - x^3"
FERMAT4 = "x^4 + y^4 + z^4"

DEGREE_LE_3_CORPUS = (CONIC, SPHERE, CIRCLE, NODAL, NODAL_RF, CUSPIDAL)


def curve(text):
    return PlaneCurve.from_text(text)


def _quadric_matrix(F):
    """Symmetric 3x3 rational matrix of a quadratic form."""
    vars3 = F.variables
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for e, c in F.terms.items():
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        i, j = idx[0], idx[1]
        if i == j:
            m[i][i] = c
        else:
            m[i][j] = m[j][i] = c / 2
    return m


def _matrix_inverse(m):
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    adj = [
        [m[1][1] * m[2][2] - m[1][2] * m[2][1],
         m[0][2] * m[2][1] - m[0][1] * m[2][2],
         m[0][1] * m[1][2] - m[0][2] * m[1][1]],
        [m[1][2] * m[2][0] - m[1][0] * m[2][2],
         m[0][0] * m[2][2] - m[0][2] * m[2][0],
         m[0][2] * m[1][0] - m[0][0] * m[1][2]],
        [m[1][0] * m[2][1] - m[1][1] * m[2][0],
         m[0][1] * m[2][0] - m[0][0] * m[2][1],
         m[0][0] * m[1][1] - m[0][1] * m[1][0]],
    ]
    return [[a / det for a in row] for row in adj]


def _quadric_dual_oracle(text):
    """Dual of x^T A x = 0 is u^T A^{-1} u = 0."""
    F = parse_poly(text, PRIMAL_VARS)
    inv = _matrix_inverse(_quadric_matrix(F))
    terms = {}
    for i in range(3):
        for j in range(3):
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + inv[i][j]
    return MultiPoly(DUAL_VARS, terms).primitive()


def _chart_form(text):
    """F(x, 1, -(u*x + v)): the binary form whose discriminant in x is the
    dual discriminant on the chart w = 1."""
    ring = ("x",) + DUAL_VARS
    x = MultiPoly.var(ring, "x")
    return parse_poly(text, PRIMAL_VARS).substitute({
        "x": x,
        "y": MultiPoly.const(ring, 1),
        "z": -(MultiPoly.var(ring, "u") * x + MultiPoly.var(ring, "v")),
    })


class TestChartDiscriminant:
    @pytest.mark.parametrize("text", ["x^5 + y^4*z + x*y*z^3 + z^5", "x^6 + y^6 + z^6"])
    def test_against_sympy(self, text):
        sympy = pytest.importorskip("sympy")
        psi = _chart_form(text)
        symbols = sympy.symbols(psi.variables)
        expr = sympy.sympify(psi.text().replace("^", "**"),
                             locals=dict(zip(psi.variables, symbols)))
        want = sympy.Poly(sympy.discriminant(expr, symbols[0]), *symbols)
        got = discriminant(UniPolyView(psi, "x"))
        assert got.total_degree() > 0
        assert got == MultiPoly(psi.variables, {
            e: Fraction(int(c.p), int(c.q)) for e, c in want.terms()})

    @pytest.mark.parametrize("text", DEGREE_LE_3_CORPUS)
    def test_stripped_power_of_w(self, text):
        # the discriminant is a form of degree 2d(d-1), so w divides it
        # 2d(d-1) - deg(chart discriminant) times
        d = curve(text).degree
        chart = discriminant(UniPolyView(_chart_form(text), "x"))
        stripped = dict((f.text(), k) for f, k in dual_equation(curve(text)).removed_factors)
        assert stripped.get("w", 0) == 2 * d * (d - 1) - chart.total_degree()


def _seeded_chart_forms():
    """Seeded forms of degree 2..5 with a term free of y, some with
    fractions, plus a form whose lc(psi) = 1 - u^2 vanishes at u = 1 and
    sparse forms whose chains drop degrees along whole rows."""
    rng = random.Random(20261019)
    forms = []
    for d in (2, 3, 3, 4, 4, 5):
        monomials = [e for e in product(range(d + 1), repeat=3) if sum(e) == d]
        while True:
            terms = {e: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 1, 2)))
                     for e in rng.sample(monomials, min(d + 2, 5))}
            if any(e[1] == 0 for e in terms):
                forms.append(MultiPoly(PRIMAL_VARS, terms).text())
                break
    return forms + [LC_VANISHES, "x^4 + y^4 + z^4", "x^5 + y^5 + 2*z^5"]


#: psi = x^3 - x*(u*x + v)^2 + (u*x + v): lc(psi) = 1 - u^2
LC_VANISHES = "x^3 - x*z^2 - y^2*z"


class TestTriangleDiscriminant:
    """dualgeom._dual_in_chart, by the subresultant chain on the triangle
    u + v <= d(d-1), against SymPy's discriminant of the chart form."""

    @pytest.mark.parametrize("text", _seeded_chart_forms(),
                             ids=lambda text: f"degree{parse_poly(text, PRIMAL_VARS).total_degree()}")
    def test_against_sympy(self, text, monkeypatch):
        sympy = pytest.importorskip("sympy")
        fallbacks, abnormal = [], []
        bareiss, chain = dualgeom._int_bareiss_determinant, dualgeom._subresultant_chain
        monkeypatch.setattr(dualgeom, "_int_bareiss_determinant",
                            lambda m: fallbacks.append(1) or bareiss(m))

        def recorded(a, b):
            result = chain(a, b)
            abnormal.append(not all(s[-1] for s in result))
            return result
        monkeypatch.setattr(dualgeom, "_subresultant_chain", recorded)
        psi = _chart_form(text)
        symbols = sympy.symbols(psi.variables)
        expr = sympy.sympify(psi.text().replace("^", "**"),
                             locals=dict(zip(psi.variables, symbols)))
        want = sympy.Poly(sympy.discriminant(expr, symbols[0]), *symbols[1:3])
        top = want.total_degree()
        got = dualgeom._dual_in_chart(parse_poly(text, PRIMAL_VARS))
        d = parse_poly(text, PRIMAL_VARS).total_degree()
        assert 0 < top <= d * (d - 1)
        assert got == MultiPoly(DUAL_VARS, {
            (a, b, top - a - b): Fraction(int(c.p), int(c.q)) for (a, b), c in want.terms()})
        # Bareiss runs on the rows u where lc(psi) = sum over the y-free terms
        # of c (-u)^(z-exponent) vanishes, and nowhere else
        F = parse_poly(text, PRIMAL_VARS)
        rows = [u for u in range(d * (d - 1) + 1)
                if not sum(c * (-u) ** e[2] for e, c in F.terms.items() if e[1] == 0)]
        assert len(fallbacks) == sum(d * (d - 1) + 1 - u for u in rows)
        if text == LC_VANISHES:
            assert rows == [1]
        if text == "x^4 + y^4 + z^4":
            assert any(abnormal)  # psi = (1 + u^4) x^4 + 1 at v = 0 drops degrees


class TestDualEquation:
    def test_conic_against_inverse_matrix_oracle(self):
        got = dual_equation(curve(CONIC))
        assert got.d_dual == 2
        assert got.D == _quadric_dual_oracle(CONIC)
        # and it is proportional to the textbook answer v^2 - 4 u w
        assert got.D == parse_poly("v^2 - 4*u*w", DUAL_VARS).primitive()

    def test_unit_sphere_conic(self):
        got = dual_equation(curve(SPHERE))
        assert got.D == parse_poly("u^2 + v^2 + w^2", DUAL_VARS)
        assert got.D == _quadric_dual_oracle(SPHERE)

    def test_circle(self):
        assert dual_equation(curve(CIRCLE)).D == _quadric_dual_oracle(CIRCLE)

    def test_cuspidal_cubic_against_gauss_map_oracle(self):
        got = dual_equation(curve(CUSPIDAL))
        assert got.d_dual == 3
        assert got.D == parse_poly("4*u^3 + 27*v^2*w", DUAL_VARS)
        # Gauss-map oracle: the tangent line at [s^2 t : s^3 : t^3] is
        # [-3 s t^2 : 2 t^3 : s^3]; the dual equation must vanish on it
        st = ("s", "t")
        images = {
            "u": parse_poly("-3*s*t^2", st),
            "v": parse_poly("2*t^3", st),
            "w": parse_poly("s^3", st),
        }
        assert got.D.substitute(images).is_zero()

    def test_cusp_strips_ninth_power_of_w(self):
        got = dual_equation(curve(CUSPIDAL))
        stripped = {(f.text(), k) for f, k in got.removed_factors}
        assert stripped == {("w", 9)}

    def test_degree_one_refused(self):
        with pytest.raises(InvalidParams):
            dual_equation(curve("x + y"))

    def test_failed_certificate_refused(self, monkeypatch):
        # once w and the singular lines are stripped, the discriminant of a
        # reduced curve is square-free; were the certificate of the dual
        # PlaneCurve to fail, the dual is refused instead of reduced by a
        # trivariate gcd
        from dualis import curvelab
        nodal = curve(NODAL)
        monkeypatch.setattr(curvelab, "transversal_line", lambda f: None)
        with pytest.raises(InvariantViolation):
            dual_equation(nodal)

    def test_chart_independence_up_to_scalar(self):
        # recompute through a nontrivial frame by feeding the moved curve
        from dualis.elimination import apply_matrix, mat_transpose
        m = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
        for text in (CONIC, CUSPIDAL):
            base = dual_equation(curve(text)).D
            moved = PlaneCurve(apply_matrix(curve(text).F, m))
            moved_dual = dual_equation(moved).D
            pulled = apply_matrix(moved_dual, mat_transpose(m)).primitive()
            assert pulled == base


class TestSliceLineChart:
    """When y = 0 is a component of C, the chart w = 1 would fail, so the
    dual is taken in a chart spanned by the curve's slice line."""

    @pytest.fixture
    def charts(self, monkeypatch):
        """The forms handed to the per-chart step, in order."""
        from dualis import dualgeom

        moved = []
        step = dualgeom._dual_in_chart
        monkeypatch.setattr(dualgeom, "_dual_in_chart", lambda F: moved.append(F) or step(F))
        return moved

    @pytest.mark.parametrize("text, conic", [
        ("x^2*y + y^3 - y*z^2", CIRCLE),                  # y*(x^2 + y^2 - z^2)
        ("x^3*y + x*y^3 - x*y*z^2", CIRCLE),              # x*y*(x^2 + y^2 - z^2)
        ("x^2*y*z - y^2*z^2", "x^2 - y*z"),              # y*z*(x^2 - y*z)
        # y*z*(x - y)*(x + y - z)*(x^2 + x*y + y*z), a conic and four lines
        ("x^4*y*z + x^3*y^2*z - x^3*y*z^2 - x^2*y^3*z + x^2*y^2*z^2 - x*y^4*z"
         " + x*y^3*z^2 - x*y^2*z^3 - y^4*z^2 + y^3*z^3", "x^2 + x*y + y*z"),
    ])
    def test_dual_of_the_conic_component(self, text, conic, charts):
        # the lines have points for duals, so the dual curve is the conic's
        c = curve(text)
        got = dual_equation(c)
        assert got.D == _quadric_dual_oracle(conic)
        assert got.d_dual + sum(f.total_degree() * k for f, k in got.removed_factors) \
            == 2 * c.degree * (c.degree - 1)
        assert len(charts) == 1 and any(e[1] == 0 for e in charts[0].terms)

    def test_given_coordinates_kept_when_a_term_is_free_of_y(self, charts):
        c = curve(CUSPIDAL)
        dual_equation(c)
        assert charts == [c.F]

    @pytest.mark.parametrize("text", [
        "x*y*z",
        "x^3*y - x^2*y^2 + 4*x^2*y*z - 2*x*y^3 + x*y^2*z + 3*x*y*z^2",  # x*y*(x+y+z)*(x-2y+3z)
    ])
    def test_union_of_lines_refused_after_one_chart(self, text, charts):
        with pytest.raises(ChartExhausted):
            dual_equation(curve(text))
        assert len(charts) == 1


class TestDualDegreeOracle:
    def test_conic(self):
        assert dual_degree_oracle(curve(CONIC)) == 2

    def test_nodal_cubic(self):
        assert dual_degree_oracle(curve(NODAL)) == 4

    def test_cuspidal_cubic(self):
        assert dual_degree_oracle(curve(CUSPIDAL)) == 3

    def test_fermat_quartic(self):
        assert dual_degree_oracle(curve(FERMAT4)) == 12

    def test_agreement_with_dual_equation_degree(self):
        for text in DEGREE_LE_3_CORPUS:
            if curve(text).degree < 2:
                continue
            assert dual_equation(curve(text)).d_dual == dual_degree_oracle(curve(text))

    def test_tricuspidal_quartic(self):
        # the classical tricuspidal quartic dualizes back to a cubic
        c = curve("x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x^2*y*z - 2*x*y^2*z - 2*x*y*z^2")
        r = curve_report(c)
        assert (r.d, r.delta, r.kappa) == (4, 0, 3)
        assert dual_degree_oracle(c) == 3

    def test_trinodal_quartic(self):
        # three nodes: d* = 16 - 4 - 6 = 6, counted through the polar
        c = curve("2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2")
        r = curve_report(c)
        assert (r.d, r.delta, r.kappa, r.chi, r.c0m) == (4, 3, 0, -1, 2)
        assert dual_degree_oracle(c) == 6

    @pytest.fixture
    def frames(self, monkeypatch):
        """The pairs whose first accepted frame is searched, in order."""
        from dualis import elimination

        searched = []
        accepted = elimination._accepted_frame

        def counted(F, G, *args, **kwargs):
            searched.append(G)
            return accepted(F, G, *args, **kwargs)
        monkeypatch.setattr(elimination, "_accepted_frame", counted)
        return searched

    def test_oracle_reads_the_analysis_frame(self, frames):
        c = curve(NODAL)
        assert dual_degree_oracle(c) == 4
        assert len(frames) == 2  # the analysis, whose polar is the first witness's, and the check
        frames.clear()
        assert dual_degree_oracle(c) == 4
        assert len(frames) == 1  # the check alone
        frames.clear()
        assert dual_degree_oracle(c, witness=(1, 2, 5)) == 4
        assert len(frames) == 2  # the given witness's own frame and the check

    @pytest.mark.parametrize("witness", [None, (1, 2, 5), (3, 1, 1)])
    def test_oracle_frames_skip_the_coprimality_test(self, witness, monkeypatch):
        # the trinodal quartic's nodes make bases unusable, where a pair not
        # known coprime would be tested on a pencil; F is square-free and
        # each witness is off the curve, so every oracle frame skips that
        from dualis import elimination

        def refused(F, G):
            raise AssertionError("forms_coprime called")
        monkeypatch.setattr(elimination, "forms_coprime", refused)
        c = curve("2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2")
        assert dual_degree_oracle(c, witness=witness) == 6
        with pytest.raises(AssertionError, match="forms_coprime"):
            elimination.distinct_intersection_count(c.F, elimination.polar(c.F, (3, 1, 1)))

    def test_check_witness_is_not_proportional(self, monkeypatch):
        from dualis import elimination

        c = curve(NODAL)
        singular_analysis(c)
        built = []
        polar = elimination.polar
        monkeypatch.setattr(elimination, "polar", lambda F, w: built.append(tuple(w)) or polar(F, w))
        assert dual_degree_oracle(c, witness=(2, 4, 10)) == 4
        assert built == [(2, 4, 10), (3, 7, 2)]

    #: a cubic through all eight points of WITNESS_SEQUENCE; SymPy finds its
    #: partials without a common projective zero, so it is smooth and d* = 6
    THROUGH_WITNESSES = (
        "354952177*x^2*y + 79049985*x^2*z - 843432519*x*y^2 - 1642954125*x*y*z"
        " + 266727114*x*z^2 + 741519044*y^3 - 1130244479*y^2*z + 830201486*y*z^2"
        " - 102459183*z^3")

    def test_curve_through_every_sequence_witness(self):
        from dualis.exact import WITNESS_SEQUENCE

        c = curve(self.THROUGH_WITNESSES)
        assert all(c.contains(w) for w in WITNESS_SEQUENCE)
        assert singular_analysis(c).count == 0
        assert dual_degree_oracle(c) == 6

    def test_curve_through_every_sequence_witness_is_smooth_by_sympy(self):
        sympy = pytest.importorskip("sympy")
        X, Y, Z = sympy.symbols("x y z")
        F = sympy.sympify(self.THROUGH_WITNESSES.replace("^", "**"))
        basis = sympy.groebner([F.diff(v) for v in (X, Y, Z)], X, Y, Z, order="grevlex")
        # a homogeneous ideal with a pure power of each variable among its
        # leading terms has the origin as its only zero
        leads = [sympy.Poly(g, X, Y, Z).monoms(order="grevlex")[0] for g in basis.exprs]
        assert all(any(m[i] and sum(m) == m[i] for m in leads) for i in range(3))

    def test_check_starts_at_the_analysis_frame(self, monkeypatch):
        # the analysis frame (base 9, shear 1) of the trinodal quartic suits
        # the check witness's polar, so a repeated oracle tests one base and
        # one frame, where the schedule alone tests ten bases and two frames
        from dualis import elimination

        c = curve("2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2")
        assert dual_degree_oracle(c) == 6
        calls = []
        for name in ("_base_usable", "_pair_frame_count"):
            step = getattr(elimination, name)
            monkeypatch.setattr(elimination, name,
                                lambda *args, _name=name, _step=step:
                                calls.append(_name) or _step(*args))
        assert dual_degree_oracle(c) == 6
        assert sorted(calls) == ["_base_usable", "_pair_frame_count"]

    def test_witness_given_as_fractions(self):
        assert dual_degree_oracle(curve(NODAL), witness=(Fraction(1, 2), 1, Fraction(5, 2))) == 4

    @pytest.mark.parametrize("witness", [(1, 2), (1.5, 2, 5), ("a", 1, 1), (0, 0, 0)],
                             ids=["two-coordinates", "float", "string", "zero"])
    def test_malformed_witness_refused_before_any_frame(self, witness, monkeypatch):
        from dualis import elimination

        def refused(*args, **kwargs):
            raise AssertionError("a frame was searched")
        monkeypatch.setattr(elimination, "_accepted_frame", refused)
        with pytest.raises(InvalidParams, match="witness"):
            dual_degree_oracle(curve(NODAL), witness=witness)

    def test_witness_on_curve(self):
        with pytest.raises(WitnessOnCurve):
            dual_degree_oracle(curve(CUSPIDAL), witness=(0, 0, 1))

    def test_non_generic_witness_detected(self):
        # (1, 5, 0) lies on the flex tangent z = 0 of the cuspidal cubic,
        # merging two tangency points into one
        with pytest.raises(NonGenericWitness):
            dual_degree_oracle(curve(CUSPIDAL), witness=(1, 5, 0))


class TestBiduality:
    def test_all_degree_le_3_corpus_curves(self):
        for text in DEGREE_LE_3_CORPUS:
            assert biduality_check(curve(text)), text

    def test_guardrail(self):
        with pytest.raises(GuardrailExceeded):
            biduality_check(curve(FERMAT4))


class TestDualCurveReport:
    def test_cuspidal_cubic_is_self_dual_type(self):
        r = dual_curve_report(curve(CUSPIDAL))
        assert (r.d, r.delta, r.kappa) == (3, 0, 1)

    def test_conic(self):
        r = dual_curve_report(curve(CONIC))
        assert (r.d, r.delta, r.kappa) == (2, 0, 0)

    def test_nodal_cubic_refused(self):
        with pytest.raises(GuardrailExceeded):
            dual_curve_report(curve(NODAL))

    def test_rational_flex_nodal_cubic_dual_quartic(self):
        # the dual of the rational-flex nodal cubic is analyzable directly
        eq = dual_equation(curve(NODAL_RF))
        assert eq.d_dual == 4
        r = curve_report(PlaneCurve(eq.D))
        assert (r.d, r.delta, r.kappa, r.g, r.chi, r.c0m) == (4, 0, 3, 0, 2, 5)

    def test_genus_invariance_where_both_reports_run(self):
        from dualis.errors import IrrationalSingularity
        checked = 0
        for text in DEGREE_LE_3_CORPUS:
            c = curve(text)
            if c.degree < 2:
                continue
            eq = dual_equation(c)
            try:
                got = curve_report(PlaneCurve(eq.D))
            except IrrationalSingularity:
                # e.g. the dual of y^2 z = x^2 (x + z) has two complex cusps;
                # its report is legitimately refused
                continue
            assert got.g == curve_report(c).g, text
            checked += 1
        assert checked >= 4


class TestOracleOnSpecialSingularities:
    def test_line_arrangement_has_no_dual_lines(self):
        # six lines, 12 of their 15 crossings irrational: the polar meets the
        # curve only in the crossings, and the dual is six points
        six = ("x^4*y^2 - x^4*y*z - 2*x^3*y^3 + 2*x^3*y^2*z + x^2*y^4 - x^2*y^3*z"
               " - 5*x^2*y^2*z^2 + 5*x^2*y*z^3 + 4*x*y^3*z^2 - 4*x*y^2*z^3"
               " - 2*y^4*z^2 + 2*y^3*z^3 + 6*y^2*z^4 - 6*y*z^5")
        assert dual_degree_oracle(curve(six)) == 0

    def test_three_ordinary_triple_points(self):
        # the polar has a double point at each triple point, so every fibre
        # gcd there has degree 2; 30 - 3*(mu + m - 1) = 30 - 3*6
        c = curve("x^3*y^3 + y^3*z^3 + z^3*x^3")
        assert singular_analysis(c).count == 3
        assert dual_degree_oracle(c) == 12

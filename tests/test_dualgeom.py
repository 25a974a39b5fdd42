"""Dual curves against independent oracles: quadric inversion, Gauss maps, polars."""

import random
from fractions import Fraction
from itertools import product

import pytest

from dualis import dualgeom, exact
from dualis.corpus import build_curve_pair
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
    DegreeGuardrail,
    GuardrailExceeded,
    InvalidParams,
    InvariantViolation,
    IrrationalSingularity,
    NonGenericWitness,
    WitnessOnCurve,
)
from dualis.exact import MultiPoly, UniPolyView, discriminant, parse_poly
from references import sympy_expr

CONIC = "y^2 - x*z"
SPHERE = "x^2 + y^2 + z^2"
CIRCLE = "x^2 + y^2 - z^2"
NODAL = "y^2*z - x^3 - x^2*z"
NODAL_RF = "z^3 - x^2*y - x*y^2 - 3*x*y*z"
CUSPIDAL = "y^2*z - x^3"
FERMAT4 = "x^4 + y^4 + z^4"
TRINODAL = "2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2"
TRICUSPIDAL = "x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x^2*y*z - 2*x*y^2*z - 2*x*y*z^2"
#: the dual of NODAL_RF, a quartic with three rational cusps, in (u, v, w)
TRICUSPIDAL_UVW = "27*u^2*v^2 - 18*u*v*w^2 + 4*u*w^3 + 4*v*w^3 - w^4"
#: a quintic with two conjugate singular points, over (+-sqrt(2) : 0 : 1),
#: and a dual of degree 16
CONJUGATE_QUINTIC = "x^4*z - 4*x^2*z^3 + 4*z^5 + y^5 + y^2*z^3"

DEGREE_LE_3_CORPUS = (CONIC, SPHERE, CIRCLE, NODAL, NODAL_RF, CUSPIDAL)


def curve(text):
    return PlaneCurve.from_text(text)


def test_dual_ring_of_a_foreign_ring_refused():
    # only (x, y, z) and (u, v, w) are dual to each other
    assert dualgeom.dual_ring(PRIMAL_VARS) == DUAL_VARS
    assert dualgeom.dual_ring(DUAL_VARS) == PRIMAL_VARS
    for ring in (("a", "b", "c"), ("y", "x", "z"), ("x", "y", "z", "t")):
        with pytest.raises(InvalidParams, match="no dual coordinates"):
            dualgeom.dual_ring(ring)


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


def _sympy_chart_discriminant(text):
    """SymPy's discriminant in x of the chart form, a polynomial in u and v."""
    sympy = pytest.importorskip("sympy")
    psi = _chart_form(text)
    symbols = sympy.symbols(psi.variables)
    return sympy.Poly(sympy.discriminant(sympy_expr(psi), symbols[0]), *symbols[1:3])


class TestChartDiscriminant:
    """The chart discriminant: the public discriminant refuses the chart
    form, whose coefficients lie in u and v, and the served one
    (`dualgeom._dual_in_chart`) is SymPy's, homogenised in w."""

    @pytest.mark.parametrize("text", ["x^5 + y^4*z + x*y*z^3 + z^5", "x^6 + y^6 + z^6"])
    def test_against_sympy(self, text):
        with pytest.raises(InvalidParams):
            discriminant(UniPolyView(_chart_form(text), "x"))
        want = _sympy_chart_discriminant(text)
        top = want.total_degree()
        got = dualgeom._dual_in_chart(parse_poly(text, PRIMAL_VARS))
        assert top > 0
        assert got == MultiPoly(DUAL_VARS, {
            (a, b, top - a - b): Fraction(int(c.p), int(c.q)) for (a, b), c in want.terms()})

    @pytest.mark.parametrize("text", DEGREE_LE_3_CORPUS)
    def test_stripped_power_of_w(self, text):
        # the discriminant is a form of degree 2d(d-1), so w divides it
        # 2d(d-1) - deg(chart discriminant) times
        d = curve(text).degree
        top = _sympy_chart_discriminant(text).total_degree()
        stripped = dict((f.text(), k) for f, k in dual_equation(curve(text)).removed_factors)
        assert stripped.get("w", 0) == 2 * d * (d - 1) - top


def _seeded_form(rng, d):
    """A seeded form of degree d with a term free of y, some with fractions."""
    monomials = [e for e in product(range(d + 1), repeat=3) if sum(e) == d]
    while True:
        terms = {e: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 1, 2)))
                 for e in rng.sample(monomials, min(d + 2, 5))}
        if any(e[1] == 0 for e in terms):
            return MultiPoly(PRIMAL_VARS, terms)


def _seeded_chart_forms():
    """Seeded forms of degree 2..5 with a term free of y, a form whose
    lc(psi) = 1 - u^2 vanishes at u = 1, sparse forms whose chains drop
    degrees along whole rows, and seeded forms y*g of degree 3..5, g with a
    term free of y, whose lc(psi) vanishes identically."""
    rng = random.Random(20261019)
    forms = [_seeded_form(rng, d).text() for d in (2, 3, 3, 4, 4, 5)]
    y = MultiPoly.var(PRIMAL_VARS, "y")
    return forms + [LC_VANISHES, "x^4 + y^4 + z^4", "x^5 + y^5 + 2*z^5"] + [
        (y * _seeded_form(rng, d)).text() for d in (2, 3, 3, 4)]


#: psi = x^3 - x*(u*x + v)^2 + (u*x + v): lc(psi) = 1 - u^2
LC_VANISHES = "x^3 - x*z^2 - y^2*z"


class TestTriangleDiscriminant:
    """dualgeom._dual_in_chart, by the subresultant chain on the triangle
    u + v <= d(d-1), against SymPy's discriminant of the chart form."""

    @pytest.mark.parametrize("text", _seeded_chart_forms(),
                             ids=lambda text: f"degree{parse_poly(text, PRIMAL_VARS).total_degree()}")
    def test_against_sympy(self, text, monkeypatch):
        sympy = pytest.importorskip("sympy")
        lists, abnormal = [], []
        disc, chain = dualgeom._uni_discriminant, exact._subresultant_chain
        monkeypatch.setattr(dualgeom, "_uni_discriminant", lambda cs: lists.append(cs) or disc(cs))

        def recorded(a, b):
            result = chain(a, b)
            abnormal.append(not all(s[-1] for s in result))
            return result
        monkeypatch.setattr(exact, "_subresultant_chain", recorded)
        psi = _chart_form(text)
        symbols = sympy.symbols(psi.variables)
        expr = sympy.sympify(psi.text().replace("^", "**"),
                             locals=dict(zip(psi.variables, symbols)))
        want = sympy.Poly(sympy.discriminant(expr, symbols[0]), *symbols[1:3])
        F = parse_poly(text, PRIMAL_VARS)
        d = F.total_degree()
        if all(e[1] for e in F.terms):
            # F = y*g: psi has degree d - 1 in x, and Disc(y*g) = c_{d-1}^2 Disc(g)
            c = sympy.Poly(expr, symbols[0]).coeff_monomial(symbols[0] ** (d - 1))
            want = sympy.Poly(c ** 2 * want.as_expr(), *symbols[1:3])
        top = want.total_degree()
        got = dualgeom._dual_in_chart(F)
        assert 0 < top <= d * (d - 1)
        assert got == MultiPoly(DUAL_VARS, {
            (a, b, top - a - b): Fraction(int(c.p), int(c.q)) for (a, b), c in want.terms()})
        # one list per triangle point; psi has a root at infinity on the rows
        # u where lc(psi) = sum over the y-free terms of c (-u)^(z-exponent)
        # vanishes, and nowhere else
        rows = [u for u in range(d * (d - 1) + 1)
                if not sum(c * (-u) ** e[2] for e, c in F.terms.items() if e[1] == 0)]
        assert len(lists) == (d * (d - 1) + 1) * (d * (d - 1) + 2) // 2
        assert len([cs for cs in lists if not cs[-1]]) == sum(d * (d - 1) + 1 - u for u in rows)
        if text == LC_VANISHES:
            assert rows == [1]
        if all(e[1] for e in F.terms):
            assert all(cs[-1] == 0 for cs in lists)
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
        from dualis.elimination import apply_matrix
        m = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
        transpose = tuple(zip(*m))
        for text in (CONIC, CUSPIDAL):
            base = dual_equation(curve(text)).D
            moved = PlaneCurve(apply_matrix(curve(text).F, m))
            moved_dual = dual_equation(moved).D
            pulled = apply_matrix(moved_dual, transpose).primitive()
            assert pulled == base


class TestSliceLineChart:
    """Curves with the line y = 0 as a component need no chart spanned by
    the slice line: like every curve, they are dualised on the chart w = 1
    of their own coordinates."""

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
        assert charts == [c.F]

    def test_given_coordinates_kept_when_a_term_is_free_of_y(self, charts):
        c = curve(CUSPIDAL)
        dual_equation(c)
        assert charts == [c.F]

    @pytest.mark.parametrize("text", [
        "x*y*z",
        "x^3*y - x^2*y^2 + 4*x^2*y*z - 2*x*y^3 + x*y^2*z + 3*x*y*z^2",  # x*y*(x+y+z)*(x-2y+3z)
    ])
    def test_union_of_lines_refused_after_one_chart(self, text, charts):
        c = curve(text)
        with pytest.raises(ChartExhausted):
            dual_equation(c)
        assert charts == [c.F]


class TestDualDegreeOracle:
    def test_conic(self):
        assert dual_degree_oracle(curve(CONIC)) == 2

    def test_line_refused(self):
        # the dual of a line is a point, which has no degree as a curve
        with pytest.raises(InvalidParams, match="degree >= 2"):
            dual_degree_oracle(curve("x + 2*y + 5*z"))

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
        polar = sum((c.F.derivative(v) * k for v, k in zip("xyz", (3, 1, 1))),
                    MultiPoly.zero(c.F.variables))
        with pytest.raises(AssertionError, match="forms_coprime"):
            elimination.distinct_intersection_count(c.F, polar)

    def test_check_witness_is_not_proportional(self, monkeypatch):
        from dualis import elimination

        c = curve(NODAL)
        singular_analysis(c)
        built = []
        search = elimination._accepted_frame
        monkeypatch.setattr(elimination, "_accepted_frame",
                            lambda F, w, hint=None: built.append(w) or search(F, w, hint))
        # the given witness enters scaled to its primitive integer vector
        assert dual_degree_oracle(c, witness=(2, 4, 10)) == 4
        assert built == [(1, 2, 5), (3, 7, 2)]

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
        # the analysis frame (the base of the line x + y + z = 0, shear 1) of
        # the trinodal quartic suits the check witness's polar, so a repeated
        # oracle tests one base and one frame, where the schedule alone
        # reaches five bases, tests two and builds two frames
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

    @pytest.mark.parametrize("text", [TRINODAL, TRICUSPIDAL], ids=["trinodal", "tricuspidal"])
    def test_repeated_oracle_expands_nothing(self, text, monkeypatch):
        # the check frame starts from the analysis frame's moved F and takes
        # its polar there, so a repeated oracle moves no form, and tests one
        # base and one frame
        from dualis import elimination

        c = curve(text)
        want = dual_degree_oracle(c)
        calls = []
        expand = exact._expand
        for module in (exact, elimination, dualgeom):
            monkeypatch.setattr(module, "_expand",
                                lambda *args: calls.append("_expand") or expand(*args))
        for name in ("_base_usable", "_pair_frame_count"):
            step = getattr(elimination, name)
            monkeypatch.setattr(elimination, name,
                                lambda *args, _name=name, _step=step:
                                calls.append(_name) or _step(*args))
        assert dual_degree_oracle(c) == want
        assert sorted(calls) == ["_base_usable", "_pair_frame_count"]
        # a fresh curve's analysis moves F, and the counter sees it
        assert dual_degree_oracle(curve(text)) == want and "_expand" in calls

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
        # merging two tangency points into one; the message names the
        # witness as the primitive integer point the frame search took
        for witness in ((1, 5, 0), (Fraction(1, 2), Fraction(5, 2), 0)):
            with pytest.raises(NonGenericWitness, match=r"witnesses \(1, 5, 0\) and"):
                dual_degree_oracle(curve(CUSPIDAL), witness=witness)


def _unimodular(rng):
    """A seeded signed permutation times unit triangular factors with
    off-diagonal entries +-1: an integer matrix of determinant +-1."""
    from dualis.elimination import mat_mul

    def sign():
        return rng.choice((-1, 1))
    perm = rng.sample(range(3), 3)
    swap = tuple(tuple(sign() if j == perm[i] else 0 for j in range(3)) for i in range(3))
    lower = ((1, 0, 0), (sign(), 1, 0), (sign(), sign(), 1))
    upper = ((1, sign(), sign()), (0, 1, sign()), (0, 0, 1))
    return mat_mul(swap, mat_mul(lower, upper))


class TestOracleOnGenericCopies:
    """The oracle's d* against the Plucker class d(d-1) - 2*delta - 3*kappa
    on copies G(v) = F(M v), M of determinant +-1: the check frame starts
    from the analysis frame's moved G, suited or not."""

    @pytest.mark.parametrize("text, d, delta, kappa", [
        (NODAL, 3, 1, 0), (CUSPIDAL, 3, 0, 1), (TRINODAL, 4, 3, 0),
        (TRICUSPIDAL, 4, 0, 3), (FERMAT4, 4, 0, 0),
    ], ids=["nodal-cubic", "cuspidal-cubic", "trinodal", "tricuspidal", "fermat-quartic"])
    def test_seeded_copies(self, text, d, delta, kappa):
        from dualis.elimination import apply_matrix

        want = d * (d - 1) - 2 * delta - 3 * kappa
        rng = random.Random(text)
        for _ in range(3):
            m = _unimodular(rng)
            c = PlaneCurve(apply_matrix(curve(text).F, m))
            # the first call analyses the copy, the second reads that analysis
            assert dual_degree_oracle(c) == dual_degree_oracle(c) == want, m

    def test_rejected_hint_and_fraction_witness(self, monkeypatch):
        # the analysis frame of this copy, the identity at shear 1, does not
        # suit the check witness's polar: the schedule follows, and does not
        # try that frame again; at shear 0 a y-leading coefficient vanishes,
        # so that frame is skipped before it is built
        from dualis import elimination
        from dualis.elimination import _IDENT, apply_matrix

        m = ((1, 0, -2), (-1, 1, 1), (1, 0, -1))
        c = PlaneCurve(apply_matrix(curve(NODAL).F, m))
        assert dual_degree_oracle(c) == 4
        frames = []
        step = elimination._pair_frame_count

        def recorded(Fm, Gm, base, t):
            frame = step(Fm, Gm, base, t)
            frames.append((base, t, frame is not None))
            return frame
        monkeypatch.setattr(elimination, "_pair_frame_count", recorded)
        assert dual_degree_oracle(c) == 4
        assert frames == [(_IDENT, 1, False), (_IDENT, 2, True)]
        # a Fraction witness enters as its primitive integer vector
        assert dual_degree_oracle(c, witness=(Fraction(1, 2), 1, Fraction(5, 3))) == 4
        assert dual_degree_oracle(c, witness=(3, 6, 10)) == 4


class TestBiduality:
    def test_all_degree_le_3_corpus_curves(self):
        for text in DEGREE_LE_3_CORPUS:
            assert biduality_check(curve(text)), text

    def test_guardrail(self):
        with pytest.raises(GuardrailExceeded):
            biduality_check(curve(FERMAT4))

    @pytest.mark.parametrize("poly, variables, oracle_degrees", [
        # d* = 3: the bidual equation is computed outright
        (TRICUSPIDAL_UVW, DUAL_VARS, [4]),
        # d* = 6, three nodes: the polar oracle counts the bidual's degree
        ("x^2*y^2 + y^2*z^2 + z^2*x^2", PRIMAL_VARS, [4, 6]),
    ], ids=["direct", "oracle"])
    def test_source_past_degree_3(self, poly, variables, oracle_degrees, monkeypatch):
        # the oracle certifies the source's dual degree (d(d-1) = 12 > 8),
        # and counts the bidual's only above the direct bidual's cap
        degrees = []
        oracle = dualgeom.dual_degree_oracle
        monkeypatch.setattr(dualgeom, "dual_degree_oracle",
                            lambda c: degrees.append(c.degree) or oracle(c))
        assert biduality_check(PlaneCurve.from_text(poly, variables))
        assert degrees == oracle_degrees


class TestDualCurveReport:
    def test_cuspidal_cubic_is_self_dual_type(self):
        r = dual_curve_report(curve(CUSPIDAL))
        assert (r.d, r.delta, r.kappa) == (3, 0, 1)

    def test_conic(self):
        r = dual_curve_report(curve(CONIC))
        assert (r.d, r.delta, r.kappa) == (2, 0, 0)

    def test_nodal_cubic_refused(self):
        # the dual quartic has three cusps, and only one of them is rational
        with pytest.raises(IrrationalSingularity, match="1 rational singular points"
                                                       " but the certified count is 3"):
            dual_curve_report(curve(NODAL))

    def test_rational_flex_nodal_cubic(self):
        # a dual of degree 4: the tricuspidal quartic
        r = dual_curve_report(curve(NODAL_RF))
        assert (r.d, r.delta, r.kappa, r.g, r.chi, r.c0m) == (4, 0, 3, 0, 2, 5)

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


def _generic_curve(d, seed):
    """A seeded curve of degree d, each coefficient drawn from -5..5."""
    rng = random.Random(seed)
    terms = {(i, j, d - i - j): rng.randint(-5, 5) for i in range(d + 1) for j in range(d + 1 - i)}
    return PlaneCurve(MultiPoly(PRIMAL_VARS, {e: c for e, c in terms.items() if c}))


class TestDualDegreeCheck:
    """Each entry point that takes a dual checks its degree once, after the
    curve's singular analysis and before the chart."""

    @pytest.fixture
    def charts(self, monkeypatch):
        """The forms handed to the chart discriminant, in order."""
        seen = []
        step = dualgeom._dual_in_chart
        monkeypatch.setattr(dualgeom, "_dual_in_chart", lambda F: seen.append(F) or step(F))
        return seen

    @pytest.mark.parametrize("d", [9, 10])
    def test_generic_curves_refused_before_the_chart(self, d, charts):
        # a dual of degree d(d-1) = 72 or 90 needs Sylvester matrices past
        # 64 rows
        with pytest.raises(DegreeGuardrail, match=f"dual degree {d * (d - 1)} exceeds the cap 63"):
            dual_equation(_generic_curve(d, d))
        assert charts == []

    @pytest.mark.parametrize("entry", [
        lambda c: build_curve_pair(c, curve("x + 2*y + 5*z")),
        dual_curve_report,
        biduality_check,
    ], ids=["build_curve_pair", "dual_curve_report", "biduality_check"])
    def test_fermat_quartic_refused_before_the_chart(self, entry, charts):
        with pytest.raises(GuardrailExceeded, match="dual degree 12 exceeds the cap 8"):
            entry(curve(FERMAT4))
        assert charts == []

    @pytest.mark.parametrize("entry", [dual_equation, dual_curve_report, biduality_check])
    def test_irrational_singularity_comes_first(self, entry, charts):
        # the dual has degree 16, past the dual-degree cap of the report
        # and of the biduality check, yet the singular points refuse first
        with pytest.raises(IrrationalSingularity):
            entry(curve(CONJUGATE_QUINTIC))
        assert charts == []

    def test_free_bound_needs_no_oracle(self, charts, monkeypatch):
        # d(d-1) fits every cap here, so no polar count runs: 12 <= 63 for
        # the Fermat quartic's dual equation, 6 <= 8 for a cubic
        def oracle(c):
            raise AssertionError("the oracle ran")
        monkeypatch.setattr(dualgeom, "dual_degree_oracle", oracle)
        assert dual_equation(curve(FERMAT4)).d_dual == 12
        assert dual_curve_report(curve(CUSPIDAL)).kappa == 1
        assert biduality_check(curve(CUSPIDAL))
        build_curve_pair(curve(CIRCLE), curve(CUSPIDAL))
        assert len(charts) == 6


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

"""Projective dual curves from first principles.

The dual of a plane curve C = V(F) of degree d is the closure of its
tangent lines in the dual plane.  It is computed by elimination: a line
with coordinates (u, v, w), w != 0, meets the curve where the binary form

    phi(x, y) = F(x*w, y*w, -(u*x + v*y))

vanishes, so the lines meeting C with a repeated contact are cut out by the
discriminant of phi(x, 1) in x, a form of degree 2d(d-1) in (u, v, w).  It
is computed on the chart w = 1, with two free variables, and homogenised
back.  It also picks up extraneous components with known provenance, which
are stripped in a fixed order:

    1. all powers of w (lines through the chart's center of projection):
       2d(d-1) minus the degree of the chart discriminant, which is
       homogenised to its own degree,
    2. for every singular point s of C, all powers of the dual line
       s0*u + s1*v + s2*w (every line through a singular point meets C
       doubly there).

What remains is square-free: in characteristic 0 distinct components of C
have distinct duals, and the discriminant vanishes to order one along the
dual of each: moving a line that is simply tangent at a point r off r
changes phi at the double root to first order.  ``exact.is_squarefree`` certifies this on a pencil of lines, and a
remainder that fails the certificate is refused with InvariantViolation.

If the chart is degenerate for the given curve (e.g. the curve passes
through a coordinate point in a way that kills the leading coefficient), a
deterministic schedule of rational coordinate changes is applied until the
chart is valid; the result is mapped back through the transposed matrix, so
the reported equation always lives in the original dual coordinates.

The module also provides an independent degree count through polar curves
(no discriminants involved), a biduality check, and dual-curve reports.
The polar count reads the curve's singular analysis, whose frame already
counts the points of F and the polar of its first witness, so only the
check at a second witness needs a frame of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import curvelab, elimination
from .curvelab import DUAL_VARS, PRIMAL_VARS, PlaneCurve
from .errors import (
    ChartExhausted,
    GuardrailExceeded,
    InvalidParams,
    InvariantViolation,
    NonGenericWitness,
    WitnessOnCurve,
)
from .exact import (  # WITNESS_SEQUENCE is re-exported for callers
    WITNESS_SEQUENCE,
    MultiPoly,
    UniPolyView,
    discriminant,
    is_squarefree,
    try_exact_div,
    witnesses,
)

#: schedule of rational coordinate changes for degenerate charts
_CHART_SCHEDULE = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 0), (1, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 1, 1)),
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 1)),
    ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 1), (1, 0, 1)),
)


def dual_ring(variables) -> tuple:
    if tuple(variables) == PRIMAL_VARS:
        return DUAL_VARS
    if tuple(variables) == DUAL_VARS:
        return PRIMAL_VARS
    raise InvalidParams(f"no dual coordinates fixed for ring {variables}")


@dataclass(frozen=True)
class DualCurve:
    D: MultiPoly
    d_dual: int
    removed_factors: tuple  # ((MultiPoly, int), ...)


def _adjugate(m) -> tuple:
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def _strip_all(poly: MultiPoly, factor: MultiPoly):
    k = 0
    while True:
        q = try_exact_div(poly, factor)
        if q is None:
            return poly, k
        poly = q
        k += 1


def _dual_in_chart(F: MultiPoly, sing_points) -> tuple | None:
    """Dual equation of V(F) from the chart w = 1, or None when the chart is degenerate."""
    src = F.variables
    d = F.total_degree()
    dst = dual_ring(src)
    ring = src[:1] + dst
    x = MultiPoly.var(ring, src[0])
    psi = F.substitute({
        src[0]: x,
        src[1]: MultiPoly.const(ring, 1),
        src[2]: -(MultiPoly.var(ring, dst[0]) * x + MultiPoly.var(ring, dst[1])),
    })
    if psi.degree_in(src[0]) != d:
        return None  # the x^d coefficient F(1, 0, -u) vanished: y divides F
    disc = discriminant(UniPolyView(psi, src[0]))
    if disc.is_zero():
        return None
    # restore w to the chart discriminant's own degree: the discriminant is a
    # form of degree 2d(d-1), so the rest of that degree is a power of w
    top = disc.total_degree()
    disc = MultiPoly(dst, {(a, b, top - a - b): c for (_, a, b, _), c in disc.terms.items()})

    removed = []
    if top < 2 * d * (d - 1):
        removed.append((MultiPoly.var(dst, dst[2]), 2 * d * (d - 1) - top))
    for s in sing_points:
        line = (
            MultiPoly.var(dst, dst[0]) * s[0]
            + MultiPoly.var(dst, dst[1]) * s[1]
            + MultiPoly.var(dst, dst[2]) * s[2]
        )
        disc, k = _strip_all(disc, line)
        if k:
            removed.append((line, k))
    if disc.is_constant():
        return None
    if not is_squarefree(disc):
        # distinct components have distinct duals, and the discriminant is
        # reduced along the dual of each, so only the stripped factors repeat
        raise InvariantViolation("the stripped discriminant is not square-free")
    return disc.primitive(), removed


def dual_equation(curve: PlaneCurve) -> DualCurve:
    """Equation of the projective dual curve, by discriminant elimination.

    Requires degree >= 2 (the dual of a line is a point, not a curve) and
    rational singular points; the curve is assumed irreducible, which this
    package does not verify (factorization is out of scope).
    """
    if curve.degree < 2:
        raise InvalidParams("dual_equation needs a curve of degree >= 2")
    src = curve.variables
    dst = dual_ring(src)
    sing = [s.point for s in curvelab.singular_points(curve)]
    for matrix in _CHART_SCHEDULE:
        # an invertible linear change keeps F square-free: no new PlaneCurve
        moved = elimination.apply_matrix(curve.F, matrix)
        adj = _adjugate(matrix)
        moved_sing = [
            elimination.normalize_point([
                Fraction(sum(adj[i][j] * p[j] for j in range(3))) for i in range(3)
            ])
            for p in sing
        ]
        got = _dual_in_chart(moved, moved_sing)
        if got is None:
            continue
        d_moved, removed_moved = got
        back = elimination.mat_transpose(matrix)
        D = elimination.apply_matrix(d_moved, back).primitive()
        removed = tuple(
            (elimination.apply_matrix(f, back).primitive(), k)
            for f, k in removed_moved
        )
        if D.is_constant() or not D.is_homogeneous():
            continue
        return DualCurve(D=D, d_dual=D.total_degree(), removed_factors=removed)
    raise ChartExhausted("no coordinate change in the schedule validates the chart")


def _proportional(p, q) -> bool:
    return p[0] * q[1] == p[1] * q[0] and p[0] * q[2] == p[2] * q[0] and p[1] * q[2] == p[2] * q[1]


def dual_degree_oracle(curve: PlaneCurve, witness=None) -> int:
    """Degree of the dual curve, counted through a polar intersection.

    The polar of a generic point meets the curve in the tangency points of
    the tangent lines through that point, plus every singular point; the
    certified distinct count minus the certified singular count is the dual
    degree.  Without a witness, the witness and its count are read from the
    curve's singular analysis, which counts in the frame of F and that very
    polar.  The count is recomputed at the first point of `witnesses` not
    proportional to the witness, and a mismatch raises NonGenericWitness.
    """
    if curve.degree < 2:
        raise InvalidParams("dual degree oracle needs a curve of degree >= 2")
    singular_count, _, w, count = curvelab.singular_analysis(curve)
    if witness is not None:
        if curve.contains(witness):
            raise WitnessOnCurve(f"witness {witness} lies on the curve")
        w = witness
        count = elimination.distinct_intersection_count(curve.F, elimination.polar(curve.F, w))
    second = next(p for p in witnesses([curve.F]) if not _proportional(p, w))
    check = elimination.distinct_intersection_count(curve.F, elimination.polar(curve.F, second))
    if count != check:
        raise NonGenericWitness(
            f"witnesses {w} and {second} disagree: "
            f"{count - singular_count} vs {check - singular_count}"
        )
    return count - singular_count


def biduality_check(curve: PlaneCurve) -> bool:
    """Does dualizing twice return the original curve?

    For dual degree <= 3 the bidual equation is computed outright and tested
    for proportionality with F.  A higher-degree dual exceeds the bidual
    guardrail, so the check falls back to the polar oracle: the dual of the
    dual curve must have the original degree.
    """
    if curve.degree > 3:
        raise GuardrailExceeded("biduality guardrail: source degree must be <= 3")
    first = dual_equation(curve)
    dual_curve = PlaneCurve(first.D)
    if first.d_dual <= 3:
        second = dual_equation(dual_curve)
        return second.D.primitive() == curve.F.primitive()
    return dual_degree_oracle(dual_curve) == curve.degree


def dual_curve_report(curve: PlaneCurve) -> curvelab.CurveReport:
    """Full curve report of the dual curve.

    Guardrail: refused when the dual has degree > 3 (its singular analysis
    exceeds desk scale; package-level formulas cover those cases).
    """
    first = dual_equation(curve)
    if first.d_dual > 3:
        raise GuardrailExceeded(
            f"dual degree {first.d_dual} exceeds the report guardrail"
        )
    return curvelab.curve_report(PlaneCurve(first.D))

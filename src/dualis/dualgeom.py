"""Projective dual curves from first principles.

The dual of a plane curve C = V(F) of degree d is the closure of its
tangent lines in the dual plane.  It is computed by elimination: a line
with coordinates (u, v, w), w != 0, meets the curve where the binary form

    phi(x, y) = F(x*w, y*w, -(u*x + v*y))

vanishes, so the lines meeting C with a repeated contact are cut out by the
discriminant of phi(x, 1) in x, a form of degree 2d(d-1) in (u, v, w).  It
is computed on the chart w = 1, with two free variables, from its values
on the triangle u + v <= d(d-1) (`_dual_in_chart`, one subresultant chain
per point), and homogenised back.  It also picks up extraneous components
with known provenance, which are stripped in a fixed order:

    1. the lines through the chart's centre of projection, w = 0, to the
       power 2d(d-1) minus the degree of the chart discriminant, which is
       homogenised to its own degree,
    2. for every singular point s of C, all powers of the dual line
       s0*u + s1*v + s2*w (every line through a singular point meets C
       doubly there).

What remains is square-free: in characteristic 0 distinct components of C
have distinct duals, and the discriminant vanishes to order one along the
dual of each: moving a line that is simply tangent at a point r off r
changes phi at the double root to first order.  The square-free
certificate of the dual `PlaneCurve`, built once from the remainder,
checks this, and a remainder that fails it is refused with
InvariantViolation.

The chart w = 1 fails only when y divides F, that is, when the line y = 0
is a component of C.  So the given coordinates are kept when some term of
F is free of y, and otherwise the curve is moved by a matrix M whose first
and third columns span the curve's slice line (which meets C in d distinct
points, so it is never a component).  The chart discriminant is mapped back
by M^T before anything is stripped, so the stripped factors are the dual
lines of the chart's centre M*(0, 0, 1) (w itself for the given
coordinates) and of the singular points, in the curve's own coordinates.
A curve with no component other than lines leaves a constant, and no chart
changes that, so it is refused with ChartExhausted.

The module also provides an independent degree count through polar curves
(no discriminants involved), a biduality check, and dual-curve reports.
The polar count reads the curve's singular analysis, a
`elimination.SingularLocus` record: its frame already counts the points of
F and the polar of its witness, and its singular parts give the singular
count, so only the check at a second witness needs a frame of its own,
and its search starts at the base and shear of the analysis frame.
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
    ReducibleCurve,
    WitnessOnCurve,
)
from .exact import (  # WITNESS_SEQUENCE is re-exported for callers
    WITNESS_SEQUENCE,
    MultiPoly,
    _derivative,
    _differences,
    _discriminant_matrix,
    _from_differences,
    _int_bareiss_determinant,
    _integer_terms,
    _interpolate,
    _subresultant_chain,
    try_exact_div,
    witnesses,
)


def dual_ring(variables) -> tuple:
    if tuple(variables) == PRIMAL_VARS:
        return DUAL_VARS
    if tuple(variables) == DUAL_VARS:
        return PRIMAL_VARS
    raise InvalidParams(f"no dual coordinates fixed for ring {variables}")


@dataclass(frozen=True)
class DualCurve:
    """The dual `PlaneCurve` and the factors stripped from the discriminant."""

    curve: PlaneCurve
    removed_factors: tuple  # ((MultiPoly, int), ...)
    D = property(lambda self: self.curve.F)
    d_dual = property(lambda self: self.curve.degree)


def _strip_all(poly: MultiPoly, factor: MultiPoly):
    k = 0
    while True:
        q = try_exact_div(poly, factor)
        if q is None:
            return poly, k
        poly = q
        k += 1


def _dual_in_chart(F: MultiPoly) -> MultiPoly:
    """Discriminant of V(F) on the chart w = 1, homogenised to its own degree.

    Needs a term of F free of y, so that psi(x) = F(x, 1, -(u*x + v))
    keeps degree d in x.  The chart discriminant Delta(u, v) = disc_x psi
    has total degree at most D = d(d-1): psi is F(s*P + t*Q) at t = 1 for
    P = (1, 0, -u) and Q = (0, 1, -v).  The discriminant of a binary form
    of degree d is an SL_2-invariant of degree 2(d-1) in its coefficients
    and weight d(d-1) (Gelfand, Kapranov & Zelevinsky, Discriminants,
    Resultants and Multidimensional Determinants, 1994), so disc F(sP + tQ)
    is bihomogeneous of degree d(d-1) in P and in Q and unchanged when
    SL_2 moves (P, Q); by the first fundamental theorem for SL_2 it is a
    form of degree d(d-1) in the Plucker coordinates P x Q = (u, v, 1).

    So Delta is fixed by its values on the triangle u, v >= 0, u + v <= D.
    At each point psi's d+1 coefficient polynomials, taken over the
    integers, give an integer list, and Delta there is
    (-1)^(d(d-1)/2) Res(psi, psi') / lc(psi), read from the subresultant
    chain; where lc(psi) vanishes it is the determinant of the modified
    Sylvester matrix, by Bareiss.  Newton's form on the triangle,
    sum_{i+j<=D} Delta_u^i Delta_v^j Delta(0, 0) C(u, i) C(v, j), reads
    only those values: forward differences in v along each row give
    g_j(u) = Delta_v^j Delta(u, 0), of degree at most D - j, which
    `_interpolate` rebuilds from u = 0..D-j; the coefficient of u^i is
    then a polynomial in v given by its forward differences.
    """
    src = F.variables
    dst = dual_ring(src)
    ring = src[:1] + dst
    x = MultiPoly.var(ring, src[0])
    psi = F.substitute({
        src[0]: x,
        src[1]: MultiPoly.const(ring, 1),
        src[2]: -(MultiPoly.var(ring, dst[0]) * x + MultiPoly.var(ring, dst[1])),
    })
    d = F.total_degree()
    D = d * (d - 1)
    den, terms = _integer_terms(psi)
    parts = [[] for _ in range(d + 1)]    # per power of x: its terms (a, b, c), c u^a v^b
    for (i, a, b, _), c in terms.items():
        parts[i].append((a, b, c))
    sign = -1 if D // 2 % 2 else 1
    heads = []                            # per u: the forward differences in v of Delta(u, v)
    for u in range(D + 1):
        in_v = [[0] * (d + 1) for _ in range(d + 1)]   # psi's coefficients at u, as lists in v
        for cs, part in zip(in_v, parts):
            for a, b, c in part:
                cs[b] += c * u ** a
        values = []
        for v in range(D + 1 - u):
            cs = [elimination._at(c, v) for c in in_v]
            values.append(sign * (_subresultant_chain(cs, _derivative(cs))[0][0] // cs[-1] if cs[-1]
                                  else _int_bareiss_determinant(_discriminant_matrix(cs, 1))))
        heads.append(_differences(values))
    along_u = [_interpolate([row[j] for row in heads[:D + 1 - j]]) for j in range(D + 1)]
    scale = den ** (2 * d - 2)
    coeffs = {(i, k): Fraction(c, scale) for i in range(D + 1)
              for k, c in enumerate(_from_differences([g[i] for g in along_u[:D + 1 - i]])) if c}
    # restore w to the chart discriminant's own degree: the discriminant is a
    # form of degree 2d(d-1), so the rest of that degree is a power of w
    top = max((i + k for i, k in coeffs), default=0)
    return MultiPoly(dst, {(i, k, top - i - k): c for (i, k), c in coeffs.items()})


def _dual_line(ring, point) -> MultiPoly:
    """The line of the dual plane made of the lines through `point`."""
    return MultiPoly(ring, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), point))).primitive()


def dual_equation(curve: PlaneCurve) -> DualCurve:
    """Equation of the projective dual curve, by discriminant elimination.

    Requires degree >= 2 (the dual of a line is a point, not a curve) and
    rational singular points; the curve is assumed irreducible, which this
    package does not verify (factorization is out of scope).  A union of
    lines is refused with ChartExhausted.
    """
    if curve.degree < 2:
        raise InvalidParams("dual_equation needs a curve of degree >= 2")
    d = curve.degree
    dst = dual_ring(curve.variables)
    sing = curvelab.singular_points(curve)
    if any(e[1] == 0 for e in curve.F.terms):
        disc, centre = _dual_in_chart(curve.F), (0, 0, 1)
    else:
        # y = 0 is a component: move the slice line to it
        p, centre = curvelab._line_basis(curve.slice_line)
        off = next(i for i, c in enumerate(curve.slice_line) if c)
        chart = tuple((p[i], int(i == off), centre[i]) for i in range(3))
        disc = _dual_in_chart(elimination.apply_matrix(curve.F, chart))
        disc = elimination.apply_matrix(disc, elimination.mat_transpose(chart))
    removed = []
    if disc.total_degree() < 2 * d * (d - 1):
        removed.append((_dual_line(dst, centre), 2 * d * (d - 1) - disc.total_degree()))
    for s in sing:
        line = _dual_line(dst, s.point)
        disc, k = _strip_all(disc, line)
        if k:
            removed.append((line, k))
    if disc.is_constant():
        raise ChartExhausted("the curve is a union of lines, whose dual is a finite set of points")
    try:
        dual = PlaneCurve(disc.primitive())
    except ReducibleCurve:
        # distinct components have distinct duals, and the discriminant is
        # reduced along the dual of each, so only the stripped factors repeat
        raise InvariantViolation("the stripped discriminant is not square-free") from None
    return DualCurve(curve=dual, removed_factors=tuple(removed))


def _proportional(p, q) -> bool:
    return p[0] * q[1] == p[1] * q[0] and p[0] * q[2] == p[2] * q[0] and p[1] * q[2] == p[2] * q[1]


def _checked_witness(witness) -> tuple:
    """The witness as a tuple, refused unless it is a projective point:
    three ints or Fractions, not all zero."""
    coords = tuple(witness) if isinstance(witness, (tuple, list)) else ()
    if len(coords) != 3 or not all(isinstance(c, (int, Fraction)) and not isinstance(c, bool)
                                   for c in coords):
        raise InvalidParams(f"witness {witness!r} is not three ints or Fractions")
    if not any(coords):
        raise InvalidParams("witness (0, 0, 0) is not a projective point")
    return coords


def dual_degree_oracle(curve: PlaneCurve, witness=None) -> int:
    """Degree of the dual curve, counted through a polar intersection.

    The polar of a generic point meets the curve in the tangency points of
    the tangent lines through that point, plus every singular point; the
    certified distinct count minus the certified singular count is the dual
    degree.  Without a witness, the witness and its count are read from the
    curve's singular analysis, which counts in the frame of F and that very
    polar.  The count is recomputed at the first point of `witnesses` not
    proportional to the witness, and a mismatch raises NonGenericWitness.
    F is square-free and each witness lies off the curve, so each frame
    is certified without a coprimality test (`elimination._witness_frame`).
    Each frame search starts at the base and shear of the analysis frame,
    which usually suit a second polar too; the full schedule follows.
    A given witness must be three ints or Fractions, not all zero.
    """
    if curve.degree < 2:
        raise InvalidParams("dual degree oracle needs a curve of degree >= 2")
    if witness is not None:
        witness = _checked_witness(witness)
    locus = curvelab.singular_analysis(curve)
    hint = (locus.frame.base, locus.frame.shear)
    w, count = locus.witness, locus.polar_count
    if witness is not None:
        if curve.contains(witness):
            raise WitnessOnCurve(f"witness {witness} lies on the curve")
        w = witness
        count = elimination._witness_frame(curve.F, w, hint).count()
    second = next(p for p in witnesses([curve.F]) if not _proportional(p, w))
    check = elimination._witness_frame(curve.F, second, hint).count()
    if count != check:
        raise NonGenericWitness(
            f"witnesses {w} and {second} disagree: "
            f"{count - locus.count} vs {check - locus.count}"
        )
    return count - locus.count


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
    if first.d_dual <= 3:
        second = dual_equation(first.curve)
        return second.D.primitive() == curve.F.primitive()
    return dual_degree_oracle(first.curve) == curve.degree


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
    return curvelab.curve_report(first.curve)

"""Projective dual curves from first principles.

The dual of a plane curve C = V(F) of degree d is the closure of its
tangent lines in the dual plane.  It is computed by elimination: a line
with coordinates (u, v, w), w != 0, meets the curve where the binary form

    phi(x, y) = F(x*w, y*w, -(u*x + v*y))

vanishes, so the lines meeting C with a repeated contact are cut out by the
discriminant of phi(x, 1) in x, a form of degree 2d(d-1) in (u, v, w).  It
is computed on the chart w = 1, with two free variables, from its values
on the triangle u + v <= d(d-1) (`_dual_in_chart`, one discriminant of an
integer list per point, read from its subresultant chain), and
homogenised back.  It also picks up extraneous components with known
provenance, which are stripped in a fixed order:

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

The chart w = 1 of the curve's own coordinates serves every square-free F,
a component y = 0 included: the discriminant is a form in (u, v, 1)
whatever F is, and where y divides F, psi's root at infinity is read with
the rest (`_dual_in_chart`).  A curve with no component other than lines
leaves a constant, so it is refused with ChartExhausted.

The module also provides an independent degree count through polar curves
(no discriminants involved), a biduality check, and dual-curve reports.
Each entry point that takes a dual checks its degree once, after the
curve's singular analysis and before the chart (`_check_dual_degree`),
against a cap from the table in `exact`: d(d-1) bounds the dual degree
for free, and the polar count certifies it when the bound is too high.
The polar count reads the curve's singular analysis, a
`elimination.SingularLocus` record: its frame already counts the points of
F and the polar of its witness, and its singular parts give the singular
count, so only the check at a second witness needs a frame of its own,
and its search starts at the analysis frame, from the moved F it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import curvelab, elimination
from .curvelab import DUAL_VARS, PRIMAL_VARS, PlaneCurve
from .errors import (
    ChartExhausted,
    DegreeGuardrail,
    GuardrailExceeded,
    InvalidParams,
    InvariantViolation,
    NonGenericWitness,
    ReducibleCurve,
    WitnessOnCurve,
)
from .exact import (  # WITNESS_SEQUENCE is re-exported for callers
    BIDUAL_DEGREE_CAP,
    DUAL_DEGREE_CAP,
    SYLVESTER_LIMIT,
    WITNESS_SEQUENCE,
    MultiPoly,
    _at,
    _differences,
    _expand,
    _from_differences,
    _integer_terms,
    _interpolate,
    _primitive_ints,
    _uni_discriminant,
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

    psi(x) = F(x, 1, -(u*x + v)) is read as a binary form of degree d, and
    Delta(u, v) = disc_x psi has total degree at most D = d(d-1): psi is
    F(s*P + t*Q) at t = 1 for P = (1, 0, -u) and Q = (0, 1, -v).  The
    discriminant of a binary form of degree d is an SL_2-invariant of
    degree 2(d-1) in its coefficients and weight d(d-1) (Gelfand, Kapranov
    & Zelevinsky, Discriminants, Resultants and Multidimensional
    Determinants, 1994), so disc F(sP + tQ) is bihomogeneous of degree
    d(d-1) in P and in Q and unchanged when SL_2 moves (P, Q); by the first
    fundamental theorem for SL_2 it is a form of degree d(d-1) in the
    Plucker coordinates P x Q = (u, v, 1).
    That holds for every F, so w = 1 is the only chart: when F = y*g,
    lc(psi) vanishes identically, and Delta = c^2 disc_x psi, c the
    coefficient of x^(d-1), as Disc(y*g) = c^2 Disc(g).

    So Delta is fixed by its values on the triangle u, v >= 0, u + v <= D.
    psi's integer terms are F's, expanded once by `exact._expand`.  At each
    point its d+1 coefficient polynomials give an integer list, and Delta
    there is the list's discriminant as a binary form of degree d
    (`exact._uni_discriminant`): read from the subresultant chain, and
    where lc(psi) vanishes, from the chain of the list without its roots
    at infinity.  Newton's form on the triangle,
    sum_{i+j<=D} Delta_u^i Delta_v^j Delta(0, 0) C(u, i) C(v, j), reads
    only those values: forward differences in v along each row give
    g_j(u) = Delta_v^j Delta(u, 0), of degree at most D - j, which
    `_interpolate` rebuilds from u = 0..D-j; the coefficient of u^i is
    then a polynomial in v given by its forward differences.
    """
    dst = dual_ring(F.variables)
    d = F.total_degree()
    D = d * (d - 1)
    den, terms = _integer_terms(F)
    # psi's integer terms (i, a, b): c x^i u^a v^b, for x, y, z -> x, 1, -(u*x + v)
    psi = _expand(terms, [{(1, 0, 0): 1}, {(0, 0, 0): 1}, {(1, 1, 0): -1, (0, 0, 1): -1}], 3)
    parts = [[] for _ in range(d + 1)]    # per power of x: its terms (a, b, c), c u^a v^b
    for (i, a, b), c in psi.items():
        parts[i].append((a, b, c))
    heads = []                            # per u: the forward differences in v of Delta(u, v)
    for u in range(D + 1):
        in_v = [[0] * (d + 1) for _ in range(d + 1)]   # psi's coefficients at u, as lists in v
        for cs, part in zip(in_v, parts):
            for a, b, c in part:
                cs[b] += c * u ** a
        heads.append(_differences([_uni_discriminant([_at(c, v) for c in in_v])
                                   for v in range(D + 1 - u)]))
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


def _check_dual_degree(curve: PlaneCurve, cap: int, refusal, label: str = "") -> None:
    """Refuse, with `refusal` and before any chart, a curve whose dual has
    degree above `cap`.

    By the class formula d* = d(d-1) - sum_p (mu_p + m_p - 1), d(d-1) bounds
    d*, so a curve with d(d-1) <= cap passes at once.  Otherwise the curve's
    singular points are read first, so that their refusals come first, and
    the polar oracle's certified d*, which reads the same analysis, decides.
    """
    d = curve.degree
    if d * (d - 1) <= cap:
        return
    curvelab.singular_points(curve)
    d_dual = dual_degree_oracle(curve)
    if d_dual > cap:
        raise refusal(f"{label}dual degree {d_dual} exceeds the cap {cap}")


def dual_equation(curve: PlaneCurve) -> DualCurve:
    """Equation of the projective dual curve, by discriminant elimination.

    Requires degree >= 2 (the dual of a line is a point, not a curve) and
    rational singular points; the curve is assumed irreducible, which this
    package does not verify (factorization is out of scope).  A union of
    lines is refused with ChartExhausted.  A dual of degree d* needs
    Sylvester matrices of d* + 1 rows, so a dual past `SYLVESTER_LIMIT` is
    refused with DegreeGuardrail before the chart (`_check_dual_degree`).
    """
    if curve.degree < 2:
        raise InvalidParams("dual_equation needs a curve of degree >= 2")
    d = curve.degree
    dst = dual_ring(curve.variables)
    sing = curvelab.singular_points(curve)
    _check_dual_degree(curve, SYLVESTER_LIMIT - 1, DegreeGuardrail)
    disc = _dual_in_chart(curve.F)
    removed = []
    if disc.total_degree() < 2 * d * (d - 1):
        removed.append((_dual_line(dst, (0, 0, 1)), 2 * d * (d - 1) - disc.total_degree()))
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
    is certified without a coprimality test (`elimination._accepted_frame`).
    Each frame search starts at the analysis frame, which usually suits a
    second polar too: F's terms are taken as that frame holds them, moved
    by its base and shear, and the polar is taken there, so that frame
    moves nothing; the full schedule follows, without it.  A given witness
    must be three ints or Fractions, not all zero; it is scaled to its
    primitive integer vector, the point the frame search takes.
    """
    if curve.degree < 2:
        raise InvalidParams("dual degree oracle needs a curve of degree >= 2")
    if witness is not None:
        witness = curvelab._checked_point(witness, "witness")
    locus = curvelab.singular_analysis(curve)
    frame = locus.frame
    hint = (frame.base, frame.shear, frame.terms)
    w, count = locus.witness, locus.polar_count
    if witness is not None:
        if curve.contains(witness):
            raise WitnessOnCurve(f"witness {witness} lies on the curve")
        w = tuple(_primitive_ints(witness))
        count = elimination._accepted_frame(curve.F, w, hint).count()
    second = next(p for p in witnesses([curve.F]) if not _proportional(p, w))
    check = elimination._accepted_frame(curve.F, second, hint).count()
    if count != check:
        raise NonGenericWitness(
            f"witnesses {w} and {second} disagree: "
            f"{count - locus.count} vs {check - locus.count}"
        )
    return count - locus.count


def biduality_check(curve: PlaneCurve) -> bool:
    """Does dualizing twice return the original curve?

    A dual of degree at most `BIDUAL_DEGREE_CAP` is dualised again, and the
    bidual equation tested for proportionality with F; above that the polar
    oracle checks that the dual of the dual curve has the original degree.
    A dual past `DUAL_DEGREE_CAP` is refused with GuardrailExceeded before
    the chart (`_check_dual_degree`).
    """
    _check_dual_degree(curve, DUAL_DEGREE_CAP, GuardrailExceeded)
    first = dual_equation(curve)
    if first.d_dual <= BIDUAL_DEGREE_CAP:
        second = dual_equation(first.curve)
        return second.D.primitive() == curve.F.primitive()
    return dual_degree_oracle(first.curve) == curve.degree


def dual_curve_report(curve: PlaneCurve) -> curvelab.CurveReport:
    """Full curve report of the dual curve.

    A dual past `DUAL_DEGREE_CAP` is refused with GuardrailExceeded before
    the chart (`_check_dual_degree`): its singular analysis is out of reach.
    """
    _check_dual_degree(curve, DUAL_DEGREE_CAP, GuardrailExceeded)
    return curvelab.curve_report(dual_equation(curve).curve)

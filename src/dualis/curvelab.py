"""Analysis of plane projective curves over the rationals.

Given a square-free homogeneous form F in three variables, this module finds
the singular locus, classifies rational singular points into nodes, cusps and
"other", and assembles the numerical invariants used by the intersection
identities: geometric genus, topological Euler characteristic and the
degree-zero Chern-Mather class

    c0m(C) = chi(C, Eu) = chi(C) + sum over singular points of (Eu(p) - 1),

where the local Euler obstruction of a plane-curve singularity equals its
multiplicity (2 at nodes and cusps).  Closed forms for genus and chi are only
available in the node/cusp regime:

    g   = (d-1)(d-2)/2 - delta - kappa
    chi = 2 - 2g - delta          (a node glues two branch points into one)
    c0m = chi + delta + kappa = -d^2 + 3d + 2*delta + 3*kappa

Everything is certified: one elimination per curve object, on first use,
counts the singular points and reads the rational ones from the same frame
(`elimination.singular_locus`, kept as a `SingularLocus` record of the
frame, the witness, the singular parts and the rational points);
``singular_points`` classifies them once and refuses to answer when they do
not exhaust the count.  Every caller reads that record from the curve, and
the polar degree oracle reads the polar count of the same frame.  The
square-free certificate of a curve is a line that meets it in d distinct
points, which the curve keeps as its transversal slice line.
``load_curve`` applies the input degree cap that the CLI and the corpus
share; it and every other degree cap are in the one table in `exact`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import elimination
from .errors import (
    DegreeGuardrail,
    InvalidParams,
    InvariantViolation,
    IrrationalSingularity,
    NotSingular,
    ReducibleCurve,
    UnknownVariableError,
    UnsupportedSingularity,
    ZeroInput,
)
from .exact import (
    INPUT_DEGREE_CAP,
    INPUT_DEGREE_HARD_CAP,
    SYLVESTER_LIMIT,
    MultiPoly,
    _distinct_roots,
    _integer_terms,
    _is_scalar,
    _primitive_ints,
    _restriction,
    _trim,
    _value,
    parse_poly,
    transversal_line,
)

PRIMAL_VARS = ("x", "y", "z")
DUAL_VARS = ("u", "v", "w")

NODE = "Node"
CUSP = "Cusp"
OTHER = "Other"


def _checked_point(point, role: str = "point") -> tuple:
    """The point as a tuple, refused unless it is a projective point: three
    ints or Fractions, not all zero."""
    coords = tuple(point) if isinstance(point, (tuple, list)) else ()
    if len(coords) != 3 or not all(map(_is_scalar, coords)):
        raise InvalidParams(f"{role} {point!r} is not three ints or Fractions")
    if not any(coords):
        raise InvalidParams(f"{role} (0, 0, 0) is not a projective point")
    return coords


class PlaneCurve:
    """A reduced plane projective curve V(F), F square-free homogeneous.

    ``slice_line`` holds the coefficients of the line that certified F
    square-free: it meets the curve in d distinct points.
    """

    __slots__ = ("F", "degree", "slice_line", "_singular_locus", "_rational_singularities")

    def __init__(self, F: MultiPoly):
        if F.is_zero():
            raise ZeroInput("the zero form defines no curve")
        if len(F.variables) != 3:
            raise InvalidParams("plane curves need exactly three variables")
        if not F.is_homogeneous():
            raise InvalidParams(f"{F.text()} is not homogeneous")
        if F.total_degree() < 1:
            raise InvalidParams("constant form defines no curve")
        if F.total_degree() + 1 > SYLVESTER_LIMIT:
            # the smallest Sylvester matrix any analysis builds, F against a
            # line, has d + 1 rows
            raise DegreeGuardrail(f"degree {F.total_degree()} curves exceed the"
                                  f" {SYLVESTER_LIMIT}x{SYLVESTER_LIMIT} Sylvester guardrail")
        line = transversal_line(F)
        if line is None:
            raise ReducibleCurve(f"{F.text()} has a repeated factor")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "degree", F.total_degree())
        object.__setattr__(self, "slice_line", line)
        object.__setattr__(self, "_singular_locus", None)
        object.__setattr__(self, "_rational_singularities", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PlaneCurve is immutable")

    @classmethod
    def from_text(cls, text: str, variables=PRIMAL_VARS) -> "PlaneCurve":
        return cls(parse_poly(text, variables))

    @property
    def variables(self):
        return self.F.variables

    def contains(self, point) -> bool:
        """Does the curve pass through the point, three ints or Fractions?
        F is a form, so it vanishes at the point exactly when it vanishes at
        the coprime integers proportional to it."""
        return _value(_integer_terms(self.F)[1], _primitive_ints(_checked_point(point))) == 0

    def __repr__(self):
        return f"PlaneCurve({self.F.text()!r})"


def load_curve(text: str, variables=PRIMAL_VARS,
               max_degree: int = INPUT_DEGREE_CAP) -> PlaneCurve:
    """Parse a curve; the input degree cap of `exact`, raised to at most its
    hard cap, is checked before PlaneCurve()'s square-free test."""
    poly = parse_poly(text, variables)
    cap = min(max(max_degree, 1), INPUT_DEGREE_HARD_CAP)
    if poly.total_degree() > cap:
        raise InvalidParams(
            f"degree {poly.total_degree()} exceeds the guardrail {cap}"
            f" (hard cap {INPUT_DEGREE_HARD_CAP})"
        )
    return PlaneCurve(poly)


@dataclass(frozen=True)
class SingularPoint:
    point: tuple          # coprime integers, first nonzero positive
    kind: str             # Node | Cusp | Other
    multiplicity: int
    euler_obstruction: int

    def __post_init__(self):
        if self.kind in (NODE, CUSP) and (self.multiplicity, self.euler_obstruction) != (2, 2):
            raise InvalidParams(f"a {self.kind} has multiplicity and Euler obstruction 2")


@dataclass(frozen=True)
class CurveReport:
    d: int
    delta: int            # nodes
    kappa: int            # cusps
    other_singularities: tuple
    g: int
    chi: int
    c0m: int

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "delta": self.delta,
            "kappa": self.kappa,
            "g": self.g,
            "chi": self.chi,
            "c0m": self.c0m,
        }


def classify_singularity(curve: PlaneCurve, point) -> SingularPoint:
    """Classify one rational singular point.

    With k the index of the point's first nonzero coordinate, the matrix M,
    the identity with column k replaced by the point, is invertible, and
    F's integer terms moved by it (`elimination._moved`) are those of
    G(v) = c F(M v), c the common denominator of F: at v_k = 1, G is the
    expansion of F at the point in the two other coordinates, which M
    changes linearly, so the multiplicity and the kind stay, and neither
    sees the scale c.  The multiplicity m is the least
    degree of a term of G in those coordinates, and the point is singular
    exactly when m >= 2: by Euler's identity F vanishes where its gradient
    does.  With q the quadratic and c the cubic part, q of rank 2 is a node;
    q = l^2 of rank 1 with l not dividing c is a cusp; everything else is
    Other with multiplicity m.  The Euler obstruction of a plane-curve
    singularity is its multiplicity.  The point must be three ints or
    Fractions, not all zero.
    """
    point = elimination.normalize_point(_checked_point(point))
    k = next(n for n, c in enumerate(point) if c)
    i, j = (n for n in range(3) if n != k)
    M = tuple(tuple(point[r] if col == k else int(r == col) for col in range(3)) for r in range(3))
    parts: dict = {}
    for e, c in elimination._moved(_integer_terms(curve.F)[1], M).items():
        parts.setdefault(e[i] + e[j], {})[e[i], e[j]] = c
    m = min(parts)
    if m < 2:
        raise NotSingular(f"gradient does not vanish at {point}")
    if m > 2:
        return SingularPoint(point, OTHER, m, m)
    A, B, C = (parts[2].get(e, 0) for e in ((2, 0), (1, 1), (0, 2)))
    if B * B - 4 * A * C != 0:
        return SingularPoint(point, NODE, 2, 2)
    # rank one: q is a rational multiple of the square of a line l, whose
    # zero is (B, -2A), or (1, 0) when q = C*b^2
    a, b = (B, -2 * A) if A else (1, 0)
    if sum(c * a ** ea * b ** eb for (ea, eb), c in parts.get(3, {}).items()) != 0:
        return SingularPoint(point, CUSP, 2, 2)
    return SingularPoint(point, OTHER, 2, 2)


def singular_analysis(curve: PlaneCurve) -> elimination.SingularLocus:
    """The curve's one singular analysis, run on first use: the
    `elimination.SingularLocus` record of its accepted frame, witness,
    singular parts and rational singular points."""
    if curve._singular_locus is None:
        object.__setattr__(curve, "_singular_locus", elimination.singular_locus(curve.F))
    return curve._singular_locus


def singular_points(curve: PlaneCurve) -> list:
    """All rational singular points, classified, with a certified total.

    The geometric number of singular points is counted in one frame in
    generic position, and the rational points are read from it; if the
    count exceeds their number the curve has irrational singularities and
    the operation refuses rather than under-report.
    """
    locus = singular_analysis(curve)
    if curve._rational_singularities is None:
        object.__setattr__(curve, "_rational_singularities",
                           tuple(classify_singularity(curve, p) for p in locus.points))
    found = curve._rational_singularities
    if locus.count > len(found):
        raise IrrationalSingularity(
            f"found {len(found)} rational singular points but the certified "
            f"count is {locus.count}"
        )
    if locus.count < len(found):
        raise InvariantViolation("inconsistent singular counts")
    return list(found)


def curve_report(curve: PlaneCurve) -> CurveReport:
    """Invariants of a curve with at most nodes and cusps.

    chi uses the normalization rule (a node lowers chi by one, a cusp does
    not), and c0m the weighted-Euler definition, chi plus the Euler
    obstructions less one: with g = (d-1)(d-2)/2 - delta - kappa that is
    the closed form -d^2 + 3d + 2*delta + 3*kappa identically.
    """
    sings = singular_points(curve)
    others = tuple(s for s in sings if s.kind == OTHER)
    if others:
        raise UnsupportedSingularity(
            f"closed forms are refused: {len(others)} singularities beyond node/cusp"
        )
    d = curve.degree
    delta = sum(1 for s in sings if s.kind == NODE)
    kappa = sum(1 for s in sings if s.kind == CUSP)
    g = (d - 1) * (d - 2) // 2 - delta - kappa
    if g < 0:
        raise InvalidParams(f"impossible singularity counts: genus {g} < 0")
    chi = 2 - 2 * g - delta
    c0m = chi + sum(s.euler_obstruction - 1 for s in sings)
    return CurveReport(d, delta, kappa, others, g, chi, c0m)


def _line_basis(line) -> tuple:
    """Two independent rational points spanning the line V(a*x + b*y + c*z),
    given by its coefficients (a, b, c)."""
    a, b, c = line
    if c != 0:
        return (c, 0, -a), (0, c, -b)
    if b != 0:
        return (b, -a, 0), (0, 0, 1)
    return (0, 1, 0), (0, 0, 1)


def line_transversality(curve: PlaneCurve, line: MultiPoly) -> bool:
    """Does the line miss every singular point and meet C in d distinct points?

    With p, q the coprime integer points of `_line_basis`, F restricts to
    the line as the binary form F(s*p + t*q) of degree d, and a singular
    point on the line is a multiple root of it.  Its roots other than p are
    those of f(s) = F(s*p + q) (`exact._restriction`), and p is a root of
    multiplicity d - deg f.  So the roots are d distinct ones exactly when f
    is nonzero of degree at least d - 1 and gcd(f, f') is constant.
    """
    if line.is_zero():
        raise ZeroInput("the zero form is not a line")
    if line.total_degree() != 1 or not line.is_homogeneous():
        raise InvalidParams("line must be a nonzero degree-1 form")
    if not set(line.used_variables()) <= set(curve.variables) <= set(line.variables):
        raise UnknownVariableError(f"{line.text()} is not a line in {curve.variables}")
    coefficients = [line.terms.get(tuple(int(n == v) for n in line.variables), 0)
                    for v in curve.variables]
    p, q = (elimination.normalize_point(v) for v in _line_basis(coefficients))
    f = _trim(_restriction(_integer_terms(curve.F)[1], p, q))
    return len(f) >= curve.degree and _distinct_roots(f)


def transversal_intersection_chi(c1: PlaneCurve, c2: PlaneCurve) -> int:
    """chi of the intersection of two transversally-intersecting curves.

    A transversal intersection of curves of degrees d1, d2 is d1*d2 reduced
    points, so chi equals the certified point count.  Raises NotTransversal
    when the pair cannot be certified.
    """
    if c1.variables != c2.variables:
        raise InvalidParams("curves live in different coordinate rings")
    return elimination.transversal_intersection_count(c1.F, c2.F)

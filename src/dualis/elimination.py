"""Point counting and rational-point enumeration for plane systems.

Everything here reduces to resultants of homogeneous trivariate polynomials.
Counts must be exact, so each routine runs over a deterministic schedule of
projective coordinate frames (a base change moving the line at infinity,
composed with x-shears) and only reports a number it can certify:

* pairs of curves: in a frame where no solutions sit at infinity and the
  leading y-coefficients are constants, the resultant R factors over the
  intersection points with multiplicities.  The frame step splits its
  square-free part into classes Phi_k, the roots where psc_k is the first
  nonzero principal subresultant coefficient, and accepts the frame only
  when the k-th subresultant is a k-th power on each class: then every root
  carries one point, at y = -s_{k,k-1} / (k * s_kk), and the distinct count
  is the square-free degree of R (González-Vega & El Kahoui, J. Complexity
  12, 1996; Bouzidi, Lazard, Pouget & Rouillier, J. Symb. Comput. 68, 2015).
  Shears fix the line at infinity, so the tests on it are tests of that
  line, and a usable base accepts one of its shears: the schedule holds
  one base per line, the identity, the x <-> z swap and twelve shifts of
  the line.  A common zero at the two points spanning it is seen before
  the pair moves, and a shear whose y-leading coefficients vanish, read
  from the line's restrictions, taken once per base, before it moves.

* transversality: all intersection multiplicities equal one exactly when the
  certified distinct count reaches the Bezout number d1*d2.

* singular loci: read from the first accepted frame of F and a polar
  (`polar`), where the two affine partials of F vanish at the one point
  over a root of R.  A singular point p has I_p(F, P_w) >= 2, and in an
  accepted frame that is the multiplicity of its root, so singular parts
  are sought among the repeated roots of R alone, and each resultant
  against a line is taken modulo the part found so far.  The point is
  (alpha, beta(alpha)), beta rational in alpha, so the rational roots of
  each class's singular part, mapped back through the frame's shear and
  base over the integers, are the rational singular points.
  The analysis is one `SingularLocus` record holding the accepted frame,
  the witness, the singular part of each class and the rational points;
  the polar degree oracle reads the frame's own count from it, and starts
  the frame search of each further witness at that frame, with F's terms
  already moved there (the hint of `_accepted_frame`).

The frame search runs on integers alone.  Each form enters it once, as
integer terms ({exponents: int}, `exact._integer_terms`), and every base
and every x-shear is an integer coordinate change of those terms
(`_moved`, through the one expansion `exact._expand`).  A pair of F and
the polar P_w of a point moves F alone: every base and shear M has
determinant +-1, so M^-1 w is an integer point and
P_w(F)(M v) = P_{M^-1 w}(F(M v)); each frame takes the polar of its moved
F there (`polar`).  One helper moves a pair's second member, a form or a
point, and gives the second form after the move (`_second_moved`), for a
base, a shear and a hint alike, so F is expanded once per base and once
per shear, and never for a hinted frame, which holds F's terms.  A frame
holds the pair as integer y-columns, one list in x per power of y, of the
moved terms at z = 1 (`_chart_columns`).  Their values at x = 0, 1, 2,
... are taken once per frame and cached as their subresultant chain
(`exact._subresultant_chain`): one sweep serves the eliminant R = s_{0,0}
and every s_{k,j}, each read from the chain at each point and rebuilt by
`exact._interpolate` (Collins, J. ACM 18, 1971).  In an accepted frame
the y-degree of each operand is its total degree, so cell (i, c) of a
minor has x-degree at most c - i; every permutation then weighs the
same, and
deg s_{k,j} <= (m-k)(n-k) + k - j, with deg R <= mn.  Resultants against
a line L_k = a*y + b, for the k-th-power test and the singular parts,
take the closed form Res_y(P, L_k) = sum_j p_j b^j (-a)^(m-j) for
P = sum_j p_j y^j of degree m: Res(L_k, P) = a^m P(-b/a), and swapping
operands of degrees 1 and m costs (-1)^m (`_line_resultant`), modulo the
class or part it is tested on (`exact._reduced`).  Gcds are
the certified modular gcd of `exact`, and a quotient by a primitive
divisor is exact over the integers (Gauss's lemma), so no Fraction
arithmetic enters the frame search.
The public `apply_matrix` is the same coordinate change on a `MultiPoly`.
The square-free part is written once (`_sqfree_part`), for the frame step
and `rational_roots`.  Every list is evaluated by `exact._at`, at the
points of a frame's sweep, at a root alpha for its point and at each root
candidate, modulo the lifted modulus or, on an integer list scaled to be
monic, exactly at an integer.  No gcd of forms is taken
here: a pair is proved coprime on a pencil of lines
(`exact.forms_coprime`), except a square-free form and the polar of a
point off its curve, which are coprime by construction (`_accepted_frame`).

Nothing here ever returns a float or an approximation; when a count cannot
be certified the routine raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Optional, Sequence

from .errors import (
    ChartExhausted,
    DegenerateInput,
    GuardrailExceeded,
    InvalidParams,
    InvariantViolation,
    NotTransversal,
    ReducibleCurve,
    ZeroInput,
)
from .exact import (
    MultiPoly,
    _at,
    _derivative,
    _expand,
    _integer_terms,
    _interpolate,
    _is_prime,
    _primitive,
    _primitive_ints,
    _reduced,
    _subresultant_chain,
    _sylvester_guard,
    _ternary_form,
    _trim,
    _uni_gcd,
    _uni_quo,
    _value,
    _y_derivative,
    forms_coprime,
    point_off,
)

Matrix = tuple  # 3x3 integer matrix, rows are tuples


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


_IDENT: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _moved(terms: dict, m: Matrix) -> dict:
    """The integer terms of F(M v), for the integer terms of a ternary F
    (`_integer_terms`) and an integer matrix M: variable i goes to row i of
    M, as integer terms over the unit exponents, the rows of the identity.
    The identity returns the terms themselves, which no caller changes."""
    if m == _IDENT:
        return terms
    return _expand(terms, [{u: c for u, c in zip(_IDENT, row) if c} for row in m], 3)


def apply_matrix(poly: MultiPoly, m: Matrix) -> MultiPoly:
    """Coordinate change: returns G with G(v) = F(M v)."""
    den, terms = _integer_terms(poly)
    return MultiPoly(poly.variables, {e: Fraction(c, den) for e, c in _moved(terms, m).items()})


def _shear(t: int) -> Matrix:
    """The x-shear x -> x + t*y."""
    return ((1, t, 0), (0, 1, 0), (0, 0, 1))


#: the frame schedule's bases, one per line at infinity, the line through
#: m e_x and m e_y that base m takes to z = 0: the identity (z = 0), the
#: x <-> z swap (x = 0) and the shifts to k*x + m*y + z = 0.  Shears fix
#: that line and the base test is one of it (`_accepted_frame`), so a
#: second base on a line would add nothing
_BASES = (_IDENT, ((0, 0, 1), (0, 1, 0), (1, 0, 0))) + tuple(
    ((1, 0, 0), (0, 1, 0), (-k, -m, 1))
    for k, m in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 3), (3, 2),
                 (4, 1), (1, 4), (5, 2)))


# ---------------------------------------------------------------------------
# univariate polynomials, as coefficient lists [c0..cd]
# ---------------------------------------------------------------------------

def _mul(a: Sequence[int], b: Sequence[int]) -> list:
    """The product of two integer lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return out


def _add(a: Sequence[int], b: Sequence[int]) -> list:
    """The sum of two integer lists, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    return _trim([c + d for c, d in zip(a, b)] + list(a[len(b):]))


#: primes tried as the modulus of the p-adic root search
_PRIMES = tuple(filter(_is_prime, range(2, 1000)))


def _root_candidates(f: list) -> set:
    """Integers among which cn*r lies for every rational root r of f.

    f is a square-free integer polynomial [c0..cn] with c0 != 0 and n >= 1.
    A root u/v in lowest terms has u | c0 and v | cn, so cn*u/v is an integer
    of absolute value at most |cn*c0|.  Modulo a prime p that does not divide
    cn and at which f has no multiple root, the root reduces to a simple root
    r; Newton's iteration lifts r to a modulus m > 2|cn*c0|, where the residue
    of cn*r nearest zero is cn*u/v itself (Loos, SIAM J. Comput. 12, 1983).
    """
    lead = f[-1]
    bound = 2 * abs(lead * f[0])
    der = _derivative(f)
    for p in _PRIMES:
        if lead % p == 0:
            continue
        residues = [r for r in range(p) if not _at(f, r) % p]
        if any(not _at(der, r) % p for r in residues):
            continue
        candidates = set()
        for r in residues:
            m = p
            while m <= bound:
                m *= m
                r = (r - _at(f, r) % m * pow(_at(der, r), -1, m)) % m
            c = lead * r % m
            candidates.add(c - m if 2 * c > m else c)
        return candidates
    raise GuardrailExceeded(f"no prime below {_PRIMES[-1] + 1} keeps the roots simple")


def rational_roots(coeffs: Sequence[Fraction]) -> tuple:
    """Distinct roots of a nonzero univariate polynomial, rational and not.

    ``coeffs`` holds rationals or ints.  Returns ``(roots, leftover)`` where
    roots is the sorted list of distinct rational roots and ``leftover`` the
    number of distinct irrational or complex roots.  The square-free part is
    taken once, over the integers; its roots are simple, so each candidate
    from `_root_candidates` needs one exact evaluation, and no root is
    missed.  For f of degree n and leading coefficient c, the candidate
    t = c*r is tested on the integer list g(t) = c^(n-1) f(t/c), which is
    monic, so the test stays on integers.
    """
    coeffs = _trim(coeffs)
    if not coeffs:
        raise ZeroInput("zero polynomial")
    ints = _sqfree_part(_primitive_ints(coeffs))[0]
    degree = len(ints) - 1
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]  # x divides a square-free polynomial at most once
    if len(ints) > 1:
        lead, n = ints[-1], len(ints) - 1
        monic = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
        roots += [Fraction(t, lead) for t in _root_candidates(ints) if not _at(monic, t)]
    return sorted(roots), degree - len(roots)


def _sqfree_part(cs: list) -> tuple:
    """(f / g, g) for a trimmed nonzero integer list f and g = gcd(f, f'):
    its distinct linear factors, over the integers (the gcd is primitive),
    and its repeated ones, each once less often than in f."""
    g = _uni_gcd(cs, _derivative(cs))
    return _uni_quo(cs, g), g


def normalize_point(coords: Sequence[Fraction]) -> tuple:
    """Coprime integer coordinates, first nonzero entry positive, of ints or
    Fractions; the zero vector is refused with InvalidParams."""
    if not any(coords):
        raise InvalidParams("zero vector is not a projective point")
    ints = _primitive_ints(coords)
    for a in ints:
        if a != 0:
            if a < 0:
                ints = [-b for b in ints]
            break
    return tuple(ints)


# ---------------------------------------------------------------------------
# counting distinct intersections and singular points
# ---------------------------------------------------------------------------

def _chart_columns(terms: dict) -> list:
    """The integer terms of a nonzero form of degree d at z = 1, grouped by
    the power of y: entry j is the integer list [c0..c_{d-j}] in x of the
    coefficient of y^j."""
    d = sum(next(iter(terms)))
    return [_trim([terms.get((a, j, d - a - j), 0) for a in range(d + 1 - j)])
            for j in range(d + 1)]


def _line_resultant(P: Sequence[list], a: list, b: list, modulus: Optional[list] = None) -> list:
    """Res_y(P, a*y + b) for P = [p_0..p_m] in y and a != 0, all integer
    lists in x.  Over the root -b/a of the line, Res(a*y + b, P) =
    a^m P(-b/a), and swapping the operands costs (-1)^m:
    Res(P, a*y + b) = sum_j p_j b^j (-a)^(m-j), taken by Horner's rule.

    With a modulus, the resultant modulo it, times a nonzero rational: the
    sum is a polynomial identity, so the columns may be reduced by one
    common scale, a and b by another, and the accumulator with the power
    of b by a third at each step (`exact._reduced`).  A top column that
    vanishes there only multiplies the sum by a power of a."""
    if modulus:
        P, (a, b) = _reduced(P, modulus), _reduced([a, b], modulus)
    neg = [-c for c in a]
    acc, power = P[0], [1]
    for p in P[1:]:
        power = _mul(power, b)
        acc = _add(_mul(acc, neg), _mul(p, power))
        if modulus and len(acc) >= 2 * len(modulus):
            acc, power = _reduced([acc, power], modulus)
    return _reduced([acc], modulus)[0] if modulus else acc


class _Frame:
    """An accepted frame: the pair after the base change `base` and the
    shear x -> x + shear*y, ``terms`` the integer terms of its first form
    there, and at the chart z = 1 as integer y-columns A and B (see
    `_chart_columns`), and the square-free eliminant split into its
    nonconstant classes ``classes[k]`` = Phi_k, with ``repeated`` =
    gcd(R, R'), the roots of R of multiplicity two or more.  Over a root of
    Phi_k the fibres meet at one point, the root beta of
    L_k = k*s_kk*y + s_{k,k-1}."""

    __slots__ = ("terms", "A", "B", "base", "shear", "classes", "repeated", "_chains",
                 "_coefficients")

    def __init__(self, Fm: dict, Gm: dict, base: Matrix, shear: int):
        self.terms = Fm
        self.A, self.B = _chart_columns(Fm), _chart_columns(Gm)
        self.base, self.shear = base, shear
        self.classes: dict = {}
        self.repeated: list = [1]
        self._chains: list = []       # the subresultant chain of the columns at x = 0, 1, 2, ...
        self._coefficients: dict = {}

    def count(self) -> int:
        """Distinct intersection points: each root of R carries one."""
        return sum(len(phi) - 1 for phi in self.classes.values())

    def coefficient(self, k: int, j: int) -> list:
        """s_{k,j} of the columns, an integer list in x, computed once; R is
        s_{0,0}, and at the lower operand's degree S_k is that operand.

        Cell (i, c) of the minor holds a y-coefficient of x-degree at most
        c - i, so every term of the determinant has degree at most
        D = (m-k)(n-k) + k - j, and the minors at x = 0..D fix its integer
        coefficients.  Each point caches the subresultant chain of the
        operands' values there, which holds every s_{k,j} at once."""
        if (k, j) not in self._coefficients:
            m, n = len(self.A) - 1, len(self.B) - 1
            if k and k == min(m, n):
                s = (self.A if m <= n else self.B)[j]
            else:
                bound = (m - k) * (n - k) + k - j
                for v in range(len(self._chains), bound + 1):
                    self._chains.append(_subresultant_chain([_at(c, v) for c in self.A],
                                                            [_at(c, v) for c in self.B]))
                s = _trim(_interpolate([chain[k][j] for chain in self._chains[:bound + 1]]))
            self._coefficients[k, j] = s
        return self._coefficients[k, j]

    def line(self, k: int) -> tuple:
        """(a, b) with L_k = a*y + b, whose root is beta on the roots of Phi_k."""
        return [k * c for c in self.coefficient(k, k)], self.coefficient(k, k - 1)

    def point(self, k: int, alpha: Fraction) -> tuple:
        """The point over the root alpha = u/v of Phi_k, (alpha, beta) in the
        frame, in the coordinates of the pair before the frame moved it.
        With A = v^(deg a) a(alpha) and B = v^(deg b) b(alpha), homogeneous
        values over Z (`exact._at`), beta = -B v^(deg a) / (A v^(deg b)),
        so the point is (u A v^(deg b), -B v^(deg a + 1), v A v^(deg b))."""
        a, b = self.line(k)
        u, v = alpha.numerator, alpha.denominator
        da, db = len(a) - 1, max(len(b) - 1, 0)
        A, B = _at(a, u, v), _at(b, u, v)
        p = (u * A * v ** db, -B * v ** (da + 1), v * A * v ** db)
        m = mat_mul(self.base, _shear(self.shear))
        return normalize_point([sum(r * c for r, c in zip(row, p)) for row in m])

    def is_power(self, k: int, phi: list) -> bool:
        """Is S_k a k-th power on the roots of phi?  Its (k-1)-th y-derivative
        is (k-1)! L_k; it is when phi divides Res_y(d^j S_k, L_k), j < k-1.
        phi divides a resultant when the resultant modulo phi is zero
        (`_line_resultant`), so no resultant is taken in full."""
        a, b = self.line(k)
        S = [self.coefficient(k, j) for j in range(k + 1)]
        for _ in range(k - 1):
            if _line_resultant(S, a, b, phi):
                return False
            S = _y_derivative(S)
        return True


def _pair_frame_count(Fm: dict, Gm: dict, base: Matrix, t: int) -> Optional[_Frame]:
    """The frame of the pair at shear t, or None when it is not accepted.

    Fm, Gm are the integer terms of the pair moved by `base`, which passed
    the shear-independent tests of `_base_usable`, and then by the x-shear
    x -> x + t*y, where both y-leading coefficients are nonzero constants
    (`_accepted_frame` skips the other shears); the frame passes to the
    chart z = 1.  R's repeated roots, gcd(R, R'), are kept as
    ``frame.repeated``: the square-free step takes that gcd anyway.
    The y-leading coefficients are constants, so specialising x commutes
    with the subresultants: over a root of R the fibres have a gcd of
    degree k exactly where psc_1..psc_{k-1} vanish and psc_k does not, and
    S_k is that gcd up to a constant.  The frame is accepted when on every
    class that gcd has one root (see `_Frame.is_power`).

    The eliminant has degree mn exactly: with constant y-leading
    coefficients, Res_y of the two forms is a form of degree mn in (x, z)
    whose x^(mn) coefficient is the resultant of their restrictions to
    z = 0, and that is nonzero, as `_base_usable` found no common zero on
    that line.  A shorter R breaks that argument, so it raises
    InvariantViolation.
    """
    frame = _Frame(Fm, Gm, base, t)
    m, n = len(frame.A) - 1, len(frame.B) - 1
    R = frame.coefficient(0, 0)
    if len(R) - 1 != m * n:
        raise InvariantViolation(f"eliminant of degree {len(R) - 1}, not {m * n},"
                                 f" in the frame of base {base} and shear {t}")
    rem, frame.repeated = _sqfree_part(_primitive(R))
    for k in range(1, min(m, n) + 1):
        if len(rem) == 1:
            break
        common = _uni_gcd(rem, frame.coefficient(k, k))
        phi, rem = _uni_quo(rem, common), common
        if len(phi) > 1:
            if k >= 2 and not frame.is_power(k, phi):
                return None  # some fibre of this class carries two points
            frame.classes[k] = phi
    return frame


def _infinity_restriction(forms: list) -> list:
    """Each nonzero form of degree d, given by its integer terms, on the
    line z = 0 at y = 1: the integer list [c0..cd] in x of its terms free
    of z, untrimmed, so cd is its x^d coefficient."""
    degrees = [sum(next(iter(terms))) for terms in forms]
    return [[terms.get((a, d - a, 0), 0) for a in range(d + 1)]
            for terms, d in zip(forms, degrees)]


def _base_usable(f: list, g: list) -> bool:
    """Shear-independent frame tests for a pair moved by a base, on the
    restrictions f and g of its two forms to z = 0 (`_infinity_restriction`).

    x-shears fix the line z = 0 and act on it by an invertible change of
    coordinates, so a restriction to it that vanishes, or common zeros on
    it, spoil every shear of the base alike: the test is one of the line
    alone.  The two binary forms share a zero [x:1] when their lists at
    y = 1 have a common root, and the zero [1:0] when both lose their x^d
    term.
    """
    if not any(f) or not any(g) or f[-1] == g[-1] == 0:
        return False
    return len(_uni_gcd(f, g)) == 1


def _zero_on_span(f: dict, h: dict, m: Matrix) -> bool:
    """Do the forms with integer terms f and h both vanish at m e_x or at
    m e_y, two points of the line z = 0 of the base m?  Then the base is
    unusable (`_base_usable`), and no form has to move to see it."""
    return any(not (_value(f, p) or _value(h, p)) for p in list(zip(*m))[:2])


def polar(terms: dict, w: Sequence[int]) -> dict:
    """The polar of a form at the integer point w, the sum of w_i times the
    i-th partial, as integer terms with their content removed, built in one
    pass over the integer terms of the form (`exact._integer_terms`).  By
    Euler's identity it takes the value d*F(w) at w, so it is nonzero when
    w is off the curve of a form of degree d > 0."""
    out: dict = {}
    for e, c in terms.items():
        for i, (k, wi) in enumerate(zip(e, w)):
            if k and wi:
                lower = e[:i] + (k - 1,) + e[i + 1:]
                out[lower] = out.get(lower, 0) + c * k * wi
    g = gcd(*out.values())
    return {e: c // g for e, c in out.items() if c}


def _preimage(m: Matrix, w: Sequence[int]) -> tuple:
    """The integer point u with m u = w, for an integer matrix m of
    determinant +-1, whose inverse is det(m) times its adjugate."""
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    return tuple(det * sum(r * x for r, x in zip(row, w)) for row in adj)


def _second_moved(second, m: Matrix, Fm: dict) -> tuple:
    """The pair's second member after the coordinate change m, and its
    second form there, for the first form's terms Fm moved by m: a form's
    moved integer terms, as both, or, for the point w of the first form's
    polar, the integer point m^-1 w and the polar of Fm there (see
    `_accepted_frame`)."""
    if isinstance(second, dict):
        moved = _moved(second, m)
        return moved, moved
    u = _preimage(m, second)
    return u, polar(Fm, u)


def _accepted_frame(F: MultiPoly, G, hint: Optional[tuple] = None) -> _Frame:
    """The first accepted frame of the pair of F and G (see `_pair_frame_count`).

    G is a form, or an integer point w off the curve of a square-free F for
    the pair of F and its polar P_w: `point_off` and the `witnesses` walk
    yield integer points, and `dualgeom.dual_degree_oracle` scales a given
    witness to its primitive integer vector, as the polar at c*w is c times
    the polar at w.  That pair shares no component, so it
    skips `forms_coprime`: a component shared by a square-free F and its
    polar would be a cone with vertex w, so it would contain w.  And only F
    moves: every base and every x-shear M has determinant +-1, so
    P_w(F)(M v) = P_u(F(M v)) at the integer point u = M^-1 w, and each
    frame takes its polar from F's moved terms (`polar`).

    Each pair of the at most N = d1*d2 points shares an x-coordinate in at
    most one shear of a usable base, and a frame where no two points do is
    accepted, so one of C(N,2)+1 valid shears is; at most d1 + d2 shears
    lose a leading y-coefficient, so a usable base accepts a frame within
    its t_limit shears.  The base test is one of the line z = 0 of the base
    (`_base_usable`), so a second base on a line would add nothing, and the
    schedule holds one base per line (`_BASES`).  A base other than the
    identity, which moves nothing and keeps the given pair and its polar,
    first has the pair, as given, evaluated at its spanning points
    (`_zero_on_span`), so a common zero there costs no move; otherwise the
    base moves F and the second member once (`_second_moved`), and the
    restrictions of the moved pair to z = 0 serve the base test and every
    shear.  At shear t the y^d coefficient of a form moved by the base is
    its restriction to z = 0 at x = t, so a shear where either vanishes is
    skipped before it moves anything.  A hint (base, shear, terms), with F's
    integer terms moved to that frame (`_Frame.terms` of an earlier search
    on F), is tried first, as the head of the same schedule: any accepted
    frame certifies the count, and the full schedule follows it, so a
    failed hint costs one base test and one frame at most.  The base test
    is shear-independent, so the hint's own terms serve it, and nothing the
    schedule has rejected, an unusable base or a (base, shear) frame, is
    tried again.
    """
    form = isinstance(G, MultiPoly)
    f = _integer_terms(F)[1]
    h = _integer_terms(G)[1] if form else polar(f, G)  # the second form, as given
    if F.is_zero() or not h:
        raise ZeroInput("zero polynomial in curve pair")
    d1 = _ternary_form(F)  # the degree bounds of the frame need forms
    d2 = _ternary_form(G) if form else d1 - 1
    if d1 + d2 == 0:
        raise DegenerateInput("both forms are constant")
    _sylvester_guard(d1 + d2)
    t_limit = d1 * d2 * (d1 * d2 - 1) // 2 + 1 + d1 + d2 + 8
    g = h if form else G
    coprime = not form
    # entries (base, t0, shears, pair): pair is F's terms, the second member
    # and the second form, moved to the base and the shear t0, or None when
    # the base is still to move them; the identity moves nothing
    schedule = ((base, 0, range(t_limit), (f, g, h) if base == _IDENT else None)
                for base in _BASES)
    if hint is not None:
        base, t, terms = hint
        pair = (terms, *_second_moved(g, mat_mul(base, _shear(t)), terms))
        schedule = chain([(base, t, (t,), pair)], schedule)
    rejected = set()  # unusable bases, and rejected (base, shear) frames
    for base, t0, shears, pair in schedule:
        if base in rejected:
            continue
        # a common zero at the base's spanning points leaves the pair unmoved
        if pair is None and not _zero_on_span(f, h, base):
            Fb = _moved(f, base)
            pair = (Fb, *_second_moved(g, base, Fb))
        if pair is not None:
            Fb, gb, Gb = pair
            lf, lg = _infinity_restriction([Fb, Gb])
        if pair is None or not _base_usable(lf, lg):
            # a shared component spoils every base, so the first failing
            # base decides it unless the pair is known coprime; an accepted
            # frame excludes it, as R != 0
            if not coprime and not forms_coprime(F, G):
                raise ReducibleCurve("curves share a component")
            coprime = True
            rejected.add(base)
            continue
        for t in shears:
            # the y-leading coefficients at shear t: the restrictions at t - t0
            if (base, t) in rejected or not (_at(lf, t - t0) and _at(lg, t - t0)):
                continue
            Ft, Gt = Fb, Gb
            if t != t0:
                Ft = _moved(Fb, _shear(t - t0))
                Gt = _second_moved(gb, _shear(t - t0), Ft)[1]
            frame = _pair_frame_count(Ft, Gt, base, t)
            if frame is not None:
                return frame
            rejected.add((base, t))
    raise ChartExhausted("could not certify a distinct intersection count")


def distinct_intersection_count(F: MultiPoly, G: MultiPoly) -> int:
    """Number of distinct intersection points (no transversality assumed),
    read from the first accepted frame."""
    return _accepted_frame(F, G).count()


@dataclass(frozen=True)
class SingularLocus:
    """The singular analysis of the curve of a square-free form F, read from
    one accepted `frame` of F and the polar of `witness`: ``parts[k]`` is
    the singular part of the class Phi_k, and ``points`` the sorted list of
    the rational singular points."""

    frame: _Frame
    witness: tuple
    parts: dict
    points: list

    @property
    def count(self) -> int:
        """Distinct singular points: the sum of the degrees of the parts."""
        return sum(len(s) - 1 for s in self.parts.values())

    @property
    def polar_count(self) -> int:
        """Distinct points where the curve meets the polar of the witness."""
        return self.frame.count()


def singular_locus(F: MultiPoly) -> SingularLocus:
    """The singular analysis of the curve of a square-free form F.

    A witness w = `point_off([F])` lies off the curve, so F and its polar
    P_w are coprime (`_accepted_frame`); a zero F has no such point, and
    `point_off` refuses it with ZeroInput.  The singular points lie on both
    curves, and in the first accepted frame of the pair every common zero
    is affine and the only one over its root alpha of R, at
    (alpha, beta(alpha)).  On a class Phi_k it is singular where both
    affine partials of the moved F vanish at y = beta, that is at the
    roots of the singular part gcd(Phi_k, Res_y(A_x, L_k), Res_y(A_y, L_k)).
    Such a root is a repeated root of R: I_p(F, P_w) >= m_p(F) m_p(P_w)
    >= 2 at a singular p (Fulton, Algebraic Curves, 3.3), and in an
    accepted frame the multiplicity of a root of R is the intersection
    number at its one point (Kirwan, Complex Algebraic Curves, ch. 3).  So
    each part starts at gcd(Phi_k, gcd(R, R')), and a class without
    repeated roots takes no resultant; each resultant is taken modulo the
    part so far (`_line_resultant`).
    The count is the sum of their degrees, and the rational roots give the
    rational points (`rational_system_points`).
    """
    w = point_off([F])
    frame = _accepted_frame(F, w)
    # the affine partials of the moved F, as y-columns
    partials = ([_derivative(col) for col in frame.A], _y_derivative(frame.A))
    parts = {}
    for k, phi in frame.classes.items():
        part = _uni_gcd(phi, frame.repeated)
        for P in partials:
            if len(part) == 1:
                break
            part = _uni_gcd(part, _line_resultant(P, *frame.line(k), part))
        parts[k] = part
    return SingularLocus(frame, w, parts, rational_system_points(frame, parts))


def rational_system_points(frame: _Frame, parts: dict) -> list:
    """The rational points of an accepted frame over the roots of factors
    ``parts[k]`` of its classes Phi_k, sorted, in the pair's coordinates.
    A point is rational exactly when its alpha is: beta is a rational
    function of alpha, and the frame is an integer change of coordinates."""
    return sorted(frame.point(k, alpha) for k, part in parts.items()
                  for alpha in rational_roots(part)[0])


def certified_singular_count(F: MultiPoly) -> int:
    """Distinct singular points of the curve of a square-free form F."""
    return singular_locus(F).count


def transversal_intersection_count(F: MultiPoly, G: MultiPoly) -> int:
    """Number of intersection points of two transversal plane curves.

    The curves meet in d1*d2 points counted with multiplicity (Bezout), so
    they are transversal exactly when the certified distinct count reaches
    d1*d2.  Raises NotTransversal otherwise.
    """
    n = distinct_intersection_count(F, G)
    if n != F.total_degree() * G.total_degree():
        raise NotTransversal(
            f"{F.text()} and {G.text()} do not intersect transversally"
        )
    return n

"""Point counting and rational-point enumeration for plane systems.

Everything here reduces to resultants of homogeneous trivariate polynomials.
Counts must be exact, so each routine runs over a deterministic schedule of
projective coordinate frames (a base change moving the line at infinity,
composed with x-shears) and only reports a number it can certify:

* pairs of curves: in a frame where no solutions sit at infinity and the
  leading y-coefficients are constants, the resultant R factors over the
  intersection points with multiplicities.  Its square-free degree counts
  distinct x-images, which can only undercount (two points sharing an
  x-coordinate).  The first frame whose R is coprime to the first principal
  subresultant coefficient psc_1 certifies the count at once: no fibre there
  carries two points (González-Vega & El Kahoui, J. Complexity 12, 1996).
  Where that test fails, the frame is a plain valid shear; each point pair
  spoils at most one shear, so the maximum over C(N,2)+1 valid shears is
  exact, and hitting the Bezout ceiling N = d1*d2 is exact immediately.
  Shears fix the line at infinity, so the tests on it run once per base,
  and the pair is moved by each base once; the bivariate determinants take
  the evaluation-interpolation path of `exact`.

* transversality: all intersection multiplicities equal one exactly when the
  certified distinct count reaches the Bezout number d1*d2.

* singular loci: common zeros of the three partial derivatives.  Pairwise
  resultants are combined by a gcd, rational roots are verified fiber by
  fiber, and the total from two independent frames must agree.

Univariate work over Q (eliminants, fibers, forms on a line) runs on
Fraction coefficient lists.  The square-free computation, the gcd with the
derivative, is written once (`_repeated_part`): `_sqfree_degree` counts
distinct roots from it, and `rational_roots` takes the square-free part once
and reports the rational roots together with the number of the others.

Nothing here ever returns a float or an approximation; when a count cannot
be certified the routine raises.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from .errors import (
    ChartExhausted,
    GuardrailExceeded,
    NotTransversal,
    ReducibleCurve,
    ZeroInput,
)
from .exact import (
    MultiPoly,
    UniPolyView,
    first_subresultant_coefficient,
    poly_gcd,
    poly_gcd_many,
    resultant,
)

Matrix = tuple  # 3x3 integer matrix, rows are tuples


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def apply_matrix(poly: MultiPoly, m: Matrix) -> MultiPoly:
    """Coordinate change: returns G with G(v) = F(M v)."""
    vs = poly.variables
    gens = [MultiPoly.var(vs, v) for v in vs]
    images = {}
    for i, v in enumerate(vs):
        img = MultiPoly.zero(vs)
        for j in range(3):
            if m[i][j]:
                img = img + gens[j] * m[i][j]
        images[v] = img
    return poly.substitute(images)


_IDENT: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _shear(t: int) -> Matrix:
    return ((1, t, 0), (0, 1, 0), (0, 0, 1))


def _base_frames() -> list:
    """Deterministic bases: permutations composed with infinity-line shifts."""
    swaps = [
        _IDENT,
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ]
    shifts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3),
              (2, 3), (3, 2), (4, 1), (1, 4), (5, 2)]
    bases = []
    for k, m in shifts:
        shift = ((1, 0, 0), (0, 1, 0), (-k, -m, 1))
        for s in swaps:
            bases.append(mat_mul(shift, s))
    return bases


_BASES = _base_frames()


# ---------------------------------------------------------------------------
# univariate polynomials over Q, as Fraction coefficient lists [c0..cd]
# ---------------------------------------------------------------------------

def univar_coeffs(p: MultiPoly, var: str) -> list:
    """Fraction coefficient list [c0..cd] of a polynomial using only `var`."""
    idx = p.variables.index(var)
    d = p.degree_in(var)
    coeffs = [Fraction(0)] * (max(d, 0) + 1)
    for e, c in p.terms.items():
        if any(k > 0 for i, k in enumerate(e) if i != idx):
            raise ValueError(f"{p.text()} is not univariate in {var}")
        coeffs[e[idx]] += c
    return coeffs


#: primes tried as the modulus of the p-adic root search
_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))


def _primitive_ints(cs: Sequence[Fraction]) -> list:
    """Coprime integers proportional to a nonzero list of rationals."""
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints)
    return [a // g for a in ints]


def _eval_mod(f: Sequence[int], r: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * r + c) % m
    return acc


def _root_candidates(f: list) -> set:
    """Rationals among which every rational root of f lies.

    f is a square-free integer polynomial [c0..cn] with c0 != 0 and n >= 1.
    A root u/v in lowest terms has u | c0 and v | cn, so cn*u/v is an integer
    of absolute value at most |cn*c0|.  Modulo a prime p that does not divide
    cn and at which f has no multiple root, the root reduces to a simple root
    r; Newton's iteration lifts r to a modulus m > 2|cn*c0|, where the residue
    of cn*r nearest zero is cn*u/v itself (Loos, SIAM J. Comput. 12, 1983).
    """
    lead = f[-1]
    bound = 2 * abs(lead * f[0])
    der = [i * c for i, c in enumerate(f)][1:]
    for p in _PRIMES:
        if lead % p == 0:
            continue
        residues = [r for r in range(p) if _eval_mod(f, r, p) == 0]
        if any(_eval_mod(der, r, p) == 0 for r in residues):
            continue
        candidates = set()
        for r in residues:
            m = p
            while m <= bound:
                m *= m
                r = (r - _eval_mod(f, r, m) * pow(_eval_mod(der, r, m), -1, m)) % m
            c = lead * r % m
            candidates.add(Fraction(c - m if 2 * c > m else c, lead))
        return candidates
    raise GuardrailExceeded(f"no prime below {_PRIMES[-1] + 1} keeps the roots simple")


def _is_root(f: Sequence[int], r: Fraction) -> bool:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * r + c
    return acc == 0


def rational_roots(coeffs: Sequence[Fraction]) -> tuple:
    """Distinct roots of a nonzero univariate polynomial, rational and not.

    Returns ``(roots, leftover)`` where roots is the sorted list of distinct
    rational roots and ``leftover`` the number of distinct irrational or
    complex roots.  The square-free part is taken once; its roots are simple,
    so each candidate from `_root_candidates` needs one exact evaluation, and
    no root is missed.
    """
    cs = _nonzero(coeffs)
    ints = _primitive_ints(_uni_quo(cs, _repeated_part(cs)))
    degree = len(ints) - 1
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]  # x divides a square-free polynomial at most once
    if len(ints) > 1:
        roots += [r for r in _root_candidates(ints) if _is_root(ints, r)]
    return sorted(roots), degree - len(roots)


def _sqfree_degree(coeffs: Sequence[Fraction]) -> int:
    """Number of distinct complex roots of a nonzero univariate polynomial."""
    cs = _nonzero(coeffs)
    return len(cs) - len(_repeated_part(cs))


def _repeated_part(cs: list) -> list:
    """gcd(f, f') for a trimmed nonzero f: dividing it out leaves f square-free."""
    return _uni_gcd(cs, [i * c for i, c in enumerate(cs)][1:])


def _trim(cs: Sequence[Fraction]) -> list:
    """A copy of cs without trailing zero coefficients."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _nonzero(cs: Sequence[Fraction]) -> list:
    """cs trimmed; the zero polynomial is refused."""
    cs = _trim(cs)
    if not cs:
        raise ZeroInput("zero polynomial")
    return cs


def _uni_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    """A gcd, up to a constant factor, of two lists not both zero."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _uni_rem(a, b)
    return a


def _uni_quo(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    """Quotient of a by b, when b divides a."""
    a = list(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    return q


def _uni_rem(a: Sequence[Fraction], b: list) -> list:
    """Remainder of a modulo a trimmed nonzero b."""
    a = _trim(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


# ---------------------------------------------------------------------------
# binary forms (restrictions to a projective line)
# ---------------------------------------------------------------------------

def binary_distinct_roots(form: MultiPoly, u: str, v: str) -> int:
    """Distinct projective roots [u:v] of a nonzero binary form."""
    if form.is_zero():
        raise ZeroInput("zero binary form")
    iu = form.variables.index(u)
    iv = form.variables.index(v)
    if any(k for e in form.terms for i, k in enumerate(e) if i not in (iu, iv)):
        raise ValueError(f"{form.text()} is not a binary form in {u}, {v}")
    mu = min(e[iu] for e in form.terms)
    mv = min(e[iv] for e in form.terms)
    # u^mu and v^mv give the roots [0:1] and [1:0]; the other roots are those
    # of the cofactor, which v does not divide, at v = 1
    return (mu > 0) + (mv > 0) + _sqfree_degree(_dehomogenised(form, u)[mu:])


def _dehomogenised(form: MultiPoly, u: str) -> list:
    """Coefficient list [c0..cd] in u of a binary form of degree d in u, v, at v = 1."""
    iu = form.variables.index(u)
    cs = [Fraction(0)] * (form.total_degree() + 1)
    for e, c in form.terms.items():
        cs[e[iu]] += c
    return cs


def normalize_point(coords: Sequence[Fraction]) -> tuple:
    """Coprime integer coordinates, first nonzero entry positive."""
    fracs = [Fraction(c) for c in coords]
    if all(c == 0 for c in fracs):
        raise ValueError("zero vector is not a projective point")
    ints = _primitive_ints(fracs)
    for a in ints:
        if a != 0:
            if a < 0:
                ints = [-b for b in ints]
            break
    return tuple(ints)


# ---------------------------------------------------------------------------
# affine system solving (for singular loci)
# ---------------------------------------------------------------------------

class _FrameDegenerate(Exception):
    """Internal: this frame cannot be used; try the next one."""


def _affine_system(polys: list, avar: str, bvar: str) -> tuple:
    """Distinct-solution data for a system of polynomials in (avar, bvar).

    Returns ``(rational_points, certified_count)`` where rational_points is a
    list of (Fraction, Fraction) pairs and certified_count includes solutions
    with irrational coordinates (each unresolved x-value counted once; the
    caller cross-checks via a second frame).
    """
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        raise ReducibleCurve("system vanishes identically")
    if any(p.is_constant() for p in nonzero):
        return [], 0
    shared = poly_gcd_many(nonzero)
    if not shared.is_constant():
        raise ReducibleCurve("system polynomials share a component")

    gens = [univar_coeffs(p, avar) for p in nonzero if p.degree_in(bvar) == 0]
    b_pos = [p for p in nonzero if p.degree_in(bvar) > 0]
    for i in range(len(b_pos)):
        for j in range(i + 1, len(b_pos)):
            r = resultant(UniPolyView(b_pos[i], bvar), UniPolyView(b_pos[j], bvar))
            if not r.is_zero():
                gens.append(univar_coeffs(r, avar))
    if not gens:
        raise _FrameDegenerate
    s = reduce(_uni_gcd, gens)
    if len(s) == 1:
        return [], 0
    roots, leftover = rational_roots(s)

    ring = nonzero[0].variables
    points = []
    fiber_total = 0
    for a0 in roots:
        sub = {w: (MultiPoly.const(ring, a0) if w == avar else MultiPoly.var(ring, w))
               for w in ring}
        fibers = [p.substitute(sub) for p in nonzero]
        fibers = [p for p in fibers if not p.is_zero()]
        if not fibers:
            raise ReducibleCurve(f"system vanishes on the line {avar} = {a0}")
        if any(p.is_constant() for p in fibers):
            continue  # spurious elimination root
        t = reduce(_uni_gcd, [univar_coeffs(p, bvar) for p in fibers])
        if len(t) == 1:
            continue
        broots, others = rational_roots(t)
        fiber_total += len(broots) + others
        points += [(a0, b0) for b0 in broots]
    certified = fiber_total + leftover
    return points, certified


def _chart_substitution(ring, chart_var):
    return {w: (MultiPoly.const(ring, 1) if w == chart_var else MultiPoly.var(ring, w))
            for w in ring}


def _infinity_restriction(polys: list, chart_var: str) -> list:
    """Each polynomial at chart_var = 0: the terms free of chart_var."""
    i = polys[0].variables.index(chart_var)
    return [MultiPoly(p.variables, {e: c for e, c in p.terms.items() if not e[i]})
            for p in polys]


def singular_system_frame_total(polys: list, frame: Matrix) -> int:
    """Distinct common zeros of a homogeneous system in one projective frame."""
    moved = [apply_matrix(p, frame) for p in polys]
    moved = [p for p in moved if not p.is_zero()]
    if not moved:
        raise ReducibleCurve("all system polynomials vanish")
    ring = moved[0].variables
    x, y, z = ring

    inf = [p for p in _infinity_restriction(moved, z) if not p.is_zero()]
    if not inf:
        raise ReducibleCurve("system vanishes on a whole line")
    ginf = poly_gcd_many(inf)
    inf_count = 0 if ginf.is_constant() else binary_distinct_roots(ginf, x, y)

    affine = [p.substitute(_chart_substitution(ring, z)) for p in moved]
    _, aff_count = _affine_system(affine, x, y)
    return aff_count + inf_count


def certified_singular_count(polys: list, max_frames: int = 40) -> int:
    """Distinct common zeros in P^2, certified by agreement of two frames."""
    totals: dict = {}
    tried = 0
    for base in _BASES:
        for t in (0, 1, 2):
            if tried >= max_frames:
                raise ChartExhausted("no two frames agree on the singular count")
            frame = mat_mul(base, _shear(t))
            tried += 1
            try:
                total = singular_system_frame_total(polys, frame)
            except _FrameDegenerate:
                continue
            totals[total] = totals.get(total, 0) + 1
            if totals[total] >= 2:
                return total
    raise ChartExhausted("no two frames agree on the singular count")


def rational_system_points(polys: list) -> list:
    """All rational projective common zeros, from all three affine charts."""
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise ReducibleCurve("all system polynomials vanish")
    ring = nz[0].variables
    found = set()
    for chart in range(3):
        chart_var = ring[chart]
        others = [v for v in ring if v != chart_var]
        affine = [p.substitute(_chart_substitution(ring, chart_var)) for p in nz]
        try:
            pts, _ = _affine_system(affine, others[0], others[1])
        except _FrameDegenerate:
            continue
        for a0, b0 in pts:
            coords = {chart_var: Fraction(1), others[0]: a0, others[1]: b0}
            found.add(normalize_point([coords[v] for v in ring]))
    return sorted(found)


# ---------------------------------------------------------------------------
# counting distinct intersections of two curves
# ---------------------------------------------------------------------------

def _pair_frame_count(Fm: MultiPoly, Gm: MultiPoly, t: int) -> Optional[tuple]:
    """Distinct x-images of the intersection in one frame, or None.

    Fm, Gm are the pair moved by a base that passed the shear-independent
    tests of `_base_usable`; the frame composes that base with the x-shear
    x -> x + t*y, done here together with the passage to the chart z = 1.
    An accepted frame gives ``(count, certified)``: certified when no root
    of the eliminant R carries two intersection points, so that count is
    exact.  The y-leading coefficients are constants, so specialising x
    commutes with the subresultants, and a fibre carries two points only
    if R and psc_1 both vanish there.
    """
    ring = Fm.variables
    x, y, z = ring
    at_t = {x: t, y: 1, z: 0}
    if Fm.evaluate(at_t) == 0 or Gm.evaluate(at_t) == 0:
        return None  # a leading y-coefficient vanishes in this frame
    xv, yv = MultiPoly.var(ring, x), MultiPoly.var(ring, y)
    chart = {x: xv + yv * t, y: yv, z: MultiPoly.const(ring, 1)}
    A = UniPolyView(Fm.substitute(chart), y)
    B = UniPolyView(Gm.substitute(chart), y)
    R = resultant(A, B)
    if R.is_zero() or R.degree_in(x) != Fm.total_degree() * Gm.total_degree():
        return None
    eliminant = univar_coeffs(R, x)
    certified = min(A.degree, B.degree) <= 1  # common roots of a linear operand are simple
    if not certified:
        psc1 = univar_coeffs(first_subresultant_coefficient(A, B), x)
        certified = len(_uni_gcd(eliminant, psc1)) == 1
    return _sqfree_degree(eliminant), certified


def _base_usable(Fm: MultiPoly, Gm: MultiPoly) -> bool:
    """Shear-independent frame tests for a pair moved by a base.

    x-shears fix the line z = 0 and act on it by an invertible change of
    coordinates, so a restriction to it that vanishes, or common zeros on
    it, spoil every shear of the base alike.  The two binary forms share a
    zero [x:1] when their dehomogenised coefficient lists have a common
    root, and the zero [1:0] when both lose their x^d term.
    """
    x, _, z = Fm.variables
    finf, ginf = _infinity_restriction([Fm, Gm], z)
    if finf.is_zero() or ginf.is_zero():
        return False
    f, g = _dehomogenised(finf, x), _dehomogenised(ginf, x)
    if f[-1] == 0 and g[-1] == 0:
        return False
    return len(_uni_gcd(f, g)) == 1


def distinct_intersection_count(F: MultiPoly, G: MultiPoly) -> int:
    """Number of distinct intersection points (no transversality assumed).

    The count of the first certified frame (see `_pair_frame_count`).  A
    frame whose certificate fails is a plain valid shear: its square-free
    eliminant degree can only undercount, each pair of points spoils at
    most one shear, so the maximum over C(N,2)+1 valid shears of one base is
    exact, and reaching the Bezout ceiling N = d1*d2 is exact at once.
    """
    if F.is_zero() or G.is_zero():
        raise ZeroInput("zero polynomial in curve pair")
    d1, d2 = F.total_degree(), G.total_degree()
    ceiling = d1 * d2
    needed = ceiling * (ceiling - 1) // 2 + 1
    t_limit = needed + d1 + d2 + 8
    best = 0
    shared_checked = False
    for base in _BASES:
        Fm, Gm = apply_matrix(F, base), apply_matrix(G, base)
        if not _base_usable(Fm, Gm):
            # a shared component spoils every base, so the first failing
            # base decides it; an accepted frame excludes it, as R != 0
            if not shared_checked and not poly_gcd(F, G).is_constant():
                raise ReducibleCurve("curves share a component")
            shared_checked = True
            continue
        valid = 0
        for t in range(t_limit):
            got = _pair_frame_count(Fm, Gm, t)
            if got is None:
                continue
            count, certified = got
            if certified:
                return count
            valid += 1
            best = max(best, count)
            if best == ceiling or valid >= needed:
                # among `needed` valid shears of one base at least one is
                # collision-free, and there the count is exact
                return best
    raise ChartExhausted("could not certify a distinct intersection count")


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

"""Plucker-type intersection identities over exact invariant packages.

The central object is the invariant package of a closed irreducible
subvariety S of P^n: its dimension, degree, degree-zero Chern-Mather class
c0m(S) = chi(S, Eu) (equal to chi(S) when S is smooth), and the Euler
characteristics of its generic linear slices.  Two sign conventions tie the
packages to intersection numbers of conormal Lagrangians:

    C_S . P^n        = (-1)^dim(S) * c0m(S)
    C_S1 . C_S2      = (-1)^dim(S1 cap S2) * chi(S1 cap S2)   (transversal)

The flop identity states that

    C_S1 . C_S2 + (C_S1 . P^n)(C_S2 . P^n) / ((-1)^(n+1) (n+1))

is invariant under replacing every variety by its projective dual.  The
"intro" form of the same identity reads

    (-1)^* (chi(S1 cap S2) - c0m(S1) c0m(S2) / (n+1))
        = chi(S1* cap S2*) - c0m(S1*) c0m(S2*) / (n+1),

with * the sum of the four dimensions.  Both forms are stated once, in
`identity_sides`, which returns the two sides as exact rationals and is used
by the checker, by the one-unknown solver and by the quadric-pair check,
which pairs S with a smooth quadric.  The other corollaries (dual degree,
dual c0m, dual codimension detection and the classical Plucker formulas for
plane curves) are implemented directly from the same package data, with
every division checked for exactness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    AmbientMismatch,
    AmbientTooSmall,
    InconsistentPackage,
    InvalidCounts,
    InvalidParams,
    KOutOfRange,
    NoFailureFound,
    NonIntegralResult,
    Overdetermined,
    UncertifiedTransversality,
    ZeroCoefficient,
)
from .exact import format_rational

CONORMAL = "conormal"
INTRO = "intro"
QUADRIC_PAIR = "quadric-pair"


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


@dataclass(frozen=True)
class VarietyInvariants:
    """Numerical invariant package of S in P^n.

    ``chi_slices[j]`` is chi of the intersection with a generic P^j; the
    list has length n+1.  It may be None for packages used only in identity
    checks (no slice data available), in which case every slice-consuming
    operation refuses the package.
    """

    label: str
    n: int
    dim: int
    degree: int
    c0m: int
    chi_slices: Optional[tuple] = None
    transversality_certified: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("ambient dimension must be positive")
        if not 0 <= self.dim <= self.n:
            raise InvalidParams(f"dim {self.dim} outside 0..{self.n}")
        if self.chi_slices is not None:
            object.__setattr__(self, "chi_slices", tuple(self.chi_slices))

    def validate_slices(self):
        """Structural constraints tying slices to dimension and degree."""
        s = self.chi_slices
        if s is None:
            raise InconsistentPackage(f"{self.label}: no slice data")
        if len(s) != self.n + 1:
            raise InconsistentPackage(
                f"{self.label}: chi_slices must have length n+1 = {self.n + 1}"
            )
        for j in range(self.n - self.dim):
            if s[j] != 0:
                raise InconsistentPackage(
                    f"{self.label}: a generic P^{j} misses S, chi_slices[{j}] must be 0"
                )
        if s[self.n - self.dim] != self.degree:
            raise InconsistentPackage(
                f"{self.label}: complementary slice must equal the degree"
            )

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "n": self.n,
            "dim": self.dim,
            "degree": self.degree,
            "c0m": self.c0m,
            "chi_slices": None if self.chi_slices is None else list(self.chi_slices),
            "transversal": self.transversality_certified,
        }


@dataclass(frozen=True)
class FlopCheckReport:
    form: str
    lhs: Fraction
    rhs: Fraction
    holds: bool

    def as_dict(self) -> dict:
        return {
            "form": self.form,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class PluckerDualData:
    d_dual: int
    delta_dual: int
    kappa_dual: int
    g: int

    def as_dict(self) -> dict:
        return asdict(self)


def flop_defect(a: int, b: int, n: int) -> Fraction:
    """The correction term a*b / ((-1)^(n+1) (n+1)) of the flop identity."""
    if n < 2:
        raise AmbientTooSmall("the flop identity needs n >= 2")
    return Fraction(a * b * _sign(n + 1), n + 1)


def identity_sides(form: str, n: int, dims: tuple, chi_cap, c0m_1, c0m_2,
                   chi_cap_dual, c0m_dual_1, c0m_dual_2) -> tuple:
    """The two sides ``(lhs, rhs)`` of the flop identity, as exact rationals.

    ``dims`` are (dim S1, dim S2, dim S1*, dim S2*); ``chi_cap`` and
    ``chi_cap_dual`` are chi of the transversal intersections S1 cap S2 and
    S1* cap S2*.  An empty intersection has chi 0, whatever its expected
    dimension.
    """
    d1, d2, dd1, dd2 = dims
    if form == CONORMAL:
        lhs = _sign(d1 + d2 - n) * chi_cap + flop_defect(
            _sign(d1) * c0m_1, _sign(d2) * c0m_2, n)
        rhs = _sign(dd1 + dd2 - n) * chi_cap_dual + flop_defect(
            _sign(dd1) * c0m_dual_1, _sign(dd2) * c0m_dual_2, n)
    elif form == INTRO:
        lhs = _sign(d1 + d2 + dd1 + dd2) * (chi_cap - Fraction(c0m_1 * c0m_2, n + 1))
        rhs = chi_cap_dual - Fraction(c0m_dual_1 * c0m_dual_2, n + 1)
    else:
        raise InvalidParams(f"unknown identity form {form!r}")
    return Fraction(lhs), Fraction(rhs)


def _require_certified(*packages: VarietyInvariants):
    for pkg in packages:
        if not pkg.transversality_certified:
            raise UncertifiedTransversality(f"{pkg.label}: no transversality certificate")


def _require_pairable(s1: VarietyInvariants, s2: VarietyInvariants,
                      d1: VarietyInvariants, d2: VarietyInvariants):
    n = s1.n
    if n < 2:
        raise AmbientTooSmall("the flop identity needs n >= 2")
    if not (s2.n == d1.n == d2.n == n):
        raise AmbientMismatch("packages do not share the ambient dimension")
    _require_certified(s1, s2, d1, d2)
    if s1.dim == n or s2.dim == n:
        raise UncertifiedTransversality(
            "a copy of the ambient space cannot intersect its partner transversally"
        )


def check_identity(
    s1: VarietyInvariants,
    s2: VarietyInvariants,
    d1: VarietyInvariants,
    d2: VarietyInvariants,
    chi_s1_cap_s2: int,
    chi_d1_cap_d2: int,
    form: str = CONORMAL,
) -> FlopCheckReport:
    """Evaluate both sides of the flop identity for a certified pair.

    ``d1``/``d2`` are the packages of the projective duals of ``s1``/``s2``;
    ``chi_*`` are Euler characteristics of the two transversal intersections.
    """
    _require_pairable(s1, s2, d1, d2)
    n = s1.n
    if form == CONORMAL:
        for chi, a, b in ((chi_s1_cap_s2, s1, s2), (chi_d1_cap_d2, d1, d2)):
            # a nonempty transversal intersection has dimension dim a + dim b - n
            if chi != 0 and a.dim + b.dim < n:
                raise InconsistentPackage(
                    "nonzero chi for an intersection that generic dimension count forbids"
                )
    lhs, rhs = identity_sides(
        form, n, (s1.dim, s2.dim, d1.dim, d2.dim),
        chi_s1_cap_s2, s1.c0m, s2.c0m, chi_d1_cap_d2, d1.c0m, d2.c0m,
    )
    return FlopCheckReport(form, lhs, rhs, lhs == rhs)


def check_forms(s1: VarietyInvariants, s2: VarietyInvariants,
                d1: VarietyInvariants, d2: VarietyInvariants,
                chi_s1_cap_s2: int, chi_d1_cap_d2: int,
                forms: tuple = (CONORMAL, INTRO)) -> dict:
    """`check_identity` in each of ``forms``, as ``{form: report}``."""
    return {form: check_identity(s1, s2, d1, d2, chi_s1_cap_s2, chi_d1_cap_d2, form)
            for form in forms}


def classical_plucker(d: int, delta: int, kappa: int) -> PluckerDualData:
    """Dual-curve counts of a nodal/cuspidal plane curve.

        d*     = d^2 - d - 2 delta - 3 kappa
        kappa* = 3 d (d - 2) - 6 delta - 8 kappa
        delta* from invariance of the geometric genus.
    """
    if d < 2:
        raise InvalidCounts("classical formulas need d >= 2")
    if delta < 0 or kappa < 0:
        raise InvalidCounts("negative singularity counts")
    g2 = (d - 1) * (d - 2) - 2 * delta - 2 * kappa
    if g2 < 0:
        raise InvalidCounts("counts exceed the arithmetic genus")
    g = g2 // 2
    d_dual = d * d - d - 2 * delta - 3 * kappa
    kappa_dual = 3 * d * (d - 2) - 6 * delta - 8 * kappa
    if d_dual < 1 or kappa_dual < 0:
        raise InvalidCounts("input outside the nodal/cuspidal regime")
    delta_dual = (d_dual - 1) * (d_dual - 2) // 2 - kappa_dual - g
    if delta_dual < 0:
        raise InvalidCounts("negative dual node count")
    return PluckerDualData(d_dual, delta_dual, kappa_dual, g)


def detect_dual_codim(s: VarietyInvariants) -> int:
    """Smallest k >= 1 with k*c0m != (k+1)*chi_slices[n-1] - chi_slices[n-k-1].

    That k equals the codimension of the dual variety.  For k = 0 the
    relation reads 0 = chi(S cap P^(n-1)) - chi(S cap P^(n-1)) and can only
    fail through structural corruption of the package, which is what the
    validation guard below turns into InconsistentPackage.
    """
    _require_certified(s)
    s.validate_slices()
    slices = s.chi_slices
    n = s.n
    for k in range(1, n + 1):
        # at k = n the slice is S cap P^(-1) = the empty set, chi = 0
        low = slices[n - k - 1] if n - k - 1 >= 0 else 0
        if k * s.c0m != (k + 1) * slices[n - 1] - low:
            return k
    raise NoFailureFound(
        f"{s.label}: equality holds through k = n; package inconsistent with a"
        " nonempty dual"
    )


def dual_c0m(s: VarietyInvariants, k: int, dual_codim: Optional[int] = None) -> int:
    """Degree-zero Chern-Mather class of the dual variety.

    c0m(S*) = (-1)^(dim S + dim S* + n + 1)
              * ( (n-k)/(k+1) c0m(S) - (n+1)/(k+1) chi(S cap P^(n-k-1)) ).
    """
    if dual_codim is None:
        dual_codim = detect_dual_codim(s)
    if not 0 <= k <= dual_codim - 1:
        raise KOutOfRange(f"k = {k} outside 0..{dual_codim - 1}")
    s.validate_slices()
    n = s.n
    dim_dual = n - dual_codim
    value = _sign(s.dim + dim_dual + n + 1) * (
        Fraction(n - k, k + 1) * s.c0m
        - Fraction(n + 1, k + 1) * s.chi_slices[n - k - 1]
    )
    if value.denominator != 1:
        raise NonIntegralResult(f"c0m of the dual came out {value}")
    return int(value)


def dual_degree_from_invariants(s: VarietyInvariants, k: int, l: int) -> int:
    """Degree of the dual variety, l = codim(S*).

    deg(S*) = (-1)^(dim S + l + 1) * ( (l-k)/(k+1) c0m(S)
              + chi(S cap P^(n-l-1)) - (l+1)/(k+1) chi(S cap P^(n-k-1)) ).
    """
    if not 0 <= k <= l - 1:
        raise KOutOfRange(f"k = {k} outside 0..{l - 1}")
    s.validate_slices()
    n = s.n
    if n - l - 1 < 0:
        raise KOutOfRange(f"l = {l} too large for ambient P^{n}")
    value = _sign(s.dim + l + 1) * (
        Fraction(l - k, k + 1) * s.c0m
        + s.chi_slices[n - l - 1]
        - Fraction(l + 1, k + 1) * s.chi_slices[n - k - 1]
    )
    if value.denominator != 1:
        raise NonIntegralResult(f"dual degree came out {value}")
    return int(value)


def quadric_pair_check(
    s: VarietyInvariants,
    s_dual: VarietyInvariants,
    chi_s_cap_q: int,
    chi_sd_cap_qd: int,
) -> FlopCheckReport:
    """The flop identity specialized to pairing with a smooth quadric.

    The dual of a smooth quadric Q of P^n is again a smooth quadric; both
    have dimension n - 1 and c0m = chi(Q_(n-1)) = n + (1 - (-1)^n)/2, so the
    intro form of `identity_sides` for S and Q, times (-1)^(dim S + dim S*),
    reads

    chi(S cap Q) - c0m(Q) c0m(S) / (n+1)
        = (-1)^(dim S + dim S*) ( chi(S* cap Q*) - c0m(Q) c0m(S*) / (n+1) ).
    """
    if s.n != s_dual.n:
        raise AmbientMismatch("packages do not share the ambient dimension")
    _require_certified(s, s_dual)
    n = s.n
    sign = _sign(s.dim + s_dual.dim)
    c0m_q = n + (1 - _sign(n)) // 2
    lhs, rhs = identity_sides(INTRO, n, (s.dim, n - 1, s_dual.dim, n - 1), chi_s_cap_q,
                              s.c0m, c0m_q, chi_sd_cap_qd, s_dual.c0m, c0m_q)
    lhs, rhs = sign * lhs, sign * rhs
    return FlopCheckReport(QUADRIC_PAIR, lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# one-unknown solver
# ---------------------------------------------------------------------------

IDENTITY_FIELDS = (
    "chi_cap",
    "c0m_1",
    "c0m_2",
    "chi_cap_dual",
    "c0m_dual_1",
    "c0m_dual_2",
)


@dataclass(frozen=True)
class IdentityInstance:
    """A flop-identity instance with exactly one field left unknown (None).

    ``dims`` are (dim S1, dim S2, dim S1*, dim S2*).
    """

    n: int
    dims: tuple
    chi_cap: Optional[Fraction] = None
    c0m_1: Optional[Fraction] = None
    c0m_2: Optional[Fraction] = None
    chi_cap_dual: Optional[Fraction] = None
    c0m_dual_1: Optional[Fraction] = None
    c0m_dual_2: Optional[Fraction] = None
    form: str = INTRO

    def _difference(self, values: dict) -> Fraction:
        lhs, rhs = identity_sides(
            self.form, self.n, self.dims,
            *(Fraction(values[f]) for f in IDENTITY_FIELDS),
        )
        return lhs - rhs


def solve_unknown(instance: IdentityInstance) -> Fraction:
    """Solve a flop-identity instance for its single unknown field.

    The identity is linear in every individual field; the solver evaluates
    the difference of the two sides at unknown = 0 and 1 and inverts the
    affine map.  A vanishing coefficient means the unknown cancels.
    """
    if instance.n < 2:
        raise AmbientTooSmall("the flop identity needs n >= 2")
    values = {f: getattr(instance, f) for f in IDENTITY_FIELDS}
    unknowns = [f for f, v in values.items() if v is None]
    if len(unknowns) != 1:
        raise Overdetermined(
            f"exactly one unknown required, got {len(unknowns)}: {unknowns}"
        )
    unk = unknowns[0]
    at0 = dict(values)
    at0[unk] = 0
    at1 = dict(values)
    at1[unk] = 1
    b = instance._difference(at0)
    a = instance._difference(at1) - b
    if a == 0:
        raise ZeroCoefficient(f"the unknown {unk} cancels from the identity")
    return -b / a

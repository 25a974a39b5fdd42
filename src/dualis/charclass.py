"""Euler characteristics of standard varieties, by exact closed forms.

Projective spaces, smooth quadrics and Grassmannians have cell
decompositions, so their Euler characteristics are cell counts:

    chi(P^n)     = n + 1
    chi(Q_n)     = n + 1 + (1 + (-1)^n) / 2
    chi(Gr(k,n)) = binomial(n, k)

For a smooth complete intersection X of multidegree (d_1, ..., d_r) in P^n
the Euler characteristic is the top Chern number, read from the expansion of

    c(TX) = (1 + h)^(n+1) / prod_i (1 + d_i h)

as prod_i d_i times the coefficient of h^(dim X).  Dividing by 1 + d*h keeps
the coefficients integers (c_k becomes c_k - d*c_(k-1), k ascending), so the
whole computation runs over the integers.

The module also assembles full invariant packages for smooth hypersurfaces
and linear subspaces: the chi values of all generic linear slices, which is
exactly the data the intersection identities consume.  Complete
intersections, Grassmannians and packages above `MAX_AMBIENT_DIM` or
`MAX_DEGREE` are refused before any work starts.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import GuardrailExceeded, InvalidParams
from .flopcalc import VarietyInvariants

PROJECTIVE_SPACE = "projective_space"
QUADRIC = "quadric"
GRASSMANNIAN = "grassmannian"

#: largest n accepted for complete intersections, Gr(k, n) and packages: a
#: package takes O(n^2) integer steps (a smooth hypersurface package in P^40
#: takes about 0.25 ms on one Xeon core, of degree 3 or 1000), and every chi
#: stays far below the 4300 digits Python converts to decimal text (131
#: digits at n = 40, degrees 1000)
MAX_AMBIENT_DIM = 40
#: largest hypersurface degree accepted
MAX_DEGREE = 1000


def _check_caps(n: int, degrees: Sequence[int] = ()) -> None:
    # the messages omit the values, which may be too long to print
    if n > MAX_AMBIENT_DIM:
        raise GuardrailExceeded(f"n exceeds the cap of {MAX_AMBIENT_DIM}")
    if any(d > MAX_DEGREE for d in degrees):
        raise GuardrailExceeded(f"a degree exceeds the cap of {MAX_DEGREE}")


def chi_standard(kind: str, *params: int) -> int:
    """chi of P^n, Q_n or Gr(k,n) by cell count / closed form; P^n and Q_n
    take one parameter n, Gr(k,n) two."""
    arity = {PROJECTIVE_SPACE: 1, QUADRIC: 1, GRASSMANNIAN: 2}.get(kind)
    if arity is not None and len(params) != arity:
        raise InvalidParams(f"{kind} takes {arity} parameter(s), got {len(params)}")
    if kind == PROJECTIVE_SPACE:
        (n,) = params
        if n < 0:
            raise InvalidParams("projective space needs n >= 0")
        return n + 1
    if kind == QUADRIC:
        (n,) = params
        if n < 0:
            raise InvalidParams("quadric needs n >= 0")
        return n + 1 + (1 + (-1) ** n) // 2
    if kind == GRASSMANNIAN:
        k, n = params
        if not 0 < k < n:
            raise InvalidParams("Grassmannian needs 0 < k < n")
        _check_caps(n)
        return math.comb(n, k)
    raise InvalidParams(f"unknown kind {kind!r}")


def chi_smooth_complete_intersection(n: int, degrees: Sequence[int]) -> int:
    """chi of a smooth complete intersection of the given multidegree in P^n."""
    degrees = list(degrees)
    if n < 1 or not 1 <= len(degrees) <= n or any(d < 1 for d in degrees):
        raise InvalidParams(f"bad complete-intersection data n={n}, degrees={degrees}")
    _check_caps(n, degrees)
    dim = n - len(degrees)
    # the coefficients of (1 + h)^(n+1), divided by each 1 + d*h in turn
    c = [math.comb(n + 1, k) for k in range(dim + 1)]
    for d in degrees:
        for k in range(1, dim + 1):
            c[k] -= d * c[k - 1]
    return math.prod(degrees) * c[dim]


def hypersurface_package(n: int, d: int, label: str | None = None) -> VarietyInvariants:
    """Full invariant package of a smooth degree-d hypersurface in P^n.

    A generic P^j slices it in a smooth degree-d hypersurface of P^j, so the
    slice chi values all come from the complete-intersection closed form;
    the slice by a line, chi_smooth_complete_intersection(1, [d]), is d
    points.  Generic linear slices of a smooth variety are transversal.
    """
    if n < 2 or d < 1:
        raise InvalidParams("hypersurface package needs n >= 2, d >= 1")
    chi = chi_smooth_complete_intersection(n, [d])
    slices = [0]
    for j in range(1, n + 1):
        slices.append(chi_smooth_complete_intersection(j, [d]))
    return VarietyInvariants(
        label=label or f"smooth degree-{d} hypersurface in P^{n}",
        n=n,
        dim=n - 1,
        degree=d,
        c0m=chi,
        chi_slices=tuple(slices),
        transversality_certified=True,
    )


def linear_space_package(n: int, m: int, label: str | None = None) -> VarietyInvariants:
    """Invariant package of a linear subspace P^m inside P^n.

    A generic P^j meets P^m in P^(m+j-n) (empty when that is negative), so
    the slice values are chi of projective spaces.
    """
    if not 0 <= m <= n or n < 2:
        raise InvalidParams("linear package needs 0 <= m <= n, n >= 2")
    _check_caps(n)
    slices = []
    for j in range(n + 1):
        k = m + j - n
        slices.append(0 if k < 0 else k + 1)
    return VarietyInvariants(
        label=label or f"P^{m} in P^{n}",
        n=n,
        dim=m,
        degree=1,
        c0m=m + 1,
        chi_slices=tuple(slices),
        transversality_certified=True,
    )

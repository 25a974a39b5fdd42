"""Small exact polynomial arithmetic, written for the benchmark alone.

The benchmark builds its inputs and checks dualis's answers with this module,
never with dualis's own kernel, so a defect in the code being timed cannot
also hide in the reference.  A polynomial is a dict mapping exponent tuples
to nonzero ``Fraction`` coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z]\w*|[-+*^])")


def parse(text: str, names: str) -> dict:
    """Parse a sum of terms ``c*x^i*y^j``, the grammar dualis prints."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"cannot parse {text!r}")
    poly: dict = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while tokens[i] in "+-":
            sign = -sign if tokens[i] == "-" else sign
            i += 1
        coeff = Fraction(sign)
        exps = [0] * len(names)
        while True:
            tok = tokens[i]
            i += 1
            if tok[0].isdigit():
                coeff *= Fraction(tok)
            else:
                k = 1
                if i < len(tokens) and tokens[i] == "^":
                    k = int(tokens[i + 1])
                    i += 2
                exps[names.index(tok)] += k
            if i < len(tokens) and tokens[i] == "*":
                i += 1
            else:
                break
        _accumulate(poly, tuple(exps), coeff)
    return poly


def text(poly: dict, names: str) -> str:
    """Render in the grammar ``parse`` reads (and dualis's ``--poly`` takes)."""
    if not poly:
        return "0"
    parts = []
    for exps in sorted(poly, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = poly[exps]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        parts.append((" - " if c < 0 else " + ") + body)
    first = parts[0]
    return ("-" if first.startswith(" -") else "") + first[3:] + "".join(parts[1:])


def _accumulate(poly: dict, exps: tuple, coeff) -> None:
    total = poly.get(exps, 0) + coeff
    if total:
        poly[exps] = Fraction(total)
    else:
        poly.pop(exps, None)


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        _accumulate(out, e, c)
    return out


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def linear_change(poly: dict, m) -> dict:
    """G with G(v) = F(m v), for a 3x3 matrix m (rows are tuples)."""
    images = [{_unit(j): Fraction(m[i][j]) for j in range(3) if m[i][j]} for i in range(3)]
    out: dict = {}
    for exps, c in poly.items():
        term = {(0, 0, 0): c}
        for i, k in enumerate(exps):
            for _ in range(k):
                term = mul(term, images[i])
        out = add(out, term)
    return out


def _unit(j: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(3))


def derivative(poly: dict, i: int) -> dict:
    out: dict = {}
    for e, c in poly.items():
        if e[i]:
            _accumulate(out, e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
    return out


def evaluate(poly: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in poly.items():
        term = c
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


def degree(poly: dict) -> int:
    return max((sum(e) for e in poly), default=-1)


def is_homogeneous(poly: dict) -> bool:
    return len({sum(e) for e in poly}) <= 1


def proportional(p: dict, q: dict) -> bool:
    """p == c*q for a nonzero rational c."""
    if not p or p.keys() != q.keys():
        return False
    e0 = next(iter(p))
    ratio = p[e0] / q[e0]
    return all(p[e] == ratio * q[e] for e in p)


# --- linear algebra on 3x3 integer matrices ---------------------------------

def mat_mul(a, b) -> tuple:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_vec(m, v) -> tuple:
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def transpose(m) -> tuple:
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def adjugate(m) -> tuple:
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def det(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse(m) -> tuple:
    """Inverse of a unimodular integer matrix (integral because det = +-1)."""
    d = det(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(x * d for x in row) for row in adjugate(m))


def cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def normalize_point(coords) -> tuple:
    """Coprime integers, first nonzero entry positive (dualis's convention)."""
    fracs = [Fraction(c) for c in coords]
    den = 1
    for c in fracs:
        den = den * c.denominator // _gcd(den, c.denominator)
    ints = [int(c * den) for c in fracs]
    g = 0
    for a in ints:
        g = _gcd(g, a)
    ints = [a // g for a in ints]
    if next(a for a in ints if a) < 0:
        ints = [-a for a in ints]
    return tuple(ints)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


# --- univariate polynomials as coefficient lists [c0, c1, ...] ---------------

def _trim(a: list) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a: list, b: list) -> list:
    a = _trim(a)
    b = _trim(b)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _trim(a)
    return a


def univariate_squarefree(coeffs: list) -> bool:
    """Does the polynomial have no repeated complex root?"""
    a = _trim(coeffs)
    b = _trim([c * i for i, c in enumerate(a)][1:])
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1

"""Test-side references for the integer eliminant kernel and the parser of
`dualis.exact`.

The kernel reads every subresultant coefficient s_{k,j} of two lists from
one subresultant chain.  These references lay out the minor of the
Sylvester matrix that defines s_{k,j} and take its determinant with SymPy,
specialise polynomials in several variables to one, and carry polynomials
to SymPy and back.  The parser's reference is the two-pass parser that
`exact.parse_poly` replaced, kept verbatim with its rational reader: it
tokenizes, classifies each token again by pattern and builds through the
public constructor.  The references of a ternary form's coordinate change
and of its restriction to a line are the kernels that `_moved` and
`_restriction` replaced, kept verbatim: the expansion of the terms at the
rows of the matrix (`exact._expand`), and the values at s = 0..d,
interpolated (`exact._interpolate`).
"""

import re
from fractions import Fraction
from typing import Sequence

import pytest

from dualis.errors import PolySyntaxError, UnknownVariableError
from dualis.exact import EXPONENT_DIGITS, MultiPoly, _clipped, _expand, _interpolate

_IDENT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def minor_matrix(a, b, k, j):
    """The matrix of s_{k,j} of the lists [a0..am], [b0..bn]: the first n-k
    shifted rows of a and the first m-k of b in the Sylvester matrix (rows
    of a first), cut to the first m+n-2k-1 columns and the column of the
    j-th power in S_k; at k = j = 0, the Sylvester matrix."""
    m, n = len(a) - 1, len(b) - 1
    width, cut = m + n - k, m + n - 2 * k - 1
    ra, rb = list(reversed(a)), list(reversed(b))
    rows = ([[0] * i + ra + [0] * (width - m - 1 - i) for i in range(n - k)]
            + [[0] * i + rb + [0] * (width - n - 1 - i) for i in range(m - k)])
    return [row[:cut] + [row[width - 1 - j]] for row in rows]


def det(rows):
    """The determinant of a square matrix of ints, Fractions or SymPy
    expressions, by SymPy over the domain of its entries, as a SymPy
    expression."""
    sympy = pytest.importorskip("sympy")
    matrix = sympy.Matrix(rows).to_DM()
    return matrix.domain.to_sympy(matrix.det())


def minor_det(a, b, k, j):
    """s_{k,j} of two lists, the SymPy determinant of its minor."""
    return det(minor_matrix(a, b, k, j))


def chain(a, b):
    """Every s_{k,j}, 0 <= j <= k < max(min(m, n), 1), by SymPy: the shape
    of `exact._subresultant_chain`."""
    m, n = len(a) - 1, len(b) - 1
    return [[minor_det(a, b, k, j) for j in range(k + 1)] for k in range(max(min(m, n), 1))]


def specialised(poly, values):
    """poly with the variables in values replaced by those numbers, by
    SymPy: a polynomial in the other variables, in the same ring."""
    sympy = pytest.importorskip("sympy")
    return _from_sympy(sympy_expr(poly).subs({sympy.Symbol(v): sympy.Rational(str(c))
                                              for v, c in values.items()}), poly.variables)


def sympy_expr(poly):
    """A MultiPoly as a SymPy expression in symbols named as its variables."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(poly.variables)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s ** k for s, k in zip(symbols, e)))
                       for e, c in poly.terms.items()))


def sympy_poly(poly, order=None):
    """A MultiPoly as a SymPy Poly over QQ in symbols named as its
    variables, or as the variables in ``order``, a permutation of them."""
    sympy = pytest.importorskip("sympy")
    order = poly.variables if order is None else tuple(order)
    index = [poly.variables.index(v) for v in order]
    terms = {tuple(e[i] for i in index): sympy.Rational(c.numerator, c.denominator)
             for e, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *sympy.symbols(order), domain="QQ")


def sympy_polar(poly, w):
    """The polar sum_i w_i dF/dx_i of poly at the point w (ints or
    Fractions), from SymPy's partial derivatives."""
    sympy = pytest.importorskip("sympy")
    F = sympy_poly(poly)
    return _from_sympy(sum((F.diff(s) * sympy.Rational(str(c)) for s, c in zip(F.gens, w)),
                           F * 0), poly.variables)


def sympy_resultant(f, g, var):
    """Res(f, g) in var by sympy.resultant, called with the operand of
    higher degree first and the sign of the swap applied: SymPy 1.14 gives
    the opposite sign for some lower odd degrees first, such as degrees 1
    and 3 (Res(y, 6y^3 + 7) = 7, where SymPy gives -7)."""
    sympy = pytest.importorskip("sympy")
    order = (var,) + tuple(v for v in f.variables if v != var)
    F, G = (sympy_poly(p, order) for p in (f, g))
    if len(order) > 1:  # polynomials in var over the polynomials in the others
        F, G = (P.eject(*P.gens[1:]) for P in (F, G))
    if F.degree() >= G.degree():
        return sympy.resultant(F, G)
    return (-1) ** (F.degree() * G.degree()) * sympy.resultant(G, F)


def _from_sympy(expr, variables):
    """A SymPy expression, polynomial in symbols named as the variables, as
    a MultiPoly in that ring."""
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(expr, *sympy.symbols(variables))
    return MultiPoly(variables, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction: an optional sign, digits,
    and an optional "/" followed by digits, with surrounding whitespace.
    Anything else, such as exponent notation, decimals or digit separators,
    is refused with PolySyntaxError.
    """
    stripped = text.strip()
    try:
        if _RATIONAL.fullmatch(stripped):
            return Fraction(stripped)
    except (ValueError, ZeroDivisionError):  # a zero denominator, or digits past int's limit
        pass
    raise PolySyntaxError(f"bad rational literal {_clipped(text)}")


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z][A-Za-z0-9_]*|\^|\*|\+|-)")


def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse the polynomial grammar.

    Terms are separated by ``+``/``-``; a term is ``coeff``,
    ``coeff*monomial`` or ``monomial``; ``coeff`` is an integer or ``p/q``;
    a monomial is ``var``, ``var^k`` or products joined by ``*``.
    Whitespace is insignificant.

    >>> parse_poly("3/2*u*v - w^2", ("u", "v", "w")).text()
    '3/2*u*v - w^2'
    """
    variables = tuple(variables)
    tokens = []
    pos = 0
    stripped = text.strip()
    if not stripped:
        raise PolySyntaxError("empty input")
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if not m:
            raise PolySyntaxError(f"unexpected character at {stripped[pos:pos+10]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    terms: dict = {}
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        saw_sign = False
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if i >= n:
            raise PolySyntaxError("dangling sign")
        if not first and not saw_sign:
            raise PolySyntaxError(f"missing +/- before {_clipped(tokens[i])}")
        first = False

        coeff = Fraction(sign)
        exps = [0] * len(variables)
        expect_factor = True
        while True:
            if not expect_factor:
                break
            if i >= n:
                raise PolySyntaxError("term ended unexpectedly")
            tok = tokens[i]
            if re.fullmatch(r"\d+/\d+|\d+", tok):
                coeff *= parse_rational(tok)
                i += 1
            elif re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
                if tok not in variables:
                    raise UnknownVariableError(f"unknown variable {_clipped(tok)}")
                k = 1
                i += 1
                if i < n and tokens[i] == "^":
                    i += 1
                    if i >= n or not re.fullmatch(r"\d+", tokens[i]):
                        raise PolySyntaxError("expected integer exponent after '^'")
                    digits = tokens[i].lstrip("0")
                    if len(digits) > EXPONENT_DIGITS:
                        raise PolySyntaxError(
                            f"exponent of {len(digits)} digits exceeds {EXPONENT_DIGITS} digits")
                    k = int(digits or "0")
                    i += 1
                exps[variables.index(tok)] += k
            else:
                raise PolySyntaxError(f"unexpected token {_clipped(tok)}")
            if i < n and tokens[i] == "*":
                i += 1
                expect_factor = True
            else:
                expect_factor = False
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return MultiPoly(variables, terms)


def moved(terms: dict, m) -> dict:
    """The integer terms of F(M v), for the integer terms of a ternary F
    (`_integer_terms`) and an integer matrix M: variable i goes to row i of
    M, as integer terms over the unit exponents, the rows of the identity.
    The identity returns the terms themselves, which no caller changes."""
    if m == _IDENT:
        return terms
    return _expand(terms, [{u: c for u, c in zip(_IDENT, row) if c} for row in m], 3)


def restriction(terms: dict, p: Sequence[int], q: Sequence[int]) -> list:
    """The integer list [c0..cd] of F(s*p + q), for the integer terms of a
    nonzero ternary form F of degree d (`_integer_terms(F)[1]`) and integer
    points p and q.

    The one evaluation of a form along a line, at s = 0..d over the
    integers, interpolated.  The list is not trimmed: entry d, the scaled
    F(p), is zero exactly when p lies on the curve.
    """
    d = sum(next(iter(terms)))
    values = []
    for s in range(d + 1):
        point = [s * pc + qc for pc, qc in zip(p, q)]
        x, y, z = ([r ** m for m in range(d + 1)] for r in point)
        values.append(sum(c * x[e[0]] * y[e[1]] * z[e[2]] for e, c in terms.items()))
    return _interpolate(values)

"""Test-side references for the integer eliminant kernel of `dualis.exact`.

The kernel reads every subresultant coefficient s_{k,j} of two lists from
one subresultant chain.  These references lay out the minor of the
Sylvester matrix that defines s_{k,j} and take its determinant with SymPy,
and specialise polynomials in several variables to one.
"""

import pytest

from dualis.exact import MultiPoly


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
    """poly with the variables in values replaced by those numbers: a
    polynomial in the other variables, in the same ring."""
    ring = poly.variables
    return poly.substitute({v: MultiPoly.const(ring, values[v]) if v in values
                            else MultiPoly.var(ring, v) for v in ring})


def sympy_expr(poly):
    """A MultiPoly as a SymPy expression in symbols named as its variables."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(poly.variables)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s ** k for s, k in zip(symbols, e)))
                       for e, c in poly.terms.items()))


def sympy_resultant(f, g, var):
    """Res(f, g) in var by sympy.resultant, called with the operand of
    higher degree first and the sign of the swap applied: SymPy 1.14 gives
    the opposite sign for some lower odd degrees first, such as degrees 1
    and 3 (Res(y, 6y^3 + 7) = 7, where SymPy gives -7)."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol(var)
    F, G = (sympy.Poly(sympy_expr(p), x) for p in (f, g))
    if F.degree() >= G.degree():
        return sympy.resultant(F, G)
    return (-1) ** (F.degree() * G.degree()) * sympy.resultant(G, F)

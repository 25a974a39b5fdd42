"""Exact scalar and polynomial arithmetic.

Every scalar in dualis is an arbitrary-precision rational: we use
:class:`fractions.Fraction`, which already maintains the invariants we need
(always in lowest terms, positive denominator, zero is 0/1).  No floating
point appears anywhere in the package.

A :class:`MultiPoly` is a sparse multivariate polynomial over the rationals:

    variables  --  ordered tuple of symbol names, e.g. ("x", "y", "z")
    terms      --  dict mapping exponent tuples to nonzero Fraction
                   coefficients; x^2*y is {(2, 1, 0): Fraction(1)}

Zero coefficients are never stored, so two polynomials are equal as values
exactly when their representations are equal.  Printing uses graded
lexicographic order (total degree first, then lex on exponents), which makes
``parse(print(p)) == p`` a fixed point.  The public constructor validates
its input; the ring's own results, clean by construction, are stored through
the private ``MultiPoly._trusted`` without a second pass.  Every
substitution, chart and change of coordinates runs through one integer
expansion, `_expand`: ``MultiPoly.substitute`` scales the polynomial and
its images to integers and divides by the common denominator once, and
`elimination` moves integer terms ({exponents: int}) with it directly.

On top of the polynomial ring the module provides the elimination kernel,
on integer lists: every eliminant is read from one subresultant chain
(`_subresultant_chain`, the subresultant PRS of Collins, J. ACM 14, 1967,
and Brown & Traub, J. ACM 18, 1971, abnormal blocks included), which holds
at once every subresultant coefficient s_{k,j} of two lists, the minors of
their Sylvester matrix (rows of the first operand first) that tell where
two polynomials share k roots and what the common factor is; s_{0,0} is
the resultant.  The counts of `elimination` and the dual equations of
`dualgeom` evaluate integer lists at points and read the chain there; the
discriminant of a list with roots at infinity is `_uni_discriminant`.
The public `resultant`, `discriminant`, `squarefree_part`, `poly_gcd` and
`radical` take polynomials in one variable: each clears denominators and
calls the same kernel, and a coefficient in a second variable is refused
with InvalidParams.  A hard guardrail refuses Sylvester matrices larger
than 64x64 so that a degenerate input fails fast instead of hanging.

Whether two ternary forms share a component is decided on a pencil of
lines through a point off their curves: each line restricts the forms to
integer univariate polynomials (`_restriction`, which also decides line
transversality in `curvelab`), one line with a constant gcd proves that
they do not, and d1*d2 + 1 failing lines prove that they do.  A form is
square-free exactly when it shares no component with the polar of a point
off its curve, and on the same pencil that polar restricts to derivatives,
so the same certificate decides square-freeness with d(d-1) + 1 lines.

The one univariate toolkit lives here too, on integer coefficient lists
[c0..cd], each operation written once: trimming, primitive parts,
derivatives, exact quotients and pseudo-remainders over Z, the
subresultant chain, the discriminant, interpolation from values or from
forward differences, evaluation by Horner's rule (`_at`, also
homogeneous at a fraction u/v), the reduction of lists modulo a list by
one common scale (`_reduced`), the distinct-roots test and the one
univariate gcd, Brown's modular algorithm (J. ACM 18, 1971), which works
modulo primes just below 2^30, one digit of a Python int each, checks
its candidate by trial division over Z and returns a
primitive gcd; a constant image modulo one prime proves a constant gcd,
which is the usual case.  ``MultiPoly.evaluate`` at a point of ints
runs over the integers too, with one division at the end.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, count, islice, product
from operator import add
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    DegenerateInput,
    DegreeGuardrail,
    DegreeTooLow,
    GuardrailExceeded,
    InvalidParams,
    InvariantViolation,
    PolySyntaxError,
    SharedVariableMismatch,
    UnknownVariableError,
    ZeroInput,
)

Rational = Fraction
Exponents = tuple  # tuple[int, ...], one entry per variable

# The degree budget of the curve paths, each cap named for the work it bounds.
#: input degree: the default cap of `curvelab.load_curve` and --max-degree,
#: and the most a caller may raise it to
INPUT_DEGREE_CAP = 6
INPUT_DEGREE_HARD_CAP = 8
#: Sylvester size: the most rows of any Sylvester matrix (a degree-d curve
#: against a line needs d + 1, so no curve and no dual has degree 64)
SYLVESTER_LIMIT = 64
#: analysed dual degree: of a dual that a report, a biduality check or a
#: curve pair analyses
DUAL_DEGREE_CAP = 8
#: direct bidual: biduality_check dualises a dual of at most this degree again
BIDUAL_DEGREE_CAP = 3

#: longest exponent accepted by parse_poly, in digits
EXPONENT_DIGITS = 6

_ZERO = Fraction(0)
_ONE = Fraction(1)


#: the refusal of an integer too long to print, which leaves the value out
_UNPRINTABLE = "an integer in the result has too many digits to print"


def int_text(n: int) -> str:
    """The decimal text of an integer.  Python refuses to print an integer
    of more than 4300 digits (its default int_max_str_digits); that is
    refused with GuardrailExceeded and the message `_UNPRINTABLE`."""
    try:
        return str(n)
    except ValueError:
        raise GuardrailExceeded(_UNPRINTABLE) from None


def format_rational(q: Fraction) -> str:
    """Render a rational as ``p/q`` (always with an explicit denominator)."""
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"


def _clipped(text: str) -> str:
    """Input text for an error message, cut to 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction: an optional sign, digits,
    and an optional "/" followed by digits, with surrounding whitespace.
    Anything else, such as exponent notation, decimals or digit separators,
    is refused with PolySyntaxError.

    >>> parse_rational(" -3/6 ")
    Fraction(-1, 2)
    >>> parse_rational("1e5")
    Traceback (most recent call last):
    ...
    dualis.errors.PolySyntaxError: bad rational literal '1e5'
    """
    stripped = text.strip()
    try:
        if _RATIONAL.fullmatch(stripped):
            return Fraction(stripped)
    except (ValueError, ZeroDivisionError):  # a zero denominator, or digits past int's limit
        pass
    raise PolySyntaxError(f"bad rational literal {_clipped(text)}")


def _grad_lex_key(exps: Exponents):
    return (sum(exps), exps)


def _integer_terms(poly: "MultiPoly") -> tuple:
    """(den, {exponents: int}): the coefficients of poly times the least
    common denominator den of all of them."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in poly.terms.items()}


def _add_product(acc: dict, a: dict, b: dict) -> dict:
    """Add the product of the polynomials a and b ({exponents: coefficient})
    into acc, in place, and return acc.  Cancelled entries stay as 0."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


def _expand(terms: dict, images: Sequence[dict], width: int) -> dict:
    """The integer terms of sum_e c_e prod_i images[i]^e_i, zeros dropped,
    for integer polynomials ({exponents: int}) whose images live in a ring
    of ``width`` variables: the one expansion behind every substitution and
    change of coordinates.  Each image's powers are built once, up to the
    largest exponent used, and every term is expanded into one accumulator.
    """
    one = {(0,) * width: 1}
    powers = []   # per image: its powers 0..top
    for i, image in enumerate(images):
        table = [one]
        for _ in range(max((e[i] for e in terms), default=0)):
            table.append(_add_product({}, table[-1], image))
        powers.append(table)
    acc: dict = {}
    for e, c in terms.items():
        factors = [powers[i][k] for i, k in enumerate(e) if k]
        part = {(0,) * width: c}
        for table in factors[:-1]:
            part = _add_product({}, part, table)
        _add_product(acc, part, factors[-1] if factors else one)
    return {e: c for e, c in acc.items() if c}


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Instances are immutable by convention: all operations return new
    polynomials, so values are safe to share between threads.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Fraction]):
        variables = tuple(variables)
        clean = {}
        nvars = len(variables)
        for exps, coeff in terms.items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            exps = tuple(map(int, exps))
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for variables {variables}")
            if exps in clean:  # distinct keys that convert to one exponent tuple
                coeff += clean.pop(exps)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """A polynomial holding ``variables`` and ``terms`` as given, neither
        validated nor copied.  Only for results this module builds itself:
        the caller guarantees a tuple of names, exponent tuples of its length
        and nonzero Fraction coefficients, and hands the dict over."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # --- constructors ---

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MultiPoly":
        value = Fraction(value)
        if value == 0:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariableError(f"{name!r} not among {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: _ONE})

    # --- basic predicates ---

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self._index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def used_variables(self) -> tuple:
        used = []
        for i, v in enumerate(self.variables):
            if any(e[i] > 0 for e in self.terms):
                used.append(v)
        return tuple(used)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(f"{name!r} not among {self.variables}") from None

    # --- ring operations ---

    def _check_ring(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise SharedVariableMismatch(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly._trusted(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly._trusted(self.variables,
                                      {e: c * other for e, c in self.terms.items() if other})
        self._check_ring(other)
        return MultiPoly._trusted(self.variables, {
            e: c for e, c in _add_product({}, self.terms, other.terms).items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # --- calculus and evaluation ---

    def derivative(self, name: str) -> "MultiPoly":
        i = self._index(name)
        # distinct monomials stay distinct when one exponent drops by one
        return MultiPoly._trusted(self.variables, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]})

    def evaluate(self, point: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Evaluate at a full rational point.  The terms, scaled to integers,
        are summed once and divided by their common denominator at the end;
        at a point of ints the sum stays over the integers."""
        vals = [val if type(val) is int else Fraction(val) for val in (point[v] for v in self.variables)]
        den, scaled = _integer_terms(self)
        total = 0
        for e, c in scaled.items():
            for val, exp in zip(vals, e):
                if exp:
                    c *= val**exp
            total += c
        return Fraction(total) / den

    def substitute(self, mapping: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables.

        Every variable of ``self`` must be mapped; all images must live in a
        common ring, which becomes the ring of the result.

        The expansion runs over the integers (`_expand`): ``self`` and each
        image are scaled to integer numerators, the coefficient of a term
        whose i-th exponent is k is lifted by den_i^(top_i - k) to the
        common denominator den(self) * prod den(image_i)^top_i, top_i the
        largest exponent of variable i, and that is divided out once.
        """
        images = [mapping[v] for v in self.variables]
        ring = images[0].variables
        for p in images:
            if p.variables != ring:
                raise SharedVariableMismatch("substitution images disagree on ring")
        den, scaled = _integer_terms(self)
        bases = []
        lifts = []    # per image: den_i^(top - k), lifting power k to the common denominator
        for i, image in enumerate(images):
            top = max((e[i] for e in scaled), default=0)
            den_i, base = _integer_terms(image)
            bases.append(base)
            lifts.append([den_i ** (top - k) for k in range(top + 1)])
            den *= den_i ** top
        lifted = {e: c * math.prod(lift[k] for lift, k in zip(lifts, e))
                  for e, c in scaled.items()}
        return MultiPoly._trusted(ring, {e: Fraction(c, den)
                                         for e, c in _expand(lifted, bases, len(ring)).items()})

    # --- leading data, content, normalization ---

    def leading(self) -> tuple:
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ZeroInput("zero polynomial has no leading term")
        e = max(self.terms, key=_grad_lex_key)
        return e, self.terms[e]

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return _ZERO
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "MultiPoly":
        """Divide out the content and make the leading coefficient positive."""
        if self.is_zero():
            return self
        c = self.content()
        _, lead = self.leading()
        if lead < 0:
            c = -c
        return self * (1 / c)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: _grad_lex_key(item[0]), reverse=True)

    # --- printing ---

    def text(self) -> str:
        """Canonical text form in the input grammar (graded-lex descending)."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k > 0
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            else:
                coeff = int_text(mag.numerator) if mag.denominator == 1 else format_rational(mag)
                body = f"{coeff}*{mono}" if mono else coeff
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MultiPoly({self.text()!r}, vars={self.variables})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# univariate views
# ---------------------------------------------------------------------------

class UniPolyView:
    """A MultiPoly viewed as univariate in one distinguished variable.

    Coefficients are MultiPoly in the remaining variables of the same ring
    (the distinguished variable simply does not occur in them).
    """

    __slots__ = ("poly", "var", "coeffs")

    def __init__(self, poly: MultiPoly, var: str):
        i = poly._index(var)
        deg = poly.degree_in(var)
        coeffs = [dict() for _ in range(max(deg, 0) + 1)]
        for e, c in poly.terms.items():
            rest = e[:i] + (0,) + e[i + 1 :]
            coeffs[e[i]][rest] = c
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "var", var)
        object.__setattr__(
            self, "coeffs", [MultiPoly._trusted(poly.variables, d) for d in coeffs]
        )

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("UniPolyView is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if not self.poly.is_zero() else -1


# ---------------------------------------------------------------------------
# univariate polynomials over Z, as coefficient lists [c0..cd]
# ---------------------------------------------------------------------------

def _trim(cs: Sequence[int]) -> list:
    """A copy of cs without trailing zero coefficients."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _primitive_ints(cs: Sequence[Union[int, Fraction]]) -> list:
    """Coprime integers proportional to a nonzero list of rationals (or ints)."""
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*ints)
    return [a // g for a in ints]


def _primitive(cs: Sequence[int]) -> list:
    """The primitive part of a trimmed nonzero integer list, with a positive
    leading coefficient."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if cs[-1] > 0 else [-c // g for c in cs]


def _derivative(cs: Sequence[int]) -> list:
    """The derivative of an integer list."""
    return [i * c for i, c in enumerate(cs)][1:]


def _y_derivative(columns: Sequence[list]) -> list:
    """The y-derivative of y-columns, entry j the integer list of y^j."""
    return [[j * c for c in col] for j, col in enumerate(columns)][1:]


def _try_uni_quo(a: Sequence[int], b: Sequence[int]) -> Optional[list]:
    """The quotient a / b of integer lists, b trimmed and nonzero, or None
    when b does not divide a over Z.  For a primitive b that is the same as
    over Q: by Gauss's lemma the quotient is then integral."""
    a, lead, n = list(a), b[-1], len(b) - 1
    q = [0] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        c, r = divmod(a[k + n], lead)
        if r:
            return None
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    return None if any(a[:n]) else q


def _uni_quo(a: Sequence[int], b: Sequence[int]) -> list:
    """The quotient a / b of integer lists, when b divides a over Z."""
    q = _try_uni_quo(a, b)
    if q is None:
        raise InvariantViolation(f"a divisor of degree {len(b) - 1} leaves a remainder"
                                 f" on a polynomial of degree {len(a) - 1}")
    return q


def _uni_prem(a: Sequence[int], b: Sequence[int]) -> list:
    """The pseudo-remainder of integer lists, trimmed: the remainder of
    lc(b)^(m-n+1) a by b, m = deg a >= n = deg b >= 1, b[-1] != 0."""
    r, lead, n = list(a), b[-1], len(b) - 1
    for k in reversed(range(len(a) - n)):
        top = r.pop()
        r = [c * lead for c in r]
        if top:
            for i, bc in enumerate(b[:n]):
                r[k + i] -= top * bc
    return _trim(r)


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Is n > 1 prime?  Miller-Rabin with the primes up to 37 as bases,
    exact for n < 3.18e23 (Sorenson & Webster, Math. Comp. 86, 2017).

    >>> [n for n in range(2, 40) if _is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    """
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: the four largest primes below 2^30, spelled out: almost every gcd needs
#: one prime, and testing it would cost more than the gcd; each residue is
#: one 30-bit digit of a Python int, so Euclid's steps stay short
_GCD_PRIMES = (2**30 - 35, 2**30 - 41, 2**30 - 83, 2**30 - 101)


def _gcd_primes() -> Iterable[int]:
    """The moduli of `_uni_gcd`: the primes below 2^30, largest first; those
    after `_GCD_PRIMES` are found lazily."""
    return chain(_GCD_PRIMES, filter(_is_prime, range(_GCD_PRIMES[-1] - 2, 2, -2)))


def _gcd_mod(a: list, b: list, p: int) -> list:
    """The monic gcd of a and b modulo p, for reduced lists with leading
    coefficients prime to p: Euclid's algorithm over GF(p)."""
    while b:
        inv, n = pow(b[-1], -1, p), len(b) - 1
        b = [c * inv % p for c in b]
        a = list(a)
        while len(a) > n:
            top, shift = a.pop(), len(a) - n
            if top:
                for i in range(n):
                    a[shift + i] = (a[shift + i] - top * b[i]) % p
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def _uni_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """The gcd of two integer lists not both zero, primitive with a positive
    leading coefficient; [1] when it is constant.

    Brown's modular algorithm (J. ACM 18, 1971).  Modulo a prime p that
    divides neither leading coefficient, deg gcd(a mod p, b mod p) >=
    deg gcd(a, b), so a constant image proves a constant gcd.  Otherwise
    the images of least degree, each scaled to the leading coefficient
    gcd(lc a, lc b), are combined by the Chinese remainder theorem, and the
    primitive part of the symmetric lift is accepted once it divides both
    inputs over Z: a common divisor of degree at least deg gcd(a, b) is the
    gcd.  Only finitely many primes are unlucky, so the loop ends.
    """
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return _primitive(a or b) if a or b else []
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    if len(b) == 1:
        return [1]
    lead = math.gcd(a[-1], b[-1])
    image, modulus = None, 1
    for p in _gcd_primes():
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        g = _gcd_mod([c % p for c in a], [c % p for c in b], p)
        if len(g) == 1:
            return [1]
        g = [c * lead % p for c in g]
        if image is None or len(g) < len(image):
            image, modulus = g, p  # the first prime, or every earlier one was unlucky
        elif len(g) > len(image):
            continue  # p is unlucky
        else:
            inv = pow(modulus, -1, p)
            image = [c + modulus * ((d - c) * inv % p) for c, d in zip(image, g)]
            modulus *= p
        candidate = _primitive([c - modulus if 2 * c > modulus else c for c in image])
        if _try_uni_quo(a, candidate) is not None and _try_uni_quo(b, candidate) is not None:
            return candidate
    raise InvariantViolation("the gcd primes ran out")


def _distinct_roots(cs: Sequence[int]) -> bool:
    """Has the nonzero integer list cs distinct roots: is gcd(f, f') constant?"""
    return len(_uni_gcd(cs, _derivative(cs))) == 1

def _subresultant_chain(a: Sequence[int], b: Sequence[int]) -> list:
    """The subresultants [S_0, ..., S_{l-1}], l = max(min(m, n), 1), of
    integer lists a, b of degrees m, n with nonzero leading coefficients:
    S_k is the list [s_{k,0}..s_{k,k}], s_{k,j} the determinant of the
    first n-k shifted rows of a and m-k of b in the Sylvester matrix (rows
    of a first), cut to their first m+n-2k-1 columns and the column of the
    j-th power in S_k, so S_0 = [Res(a, b)], the Sylvester determinant.
    For a constant operand c that is [[c^deg(other)]].

    For m >= n this is the subresultant PRS (Collins, J. ACM 14, 1967;
    Brown & Traub, J. ACM 18, 1971): r_1 = a, r_2 = b, r_{i+1} =
    prem(r_{i-1}, r_i) / beta_i, with beta_1 = (-1)^(delta_1 + 1),
    psi_1 = -1, psi_{i+1} = (-gamma_i)^delta_i / psi_i^(delta_i - 1) and
    beta_{i+1} = -gamma_i psi_{i+1}^delta_{i+1}, gamma_i = lc(r_i) and
    delta_i = deg r_i - deg r_{i+1}.  By the fundamental theorem of
    subresultants r_{i+1} is S_{d-1}, d = deg r_i, of degree e = deg
    r_{i+1}; when e < d - 1 the chain is abnormal there: S_{e+1}..S_{d-2}
    vanish and S_e = (-lc(r_{i+1}) / psi_{i+1})^(d-e-1) r_{i+1}.  A zero
    remainder leaves every lower S_k zero.  For m < n, swapping the n-k
    rows of a and the m-k rows of b in the minor gives S_k(a, b) =
    (-1)^((m-k)(n-k)) S_k(b, a).  Every division is exact over Z.  Each
    step costs O(m n) integer operations, against O((m+n-2k)^3) for one
    minor by fraction-free elimination.
    """
    m, n = len(a) - 1, len(b) - 1
    if m < n:
        return [s if (m - k) * (n - k) % 2 == 0 else [-c for c in s]
                for k, s in enumerate(_subresultant_chain(b, a))]
    if n < 1:
        return [[b[0] ** m]]
    chain = [[0] * (k + 1) for k in range(n)]
    delta, beta, psi = m - n, (-1) ** (m - n + 1), -1
    while len(b) > 1:
        r = [c // beta for c in _uni_prem(a, b)]
        if not r:
            break
        d, e = len(b) - 1, len(r) - 1
        psi = (-b[-1]) ** delta * psi // psi ** delta
        chain[d - 1] = r + [0] * (d - 1 - e)
        if e < d - 1:
            num, den = (-r[-1]) ** (d - e - 1), psi ** (d - e - 1)
            chain[e] = [c * num // den for c in r]
        delta, beta = d - e, -b[-1] * psi ** (d - e)
        a, b = b, r
    return chain


def _uni_discriminant(cs: Sequence[int]) -> int:
    """The discriminant of the integer list cs = [c0..cd], d >= 1, read as
    a binary form of degree d even where cd vanishes.

    Where cd != 0 it is (-1)^(d(d-1)/2) Res(f, f') / cd, read from the
    subresultant chain.  Where cd = 0 the form is y*g for g = [c0..c_{d-1}],
    and Disc(y*g) = Disc(g) Res(g, y)^2 = c_{d-1}^2 Disc(g), which vanishes
    with c_{d-1} (a double root at infinity).  A linear form has
    discriminant 1."""
    d = len(cs) - 1
    if d == 1:
        return 1
    if cs[-1]:
        return (-1) ** (d * (d - 1) // 2) * _subresultant_chain(cs, _derivative(cs))[0][0] // cs[-1]
    return cs[-2] ** 2 * _uni_discriminant(cs[:-1]) if cs[-2] else 0


def _differences(values: list) -> list:
    """The forward differences [Delta^0 v_0, ..., Delta^B v_0] of values
    v at 0..B."""
    heads = []
    while values:
        heads.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return heads


def _from_differences(heads: list) -> list:
    """[c0..cB] of the polynomial of degree <= B with integer coefficients
    whose forward differences at 0 are heads, in Newton's forward form
    sum_j (Delta^j v_0 / j!) t (t-1) ... (t-j+1), where j! divides
    Delta^j v_0 exactly."""
    coeffs = [0] * len(heads)
    falling = [1]          # t (t-1) ... (t-j+1), ascending coefficients
    factorial = 1          # j!
    for j, head in enumerate(heads):
        head //= factorial
        if head:
            for k, c in enumerate(falling):
                coeffs[k] += head * c
        factorial *= j + 1
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]  # *= (t - j)
    return coeffs


def _interpolate(values: list) -> list:
    """[c0..cB] of the polynomial of degree <= B with integer coefficients
    and values v at 0..B."""
    return _from_differences(_differences(values))


def _at(cs: Sequence[int], v, w: int = 1):
    """The value of the list cs at v, by Horner's rule: an int at an int, a
    Fraction at a Fraction.  The one evaluation of an integer list.  With
    w != 1 it is homogeneous, w^(len(cs)-1) cs(v/w), an int at ints."""
    acc = 0
    if w == 1:
        for c in reversed(cs):
            acc = acc * v + c
        return acc
    scale = 1
    for c in reversed(cs):
        acc = acc * v + c * scale
        scale *= w
    return acc


def _reduced(lists: Sequence[list], m: Sequence[int]) -> list:
    """The integer lists modulo the trimmed integer list m of degree n >= 1,
    all times one nonzero rational: lists of degree below n, so each is
    zero exactly when m divides its list, and the lists keep their ratios.
    Lists of degree below n already come back as they are.

    A list of length l > n has the pseudo-remainder lc(m)^(l-n) times its
    remainder (`_uni_prem`), so with L the longest length, each list is
    scaled to the one common power lc(m)^(L-n), and their content is then
    removed at once."""
    lead, n = m[-1], len(m) - 1
    top = max(map(len, lists))
    if top <= n:
        return list(lists)
    out = [[c * lead ** (top - len(cs)) for c in _uni_prem(cs, m)] if len(cs) > n
           else [c * lead ** (top - n) for c in cs] for cs in lists]
    g = math.gcd(*chain.from_iterable(out))
    return [[c // g for c in cs] for cs in out] if g else out

# ---------------------------------------------------------------------------
# the public eliminants, in one variable, on the integer kernel
# ---------------------------------------------------------------------------

def _integer_list(view: UniPolyView) -> tuple:
    """(den, [c0..cd]): the coefficients of a view, trimmed, times their
    least common denominator den.  A coefficient in another variable of the
    ring is refused with InvalidParams."""
    if not all(c.is_constant() for c in view.coeffs):
        raise InvalidParams(f"{_clipped(view.poly.text())} has a coefficient in a variable"
                            f" other than {view.var}; the eliminants take one variable")
    values = [sum(c.terms.values(), _ZERO) for c in view.coeffs]
    den = math.lcm(*(q.denominator for q in values))
    return den, _trim([q.numerator * (den // q.denominator) for q in values])


def _in_variable(ring: tuple, var: str, cs: Sequence) -> MultiPoly:
    """The list cs = [c0..cd] of rationals as a polynomial in var."""
    i = ring.index(var)
    return MultiPoly(ring, {(0,) * i + (k,) + (0,) * (len(ring) - i - 1): c
                            for k, c in enumerate(cs)})


def _one_variable(*polys: MultiPoly) -> Optional[str]:
    """The one variable the polynomials use, or None when they are
    constants.  Polynomials in more than one variable are refused with
    InvalidParams."""
    used = sorted({v for p in polys for v in p.used_variables()})
    if len(used) > 1:
        raise InvalidParams(f"the eliminants take one variable, not {', '.join(used)}")
    return used[0] if used else None


def _sylvester_guard(size: int) -> None:
    """Refuse a Sylvester matrix of more than SYLVESTER_LIMIT rows."""
    if size > SYLVESTER_LIMIT:
        raise DegreeGuardrail(f"Sylvester matrix {size}x{size} exceeds {SYLVESTER_LIMIT}")


def resultant(f: UniPolyView, g: UniPolyView) -> MultiPoly:
    """Resultant in the distinguished variable, of views in one variable.

    The determinant of the Sylvester matrix (f rows first); it satisfies
    ``Res(f, g) = lc(f)^deg(g) * prod g(alpha_i)`` over the roots of f.
    Views in different variables or rings are refused with
    SharedVariableMismatch, a zero operand with ZeroInput, two constants
    with DegenerateInput, a Sylvester matrix past SYLVESTER_LIMIT rows with
    DegreeGuardrail and a coefficient in another variable with
    InvalidParams, in that order.  The operands, scaled to integer lists
    by their denominators den_f and den_g, give s_{0,0} of their
    `_subresultant_chain`, divided by den_f^deg(g) den_g^deg(f).

    >>> x = ("x",)
    >>> f = parse_poly("x^2 + 1", x)
    >>> g = parse_poly("x^2 - 1", x)
    >>> resultant(UniPolyView(f, "x"), UniPolyView(g, "x")).text()
    '4'
    """
    if f.var != g.var or f.poly.variables != g.poly.variables:
        raise SharedVariableMismatch("views disagree on variable or ring")
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        raise ZeroInput("resultant of the zero polynomial")
    if m < 1 and n < 1:
        raise DegenerateInput("both operands constant in the distinguished variable")
    _sylvester_guard(m + n)
    (den_f, a), (den_g, b) = _integer_list(f), _integer_list(g)
    return MultiPoly.const(f.poly.variables,
                           Fraction(_subresultant_chain(a, b)[0][0], den_f ** n * den_g ** m))


def discriminant(f: UniPolyView) -> MultiPoly:
    """Discriminant in the distinguished variable, of a view in one
    variable: ``(-1)^(d(d-1)/2) * Res(f, f') / lc(f)`` with d = deg f >= 2.

    A lower degree is refused with DegreeTooLow, a Sylvester matrix of f
    and f' past SYLVESTER_LIMIT rows with DegreeGuardrail and a coefficient
    in another variable with InvalidParams.  For f = a / den, a an integer
    list, it is `_uni_discriminant` (a) / den^(2d-2).

    >>> discriminant(UniPolyView(parse_poly("x^3 - 3*x + 2", ("x",)), "x")).text()
    '0'
    >>> discriminant(UniPolyView(parse_poly("1/2*x^2 + x - 3", ("x",)), "x")).text()
    '7'
    """
    d = f.degree
    if d < 2:
        raise DegreeTooLow("discriminant needs degree >= 2")
    _sylvester_guard(2 * d - 1)
    den, cs = _integer_list(f)
    return MultiPoly.const(f.poly.variables, Fraction(_uni_discriminant(cs), den ** (2 * d - 2)))


def squarefree_part(f: Union[MultiPoly, UniPolyView]) -> MultiPoly:
    """Square-free part in one distinguished variable: the variable of a
    view, or the one variable a MultiPoly uses.  A MultiPoly in more than
    one variable, or a view with a coefficient in another variable, is
    refused with InvalidParams, and zero with ZeroInput.  The result is
    ``f / gcd(f, df/dvar)`` (`_uni_gcd`, `_derivative`, `_uni_quo`),
    primitive with a positive leading coefficient.

    >>> squarefree_part(parse_poly("x^3 - 3*x + 2", ("x",))).text()   # (x - 1)^2 (x + 2)
    'x^2 + x - 2'
    """
    view = f if isinstance(f, UniPolyView) else UniPolyView(
        f, _one_variable(f) or f.variables[0])
    if view.poly.is_zero():
        raise ZeroInput("square-free part of zero")
    _, cs = _integer_list(view)
    if len(cs) > 1:
        cs = _uni_quo(cs, _uni_gcd(cs, _derivative(cs)))
    return _in_variable(view.poly.variables, view.var, _primitive(cs))


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Gcd of two polynomials of one ring in at most one variable between
    them (`_uni_gcd`), primitive with a positive leading coefficient; zero
    only when both are.  The gcd of two nonzero constants is 1 (units are
    irrelevant over a field).  Polynomials in more than one variable are
    refused with InvalidParams.

    >>> poly_gcd(parse_poly("x^2 - 1", ("x",)),          # (x - 1)(x + 1)
    ...          parse_poly("2*x^2 + 4*x + 2", ("x",))).text()  # 2 (x + 1)^2
    'x + 1'
    """
    f._check_ring(g)
    var = _one_variable(f, g)
    if var is None:  # constants, perhaps of a ring without variables
        return MultiPoly.const(f.variables, 1 if f or g else 0)
    a, b = (_integer_list(UniPolyView(p, var))[1] for p in (f, g))
    return _in_variable(f.variables, var, _uni_gcd(a, b))


def poly_gcd_many(polys: Sequence[MultiPoly]) -> MultiPoly:
    acc = None
    for p in polys:
        acc = p if acc is None else poly_gcd(acc, p)
        if acc is not None and acc.is_constant() and not acc.is_zero():
            return MultiPoly.const(p.variables, 1)
    if acc is None:
        raise ZeroInput("gcd of an empty family")
    return acc.primitive() if not acc.is_zero() else acc


def radical(f: MultiPoly) -> MultiPoly:
    """Square-free part of a nonzero polynomial in at most one variable
    (char 0), primitive: its `squarefree_part`.  Zero is refused with
    ZeroInput, and more than one variable with InvalidParams.

    >>> radical(parse_poly("4*y^5 - 8*y^4 + 4*y^3", ("x", "y"))).text()   # 4 y^3 (y - 1)^2
    'y^2 - y'
    """
    if f.is_zero():
        raise ZeroInput("radical of zero")
    return MultiPoly.const(f.variables, 1) if f.is_constant() else squarefree_part(f)


# ---------------------------------------------------------------------------
# square-freeness and coprimality of ternary forms, on a pencil of lines
# ---------------------------------------------------------------------------

#: deterministic witness points: polar constructions and pencil centres
WITNESS_SEQUENCE = (
    (1, 2, 5), (3, 7, 2), (2, 5, 11), (7, 3, 13),
    (5, 1, 3), (1, 1, 7), (11, 2, 3), (2, 9, 5),
)


def witnesses(forms: Sequence[MultiPoly]):
    """The points of WITNESS_SEQUENCE, then of the grid {0..D}^3, at which
    none of the nonzero ternary forms vanishes, D the sum of their degrees.
    Their product is a nonzero form of degree D, so it is nonzero at
    (D+1)^2 points of the grid at least (Alon & Furedi, European J. Combin.
    14, 1993), and at most D of them lie on one line through the origin:
    the walk yields two points that are not proportional.  An empty family
    fixes no ring, so it is refused with InvalidParams; a zero form vanishes
    everywhere, so it is refused with ZeroInput, and a form in more than
    three variables with InvalidParams.  Each form's integer terms are taken
    once, and every point is tested on them over the integers."""
    if not forms:
        raise InvalidParams("no forms to walk off")
    if any(f.is_zero() for f in forms):
        raise ZeroInput("no point lies off the zero form")
    if any(len(f.variables) > 3 for f in forms):
        raise InvalidParams("a witness has three coordinates, too few for the forms' ring")
    scaled = [_integer_terms(f)[1] for f in forms]
    grid = product(range(sum(f.total_degree() for f in forms) + 1), repeat=3)
    return (p for p in chain(WITNESS_SEQUENCE, grid) if all(_value(terms, p) for terms in scaled))


def _value(terms: dict, p: Sequence[int]) -> int:
    """The value of integer terms ({exponents: int}) at the integer point p."""
    return sum(c * math.prod(map(pow, p, e)) for e, c in terms.items())


def point_off(forms: Sequence[MultiPoly]) -> tuple:
    """The first point of `witnesses(forms)`."""
    return next(witnesses(forms))


def _ternary_form(f: MultiPoly) -> int:
    """The degree of f, refused unless f is a homogeneous form in three variables."""
    if len(f.variables) != 3 or not f.is_homogeneous():
        raise InvalidParams(f"{f.text()} is not a homogeneous form in three variables")
    return f.total_degree()


def _restriction(terms: dict, p: Sequence[int], q: Sequence[int]) -> list:
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


def _on_pencil(forms: Sequence[MultiPoly]):
    """For a = 0, 1, ..., the a-th line of a pencil and the forms restricted to it.

    The pencil is centred at p = `point_off(forms)`.  With p_k != 0 and i, j
    the other indices, q_a = e_i + a*e_j, and the lines through p and q_a
    are distinct for distinct a.  A form F of degree d restricts to
    F(s*p + q_a), of degree d in s with leading coefficient F(p) != 0.  Each
    line yields its coefficients p x q_a and, per form, its `_restriction`.
    """
    p = point_off(forms)
    k = next(n for n, c in enumerate(p) if c)
    i, j = (n for n in range(3) if n != k)
    scaled = [_integer_terms(F)[1] for F in forms]
    for a in count():
        q = [0, 0, 0]
        q[i], q[j] = 1, a
        line = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
        yield line, [_restriction(terms, p, q) for terms in scaled]


def transversal_line(f: MultiPoly) -> Optional[tuple]:
    """The coefficients of a line on which the ternary form f restricts to a
    square-free polynomial, or None when f is not square-free.

    The test is `forms_coprime(f, P_p)` for the polar P_p of the centre p of
    the pencil of `_on_pencil`, with P_p never built.  f is square-free
    exactly when f and P_p share no component: a square factor H^2 of f
    divides every partial, so H divides P_p, and a component shared by a
    square-free f and P_p would have every tangent line through p, so it
    would be a line through p, which f(p) != 0 rules out.  As P_p(p) =
    d*f(p) != 0, p is also the centre of the pencil of the pair, and P_p
    restricts to each line as d/ds f(s*p + q_a) = f_a'.  So the first line
    a in 0..d(d-1) where gcd(f_a, f_a') is constant is returned, and None
    when every one fails.  On that line f_a has d distinct roots and the
    centre is off the curve, so the line meets V(f) in d distinct points
    and misses its singular points.  Building P_p instead would make the
    test about three times slower.
    """
    d = _ternary_form(f)
    if f.is_zero():
        return None
    return next((line for line, (fa,) in islice(_on_pencil([f]), d * (d - 1) + 1)
                 if _distinct_roots(fa)), None)


def is_squarefree(f: MultiPoly) -> bool:
    """Is the ternary form f square-free?  See `transversal_line`."""
    return transversal_line(f) is not None


def forms_coprime(f: MultiPoly, g: MultiPoly) -> bool:
    """Do the nonzero ternary forms f and g share no component?

    True at the first line a in 0..d1*d2 of the pencil of `_on_pencil` where
    the restrictions have a constant gcd, and False when every one fails.  A
    shared component does not vanish at p, so it restricts to a common
    nonconstant factor on every line.  Coprime forms share at most d1*d2
    points, none of them p, and each lies on one line of the pencil.
    """
    f._check_ring(g)
    bound = _ternary_form(f) * _ternary_form(g)
    if f.is_zero() or g.is_zero():
        raise ZeroInput("coprimality of the zero form")
    return any(len(_uni_gcd(fa, ga)) == 1
               for _, (fa, ga) in islice(_on_pencil([f, g]), bound + 1))

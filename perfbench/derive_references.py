"""Regenerate ``references.json``: the base curves' reference data.

Everything is derived here with SymPy, an implementation independent of
dualis, so the benchmark never checks dualis against itself.  The benchmark
only reads the JSON; SymPy is needed only to rerun this script:

    python3 perfbench/derive_references.py

For each base curve it records

* ``d``, ``delta``, ``kappa``: degree, nodes and cusps, classified from the
  tangent cone at each rational singular point;
* ``singular_points``: those points, normalized, with their kind;
* ``dual``: the dual curve's equation (the factor of degree d* of the
  discriminant of F restricted to a moving line), used by the input
  generator to prove that the oracle's witnesses are in general position;
* ``branch_tangents``: the rational lines of the tangent cones at the
  singular points (a witness on one of them merges a tangency point into
  the singular point);
* ``rational_points``: small smooth rational points of the curve, used to
  check dual equations.
"""

import itertools
import json
from math import gcd
from pathlib import Path

import sympy as sp

HERE = Path(__file__).resolve().parent

BASE_CURVES = {
    "conic": ("y^2 - x*z", "smooth conic"),
    "nodal-cubic": ("y^2*z - x^3 - x^2*z", "one rational node"),
    "cuspidal-cubic": ("y^2*z - x^3", "one rational cusp, dual 4*u^3 + 27*v^2*w"),
    "rf-nodal-cubic": ("z^3 - x^2*y - x*y^2 - 3*x*y*z", "nodal cubic with three rational flexes"),
    "fermat-cubic": ("x^3 + y^3 + z^3", "smooth cubic"),
    "fermat-quartic": ("x^4 + y^4 + z^4", "smooth quartic, reaches the Bezout ceiling at once"),
    "trinodal-quartic": ("2*x^2*y^2 + y^2*z^2 + z^2*x^2 - x^2*y*z - x*y^2*z - x*y*z^2",
                         "three nodes at the coordinate points"),
    "tricuspidal-quartic": ("x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x^2*y*z - 2*x*y^2*z - 2*x*y*z^2",
                            "three cusps at the coordinate points"),
}

x, y, z, u, v, w = sp.symbols("x y z u v w")
XYZ = (x, y, z)
UVW = (u, v, w)


def to_sympy(text):
    return sp.expand(sp.sympify(text.replace("^", "**"), locals=dict(zip("xyzuvw", XYZ + UVW))))


def to_text(expr, gens):
    """Render in the grammar dualis and the benchmark both parse."""
    poly = sp.Poly(expr, *gens)
    parts = []
    for exps, c in sorted(poly.terms(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]))):
        mono = "*".join(str(g) if k == 1 else f"{g}^{k}" for g, k in zip(gens, exps) if k)
        c = sp.Rational(c)
        mag = abs(c)
        body = (str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}")
        parts.append(("-" if c < 0 else "+", body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {s} {b}" for s, b in parts[1:])


def normalize(point):
    den = 1
    for c in point:
        den = sp.ilcm(den, sp.Rational(c).q)
    ints = [int(sp.Rational(c) * den) for c in point]
    g = 0
    for a in ints:
        g = gcd(g, a)
    ints = [a // g for a in ints]
    first = next(a for a in ints if a)
    return [-a for a in ints] if first < 0 else ints


def singular_points(F):
    grads = [sp.diff(F, g) for g in XYZ]
    found = set()
    for chart in range(3):
        sub = {XYZ[chart]: 1}
        others = [g for i, g in enumerate(XYZ) if i != chart]
        sols = sp.solve([g.subs(sub) for g in grads] + [F.subs(sub)], others, dict=True)
        for s in sols:
            pt = [1 if i == chart else s.get(g, g) for i, g in enumerate(XYZ)]
            if all(sp.Rational(c) == c for c in pt if c is not None) and all(
                    not getattr(c, "free_symbols", None) for c in pt):
                found.add(tuple(normalize(pt)))
    return sorted(found)


def tangent_cone(F, point):
    chart = next(i for i, c in enumerate(point) if c)
    affine = [sp.Rational(c, point[chart]) for c in point]
    others = [g for i, g in enumerate(XYZ) if i != chart]
    sub = {XYZ[chart]: 1}
    for i, g in enumerate(XYZ):
        if i != chart:
            sub[g] = g + affine[i]
    local = sp.Poly(sp.expand(F.subs(sub, simultaneous=True)), *others)
    m = min(sum(e) for e in local.monoms())
    cone = sum(c * others[0] ** e[0] * others[1] ** e[1]
               for e, c in local.terms() if sum(e) == m)
    return m, cone, others, chart, affine


def classify(F, point):
    m, cone, others, chart, affine = tangent_cone(F, point)
    if m != 2:
        return "Other", []
    factors = sp.factor_list(cone)[1]
    lines = []
    for f, k in factors:
        if sp.Poly(f, *others).total_degree() == 1:
            # a*s + b*t = 0 in affine coordinates s, t centred at the point;
            # homogenize: s = X_i/X_chart - affine_i
            a = sp.Poly(f, *others).coeff_monomial(others[0])
            b = sp.Poly(f, *others).coeff_monomial(others[1])
            coeff = {others[0]: a, others[1]: b}
            line = [0, 0, 0]
            for i, g in enumerate(XYZ):
                if i != chart:
                    line[i] += coeff[g]
                    line[chart] -= coeff[g] * affine[i]
            lines.append(normalize(line))
    kind = "Cusp" if len(factors) == 1 and factors[0][1] == 2 else "Node"
    return kind, lines


def dual_equation(F, d_dual):
    phi = sp.expand(F.subs({x: x * w, y: w, z: -(u * x + v)}, simultaneous=True))
    disc = sp.discriminant(sp.Poly(phi, x))
    factors = sp.factor_list(disc.as_expr())[1]
    hits = [f for f, _ in factors if sp.Poly(f, *UVW).total_degree() == d_dual
            and not f.free_symbols - set(UVW)]
    assert len(hits) == 1, factors
    D = sp.Poly(hits[0], *UVW)
    D = D.primitive()[1]
    if D.LC() < 0:
        D = -D
    return D.as_expr()


def rational_points(F, sing, limit=6, bound=6):
    pts = []
    rng = range(-bound, bound + 1)
    for p in itertools.product(rng, repeat=3):
        if p == (0, 0, 0) or normalize(p) != list(p):
            continue
        if F.subs(dict(zip(XYZ, p))) == 0 and tuple(p) not in sing:
            pts.append(list(p))
    pts.sort(key=lambda p: (sum(abs(c) for c in p), p))
    return pts[:limit]


def derive(name, text, why):
    F = to_sympy(text)
    d = sp.Poly(F, *XYZ).total_degree()
    sing = singular_points(F)
    kinds = [classify(F, p) for p in sing]
    delta = sum(1 for k, _ in kinds if k == "Node")
    kappa = sum(1 for k, _ in kinds if k == "Cusp")
    d_dual = d * (d - 1) - 2 * delta - 3 * kappa
    return {
        "name": name,
        "poly": text,
        "why": why,
        "d": d,
        "delta": delta,
        "kappa": kappa,
        "d_dual": d_dual,
        "singular_points": [{"point": list(p), "kind": k} for p, (k, _) in zip(sing, kinds)],
        "branch_tangents": sorted({tuple(l) for _, ls in kinds for l in ls}),
        "dual": to_text(dual_equation(F, d_dual), UVW),
        "rational_points": rational_points(F, set(sing)),
    }


def main():
    curves = [derive(name, *spec) for name, spec in BASE_CURVES.items()]
    data = {
        "provenance": "derived with SymPy by perfbench/derive_references.py;"
                      " no dualis code is involved",
        "curves": curves,
    }
    (HERE / "references.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()

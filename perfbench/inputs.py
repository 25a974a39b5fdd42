"""Seeded inputs and their reference answers.

Every input is a base curve of ``references.json`` (data derived with SymPy,
not with dualis) either in its given coordinates or moved to generic
position by a small unimodular integer matrix drawn from the seed.  A moved
curve is G(v) = F(M v); its singular points are M^-1 s, and its dual is
D_F(M^-T xi), so every reference moves with the query.

Given coordinates stay in every input set on purpose: the reference
quartics put their singular points on the line at infinity of dualis's
first frames, which is where frame rejection wastes time.  Generic copies
hide that cost, so a workload made only of them would hide a known defect.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from . import poly

HERE = Path(__file__).resolve().parent
XYZ = "xyz"
UVW = "uvw"


def load_references() -> dict:
    data = json.loads((HERE / "references.json").read_text())
    curves = {}
    for c in data["curves"]:
        c = dict(c)
        c["F"] = poly.parse(c["poly"], XYZ)
        c["D"] = poly.parse(c["dual"], UVW)
        curves[c["name"]] = c
    return curves


def plucker_dual_degree(d: int, delta: int, kappa: int) -> int:
    """Class of a curve with only nodes and cusps (Plucker)."""
    return d * (d - 1) - 2 * delta - 3 * kappa


def expected_report(d: int, delta: int, kappa: int) -> dict:
    """Closed forms of the node/cusp regime (see dualis.curvelab)."""
    g = (d - 1) * (d - 2) // 2 - delta - kappa
    chi = 2 - 2 * g - delta
    return {"d": d, "delta": delta, "kappa": kappa, "g": g, "chi": chi,
            "c0m": chi + delta + kappa}


def _signed_permutation(rng: random.Random) -> tuple:
    perm = list(range(3))
    rng.shuffle(perm)
    return tuple(
        tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(3))
        for i in range(3)
    )


def draw_unimodular(rng: random.Random) -> tuple:
    """P*L*U: a signed permutation times unit triangular factors whose
    off-diagonal entries are +-1, so entries stay within 3 and det = +-1."""
    s = lambda: rng.choice((-1, 1))  # noqa: E731
    lower = ((1, 0, 0), (s(), 1, 0), (s(), s(), 1))
    upper = ((1, s(), s()), (0, 1, s()), (0, 0, 1))
    return poly.mat_mul(_signed_permutation(rng), poly.mat_mul(lower, upper))


def moved_singular_points(base: dict, m) -> list:
    inv = poly.inverse(m)
    return [
        {"point": poly.normalize_point(poly.mat_vec(inv, s["point"])), "kind": s["kind"]}
        for s in base["singular_points"]
    ]


def _generic_singularities(base: dict, m) -> bool:
    """No singular point of the moved curve lies on a coordinate line."""
    return all(all(moved["point"]) for moved in moved_singular_points(base, m))


def _witness_is_generic(base: dict, p) -> bool:
    """Is the point p (in the base curve's coordinates) a generic polar witness?

    The polar of p meets the curve at the singular points and at the
    tangency points of the d* tangent lines through p.  Two tangency points
    merge exactly when p lies on a flex tangent or on a tangent at a
    singular point.  Flex tangents are cusps of the dual curve, so they make
    the dual restricted to the pencil of lines through p non-square-free
    (bitangents do too, which only makes the test stricter).
    """
    if any(sum(a * b for a, b in zip(line, p)) == 0 for line in base["branch_tangents"]):
        return False
    D, d_dual = base["D"], base["d_dual"]
    basis = [poly.cross(p, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for a, b in itertools.permutations(basis, 2):
        if poly.evaluate(D, a) != 0 and any(poly.cross(a, b)):
            # h(s) = D(s*a + b) has full degree because D(a) != 0
            return poly.univariate_squarefree(_pencil_coefficients(D, a, b, d_dual))
    return False


def _pencil_coefficients(D: dict, a, b, degree: int) -> list:
    """Coefficients [h0, h1, ...] of h(s) = D(s*a + b), D homogeneous."""
    h = poly.linear_change(D, tuple((a[i], b[i], 0) for i in range(3)))
    return [h.get((k, degree - k, 0), Fraction(0)) for k in range(degree + 1)]


def oracle_witnesses_generic(base: dict, m, witnesses) -> bool:
    """The first two witnesses off the moved curve are generic for it.

    dualis's oracle uses the first witness of its sequence that is off the
    curve and checks it with the next one; witness w for G = F(M v) acts
    like the witness M w for F.
    """
    used = [p for p in (poly.mat_vec(m, w) for w in witnesses)
            if poly.evaluate(base["F"], p) != 0][:2]
    return len(used) == 2 and all(_witness_is_generic(base, p) for p in used)


def generic_copy(rng: random.Random, base: dict, witnesses=None):
    """Draw M until the moved curve is in generic position; returns (M, G).

    Generic position: no singular point on a coordinate line and, when the
    oracle will run on it, both of the oracle's witnesses generic.
    """
    while True:
        m = draw_unimodular(rng)
        if not _generic_singularities(base, m):
            continue
        if witnesses is not None and not oracle_witnesses_generic(base, m, witnesses):
            continue
        return m, poly.linear_change(base["F"], m)

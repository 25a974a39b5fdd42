"""The three workloads: their queries, and the check of every answer.

Each workload is a list of passes over its queries, which one caller issues
in a closed loop: the next query starts only after the previous one
returned.  A query knows how to run itself against dualis and how to judge
its outcome against a reference that dualis did not compute.  Its slot names
it across passes: a query's latency is the mean over its slot.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import inputs, poly
from .inputs import UVW, XYZ

#: per-query deadline of curve-analysis; its slowest regular query takes
#: about a second, and the two known hangs never return
CLI_DEADLINE_S = 3.0

#: classical dual of the cuspidal cubic y^2*z - x^3
CUSPIDAL_DUAL = "4*u^3 + 27*v^2*w"

#: hostile CLI inputs that must exit 2 (over the default degree cap of 6)
OVER_CAP = (
    # refused in milliseconds: the square-free test is fast on these
    ("x^7 + y^7 + z^7", "degree 7, fast refusal"),
    ("x^6*y + y^6*z + z^7", "degree 7, fast refusal"),
    ("x^7 + x*y^6 + y^3*z^4", "degree 7, fast refusal"),
    ("x^8 + y^8 + z^8", "degree 8 at the hard cap, fast refusal"),
    # the square-free test runs before the cap check and does not finish
    ("x^7*y + y^7*z + z^7*x + x^3*y^3*z^2", "degree 8 within the hard cap: known hang"),
    ("x^12*y + y^12*z + z^12*x + x^5*y^4*z^4", "degree 13 from the ROADMAP: known hang"),
)


@dataclass(frozen=True)
class Query:
    label: str   # the exact input, for failure messages
    slot: str    # the same query in every pass, with the input drawn afresh
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    passes: list  # lists of queries; pass k of a run is passes[k % len(passes)]
    min_passes: int
    deadline_s: Optional[float]


#: passes of curve-analysis, each with its own seeded matrices (about 7 s
#: each, and 6 s more for the two hangs in the first).  A repeated
#: CLI query would reward a cache that a user, who starts a fresh process
#: per query, never meets; fresh copies also average out the matrices of
#: one seed.
CLI_PASSES = 3


def prepare(name: str, seed: int, root: Path) -> Workload:
    """Generate the inputs of one workload from its seed (the set-up)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "corpus":
        # the manifest is fixed, so its passes repeat it (about 6 s each)
        return Workload(name, [_corpus_queries(rng, root / "corpus")], 5, None)
    if name == "polar-oracle":
        # one pass takes about 50 s, three quarters of it in three queries
        return Workload(name, [_oracle_queries(rng)], 1, None)
    if name == "curve-analysis":
        passes = [_cli_queries(rng) for _ in range(CLI_PASSES)]
        return Workload(name, passes, CLI_PASSES, CLI_DEADLINE_S)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# corpus: the shipped manifest, one case per query, in seeded order
# ---------------------------------------------------------------------------

def _corpus_queries(rng: random.Random, corpus_dir: Path) -> list:
    from dualis import corpus

    # the reference is the manifest's hand-written expectations, read here
    # rather than trusted to the runner's own pass/fail verdict
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    raw = {c["id"]: c for c in manifest["cases"]}
    cases = corpus.load_corpus(corpus_dir)
    rng.shuffle(cases)
    return [
        Query(
            case.case_id,
            case.case_id,
            lambda case=case: corpus.run_case(case, corpus_dir),
            lambda result, spec=raw[case.case_id]: _case_matches(spec, result),
        )
        for case in cases
    ]


def _case_matches(spec: dict, result) -> bool:
    if result.status != "pass":
        return False
    kind, want, got = spec["kind"], spec.get("expected", {}), result.details
    if kind in ("CurvePair", "PackagePair"):
        checks = got["checks"]
        ok = all(c["holds"] for c in checks.values()) == want.get("holds", True)
        if "lhs" in want:
            lhs = checks[want.get("lhs_form", "conormal")]["lhs"]
            ok = ok and Fraction(lhs) == Fraction(want["lhs"])
        return ok
    if kind == "ClassicalPlucker":
        ok = all(got[k] == want[k] for k in ("d_dual", "delta_dual", "kappa_dual"))
        if "oracle_curve" in spec["inputs"]:
            ok = ok and got["oracle_d_dual"] == want["d_dual"]
        return ok
    if kind == "QuadricPair":
        return got["check"]["holds"] == want.get("holds", True)
    if kind == "SolveUnknown":
        return Fraction(got["value"]) == Fraction(want["value"])
    return False


# ---------------------------------------------------------------------------
# polar-oracle: dual degree through polars, given and generic coordinates
# ---------------------------------------------------------------------------

#: base curve -> number of generic copies per pass.  The given-coordinate
#: quartics carry the frame-rejection waste; the generic trinodal copy shows
#: the same kernel work without it (a generic tricuspidal copy would add
#: another 7 s to a pass that must stay near 50 s).  Six copies of each
#: cubic put the median in the middle of fourteen similar queries, so
#: neither the matrices one seed draws nor a slow moment of the machine
#: moves it much.
ORACLE_SET = {
    "trinodal-quartic": 1,
    "tricuspidal-quartic": 0,
    "fermat-quartic": 1,
    "nodal-cubic": 6,
    "cuspidal-cubic": 6,
}

#: the oracle queries that take seconds rather than a fraction of one
HEAVY = ("trinodal-quartic", "tricuspidal-quartic")


def _oracle_queries(rng: random.Random) -> list:
    from dualis import dualgeom
    from dualis.curvelab import PlaneCurve
    from dualis.exact import parse_poly

    refs = inputs.load_references()
    heavy, light = [], []
    for name, copies in ORACLE_SET.items():
        base = refs[name]
        want = inputs.plucker_dual_degree(base["d"], base["delta"], base["kappa"])
        variants = [("given", base["F"])]
        for k in range(copies):
            m, G = inputs.generic_copy(rng, base, dualgeom.WITNESS_SEQUENCE)
            variants.append((f"generic{k} M={m}", G))
        for tag, F in variants:
            curve = PlaneCurve(parse_poly(poly.text(F, XYZ), XYZ))
            label = f"oracle {name} {tag}"
            (heavy if name in HEAVY else light).append(Query(
                label,
                label,
                lambda curve=curve: dualgeom.dual_degree_oracle(curve),
                lambda got, want=want: got == want,
            ))
    return _interleave(rng, heavy, light)


def _interleave(rng: random.Random, heavy: list, light: list) -> list:
    """Seeded order that spreads the light queries evenly around the heavy
    ones, so that the median samples the whole pass rather than one stretch
    of it: the machine's speed drifts over tens of seconds."""
    rng.shuffle(heavy)
    rng.shuffle(light)
    slots = len(heavy) + 1
    order = []
    for i in range(slots):
        order += light[i * len(light) // slots:(i + 1) * len(light) // slots]
        order += heavy[i:i + 1]
    return order


# ---------------------------------------------------------------------------
# curve-analysis: short CLI queries on generic copies, plus hostile input
# ---------------------------------------------------------------------------

#: base curve -> CLI subcommands run on one generic copy of it per pass.
#: Duals and oracle degrees stay on degree <= 3, where they take under a
#: second.
CLI_SET = {
    "conic": ("analyze", "dual", "dual-degree"),
    "fermat-cubic": ("analyze", "dual-degree"),
    "nodal-cubic": ("analyze", "dual", "dual-degree"),
    "cuspidal-cubic": ("analyze", "dual", "dual-degree"),
    "rf-nodal-cubic": ("analyze", "dual", "dual-degree"),
    "trinodal-quartic": ("analyze",),
    "tricuspidal-quartic": ("analyze",),
}


def _cli_queries(rng: random.Random) -> list:
    """One pass: a fresh generic copy of every base curve, in seeded order."""
    from dualis import dualgeom

    refs = inputs.load_references()
    heavy, queries = [], []
    for name, commands in CLI_SET.items():
        base = refs[name]
        witnesses = dualgeom.WITNESS_SEQUENCE if "dual-degree" in commands else None
        m, G = inputs.generic_copy(rng, base, witnesses)
        text = poly.text(G, XYZ)
        for command in commands:
            check = _CLI_CHECKS[command](base, m, G)
            query = _cli_query(f"{command} {name}", f" M={m}", command, text, check)
            (heavy if base["d"] == 4 else queries).append(query)
    # a user-set cap below the degree is refused after parsing
    fermat = refs["fermat-quartic"]
    m, G = inputs.generic_copy(rng, fermat)
    queries.append(_cli_query("analyze fermat-quartic --max-degree 3", f" M={m}", "analyze",
                              poly.text(G, XYZ), _refused, ["--max-degree", "3"]))
    for text, why in OVER_CAP:
        query = _cli_query(f"analyze {text} ({why})", "", "analyze", text, _refused)
        (heavy if "hang" in why else queries).append(query)
    return _interleave(rng, heavy, queries)


def _cli_query(slot, matrix, command, text, check, extra=()) -> Query:
    argv = ["curve", command, "--poly", text, "--format", "json", *extra]
    return Query(slot + matrix, slot, lambda: _run_cli(argv), check)


def _run_cli(argv) -> tuple:
    from dualis import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _refused(outcome) -> bool:
    code, out, _ = outcome
    return code == 2 and out == ""


def _answer(outcome):
    code, out, _ = outcome
    return json.loads(out) if code == 0 else None


def _check_analyze(base, m, G):
    report = inputs.expected_report(base["d"], base["delta"], base["kappa"])
    points = sorted((tuple(s["point"]), s["kind"]) for s in inputs.moved_singular_points(base, m))

    def check(outcome) -> bool:
        got = _answer(outcome)
        if got is None:
            return False
        found = sorted((tuple(s["point"]), s["kind"]) for s in got["singular_points"])
        return got["report"] == report and found == points
    return check


def _check_dual_degree(base, m, G):
    want = inputs.plucker_dual_degree(base["d"], base["delta"], base["kappa"])
    return lambda outcome: (_answer(outcome) or {}).get("dual_degree") == want


def _check_dual(base, m, G):
    d_dual = inputs.plucker_dual_degree(base["d"], base["delta"], base["kappa"])
    if base["d"] == 2:
        reference = _conic_dual(G)
    elif base["name"] == "cuspidal-cubic":
        # D_G(xi) = D_F(M^-T xi)
        reference = poly.linear_change(poly.parse(CUSPIDAL_DUAL, UVW),
                                       poly.transpose(poly.inverse(m)))
    else:
        reference = None
        inv = poly.inverse(m)
        grads = [poly.derivative(G, i) for i in range(3)]
        normals = [[poly.evaluate(g, poly.mat_vec(inv, p)) for g in grads]
                   for p in base["rational_points"]]

    def check(outcome) -> bool:
        got = _answer(outcome)
        if got is None or got["degree"] != d_dual:
            return False
        D = poly.parse(got["dual"], UVW)
        if not poly.is_homogeneous(D) or poly.degree(D) != d_dual:
            return False
        if reference is not None:
            return poly.proportional(D, reference)
        # the tangent line at a smooth point p of the curve is grad G(p)
        return all(poly.evaluate(D, n) == 0 for n in normals)
    return check


def _conic_dual(G: dict) -> dict:
    """xi^T adj(A) xi for the symmetric matrix A of the quadric G."""
    A = [[Fraction(0)] * 3 for _ in range(3)]
    for e, c in G.items():
        i, j = [k for k in range(3) for _ in range(e[k])]
        if i == j:
            A[i][i] = c
        else:
            A[i][j] = A[j][i] = c / 2
    adj = poly.adjugate(A)
    out: dict = {}
    for i in range(3):
        for j in range(3):
            e = tuple((i == k) + (j == k) for k in range(3))
            out = poly.add(out, {e: adj[i][j]}) if adj[i][j] else out
    return out


_CLI_CHECKS = {
    "analyze": _check_analyze,
    "dual": _check_dual,
    "dual-degree": _check_dual_degree,
}

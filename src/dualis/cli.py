"""Command-line front end.

Subcommands map one-to-one onto the library's operation families:

    dualis curve analyze   --poly "y^2*z - x^3"     singular locus + report
    dualis curve dual      --file curve.txt          dual equation
    dualis curve dual-degree --poly ...              polar-oracle dual degree
    dualis plucker classical -d 3 --nodes 1          dual-curve counts
    dualis plucker check   --s1 a.json ... --chi 1   flop identity verdict
    dualis plucker detect-codim --package a.json     dual codimension
    dualis plucker solve   --file instance.json      one-unknown solver
    dualis chi std|ci|package                        Euler characteristics
    dualis corpus run corpus/                        full verification run

Each leaf subparser carries its handler (``set_defaults(run=...)``), so the
parser is the dispatch table.  A handler returns the JSON payload, the text
lines and whether every check held; `run_command` prints one or the other.

Exit codes: 0 success / all checks hold, 1 a verification failed,
2 usage or input error (a typed ``DualisError`` or an unreadable file).
``--format json`` emits machine-readable output, rationals as "p/q",
through `corpus.json_text` inside the handler's guard, so an integer too
long to print exits 2.
"""

from __future__ import annotations

import argparse
import sys

from . import charclass, corpus, curvelab, dualgeom, flopcalc
from .curvelab import DUAL_VARS, PRIMAL_VARS
from .errors import DualisError, InvalidParams
from .exact import INPUT_DEGREE_CAP, INPUT_DEGREE_HARD_CAP, format_rational, int_text
from .flopcalc import CONORMAL, INTRO


def _curve(args):
    text = corpus.read_file(args.file).strip() if args.file else args.poly
    variables = PRIMAL_VARS if args.vars == "xyz" else DUAL_VARS
    return curvelab.load_curve(text, variables, args.max_degree)


def _analyze(args):
    curve = _curve(args)
    points = curvelab.singular_points(curve)
    report = curvelab.curve_report(curve)
    payload = {
        "report": report.as_dict(),
        "singular_points": [
            {"point": list(s.point), "kind": s.kind, "multiplicity": s.multiplicity,
             "euler_obstruction": s.euler_obstruction}
            for s in points
        ],
    }
    lines = [
        f"d = {report.d}, nodes = {report.delta}, cusps = {report.kappa}",
        f"g = {report.g}, chi = {report.chi}, c0m = {report.c0m}",
    ] + [
        f"singular point {list(s.point)}: {s.kind}, m = {s.multiplicity},"
        f" Eu = {s.euler_obstruction}"
        for s in points
    ]
    return payload, lines, True


def _dual(args):
    dual = dualgeom.dual_equation(_curve(args))
    payload = {
        "dual": dual.D.text(),
        "degree": dual.d_dual,
        "removed_factors": [[f.text(), k] for f, k in dual.removed_factors],
    }
    lines = [f"dual equation: {dual.D.text()}", f"degree: {dual.d_dual}"]
    lines += [f"stripped: ({f.text()})^{k}" for f, k in dual.removed_factors]
    return payload, lines, True


def _dual_degree(args):
    degree = dualgeom.dual_degree_oracle(_curve(args))
    return {"dual_degree": degree}, [str(degree)], True


def _classical(args):
    data = flopcalc.classical_plucker(args.d, args.nodes, args.cusps)
    lines = [f"d* = {int_text(data.d_dual)}", f"delta* = {int_text(data.delta_dual)}",
             f"kappa* = {int_text(data.kappa_dual)}", f"g = {int_text(data.g)}"]
    return data.as_dict(), lines, True


def _check(args):
    s1, s2, d1, d2 = (corpus.load_package(getattr(args, name))
                      for name in ("s1", "s2", "d1", "d2"))
    forms = (CONORMAL, INTRO) if args.form == "both" else (args.form,)
    reports = flopcalc.check_forms(s1, s2, d1, d2, args.chi, args.chi_dual, forms)
    lines = [
        f"{form}: lhs = {format_rational(rep.lhs)},"
        f" rhs = {format_rational(rep.rhs)}, holds = {rep.holds}"
        for form, rep in reports.items()
    ]
    return ({form: rep.as_dict() for form, rep in reports.items()}, lines,
            all(rep.holds for rep in reports.values()))


def _detect_codim(args):
    codim = flopcalc.detect_dual_codim(corpus.load_package(args.package))
    return {"dual_codim": codim}, [str(codim)], True


def _solve(args):
    instance = corpus.instance_from_dict(corpus.load_json(args.file), args.file)
    value = format_rational(flopcalc.solve_unknown(instance))
    return {"value": value}, [value], True


#: the --kind of `chi std`, as charclass names it
_STANDARD_KINDS = {"pn": charclass.PROJECTIVE_SPACE, "quadric": charclass.QUADRIC,
                   "grassmannian": charclass.GRASSMANNIAN}


def _chi_std(args):
    params = (args.n,)
    if args.kind == "grassmannian":
        if args.k is None:
            raise InvalidParams("grassmannian needs -k")
        params = (args.k, args.n)
    value = charclass.chi_standard(_STANDARD_KINDS[args.kind], *params)
    return {"chi": value}, [int_text(value)], True


def _chi_ci(args):
    value = charclass.chi_smooth_complete_intersection(args.n, args.degrees)
    return {"chi": value}, [str(value)], True


def _chi_package(args):
    pkg = charclass.hypersurface_package(args.n, args.d)
    if args.out:
        corpus.save_package(pkg, args.out)
    return pkg.as_dict(), [corpus.json_text(pkg.as_dict()).rstrip("\n")], True


def _corpus_run(args):
    report = corpus.run_corpus(args.path, include_timing=not args.no_timestamps)
    if args.out:
        corpus.save_report(report, args.out)
    lines = [f"[{r.status.upper():5s}] {r.case_id}" for r in report.results]
    lines.append(f"total {len(report.results)}: {report.passed} pass,"
                 f" {report.failed} fail, {report.errored} error")
    return report.as_dict(), lines, report.failed == 0 and report.errored == 0


def _build_parser() -> argparse.ArgumentParser:
    """The command line; each leaf command carries its handler as ``run``."""
    parser = argparse.ArgumentParser(
        prog="dualis",
        description="Exact verification of Plucker-type duality identities.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, title):
        return sub.add_parser(name, help=title).add_subparsers(dest="subcommand", required=True)

    def leaf(commands, name, run):
        p = commands.add_parser(name, parents=[fmt])
        p.set_defaults(run=run)
        return p

    curve = group("curve", "plane-curve analysis")
    for name, run in (("analyze", _analyze), ("dual", _dual), ("dual-degree", _dual_degree)):
        p = leaf(curve, name, run)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--file", help="file containing one polynomial")
        src.add_argument("--poly", help="inline polynomial text")
        p.add_argument("--vars", choices=["xyz", "uvw"], default="xyz")
        p.add_argument("--max-degree", type=int, default=INPUT_DEGREE_CAP,
                       help=f"input degree cap, default {INPUT_DEGREE_CAP}"
                            f" (hard cap {INPUT_DEGREE_HARD_CAP})")

    plucker = group("plucker", "duality identities")
    p = leaf(plucker, "classical", _classical)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--nodes", type=int, default=0)
    p.add_argument("--cusps", type=int, default=0)

    p = leaf(plucker, "check", _check)
    for name in ("s1", "s2", "d1", "d2"):
        p.add_argument(f"--{name}", required=True, help="package JSON file")
    p.add_argument("--chi", type=int, required=True,
                   help="chi of the transversal intersection of S1 and S2")
    p.add_argument("--chi-dual", type=int, required=True,
                   help="chi of the intersection of the duals")
    p.add_argument("--form", choices=[CONORMAL, INTRO, "both"], default="both")

    leaf(plucker, "detect-codim", _detect_codim).add_argument("--package", required=True)
    leaf(plucker, "solve", _solve).add_argument(
        "--file", required=True, help="identity-instance JSON file")

    chi = group("chi", "Euler characteristics")
    p = leaf(chi, "std", _chi_std)
    p.add_argument("--kind", choices=list(_STANDARD_KINDS), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, help="only for grassmannian")

    p = leaf(chi, "ci", _chi_ci)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--degrees", type=int, nargs="+", required=True)

    p = leaf(chi, "package", _chi_package)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--out", help="write the package JSON to this file")

    p = leaf(group("corpus", "verification corpus"), "run", _corpus_run)
    p.add_argument("path", help="manifest file or directory containing manifest.json")
    p.add_argument("--no-timestamps", action="store_true",
                   help="omit timing for byte-identical reports")
    p.add_argument("--out", help="also write the report JSON to this file")
    return parser


_PARSER = _build_parser()


def run_command(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        payload, lines, ok = args.run(args)
        out = (corpus.json_text(payload) if args.format == "json"
               else "".join(f"{line}\n" for line in lines))
    except DualisError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

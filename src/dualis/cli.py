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

Exit codes: 0 success / all checks hold, 1 a verification failed,
2 usage or input error.  ``--format json`` emits machine-readable output;
rationals serialize as "p/q".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import charclass, corpus, curvelab, dualgeom, flopcalc
from .curvelab import DEFAULT_DEGREE_CAP, DUAL_VARS, HARD_DEGREE_CAP, PRIMAL_VARS
from .errors import DualisError, InvalidParams
from .exact import format_rational
from .flopcalc import CONORMAL, INTRO, IdentityInstance


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualis",
        description="Exact verification of Plucker-type duality identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="plane-curve analysis")
    curve_sub = curve.add_subparsers(dest="subcommand", required=True)
    for name in ("analyze", "dual", "dual-degree"):
        p = curve_sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--file", help="file containing one polynomial")
        src.add_argument("--poly", help="inline polynomial text")
        p.add_argument("--vars", choices=["xyz", "uvw"], default="xyz")
        p.add_argument("--max-degree", type=int, default=DEFAULT_DEGREE_CAP,
                       help=f"degree guardrail (hard cap {HARD_DEGREE_CAP})")
        p.add_argument("--format", choices=["text", "json"], default="text")

    plucker = sub.add_parser("plucker", help="duality identities")
    plucker_sub = plucker.add_subparsers(dest="subcommand", required=True)

    p = plucker_sub.add_parser("classical")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--nodes", type=int, default=0)
    p.add_argument("--cusps", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = plucker_sub.add_parser("check")
    for name in ("s1", "s2", "d1", "d2"):
        p.add_argument(f"--{name}", required=True, help="package JSON file")
    p.add_argument("--chi", type=int, required=True,
                   help="chi of the transversal intersection of S1 and S2")
    p.add_argument("--chi-dual", type=int, required=True,
                   help="chi of the intersection of the duals")
    p.add_argument("--form", choices=[CONORMAL, INTRO, "both"], default="both")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = plucker_sub.add_parser("detect-codim")
    p.add_argument("--package", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = plucker_sub.add_parser("solve")
    p.add_argument("--file", required=True, help="identity-instance JSON file")
    p.add_argument("--format", choices=["text", "json"], default="text")

    chi = sub.add_parser("chi", help="Euler characteristics")
    chi_sub = chi.add_subparsers(dest="subcommand", required=True)

    p = chi_sub.add_parser("std")
    p.add_argument("--kind", choices=["pn", "quadric", "grassmannian"], required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, help="only for grassmannian")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = chi_sub.add_parser("ci")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--degrees", type=int, nargs="+", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = chi_sub.add_parser("package")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--out", help="write the package JSON to this file")
    p.add_argument("--format", choices=["text", "json"], default="text")

    corp = sub.add_parser("corpus", help="verification corpus")
    corp_sub = corp.add_subparsers(dest="subcommand", required=True)
    p = corp_sub.add_parser("run")
    p.add_argument("path", help="manifest file or directory containing manifest.json")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--no-timestamps", action="store_true",
                   help="omit timing for byte-identical reports")
    p.add_argument("--out", help="also write the report JSON to this file")
    return parser


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def run_command(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _execute(args)
    except DualisError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _execute(args) -> int:
    if args.command == "curve":
        text = Path(args.file).read_text().strip() if args.file else args.poly
        variables = PRIMAL_VARS if args.vars == "xyz" else DUAL_VARS
        curve = curvelab.load_curve(text, variables, args.max_degree)
        if args.subcommand == "analyze":
            points = curvelab.singular_points(curve)
            report = curvelab.curve_report(curve)
            payload = {
                "report": report.as_dict(),
                "singular_points": [
                    {"point": list(s.point), "kind": s.kind,
                     "multiplicity": s.multiplicity,
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
            _emit(payload, args.format, lines)
            return 0
        if args.subcommand == "dual":
            dual = dualgeom.dual_equation(curve)
            payload = {
                "dual": dual.D.text(),
                "degree": dual.d_dual,
                "removed_factors": [[f.text(), k] for f, k in dual.removed_factors],
            }
            lines = [f"dual equation: {dual.D.text()}", f"degree: {dual.d_dual}"]
            lines += [f"stripped: ({f.text()})^{k}" for f, k in dual.removed_factors]
            _emit(payload, args.format, lines)
            return 0
        if args.subcommand == "dual-degree":
            degree = dualgeom.dual_degree_oracle(curve)
            _emit({"dual_degree": degree}, args.format, [str(degree)])
            return 0

    if args.command == "plucker":
        if args.subcommand == "classical":
            data = flopcalc.classical_plucker(args.d, args.nodes, args.cusps)
            payload = {
                "d_dual": data.d_dual,
                "delta_dual": data.delta_dual,
                "kappa_dual": data.kappa_dual,
                "g": data.g,
            }
            lines = [
                f"d* = {data.d_dual}",
                f"delta* = {data.delta_dual}",
                f"kappa* = {data.kappa_dual}",
                f"g = {data.g}",
            ]
            _emit(payload, args.format, lines)
            return 0
        if args.subcommand == "check":
            pkgs = {name: corpus.load_package(getattr(args, name))
                    for name in ("s1", "s2", "d1", "d2")}
            forms = [CONORMAL, INTRO] if args.form == "both" else [args.form]
            reports = {
                form: flopcalc.check_identity(
                    pkgs["s1"], pkgs["s2"], pkgs["d1"], pkgs["d2"],
                    args.chi, args.chi_dual, form=form,
                )
                for form in forms
            }
            payload = {form: rep.as_dict() for form, rep in reports.items()}
            lines = [
                f"{form}: lhs = {format_rational(rep.lhs)},"
                f" rhs = {format_rational(rep.rhs)}, holds = {rep.holds}"
                for form, rep in reports.items()
            ]
            _emit(payload, args.format, lines)
            return 0 if all(r.holds for r in reports.values()) else 1
        if args.subcommand == "detect-codim":
            pkg = corpus.load_package(args.package)
            codim = flopcalc.detect_dual_codim(pkg)
            _emit({"dual_codim": codim}, args.format, [str(codim)])
            return 0
        if args.subcommand == "solve":
            data = json.loads(Path(args.file).read_text())
            instance = IdentityInstance(
                n=data["n"],
                dims=tuple(data["dims"]),
                form=data.get("form", INTRO),
                **data["values"],
            )
            value = flopcalc.solve_unknown(instance)
            _emit({"value": format_rational(value)}, args.format,
                  [format_rational(value)])
            return 0

    if args.command == "chi":
        if args.subcommand == "std":
            if args.kind == "pn":
                value = charclass.chi_standard(charclass.PROJECTIVE_SPACE, args.n)
            elif args.kind == "quadric":
                value = charclass.chi_standard(charclass.QUADRIC, args.n)
            else:
                if args.k is None:
                    raise InvalidParams("grassmannian needs -k")
                value = charclass.chi_standard(charclass.GRASSMANNIAN, args.k, args.n)
            _emit({"chi": value}, args.format, [str(value)])
            return 0
        if args.subcommand == "ci":
            value = charclass.chi_smooth_complete_intersection(args.n, args.degrees)
            _emit({"chi": value}, args.format, [str(value)])
            return 0
        if args.subcommand == "package":
            pkg = charclass.hypersurface_package(args.n, args.d)
            if args.out:
                corpus.save_package(pkg, args.out)
            _emit(pkg.as_dict(), args.format,
                  [json.dumps(pkg.as_dict(), indent=2)])
            return 0

    if args.command == "corpus" and args.subcommand == "run":
        report = corpus.run_corpus(args.path, include_timing=not args.no_timestamps)
        if args.out:
            corpus.save_report(report, args.out)
        if args.format == "json":
            print(report.to_json(), end="")
        else:
            for r in report.results:
                print(f"[{r.status.upper():5s}] {r.case_id}")
            print(f"total {len(report.results)}: {report.passed} pass,"
                  f" {report.failed} fail, {report.errored} error")
        return 0 if report.failed == 0 and report.errored == 0 else 1

    raise InvalidParams("unhandled command")  # pragma: no cover


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Corpus files, invariant-package assembly and the verification runner.

A corpus is a JSON manifest of cases; each case packages the inputs of one
identity check together with its expected outcome.  The runner recomputes
everything from first principles:

* ``CurvePair``: both curves are analyzed by curvelab, their duals computed
  by dualgeom, the two intersection chis counted by certified elimination,
  and the flop identity evaluated in both forms.  A curve's degree slice is
  certified by the transversal line its square-free test found, and each
  curve is analysed once, whatever reads it.
* ``PackagePair``: invariant packages come from files, inline JSON or
  standard constructions (hypersurfaces and linear spaces via charclass);
  slice chis are resolved from package data or complete-intersection closed
  forms, never from the identity being tested.
* ``ClassicalPlucker``: the dual-count formulas, optionally cross-checked on
  an explicit curve through the polar oracle.
* ``QuadricPair``: the quadric specialization of the identity.
* ``SolveUnknown``: a one-unknown identity instance with its exact solution.

`RUNNERS` maps each case kind to its runner; its keys are `CASE_KINDS`.
Every key of a case is read through `_require`, every integer through
`_is_integer`, and every file through `read_file` (JSON files through
`load_json`), so a malformed case or file is refused with a typed error:
the case reports status ``error`` and the rest of the run goes on.

Reports are deterministic: cases run in manifest order, rationals serialize
as "p/q" strings, and timing fields can be suppressed for byte-identical
re-runs.  `load_json` is the one JSON reader and `json_text` the one
writer, which refuses an integer too long to print with GuardrailExceeded.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import charclass, curvelab, dualgeom, flopcalc
from .curvelab import PlaneCurve
from .errors import DualisError, GuardrailExceeded, MissingFile, SchemaError
from .exact import DUAL_DEGREE_CAP, _UNPRINTABLE, MultiPoly, format_rational, parse_rational
from .flopcalc import CONORMAL, IDENTITY_FIELDS, INTRO, IdentityInstance, VarietyInvariants

@dataclass(frozen=True)
class CorpusCase:
    case_id: str
    kind: str
    inputs: dict
    expected: dict = field(default_factory=dict)
    notes: str = ""


@dataclass
class CaseResult:
    case_id: str
    status: str  # pass | fail | error
    details: dict
    wall_ms: Optional[float] = None


@dataclass
class RunReport:
    results: list
    include_timing: bool = True

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    @property
    def errored(self) -> int:
        return sum(1 for r in self.results if r.status == "error")

    def as_dict(self) -> dict:
        cases = []
        for r in self.results:
            entry = {"id": r.case_id, "status": r.status, "details": r.details}
            if self.include_timing and r.wall_ms is not None:
                entry["wall_ms"] = round(r.wall_ms, 3)
            cases.append(entry)
        return {
            "summary": {
                "total": len(self.results),
                "pass": self.passed,
                "fail": self.failed,
                "error": self.errored,
            },
            "cases": cases,
        }

    def to_json(self) -> str:
        return json_text(self.as_dict())


# ---------------------------------------------------------------------------
# schema-checked loading
# ---------------------------------------------------------------------------

_ABSENT = object()


def _is_integer(value) -> bool:
    """Is value a JSON integer?  (bool subclasses int.)"""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(mapping: dict, key: str, types, where: str, default=_ABSENT):
    """``mapping[key]``, refused unless it is one of ``types``, where ``int``
    asks for `_is_integer`; a missing key is refused too, unless a default
    is given."""
    if key not in mapping:
        if default is not _ABSENT:
            return default
        raise SchemaError(f"{where}: missing key", field=key)
    value = mapping[key]
    if not (_is_integer(value) if types is int else isinstance(value, types)):
        raise SchemaError(f"{where}: wrong type for {key!r}", field=key)
    return value


def package_from_dict(data: dict, where: str = "package") -> VarietyInvariants:
    label = _require(data, "label", str, where)
    n = _require(data, "n", int, where)
    dim = _require(data, "dim", int, where)
    degree = _require(data, "degree", int, where)
    c0m = _require(data, "c0m", int, where)
    slices = _require(data, "chi_slices", list, where)
    transversal = _require(data, "transversal", bool, where)
    if len(slices) != n + 1 or not all(map(_is_integer, slices)):
        raise SchemaError(
            f"{where}: chi_slices must be a list of {n + 1} integers",
            field="chi_slices",
        )
    try:
        pkg = VarietyInvariants(
            label=label, n=n, dim=dim, degree=degree, c0m=c0m,
            chi_slices=tuple(slices), transversality_certified=transversal,
        )
        pkg.validate_slices()
    except DualisError as exc:
        raise SchemaError(f"{where}: {exc}", field="chi_slices") from exc
    return pkg


def read_file(path) -> str:
    """The text of a file; a missing file or a directory is refused with
    MissingFile, and bytes that are not UTF-8 text with SchemaError."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


def load_json(path) -> dict:
    """The JSON object a file holds; SchemaError if the file is not JSON
    text or its top level is not an object."""
    try:
        data = json.loads(read_file(path))
    except ValueError as exc:  # JSONDecodeError, over-long integers
        raise SchemaError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: the top level must be a JSON object")
    return data


def json_text(obj) -> str:
    """The JSON document of obj, indented by two, with a final newline: the
    one writer of a JSON document.  An integer too long to print (over 4300
    digits) is refused with GuardrailExceeded, as `exact.int_text` refuses
    it; only the serialisation is guarded, no computation."""
    try:
        text = json.dumps(obj, indent=2)
    except ValueError:
        raise GuardrailExceeded(_UNPRINTABLE) from None
    return text + "\n"


def load_package(path) -> VarietyInvariants:
    return package_from_dict(load_json(path), where=str(path))


def instance_from_dict(data: dict, where: str = "instance") -> IdentityInstance:
    """A one-unknown identity instance: ``n``, ``dims`` (four integers), an
    optional ``form`` and ``values``, which maps identity fields to integers
    or "p/q" strings (never floats) and the unknown field to null."""
    n = _require(data, "n", int, where)
    dims = _require(data, "dims", list, where)
    if len(dims) != 4 or not all(map(_is_integer, dims)):
        raise SchemaError(f"{where}: dims must be a list of 4 integers", field="dims")
    values = _require(data, "values", dict, where)
    for key in values:
        if key not in IDENTITY_FIELDS:
            raise SchemaError(f"{where}: unknown identity field {key!r}", field="values")
        if not _is_integer(values[key]):
            _require(values, key, (str, type(None)), where)
    return IdentityInstance(
        n=n, dims=tuple(dims), form=_require(data, "form", object, where, INTRO),
        **{k: parse_rational(v) if isinstance(v, str) else v for k, v in values.items()},
    )


def save_package(pkg: VarietyInvariants, path):
    Path(path).write_text(json_text(pkg.as_dict()))


def load_corpus(path) -> list:
    """Load a corpus manifest (a JSON file or a directory containing one)."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    data = load_json(path)
    raw_cases = _require(data, "cases", list, str(path))
    cases = []
    seen = set()
    for i, raw in enumerate(raw_cases):
        where = f"{path}[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: case must be an object", field="cases")
        case_id = _require(raw, "id", str, where)
        kind = _require(raw, "kind", str, where)
        if kind not in RUNNERS:
            raise SchemaError(f"{where}: unknown kind {kind!r}", field="kind")
        if case_id in seen:
            raise SchemaError(f"{where}: duplicate case id {case_id!r}", field="id")
        seen.add(case_id)
        inputs = _require(raw, "inputs", dict, where)
        _check_referenced_files(inputs, path.parent, where)
        cases.append(CorpusCase(
            case_id=case_id,
            kind=kind,
            inputs=inputs,
            expected=_require(raw, "expected", dict, where, {}),
            notes=_require(raw, "notes", str, where, ""),
        ))
    return cases


def _check_referenced_files(obj, root: Path, where: str):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "file":
                if not isinstance(value, str):
                    raise SchemaError(f"{where}: a file name must be a string", field="file")
                if not (root / value).is_file():
                    raise MissingFile(f"{where}: {root / value}")
            else:
                _check_referenced_files(value, root, where)
    elif isinstance(obj, list):
        for value in obj:
            _check_referenced_files(value, root, where)


def save_report(report: RunReport, path):
    Path(path).write_text(report.to_json())


# ---------------------------------------------------------------------------
# resolving case inputs
# ---------------------------------------------------------------------------

def resolve_curve(spec, root: Path, where: str) -> PlaneCurve:
    if isinstance(spec, dict) and "file" in spec:
        text = read_file(root / _require(spec, "file", str, where)).strip()
    elif isinstance(spec, dict) and "poly" in spec:
        text = _require(spec, "poly", str, where)
    else:
        raise SchemaError(f"{where}: curve spec needs 'file' or 'poly'", field="curve")
    return curvelab.load_curve(text)


def resolve_package(spec, root: Path, where: str) -> VarietyInvariants:
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: package spec must be an object", field="package")
    if "file" in spec:
        return load_package(root / _require(spec, "file", str, where))
    if "inline" in spec:
        return package_from_dict(_require(spec, "inline", dict, where), where)
    if "standard" in spec:
        return standard_package(_require(spec, "standard", dict, where), where)
    raise SchemaError(
        f"{where}: package spec needs 'file', 'inline' or 'standard'", field="package"
    )


def standard_package(spec: dict, where: str = "standard") -> VarietyInvariants:
    """Packages of standard varieties, built by charclass at run time."""
    kind = _require(spec, "type", str, where)
    label = _require(spec, "label", str, where, None)

    def number(key):
        return _require(spec, key, int, where)

    if kind == "hypersurface":
        return charclass.hypersurface_package(number("n"), number("d"), label)
    if kind == "linear":
        return charclass.linear_space_package(number("n"), number("m"), label)
    if kind == "linear_dual":
        n, m = number("n"), number("m")
        return charclass.linear_space_package(n, n - m - 1, label or f"dual of P^{m} in P^{n}")
    if kind == "quadric_dual":
        # the dual of a smooth quadric is again a smooth quadric
        n = number("n")
        return charclass.hypersurface_package(
            n, 2, label or f"dual of the smooth quadric in P^{n}"
        )
    if kind == "hypersurface_dual":
        # dual of a smooth degree-d hypersurface: a hypersurface whose c0m
        # and degree come from the package corollaries (no slice data)
        n, d = number("n"), number("d")
        src = charclass.hypersurface_package(n, d)
        codim = flopcalc.detect_dual_codim(src)
        return VarietyInvariants(
            label=label or f"dual of the smooth degree-{d} hypersurface in P^{n}",
            n=src.n,
            dim=src.n - codim,
            degree=flopcalc.dual_degree_from_invariants(src, 0, codim),
            c0m=flopcalc.dual_c0m(src, 0, dual_codim=codim),
            chi_slices=None,
            transversality_certified=True,
        )
    raise SchemaError(f"{where}: unknown standard package type {kind!r}", field="type")


def resolve_chi(spec, packages: dict, where: str, side: str | None = "dual") -> int:
    """Resolve a chi input: a literal, a package slice, a complete
    intersection, or (for identity pairs) an empty intersection justified by
    dimension count on the named side."""
    if _is_integer(spec):
        return spec
    if isinstance(spec, dict) and "slice" in spec:
        ref = _require(spec, "slice", list, where)
        if len(ref) != 2 or not isinstance(ref[0], str) or not _is_integer(ref[1]):
            raise SchemaError(f"{where}: slice must be [package name, index]", field="chi")
        name, j = ref
        if name not in packages:
            raise SchemaError(f"{where}: no package named {name!r}", field="chi")
        pkg = packages[name]
        pkg.validate_slices()
        if not 0 <= j <= pkg.n:
            raise SchemaError(f"{where}: slice index {j} outside 0..{pkg.n}",
                              field="chi")
        return pkg.chi_slices[j]
    if isinstance(spec, dict) and "ci" in spec:
        ci = _require(spec, "ci", dict, where)
        degrees = _require(ci, "degrees", list, where)
        if not all(map(_is_integer, degrees)):
            raise SchemaError(f"{where}: ci degrees must be integers", field="degrees")
        return charclass.chi_smooth_complete_intersection(_require(ci, "n", int, where), degrees)
    if isinstance(spec, dict) and spec.get("empty") is True:
        if side is None:
            raise SchemaError(f"{where}: 'empty' not allowed here", field="chi")
        a, b = ("d1", "d2") if side == "dual" else ("s1", "s2")
        p1, p2 = packages[a], packages[b]
        if p1.dim + p2.dim >= p1.n:
            raise SchemaError(
                f"{where}: 'empty' needs dim1 + dim2 < n", field="chi"
            )
        return 0
    raise SchemaError(f"{where}: cannot resolve chi spec {spec!r}", field="chi")


# ---------------------------------------------------------------------------
# curve-pair assembly
# ---------------------------------------------------------------------------

def transversal_slice_line(curve: PlaneCurve) -> MultiPoly:
    """The line that certified the curve square-free, as a linear form: it
    meets the curve in d distinct points (`exact.transversal_line`)."""
    return MultiPoly(curve.variables, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                              curve.slice_line)))


def curve_package(curve: PlaneCurve, label: str) -> VarietyInvariants:
    """Invariant package of a plane curve, every entry computed and certified.

    chi_slices[1] = degree is certified by the transversal line that every
    PlaneCurve holds (`transversal_slice_line`).
    """
    report = curvelab.curve_report(curve)
    return VarietyInvariants(
        label=label,
        n=2,
        dim=1,
        degree=report.d,
        c0m=report.c0m,
        chi_slices=(0, report.d, report.chi),
        transversality_certified=True,
    )


@dataclass(frozen=True)
class CurvePairData:
    s1: VarietyInvariants
    s2: VarietyInvariants
    d1: VarietyInvariants
    d2: VarietyInvariants
    chi_cap: int
    chi_cap_dual: int


def build_curve_pair(c1: PlaneCurve, c2: PlaneCurve,
                     label1: str = "S1", label2: str = "S2") -> CurvePairData:
    """Assemble all identity inputs for a pair of plane curves.

    Lines dualize to points; higher-degree curves get explicit dual
    equations and full dual-curve reports, so a dual past `DUAL_DEGREE_CAP`
    is refused with GuardrailExceeded before its chart.  chi_cap is a
    certified transversal count: a pair sharing a component, two equal
    lines among them, is refused with ReducibleCurve, and a pair meeting
    with multiplicity above one with NotTransversal.

    When either curve is a line L, the dual side is empty: L* is a point,
    and two distinct lines have distinct dual points.  A plane curve C of
    degree >= 2 is reflexive in characteristic 0 (Kleiman, Tangency and
    duality, CMS Conf. Proc. 6, 1986), so L* lies on C* only when L is a
    limit of tangent lines of C, and such a line meets C with multiplicity
    at least 2 somewhere, which chi_cap has already refused.  Otherwise
    chi_cap_dual is the certified transversal count of the two duals.
    """
    s1 = curve_package(c1, label1)
    s2 = curve_package(c2, label2)
    chi_cap = curvelab.transversal_intersection_chi(c1, c2)

    duals = []
    for curve, label in ((c1, label1), (c2, label2)):
        if curve.degree == 1:
            duals.append((None, charclass.linear_space_package(2, 0, f"{label} dual point")))
        else:
            dualgeom._check_dual_degree(curve, DUAL_DEGREE_CAP, GuardrailExceeded, f"{label} ")
            eq = dualgeom.dual_equation(curve)
            duals.append((eq.curve, curve_package(eq.curve, f"{label} dual curve")))

    (o1, d1), (o2, d2) = duals
    chi_dual = 0 if o1 is None or o2 is None else curvelab.transversal_intersection_chi(o1, o2)
    return CurvePairData(s1, s2, d1, d2, chi_cap, chi_dual)


# ---------------------------------------------------------------------------
# running cases
# ---------------------------------------------------------------------------

def _pair_outcome(s1, s2, d1, d2, chi_cap: int, chi_cap_dual: int,
                  expected: dict, where: str) -> tuple:
    """Both forms of the identity for one pair: ``(reports, details, ok)``,
    ok when the verdict is the expected one (holds, by default)."""
    reports = flopcalc.check_forms(s1, s2, d1, d2, chi_cap, chi_cap_dual)
    details = {
        "chi_cap": chi_cap,
        "chi_cap_dual": chi_cap_dual,
        "checks": {form: rep.as_dict() for form, rep in reports.items()},
    }
    holds = all(rep.holds for rep in reports.values())
    return reports, details, holds == _require(expected, "holds", bool, where, True)


def _run_curve_pair(inputs: dict, expected: dict, root: Path, where: str) -> tuple:
    c1, c2 = (resolve_curve(_require(inputs, key, object, where), root, where)
              for key in ("curve1", "curve2"))
    data = build_curve_pair(c1, c2, _require(inputs, "label1", str, where, "S1"),
                            _require(inputs, "label2", str, where, "S2"))
    reports, details, ok = _pair_outcome(data.s1, data.s2, data.d1, data.d2,
                                         data.chi_cap, data.chi_cap_dual, expected, where)
    if "lhs" in expected:
        want = parse_rational(_require(expected, "lhs", str, where))
        form = _require(expected, "lhs_form", str, where, CONORMAL)
        if form not in reports:
            raise SchemaError(f"{where}: unknown identity form {form!r}", field="lhs_form")
        ok = ok and reports[form].lhs == want
    return details, ok


def _run_package_pair(inputs: dict, expected: dict, root: Path, where: str) -> tuple:
    pkgs = {name: resolve_package(_require(inputs, name, object, where), root, where)
            for name in ("s1", "s2", "d1", "d2")}
    chi_cap = resolve_chi(_require(inputs, "chi_cap", object, where), pkgs, where,
                          side="primal")
    chi_dual = resolve_chi(_require(inputs, "chi_cap_dual", object, where), pkgs, where,
                           side="dual")
    _, details, ok = _pair_outcome(pkgs["s1"], pkgs["s2"], pkgs["d1"], pkgs["d2"],
                                   chi_cap, chi_dual, expected, where)
    return details, ok


def _run_classical_plucker(inputs: dict, expected: dict, root: Path, where: str) -> tuple:
    counts = tuple(_require(inputs, key, int, where) for key in ("d", "delta", "kappa"))
    details = flopcalc.classical_plucker(*counts).as_dict()
    want = {key: _require(expected, key, int, where)
            for key in ("d_dual", "delta_dual", "kappa_dual")}
    ok = all(details[key] == value for key, value in want.items())
    oracle_spec = _require(inputs, "oracle_curve", object, where, None)
    if oracle_spec is not None:
        curve = resolve_curve(oracle_spec, root, where)
        report = curvelab.curve_report(curve)
        details["oracle_d_dual"] = dualgeom.dual_degree_oracle(curve)
        ok = (ok and details["oracle_d_dual"] == details["d_dual"]
              and (report.d, report.delta, report.kappa) == counts)
    return details, ok


def _run_quadric_pair(inputs: dict, expected: dict, root: Path, where: str) -> tuple:
    pkgs = {name: resolve_package(_require(inputs, name, object, where), root, where)
            for name in ("s", "s_dual")}
    chi_q, chi_qd = (resolve_chi(_require(inputs, key, object, where), pkgs, where, side=None)
                     for key in ("chi_s_q", "chi_sd_qd"))
    rep = flopcalc.quadric_pair_check(pkgs["s"], pkgs["s_dual"], chi_q, chi_qd)
    return {"check": rep.as_dict()}, rep.holds == _require(expected, "holds", bool, where, True)


def _run_solve_unknown(inputs: dict, expected: dict, root: Path, where: str) -> tuple:
    got = flopcalc.solve_unknown(instance_from_dict(inputs, where))
    want = parse_rational(_require(expected, "value", str, where))
    return {"value": format_rational(got)}, got == want


#: each case kind's runner: (inputs, expected, root, where) -> (details, ok)
RUNNERS = {
    "CurvePair": _run_curve_pair,
    "PackagePair": _run_package_pair,
    "ClassicalPlucker": _run_classical_plucker,
    "QuadricPair": _run_quadric_pair,
    "SolveUnknown": _run_solve_unknown,
}
CASE_KINDS = tuple(RUNNERS)


def run_case(case: CorpusCase, root: Path) -> CaseResult:
    start = time.perf_counter()
    where = f"case {case.case_id}"
    try:
        runner = RUNNERS.get(case.kind)
        if runner is None:
            raise SchemaError(f"{where}: unknown kind", field="kind")
        details, ok = runner(case.inputs, case.expected, Path(root), where)
        status = "pass" if ok else "fail"
    except DualisError as exc:
        details = {"error": f"{type(exc).__name__}: {exc}"}
        status = "error"
    wall = (time.perf_counter() - start) * 1000.0
    return CaseResult(case.case_id, status, details, wall)


def run_corpus(path, include_timing: bool = True) -> RunReport:
    path = Path(path)
    root = path if path.is_dir() else path.parent
    cases = load_corpus(path)
    results = [run_case(case, root) for case in cases]
    return RunReport(results, include_timing=include_timing)

"""Harness contracts: file schemas, corpus loading, CLI exit codes, determinism."""

import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dualis.charclass import hypersurface_package
from dualis import dualgeom
from dualis.cli import run_command
from dualis.corpus import (
    CorpusCase,
    RunReport,
    build_curve_pair,
    curve_package,
    json_text,
    load_corpus,
    load_json,
    load_package,
    package_from_dict,
    read_file,
    run_case,
    run_corpus,
    save_package,
    save_report,
    standard_package,
)
from dualis.curvelab import PlaneCurve
from dualis.errors import (
    GuardrailExceeded,
    IrrationalSingularity,
    MissingFile,
    NotTransversal,
    ReducibleCurve,
    SchemaError,
)
from dualis.exact import MultiPoly

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_CORPUS = REPO_ROOT / "corpus"
GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "corpus_report.json"


class TestPackageFiles:
    def test_round_trip(self, tmp_path):
        pkg = hypersurface_package(3, 2)
        path = tmp_path / "pkg.json"
        save_package(pkg, path)
        assert load_package(path) == pkg

    def test_wrong_slice_length_names_field(self):
        data = hypersurface_package(2, 2).as_dict()
        data["chi_slices"] = [0, 2]
        with pytest.raises(SchemaError) as err:
            package_from_dict(data)
        assert err.value.field == "chi_slices"

    def test_missing_key_names_field(self):
        data = hypersurface_package(2, 2).as_dict()
        del data["degree"]
        with pytest.raises(SchemaError) as err:
            package_from_dict(data)
        assert err.value.field == "degree"

    def test_structural_violation_rejected(self):
        data = hypersurface_package(2, 2).as_dict()
        data["chi_slices"] = [5, 2, 2]
        with pytest.raises(SchemaError):
            package_from_dict(data)

    def test_missing_file(self):
        with pytest.raises(MissingFile):
            load_package("/nonexistent/p.json")


class TestCorpusLoading:
    def test_shipped_corpus_loads(self):
        cases = load_corpus(REPO_CORPUS)
        assert len(cases) >= 10
        assert all(isinstance(c, CorpusCase) for c in cases)

    def test_duplicate_ids_rejected(self, tmp_path):
        manifest = {"cases": [
            {"id": "a", "kind": "SolveUnknown", "inputs": {}},
            {"id": "a", "kind": "SolveUnknown", "inputs": {}},
        ]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError) as err:
            load_corpus(path)
        assert err.value.field == "id"

    def test_unknown_kind_rejected(self, tmp_path):
        manifest = {"cases": [{"id": "a", "kind": "Nope", "inputs": {}}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError) as err:
            load_corpus(path)
        assert err.value.field == "kind"

    def test_referenced_file_must_exist(self, tmp_path):
        manifest = {"cases": [{
            "id": "a", "kind": "CurvePair",
            "inputs": {"curve1": {"file": "missing.txt"},
                       "curve2": {"file": "missing.txt"}},
        }]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(MissingFile):
            load_corpus(path)

    @pytest.mark.parametrize("case", [3, "a", ["a"], None], ids=["number", "text", "list", "null"])
    def test_case_must_be_an_object(self, case, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps({"cases": [case]}))
        with pytest.raises(SchemaError, match="case must be an object") as err:
            load_corpus(tmp_path)
        assert err.value.field == "cases"
        assert run_command(["corpus", "run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: SchemaError")

    def test_run_case_refuses_an_unknown_kind(self, tmp_path):
        # load_corpus refuses the kind first; a case built in code reaches run_case
        result = run_case(CorpusCase("a", "Nope", {}), tmp_path)
        assert result.status == "error"
        assert result.details["error"].startswith("SchemaError: case a: unknown kind")

    def test_report_round_trip(self, tmp_path):
        case = CorpusCase("solve", "SolveUnknown", {
            "n": 2, "dims": [1, 1, 0, 0],
            "values": {"chi_cap": None, "c0m_1": 2, "c0m_2": 2,
                       "chi_cap_dual": 0, "c0m_dual_1": 1, "c0m_dual_2": 1},
        }, expected={"value": "1/1"})
        result = run_case(case, tmp_path)
        assert result.status == "pass"
        report = RunReport([result], include_timing=False)
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_json(path) == report.as_dict()


class TestJsonWriter:
    def test_same_bytes_as_json_dumps(self):
        golden = GOLDEN_REPORT.read_text()
        for obj in (json.loads(golden), hypersurface_package(3, 2).as_dict()):
            assert json_text(obj) == json.dumps(obj, indent=2) + "\n"
        assert json_text(json.loads(golden)) == golden

    def test_refuses_an_integer_too_long_to_print(self):
        with pytest.raises(GuardrailExceeded, match="^an integer in the result has too many"
                                                    " digits to print$"):
            json_text({"cases": [{"details": {"d_dual": 10 ** 4399}}]})  # 4400 digits


class TestStandardPackages:
    def test_known_kinds(self):
        assert standard_package({"type": "hypersurface", "n": 2, "d": 2}).degree == 2
        assert standard_package({"type": "linear", "n": 3, "m": 1}).dim == 1
        assert standard_package({"type": "linear_dual", "n": 3, "m": 2}).dim == 0
        assert standard_package({"type": "quadric_dual", "n": 3}).c0m == 4
        dual = standard_package({"type": "hypersurface_dual", "n": 5, "d": 3})
        assert (dual.dim, dual.degree, dual.c0m) == (4, 48, 171)
        assert dual.chi_slices is None

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            standard_package({"type": "mystery"})


class TestCurvePairAssembly:
    def test_two_lines(self):
        data = build_curve_pair(
            PlaneCurve.from_text("x"), PlaneCurve.from_text("y")
        )
        assert data.chi_cap == 1 and data.chi_cap_dual == 0
        assert data.d1.dim == data.d2.dim == 0

    def test_curve_package_slices(self):
        pkg = curve_package(PlaneCurve.from_text("y^2*z - x^3"), "cuspidal")
        assert pkg.chi_slices == (0, 3, 2)
        assert pkg.c0m == 3
        pkg.validate_slices()

    #: pairs with a line whose intersection count is refused: the first two
    #: share their line, the others meet with multiplicity at least 2
    LINE_REFUSALS = {
        "same-line": ("x", "x", ReducibleCurve),
        "proportional-line": ("x", "2*x", ReducibleCurve),
        "tangent-line": ("y", "x^2 - y*z", NotTransversal),            # at [0:0:1]
        "flex-tangent": ("z", "y^2*z - x^3", NotTransversal),          # at [0:1:0]
        "line-through-the-node": ("x", "y^2*z - x^3 - x^2*z", NotTransversal),
    }

    @pytest.mark.parametrize("name", list(LINE_REFUSALS))
    def test_line_pair_refused_by_its_intersection_count(self, name):
        line, other, error = self.LINE_REFUSALS[name]
        for pair in ((line, other), (other, line)):
            with pytest.raises(error):
                build_curve_pair(*map(PlaneCurve.from_text, pair))

    def test_line_pair_refusals_through_corpus_run(self, tmp_path, capsys):
        manifest = {"cases": [
            {"id": name, "kind": "CurvePair",
             "inputs": {"curve1": {"poly": line}, "curve2": {"poly": other}}}
            for name, (line, other, _) in self.LINE_REFUSALS.items()]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = ["corpus", "run", str(tmp_path), "--format", "json", "--no-timestamps"]
        assert run_command(argv) == 1
        cases = json.loads(capsys.readouterr().out)["cases"]
        assert [case["id"] for case in cases] == list(self.LINE_REFUSALS)
        for case in cases:
            error = self.LINE_REFUSALS[case["id"]][2].__name__
            assert case["status"] == "error"
            assert case["details"]["error"].startswith(f"{error}: "), case

    def test_dual_point_of_a_built_line_pair_is_off_the_dual_curve(self):
        # a line L whose pair with C builds meets C in d distinct points, so
        # L* is off the dual curve C*: its equation is nonzero at L's
        # coefficient vector, and the dual side counts 0
        rng = random.Random(33)
        built = 0
        for name in ("conic_circle", "conic_parabola", "cubic_cusp", "cubic_cusp_moved",
                     "cubic_nodal", "cubic_nodal_rf"):
            c = PlaneCurve.from_text(read_file(REPO_CORPUS / "curves" / f"{name}.txt"))
            dual = dualgeom.dual_equation(c).curve
            for trial in range(12):
                coefficients = (0, 0, 0)
                while not any(coefficients):
                    coefficients = tuple(rng.randint(-3, 3) for _ in range(3))
                line = PlaneCurve(MultiPoly(c.variables, dict(zip(
                    ((1, 0, 0), (0, 1, 0), (0, 0, 1)), coefficients))))
                try:
                    data = build_curve_pair(*((line, c) if trial % 2 else (c, line)))
                except (NotTransversal, IrrationalSingularity):
                    # a line meeting C twice somewhere; or the nodal cubic,
                    # whose dual has irrational cusps
                    continue
                built += 1
                assert data.chi_cap == c.degree and data.chi_cap_dual == 0
                assert not dual.contains(coefficients), (name, coefficients)
        assert built >= 40


class TestCli:
    def test_classical_plucker_output(self, capsys):
        assert run_command(["plucker", "classical", "-d", "3", "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "d* = 4" in out and "kappa* = 3" in out and "delta* = 0" in out

    def test_chi_ci(self, capsys):
        assert run_command(["chi", "ci", "-n", "5", "--degrees", "3"]) == 0
        assert capsys.readouterr().out.strip() == "27"

    def test_chi_std_json(self, capsys):
        assert run_command(["chi", "std", "--kind", "grassmannian",
                            "-n", "6", "-k", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"chi": 15}

    def test_curve_analyze_json(self, capsys):
        assert run_command(["curve", "analyze", "--poly", "y^2*z - x^3",
                            "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["report"]["c0m"] == 3
        assert data["singular_points"][0]["kind"] == "Cusp"

    def test_curve_dual(self, capsys):
        assert run_command(["curve", "dual", "--poly", "y^2 - x*z",
                            "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degree"] == 2

    def test_degree_guardrail_exit_code(self, capsys):
        code = run_command(["curve", "analyze", "--poly", "x^7 + y^7 + z^7"])
        assert code == 2

    def test_max_degree_override_is_hard_capped(self, capsys):
        code = run_command(["curve", "analyze", "--poly", "x^7 + y^7 + z^7",
                            "--max-degree", "7"])
        assert code == 0
        code = run_command(["curve", "analyze", "--poly", "x^9 + y^9 + z^9",
                            "--max-degree", "99"])
        assert code == 2

    @pytest.mark.parametrize("bound", [6, 50, 1000])
    def test_node_at_a_product_of_primes(self, bound, capsys):
        # y^2*x - (P*x - z)^3 - (P*x - z)^2*x, P the product of the primes
        # below the bound (30 below 6), has one node, at (1 : 0 : P); at the
        # bound 1000 the root search of its singular part walks past every
        # prime below 1000, as each divides the leading coefficient
        P = math.prod(p for p in range(2, bound) if all(p % q for q in range(2, p)))
        poly = (f"-{P ** 3 + P ** 2}*x^3 + {3 * P ** 2 + 2 * P}*x^2*z - {3 * P + 1}*x*z^2"
                " + x*y^2 + z^3")
        assert run_command(["curve", "analyze", "--poly", poly, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["report"]["delta"], data["report"]["kappa"]) == (1, 0)
        assert [(p["point"], p["kind"]) for p in data["singular_points"]] == [([1, 0, P], "Node")]
        assert run_command(["curve", "dual-degree", "--poly", poly]) == 0
        assert capsys.readouterr().out.strip() == "4"

    @pytest.mark.timed
    def test_octic_with_a_200_digit_coefficient_dual_degree(self, capsys):
        # its singular parts are sought at the eliminant's repeated roots,
        # modulo each part, so no line resultant is taken in full; the
        # dual degree is 23, the same as with the coefficient 10
        poly = f"y^3*z^5 + x^2*y*z^5 - x^4*y^4 + {10 ** 200}*x^5*y^2*z"
        start = time.perf_counter()
        assert run_command(["curve", "dual-degree", "--max-degree", "8", "--poly", poly]) == 0
        assert time.perf_counter() - start < 20.0
        assert capsys.readouterr().out.strip() == "23"

    @pytest.mark.timed
    @pytest.mark.parametrize("poly", [
        "x^12*y + y^12*z + z^12*x + x^5*y^4*z^4",
        "x^7*y + y^7*z + z^7*x + x^3*y^3*z^2",
    ])
    def test_degree_cap_runs_before_squarefree_test(self, poly, capsys):
        start = time.perf_counter()
        assert run_command(["curve", "analyze", "--poly", poly]) == 2
        assert time.perf_counter() - start < 1.0
        assert "InvalidParams" in capsys.readouterr().err

    @pytest.mark.timed
    @pytest.mark.parametrize("argv", [
        ["chi", "std", "--kind", "grassmannian", "-n", "20000", "-k", "10000"],
        ["chi", "ci", "-n", "3", "--degrees", "9" * 2000],
        ["chi", "ci", "-n", "5000", "--degrees", "10"],
    ], ids=["grassmannian", "huge-degree", "huge-ambient"])
    def test_chi_guardrails(self, argv, capsys):
        start = time.perf_counter()
        assert run_command(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "GuardrailExceeded" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["curve", "dual", "--poly", "7" * 2500 + "*x^2*z + y^2*z - x^3"],
        ["plucker", "solve", "--file", "{instance}"],
        ["plucker", "classical", "-d", str(10 ** 2200)],
        ["chi", "std", "--kind", "pn", "-n", "9" * 4300],
    ], ids=["dual", "solve", "classical", "chi-std"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_integers_too_long_to_print_refused(self, argv, fmt, tmp_path, capsys):
        # each result holds an integer past the 4300 digits Python prints
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({"n": 14, "dims": [13, 5, 8, 8], "values": {
            "chi_cap": 27, "c0m_1": int("3" * 4000), "c0m_2": int("5" * 4000),
            "chi_cap_dual": None, "c0m_dual_1": 15, "c0m_dual_2": 9}}))
        argv = [arg.format(instance=instance) for arg in argv]
        assert run_command(argv + ["--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "error: GuardrailExceeded: an integer in the result has too many digits to print\n"

    def test_usage_error_exit_code(self, capsys):
        assert run_command(["plucker", "check", "--s1", "x.json"]) == 2

    def test_bad_input_exit_code(self, capsys):
        assert run_command(["curve", "analyze", "--poly", "x +"]) == 2

    def test_plucker_check_exit_codes(self, tmp_path, capsys):
        from dualis.charclass import linear_space_package
        from dualis.corpus import save_package
        line = tmp_path / "line.json"
        point = tmp_path / "point.json"
        save_package(linear_space_package(2, 1), line)
        save_package(linear_space_package(2, 0), point)
        args = ["plucker", "check", "--s1", str(line), "--s2", str(line),
                "--d1", str(point), "--d2", str(point)]
        assert run_command(args + ["--chi", "1", "--chi-dual", "0"]) == 0
        assert run_command(args + ["--chi", "2", "--chi-dual", "0"]) == 1

    def test_plucker_solve(self, tmp_path, capsys):
        spec = {
            "n": 14, "dims": [13, 5, 8, 8],
            "values": {"chi_cap": 27, "c0m_1": None, "c0m_2": 6,
                       "chi_cap_dual": 24, "c0m_dual_1": 15, "c0m_dual_2": 9},
        }
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(spec))
        assert run_command(["plucker", "solve", "--file", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "30/1"

    def test_detect_codim(self, tmp_path, capsys):
        path = tmp_path / "conic.json"
        save_package(hypersurface_package(2, 2), path)
        assert run_command(["plucker", "detect-codim", "--package", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_corpus_determinism(self, tmp_path, capsys):
        # a small corpus: byte-identical reports across runs
        manifest = {"cases": [
            {"id": "solve", "kind": "SolveUnknown",
             "inputs": {"n": 2, "dims": [1, 1, 0, 0],
                        "values": {"chi_cap": None, "c0m_1": 2, "c0m_2": 2,
                                   "chi_cap_dual": 0, "c0m_dual_1": 1,
                                   "c0m_dual_2": 1}},
             "expected": {"value": "1/1"}},
            {"id": "classical", "kind": "ClassicalPlucker",
             "inputs": {"d": 4, "delta": 0, "kappa": 0},
             "expected": {"d_dual": 12, "delta_dual": 28, "kappa_dual": 24}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        args = ["corpus", "run", str(tmp_path), "--format", "json",
                "--no-timestamps"]
        assert run_command(args) == 0
        first = capsys.readouterr().out
        assert run_command(args) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert data["summary"] == {"total": 2, "pass": 2, "fail": 0, "error": 0}

    def test_corpus_failure_exit_code(self, tmp_path, capsys):
        manifest = {"cases": [
            {"id": "wrong", "kind": "ClassicalPlucker",
             "inputs": {"d": 3, "delta": 1, "kappa": 0},
             "expected": {"d_dual": 5, "delta_dual": 0, "kappa_dual": 3}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run_command(["corpus", "run", str(tmp_path)]) == 1

    @staticmethod
    def _unprintable_corpus(tmp_path) -> str:
        # d = 10^2200 prints, but d* = d(d - 1) has about 4400 digits, past
        # the 4300 that Python prints
        manifest = {"cases": [
            {"id": "huge", "kind": "ClassicalPlucker",
             "inputs": {"d": 10 ** 2200, "delta": 0, "kappa": 0},
             "expected": {"d_dual": 2, "delta_dual": 0, "kappa_dual": 0}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return str(tmp_path)

    @pytest.mark.parametrize("option", [["--format", "json"], ["--out", "{out}"]],
                             ids=["json", "out"])
    def test_corpus_refuses_an_integer_too_long_to_print(self, option, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["corpus", "run", self._unprintable_corpus(tmp_path)]
        assert run_command(argv + [arg.format(out=out) for arg in option]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "Traceback" not in err
        assert err == "error: GuardrailExceeded: an integer in the result has too many digits to print\n"
        assert not out.exists()

    def test_corpus_text_report_of_an_integer_too_long_to_print(self, tmp_path, capsys):
        assert run_command(["corpus", "run", self._unprintable_corpus(tmp_path)]) == 1
        assert capsys.readouterr().out == "[FAIL ] huge\ntotal 1: 0 pass, 1 fail, 0 error\n"

    @pytest.mark.timed
    def test_corpus_applies_the_cli_degree_cap(self, tmp_path):
        manifest = {"cases": [
            {"id": "over-cap", "kind": "CurvePair",
             "inputs": {"curve1": {"poly": "x^12*y + y^12*z + z^12*x + x^5*y^4*z^4"},
                        "curve2": {"poly": "x"}}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        start = time.perf_counter()
        (result,) = run_corpus(tmp_path, include_timing=False).results
        assert time.perf_counter() - start < 1.0
        assert result.status == "error"
        assert result.details["error"].startswith("InvalidParams:")

    @pytest.mark.timed
    def test_corpus_refuses_a_dual_past_the_hard_cap(self, tmp_path):
        # the Fermat quartic's dual has degree 12; its analysis ran for minutes
        (tmp_path / "curves").mkdir()
        for name in ("quartic_fermat.txt", "line_125.txt"):
            (tmp_path / "curves" / name).write_bytes((REPO_CORPUS / "curves" / name).read_bytes())
        manifest = {"cases": [
            {"id": "fermat-quartic-line", "kind": "CurvePair",
             "inputs": {"curve1": {"file": "curves/quartic_fermat.txt"},
                        "curve2": {"file": "curves/line_125.txt"}}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        start = time.perf_counter()
        (result,) = run_corpus(tmp_path, include_timing=False).results
        assert time.perf_counter() - start < 2.0
        assert result.status == "error"
        assert result.details["error"] == "GuardrailExceeded: S1 dual degree 12 exceeds the cap 8"

    @pytest.mark.timed
    def test_corpus_applies_the_chi_guardrails(self, tmp_path):
        line = {"standard": {"type": "linear", "n": 3, "m": 1}}
        manifest = {"cases": [
            {"id": "huge-standard", "kind": "PackagePair",
             "inputs": {"s1": {"standard": {"type": "hypersurface", "n": 5000, "d": 10}},
                        "s2": line, "d1": line, "d2": line,
                        "chi_cap": 0, "chi_cap_dual": 0}},
            {"id": "huge-ci", "kind": "PackagePair",
             "inputs": {"s1": line, "s2": line, "d1": line, "d2": line,
                        "chi_cap": {"ci": {"n": 3, "degrees": [10 ** 2000]}},
                        "chi_cap_dual": 0}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        start = time.perf_counter()
        results = run_corpus(tmp_path, include_timing=False).results
        assert time.perf_counter() - start < 1.0
        for result in results:
            assert result.status == "error"
            assert result.details["error"].startswith("GuardrailExceeded:")

    def test_shipped_corpus_report_matches_golden_bytes(self, capsys):
        args = ["corpus", "run", str(REPO_CORPUS), "--format", "json",
                "--no-timestamps"]
        assert run_command(args) == 0
        assert capsys.readouterr().out.encode() == GOLDEN_REPORT.read_bytes()

    def test_work_budget_of_one_corpus_run(self, monkeypatch):
        # a deterministic budget of one run of the shipped corpus: frames
        # built and integer expansions (a form moved by a matrix other than
        # the identity, a chart form expanded); a search that moved and
        # tested every base and shear took 66 and 92, this one takes 45 and
        # 56 (45 moves and 11 charts).  A base's restrictions
        # to z = 0 are taken once, for its base test and its shears (47
        # each).  No MultiPoly is divided by another: exact has no such
        # division
        from dualis import corpus, curvelab, elimination, exact

        counts = {}
        for owner, name in ((elimination, "_pair_frame_count"), (exact, "_expand"),
                            (elimination, "_base_usable"), (elimination, "_infinity_restriction")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args)
            for module in (exact, elimination, curvelab, dualgeom, corpus):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        moved = elimination._moved

        def counted_move(terms, m):
            if m != elimination._IDENT:
                counts["_moved"] = counts.get("_moved", 0) + 1
            return moved(terms, m)
        monkeypatch.setattr(elimination, "_moved", counted_move)
        run_corpus(REPO_CORPUS, include_timing=False)
        assert counts.get("_pair_frame_count", 0) <= 45
        assert counts.get("_moved", 0) + counts.get("_expand", 0) <= 56
        assert not hasattr(exact, "try_exact_div")
        assert counts["_infinity_restriction"] == counts["_base_usable"]


SOLVE_INSTANCE = {
    "n": 2, "dims": [1, 1, 0, 0],
    "values": {"chi_cap": None, "c0m_1": 2, "c0m_2": 2,
               "chi_cap_dual": 0, "c0m_dual_1": 1, "c0m_dual_2": 1},
}


class TestMalformedInput:
    """A malformed or unreadable file is refused with exit code 2, not a traceback."""

    def _refused(self, argv, capsys, error="SchemaError"):
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}" if error else "error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", "7", "\xff\xfe"],
                             ids=["not-json", "list", "number", "not-utf8"])
    @pytest.mark.parametrize("command", ["detect-codim", "solve", "corpus"])
    def test_json_reader_refuses(self, command, content, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(content.encode("latin-1"))
        argv = {"detect-codim": ["plucker", "detect-codim", "--package", str(path)],
                "solve": ["plucker", "solve", "--file", str(path)],
                "corpus": ["corpus", "run", str(tmp_path)]}[command]
        self._refused(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["curve", "analyze", "--file", "{dir}"],
        ["plucker", "detect-codim", "--package", "{dir}"],
        ["plucker", "solve", "--file", "{dir}"],
        ["chi", "package", "-n", "3", "-d", "2", "--out", "{dir}"],
    ], ids=["curve", "package", "instance", "out"])
    def test_directory_in_place_of_a_file(self, argv, tmp_path, capsys):
        self._refused([a.replace("{dir}", str(tmp_path)) for a in argv], capsys, error=None)

    @pytest.mark.parametrize("text", ["", "x*", "x*^2"],
                             ids=["empty", "dangling-product", "power-without-base"])
    def test_incomplete_polynomial(self, text, capsys):
        self._refused(["curve", "analyze", "--poly", text], capsys, error="PolySyntaxError")

    def test_curve_texts_with_one_token_mutated(self, capsys):
        # 600 seeded mutations of the shipped curve texts, each one token
        # inserted, deleted or replaced, through the three curve leaves: every
        # run exits 0 or 2, a refusal prints an error on stderr and nothing on
        # stdout, and no exception escapes run_command
        texts = [read_file(path).strip() for path in sorted((REPO_CORPUS / "curves").glob("*.txt"))]
        mutants = ["x", "y", "z", "2", "1/2", "0", "^", "*", "+", "-", "^7", "/", "9" * 50]
        rng = random.Random(11)
        codes = []
        for _ in range(600):
            tokens = re.findall(r"\s*(?:\d+|[A-Za-z]\w*|\S)", rng.choice(texts))
            edit = rng.choice(("insert", "delete", "replace"))
            k = rng.randrange(len(tokens) + (edit == "insert"))
            tokens[k:k + (edit != "insert")] = [] if edit == "delete" else [rng.choice(mutants)]
            for leaf in ("analyze", "dual", "dual-degree"):
                codes.append(run_command(["curve", leaf, f"--poly={''.join(tokens)}"]))
                captured = capsys.readouterr()
                assert codes[-1] in (0, 2) and "Traceback" not in captured.err
                if codes[-1] == 2:
                    assert captured.out == "" and captured.err.startswith("error: ")
        assert codes.count(0) > 50 and codes.count(2) > 1500

    #: huge, negative, zero and malformed integers for the plucker classical
    #: and chi leaves, each with the exit code it gets: a result with more
    #: digits than Python prints (4300) is refused, and so is an argument
    #: that int() does not read (4,400 digits among them)
    HOSTILE_INTEGERS = [
        (["plucker", "classical", "-d", str(10 ** 50)], 0),
        (["plucker", "classical", "-d", str(10 ** 50), "--nodes", str(10 ** 99),
          "--cusps", str(10 ** 98)], 0),
        (["plucker", "classical", "-d", "3" * 4000], 2),
        (["plucker", "classical", "-d", "7" * 4400], 2),
        (["plucker", "classical", "-d", "-3"], 2),
        (["plucker", "classical", "-d", "0"], 2),
        (["plucker", "classical", "-d", "4", "--nodes", "-" + str(10 ** 50)], 2),
        (["plucker", "classical", "-d", "4", "--cusps", "1e5"], 2),
        (["chi", "std", "--kind", "pn", "-n", str(10 ** 50)], 0),
        (["chi", "std", "--kind", "quadric", "-n", "9" * 4300], 2),
        (["chi", "std", "--kind", "pn", "-n", "0"], 0),
        (["chi", "std", "--kind", "grassmannian", "-n", str(10 ** 50), "-k", "2"], 2),
        (["chi", "std", "--kind", "grassmannian", "-n", "6", "-k", "-" + "7" * 4400], 2),
        (["chi", "std", "--kind", "pn", "-n", "0x10"], 2),
        (["chi", "ci", "-n", str(10 ** 50), "--degrees", "3"], 2),
        (["chi", "ci", "-n", "4", "--degrees", "2", "0"], 2),
        (["chi", "ci", "-n", "4", "--degrees", "3.5"], 2),
        (["chi", "ci", "-n", "40", "--degrees"] + ["1000"] * 39, 0),
        (["chi", "package", "-n", "3", "-d", str(10 ** 50)], 2),
        (["chi", "package", "-n", "-" + str(10 ** 50), "-d", "2"], 2),
        (["chi", "package", "-n", "x", "-d", "2"], 2),
    ]

    def test_hostile_integers_on_plucker_and_chi(self, capsys):
        # each probe, in both formats, exits with its code within a 2 s
        # SIGALRM budget and without a traceback, and a refusal prints an
        # error or a usage on stderr and nothing on stdout; the alarm raises
        # a BaseException, which no handler of run_command turns into an
        # exit code (a TimeoutError is an OSError, refused with exit 2)
        class Overran(BaseException):
            pass

        def overran(signum, frame):
            raise Overran("a hostile integer overran its budget")
        previous = signal.signal(signal.SIGALRM, overran)
        try:
            for argv, want in self.HOSTILE_INTEGERS:
                for fmt in ("text", "json"):
                    signal.setitimer(signal.ITIMER_REAL, 2.0)
                    code = run_command(argv + ["--format", fmt])
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    captured = capsys.readouterr()
                    shown = [arg[:12] for arg in argv]
                    assert code == want and "Traceback" not in captured.err, (shown, fmt)
                    if code == 2:
                        assert captured.out == "" and captured.err.startswith(("error: ", "usage: "))
                    else:
                        assert captured.out and not captured.err
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_missing_file(self, tmp_path, capsys):
        self._refused(["plucker", "solve", "--file", str(tmp_path / "none.json")], capsys,
                      error="MissingFile")

    def test_directory_referenced_by_a_case(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        manifest = {"cases": [{"id": "a", "kind": "CurvePair",
                               "inputs": {"curve1": {"file": "sub"}, "curve2": {"poly": "x"}}}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(MissingFile):
            load_corpus(tmp_path / "manifest.json")
        with pytest.raises(MissingFile):
            read_file(tmp_path / "sub")
        self._refused(["corpus", "run", str(tmp_path)], capsys, error="MissingFile")

    @pytest.mark.parametrize("change", [
        lambda d: d.pop("n"),
        lambda d: d.pop("values"),
        lambda d: d.update(dims=[1, 1, 0]),
        lambda d: d["values"].update(c0m_3=1),
        lambda d: d["values"].update(c0m_1=[2]),
        lambda d: d["values"].update(c0m_1="2/x"),
        lambda d: d["values"].update(c0m_1=float("nan")),
        lambda d: d["values"].update(c0m_1=float("inf")),
        lambda d: d["values"].update(c0m_1=0.1),
        lambda d: d["values"].update(c0m_1=2.0),
        lambda d: d["values"].update(c0m_1=True),
    ], ids=["no-n", "no-values", "three-dims", "unknown-field", "list-value", "bad-rational",
            "nan-value", "inf-value", "float-value", "integral-float-value", "bool-value"])
    def test_malformed_instance(self, change, tmp_path, capsys):
        data = json.loads(json.dumps(SOLVE_INSTANCE))
        change(data)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        error = "PolySyntaxError" if "2/x" in json.dumps(data) else "SchemaError"
        self._refused(["plucker", "solve", "--file", str(path)], capsys, error=error)

    @pytest.mark.parametrize("text", ["1e5", "1e999999999", "1.5", "1_000", "0x10", "3/-4"])
    def test_rational_outside_the_p_q_grammar(self, text, tmp_path, capsys):
        # only "p" and "p/q" with an optional sign: plucker solve exits 2,
        # and corpus run reports each such case as an error and goes on
        data = json.loads(json.dumps(SOLVE_INSTANCE))
        data["values"].update(c0m_2=text)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        self._refused(["plucker", "solve", "--file", str(path)], capsys, error="PolySyntaxError")
        manifest = {"cases": [
            {"id": "solve", "kind": "SolveUnknown", "inputs": SOLVE_INSTANCE,
             "expected": {"value": "1/1"}},
            {"id": "input", "kind": "SolveUnknown", "inputs": data, "expected": {"value": "1/1"}},
            {"id": "expected", "kind": "SolveUnknown", "inputs": SOLVE_INSTANCE,
             "expected": {"value": text}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        results = run_corpus(tmp_path, include_timing=False).results
        assert [r.status for r in results] == ["pass", "error", "error"]
        assert all(r.details["error"].startswith("PolySyntaxError:") for r in results[1:])
        assert run_command(["corpus", "run", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "total 3: 1 pass, 0 fail, 2 error"

    def test_rational_strings_in_an_instance(self, tmp_path, capsys):
        data = json.loads(json.dumps(SOLVE_INSTANCE))
        data["values"].update(c0m_1="4/2", chi_cap_dual=None, chi_cap="1")
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        assert run_command(["plucker", "solve", "--file", str(path)]) == 0
        assert capsys.readouterr().out == "0/1\n"

    @pytest.mark.parametrize("broken", [
        {"kind": "CurvePair", "inputs": {"curve1": {"poly": "x"}}},
        {"kind": "CurvePair", "inputs": {"curve1": {"poly": "x"}, "curve2": {"poly": 3}}},
        {"kind": "CurvePair", "inputs": {"curve1": {"poly": "x"}, "curve2": {"poly": "y"}},
         "expected": {"lhs": "-1/3", "lhs_form": "other"}},
        {"kind": "ClassicalPlucker", "inputs": {"d": 3, "delta": 1, "kappa": 0},
         "expected": {"delta_dual": 0, "kappa_dual": 3}},
        {"kind": "ClassicalPlucker", "inputs": {"d": "3", "delta": 1, "kappa": 0},
         "expected": {"d_dual": 4, "delta_dual": 0, "kappa_dual": 3}},
        {"kind": "SolveUnknown", "inputs": SOLVE_INSTANCE},
        {"kind": "SolveUnknown", "inputs": {**SOLVE_INSTANCE, "n": None},
         "expected": {"value": "1/1"}},
        {"kind": "PackagePair", "inputs": {"s1": {"standard": {"type": "linear", "n": 2}}}},
        {"kind": "PackagePair", "inputs": {
            "s1": {"standard": {"type": "linear", "n": 2, "m": 1}},
            "s2": {"standard": {"type": "linear", "n": 2, "m": 1}},
            "d1": {"standard": {"type": "linear", "n": 2, "m": 0}},
            "d2": {"standard": {"type": "linear", "n": 2, "m": 0}},
            "chi_cap": {"slice": ["s1"]}, "chi_cap_dual": 0}},
        {"kind": "QuadricPair", "inputs": {
            "s": {"standard": {"type": "linear", "n": 2, "m": 1}},
            "s_dual": {"standard": {"type": "linear_dual", "n": 2, "m": 1}},
            "chi_s_q": 2, "chi_sd_qd": {"ci": {"n": 2}}}},
        {"kind": "QuadricPair", "inputs": {
            "s": {"standard": {"type": "linear", "n": 2, "m": 1}},
            "s_dual": {"standard": {"type": "linear_dual", "n": 2, "m": 1}},
            "chi_s_q": 2, "chi_sd_qd": {"ci": {"n": 2, "degrees": ["2"]}}}},
        {"kind": "SolveUnknown", "expected": {"value": "1/1"}, "inputs": {
            **SOLVE_INSTANCE, "values": {**SOLVE_INSTANCE["values"], "c0m_1": float("nan")}}},
    ], ids=["no-curve2", "poly-not-text", "unknown-lhs-form", "no-d_dual", "d-not-int",
            "no-value", "n-null", "no-m", "short-slice", "ci-without-degrees",
            "ci-degree-not-int", "nan-value"])
    def test_malformed_case_errors_and_the_run_goes_on(self, broken, tmp_path, capsys):
        manifest = {"cases": [
            {"id": "solve", "kind": "SolveUnknown", "inputs": SOLVE_INSTANCE,
             "expected": {"value": "1/1"}},
            {"id": "broken", **broken},
            {"id": "classical", "kind": "ClassicalPlucker",
             "inputs": {"d": 4, "delta": 0, "kappa": 0},
             "expected": {"d_dual": 12, "delta_dual": 28, "kappa_dual": 24}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        results = run_corpus(tmp_path, include_timing=False).results
        assert [r.status for r in results] == ["pass", "error", "pass"]
        assert results[1].details["error"].startswith("SchemaError:")
        assert run_command(["corpus", "run", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "total 3: 2 pass, 0 fail, 1 error"

    #: packages of two lines in P^2 and of their dual points
    LINE_PACKAGES = {
        name: {"standard": {"type": "linear", "n": 2, "m": m}}
        for name, m in (("s1", 1), ("s2", 1), ("d1", 0), ("d2", 0))}

    @pytest.mark.parametrize("broken, message", [
        ({"kind": "CurvePair", "inputs": {"curve1": {"poly": "x"}, "curve2": {"text": "y"}}},
         "curve spec needs 'file' or 'poly'"),
        ({"kind": "CurvePair", "inputs": {"curve1": "x", "curve2": {"poly": "y"}}},
         "curve spec needs 'file' or 'poly'"),
        ({"kind": "PackagePair", "inputs": {**LINE_PACKAGES, "s1": "linear",
                                            "chi_cap": 1, "chi_cap_dual": 0}},
         "package spec must be an object"),
        ({"kind": "PackagePair", "inputs": {**LINE_PACKAGES, "d2": {"label": "point"},
                                            "chi_cap": 1, "chi_cap_dual": 0}},
         "package spec needs 'file', 'inline' or 'standard'"),
        ({"kind": "PackagePair", "inputs": {**LINE_PACKAGES, "chi_cap": {"slice": ["s9", 1]},
                                            "chi_cap_dual": 0}},
         "no package named 's9'"),
        ({"kind": "PackagePair", "inputs": {**LINE_PACKAGES, "chi_cap": {"slice": ["s1", 3]},
                                            "chi_cap_dual": 0}},
         "slice index 3 outside 0..2"),
        ({"kind": "PackagePair", "inputs": {**LINE_PACKAGES, "chi_cap": {"slice": ["s1", -1]},
                                            "chi_cap_dual": 0}},
         "slice index -1 outside 0..2"),
        ({"kind": "PackagePair", "inputs": {**LINE_PACKAGES, "chi_cap": {"empty": True},
                                            "chi_cap_dual": 0}},
         "'empty' needs dim1 + dim2 < n"),
        ({"kind": "QuadricPair", "inputs": {
            "s": {"standard": {"type": "linear", "n": 2, "m": 1}},
            "s_dual": {"standard": {"type": "linear_dual", "n": 2, "m": 1}},
            "chi_s_q": {"empty": True}, "chi_sd_qd": 1}},
         "'empty' not allowed here"),
    ], ids=["curve-spec-without-source", "curve-spec-not-an-object", "package-spec-not-an-object",
            "package-spec-without-source", "slice-of-an-unknown-package",
            "slice-index-above-n", "negative-slice-index", "empty-needs-small-dimensions",
            "empty-in-a-quadric-pair"])
    def test_schema_refusal_names_its_rule(self, broken, message, tmp_path):
        manifest = {"cases": [{"id": "broken", **broken}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (result,) = run_corpus(tmp_path, include_timing=False).results
        assert result.status == "error"
        assert result.details["error"].startswith("SchemaError: "), result.details
        assert message in result.details["error"], result.details

    def test_curve_file_that_is_not_utf8(self, tmp_path, capsys):
        # both front ends read curve files through read_file, which refuses
        # bytes that do not decode instead of raising UnicodeDecodeError
        (tmp_path / "curve.txt").write_bytes(b"x^2 + y^2 - z^2 \xff\xfe")
        self._refused(["curve", "analyze", "--file", str(tmp_path / "curve.txt")], capsys)
        manifest = {"cases": [
            {"id": "solve", "kind": "SolveUnknown", "inputs": SOLVE_INSTANCE,
             "expected": {"value": "1/1"}},
            {"id": "binary", "kind": "CurvePair",
             "inputs": {"curve1": {"file": "curve.txt"}, "curve2": {"poly": "x"}}},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        results = run_corpus(tmp_path, include_timing=False).results
        assert [r.status for r in results] == ["pass", "error"]
        assert results[1].details["error"].startswith("SchemaError:")

    def test_file_reference_must_be_text(self, tmp_path):
        manifest = {"cases": [{"id": "a", "kind": "CurvePair",
                               "inputs": {"curve1": {"file": 3}, "curve2": {"poly": "x"}}}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError) as err:
            load_corpus(tmp_path)
        assert err.value.field == "file"


class TestModuleEntryPoint:
    """``python -m dualis.cli`` runs the same command line as ``dualis``."""

    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run([sys.executable, "-m", "dualis.cli", *args],
                              capture_output=True, env=env, timeout=120)

    def test_corpus_run_prints_the_golden_report(self):
        done = self._run("corpus", "run", str(REPO_CORPUS), "--format", "json",
                         "--no-timestamps")
        assert done.returncode == 0
        assert done.stdout == GOLDEN_REPORT.read_bytes()

    def test_corpus_json_with_an_integer_too_long_to_print_exits_2(self, tmp_path):
        path = TestCli._unprintable_corpus(tmp_path)
        done = self._run("corpus", "run", path, "--format", "json")
        assert (done.returncode, done.stdout) == (2, b"")
        assert b"GuardrailExceeded" in done.stderr and b"Traceback" not in done.stderr

    def test_over_cap_curve_exits_2(self):
        done = self._run("curve", "analyze", "--poly", "x^7 + y^7 + z^7")
        assert done.returncode == 2
        assert b"degree" in done.stderr

    #: six lines, 15 crossings of which 12 are irrational
    SIX_LINES = ("x^4*y^2 - x^4*y*z - 2*x^3*y^3 + 2*x^3*y^2*z + x^2*y^4 - x^2*y^3*z"
                 " - 5*x^2*y^2*z^2 + 5*x^2*y*z^3 + 4*x*y^3*z^2 - 4*x*y^2*z^3"
                 " - 2*y^4*z^2 + 2*y^3*z^3 + 6*y^2*z^4 - 6*y*z^5")

    def test_line_arrangement_has_dual_degree_0(self):
        done = self._run("curve", "dual-degree", "--poly", self.SIX_LINES)
        assert done.returncode == 0
        assert done.stdout.strip() == b"0"

    def test_dual_degree_of_a_cubic_through_every_sequence_witness(self):
        done = self._run("curve", "dual-degree", "--poly",
                         "354952177*x^2*y + 79049985*x^2*z - 843432519*x*y^2"
                         " - 1642954125*x*y*z + 266727114*x*z^2 + 741519044*y^3"
                         " - 1130244479*y^2*z + 830201486*y*z^2 - 102459183*z^3")
        assert done.returncode == 0
        assert done.stdout.strip() == b"6"

    def test_line_arrangement_analysis_names_every_crossing(self):
        done = self._run("curve", "analyze", "--poly", self.SIX_LINES)
        assert done.returncode == 2
        assert done.stderr.startswith(b"error: IrrationalSingularity")
        assert b"count is 15" in done.stderr

    @pytest.mark.timed
    def test_triple_points_dual_degree_in_time(self):
        start = time.perf_counter()
        done = self._run("curve", "dual-degree", "--poly", "x^3*y^3 + y^3*z^3 + z^3*x^3")
        assert time.perf_counter() - start < 2.0
        assert done.returncode == 0
        assert done.stdout.strip() == b"12"

    #: x(x - z)(x + y + z)(x + 2y - z)(x^2 - 3y^2 + 2z^2), expanded
    FOUR_LINES_AND_CONIC = (
        "x^6 + 3*x^5*y - x^5*z - x^4*y^2 - 2*x^4*y*z + x^4*z^2 - 9*x^3*y^3"
        " + x^3*y^2*z + 5*x^3*y*z^2 - x^3*z^3 - 6*x^2*y^4 + 6*x^2*y^3*z"
        " + 7*x^2*y^2*z^2 - 4*x^2*y*z^3 - 2*x^2*z^4 + 6*x*y^4*z + 3*x*y^3*z^2"
        " - 7*x*y^2*z^3 - 2*x*y*z^4 + 2*x*z^5")

    #: wall-time bound on each former hang, Python start-up included: those
    #: runs took 20 s or more and now take about 1 s, so the bound catches a
    #: relapse while leaving room for a host that runs twice as slow
    FORMER_HANG_S = 8.0

    def _json_in_time(self, *args):
        start = time.perf_counter()
        done = self._run(*args, "--format", "json")
        assert time.perf_counter() - start < self.FORMER_HANG_S
        assert done.returncode == 0
        return json.loads(done.stdout)

    @pytest.mark.timed
    def test_smooth_sextic_analysis_in_time(self):
        got = self._json_in_time("curve", "analyze", "--poly",
                                 "x^6 + y^5*z + x^2*y^2*z^2 + z^6 + x*y^5")
        assert got["report"]["g"] == 10 and got["singular_points"] == []

    @pytest.mark.timed
    def test_smooth_cubic_dual_in_time(self):
        got = self._json_in_time("curve", "dual", "--poly", "x^3 - 2*y^2*z + 3*x*z^2 - y*z^2")
        assert got["degree"] == 6
        # the tangent line at the rational point [0:1:0] has coordinates
        # grad F(0, 1, 0) = (0, 0, -2)
        assert PlaneCurve.from_text(got["dual"], ("u", "v", "w")).contains((0, 0, -2))

    @pytest.mark.timed
    @pytest.mark.parametrize("poly, degree", [
        ("x^5 + y^4*z + x*y*z^3 + z^5", 20),
        ("x^6 + y^6 + z^6", 30),
        ("x^6 + y^5*z + x^2*y^2*z^2 + z^6 + x*y^5", 30),
    ], ids=["quintic", "fermat-sextic", "smooth-sextic"])
    def test_smooth_dual_in_time(self, poly, degree):
        # a smooth curve of degree d has class d(d - 1)
        assert self._json_in_time("curve", "dual", "--poly", poly)["degree"] == degree

    @pytest.mark.timed
    def test_four_lines_and_conic_dual_degree_in_time(self):
        # lines have class 0 and the conic class 2
        start = time.perf_counter()
        done = self._run("curve", "dual-degree", "--poly", self.FOUR_LINES_AND_CONIC)
        assert time.perf_counter() - start < self.FORMER_HANG_S
        assert done.returncode == 0
        assert done.stdout.strip() == b"2"

    #: the first degree-8 curve of the ROADMAP; smooth, so g = 7*6/2 = 21,
    #: chi = 2 - 2g = -40 and the dual degree is d(d - 1) = 56
    OCTIC = "x^7*y + y^7*z + z^7*x + x^3*y^3*z^2"

    def test_octic_is_smooth(self):
        # in each chart the partials have no common zero: their Groebner basis is 1
        sympy = pytest.importorskip("sympy")
        xyz = sympy.symbols("x y z")
        F = sympy.sympify(self.OCTIC.replace("^", "**"), locals=dict(zip("xyz", xyz)))
        for v in xyz:
            rest = [w for w in xyz if w != v]
            partials = [sympy.diff(F, w).subs(v, 1) for w in xyz]
            assert list(sympy.groebner(partials, *rest, order="grevlex")) == [1]

    @pytest.mark.timed
    def test_octic_analysis_in_time(self):
        got = self._json_in_time("curve", "analyze", "--poly", self.OCTIC, "--max-degree", "8")
        assert got["report"]["g"] == 21 and got["report"]["chi"] == -40
        assert got["singular_points"] == []

    @pytest.mark.timed
    def test_octic_dual_degree_in_time(self):
        start = time.perf_counter()
        done = self._run("curve", "dual-degree", "--poly", self.OCTIC, "--max-degree", "8")
        assert time.perf_counter() - start < self.FORMER_HANG_S
        assert done.returncode == 0
        assert done.stdout.strip() == b"56"

    @pytest.mark.timed
    def test_octic_dual_in_time(self, monkeypatch, capsys):
        # the octic's chart packs into about 500,000 bits, far past
        # exact._PACKED_BITS, so it takes the triangle: one discriminant per
        # point of u + v <= 56 and no digits read
        lists, read = [], []
        disc, digits = dualgeom._uni_discriminant, dualgeom._digits
        monkeypatch.setattr(dualgeom, "_uni_discriminant", lambda cs: lists.append(cs) or disc(cs))
        monkeypatch.setattr(dualgeom, "_digits", lambda n, k: read.append(k) or digits(n, k))
        start = time.perf_counter()
        code = run_command(["curve", "dual", "--poly", self.OCTIC, "--max-degree", "8",
                            "--format", "json"])
        assert time.perf_counter() - start < self.FORMER_HANG_S
        assert code == 0
        assert json.loads(capsys.readouterr().out)["degree"] == 56
        assert len(lists) == 57 * 58 // 2 and read == []

    @pytest.mark.timed
    @pytest.mark.parametrize("poly", [
        "x^" + "9" * 4400 + " + y^2*z",     # int() refuses more than 4300 digits
        "9" * 5000 + "/0*x^2 + y^2*z",
    ], ids=["huge-exponent", "huge-bad-coefficient"])
    def test_huge_literal_exits_2_without_echo(self, poly):
        start = time.perf_counter()
        done = self._run("curve", "analyze", "--poly", poly)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2
        assert done.stderr.startswith(b"error: PolySyntaxError")
        assert b"Traceback" not in done.stderr
        assert len(done.stderr) < 200


def _package(n, d):
    return hypersurface_package(n, d).as_dict()


#: a valid case of each schema with integer fields; each passes as written
INTEGER_CASES = {
    "classical": {"kind": "ClassicalPlucker", "inputs": {"d": 4, "delta": 0, "kappa": 0},
                  "expected": {"d_dual": 12, "delta_dual": 28, "kappa_dual": 24}},
    "standard": {"kind": "PackagePair", "inputs": {
        "s1": {"standard": {"type": "hypersurface", "n": 3, "d": 2}},
        "s2": {"standard": {"type": "linear", "n": 3, "m": 1}},
        "d1": {"standard": {"type": "quadric_dual", "n": 3}},
        "d2": {"standard": {"type": "linear_dual", "n": 3, "m": 1}},
        "chi_cap": {"slice": ["s1", 1]}, "chi_cap_dual": {"slice": ["d1", 1]}}},
    "inline": {"kind": "PackagePair", "inputs": {
        "s1": {"standard": {"type": "hypersurface", "n": 3, "d": 2}},
        "s2": {"inline": _package(3, 2)},
        "d1": {"standard": {"type": "quadric_dual", "n": 3}},
        "d2": {"standard": {"type": "quadric_dual", "n": 3}},
        "chi_cap": {"ci": {"n": 3, "degrees": [2, 2]}},
        "chi_cap_dual": {"ci": {"n": 3, "degrees": [2, 2]}}}},
    "literal": {"kind": "QuadricPair", "inputs": {
        "s": {"standard": {"type": "linear", "n": 2, "m": 1}},
        "s_dual": {"standard": {"type": "linear_dual", "n": 2, "m": 1}},
        "chi_s_q": 2, "chi_sd_qd": 0}},
    "solve": {"kind": "SolveUnknown", "inputs": SOLVE_INSTANCE, "expected": {"value": "1/1"}},
}

#: every integer field of the package, instance and case schemas: a case
#: of INTEGER_CASES and the path to the field in it
INTEGER_FIELDS = [
    ("classical", ("inputs", "d")), ("classical", ("inputs", "delta")),
    ("classical", ("inputs", "kappa")), ("classical", ("expected", "d_dual")),
    ("classical", ("expected", "delta_dual")), ("classical", ("expected", "kappa_dual")),
    ("standard", ("inputs", "s1", "standard", "n")),
    ("standard", ("inputs", "s1", "standard", "d")),
    ("standard", ("inputs", "s2", "standard", "m")),
    ("standard", ("inputs", "chi_cap", "slice", 1)),
    ("inline", ("inputs", "s2", "inline", "n")), ("inline", ("inputs", "s2", "inline", "dim")),
    ("inline", ("inputs", "s2", "inline", "degree")),
    ("inline", ("inputs", "s2", "inline", "c0m")),
    ("inline", ("inputs", "s2", "inline", "chi_slices", 2)),
    ("inline", ("inputs", "chi_cap", "ci", "n")),
    ("inline", ("inputs", "chi_cap", "ci", "degrees", 1)),
    ("literal", ("inputs", "chi_s_q")),
    ("solve", ("inputs", "n")), ("solve", ("inputs", "dims", 0)),
]

NOT_INTEGERS = [True, 1.5, float("nan"), "1", None]


def _with(document, path, value):
    """A deep copy of a JSON document with the entry at path set to value."""
    document = json.loads(json.dumps(document))
    *head, last = path
    parent = document
    for key in head:
        parent = parent[key]
    parent[last] = value
    return document


class TestIntegerFields:
    """Every integer field refuses true, floats, strings and null with a
    SchemaError: bool subclasses int, so isinstance alone would admit
    true and false."""

    def _run(self, case, tmp_path):
        manifest = {"cases": [
            {"id": "solve", **INTEGER_CASES["solve"]},
            {"id": "case", **case},
            {"id": "classical", **INTEGER_CASES["classical"]},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return run_corpus(tmp_path, include_timing=False).results

    @pytest.mark.parametrize("name", list(INTEGER_CASES))
    def test_the_cases_pass_as_written(self, name, tmp_path):
        assert [r.status for r in self._run(INTEGER_CASES[name], tmp_path)] == ["pass"] * 3

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=["true", "float", "nan", "text", "null"])
    @pytest.mark.parametrize("name, path", INTEGER_FIELDS,
                             ids=[f"{name}-{'.'.join(map(str, path[1:]))}"
                                  for name, path in INTEGER_FIELDS])
    def test_corpus_run_refuses(self, name, path, value, tmp_path):
        results = self._run(_with(INTEGER_CASES[name], path, value), tmp_path)
        assert [r.status for r in results] == ["pass", "error", "pass"]
        assert results[1].details["error"].startswith("SchemaError:")

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=["true", "float", "nan", "text", "null"])
    @pytest.mark.parametrize("command, document, path", [
        ("detect-codim", _package(3, 2), (key,)) for key in ("n", "dim", "degree", "c0m")
    ] + [
        ("detect-codim", _package(3, 2), ("chi_slices", 2)),
        ("solve", SOLVE_INSTANCE, ("n",)), ("solve", SOLVE_INSTANCE, ("dims", 0)),
    ], ids=["n", "dim", "degree", "c0m", "chi_slices", "instance-n", "instance-dims"])
    def test_cli_refuses(self, command, document, path, value, tmp_path, capsys):
        path_ = tmp_path / "input.json"
        path_.write_text(json.dumps(_with(document, path, value)))
        option = {"detect-codim": "--package", "solve": "--file"}[command]
        assert run_command(["plucker", command, option, str(path_)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: SchemaError")

    def test_package_with_booleans_is_refused(self, tmp_path, capsys):
        # detect-codim used to read this package as degree 1 and print 2
        path = tmp_path / "p1.json"
        path.write_text(json.dumps({"label": "P1", "n": 2, "dim": 1, "degree": True, "c0m": 2,
                                    "chi_slices": [0, True, 2], "transversal": True}))
        assert run_command(["plucker", "detect-codim", "--package", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: SchemaError")

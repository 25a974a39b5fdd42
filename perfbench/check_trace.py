"""Check that traced counts repeat exactly and match the recorded baseline.

    python3 perfbench/check_trace.py [--seed 1] [--workload corpus ...]

For each workload it makes two traced runs of ``run.py`` with the same seed
and compares every count and ratio between them; times may differ, counts
may not.  It then checks the counts that the ROADMAP baseline recorded for
this code, query by query where the baseline names a query, and prints the
tracing overhead: traced wall_s minus the wall_s of an untraced run of the
same seed.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

#: workload -> query label prefix (or None for the whole pass) -> expected counts
BASELINE = {
    "corpus": {
        None: {
            "curvelab.singular_points.calls": 97,
            "corpus.curve_package.calls": 27,
            "elimination.frames_tried": 398,
            "elimination.frames_rejected": 320,
        },
    },
    "polar-oracle": {
        "oracle trinodal-quartic given": {
            "elimination.frames_tried": 1538,
            "elimination.frames_rejected": 1404,
            "elimination.frames_rejected.common_infinity": 1389,
        },
        "oracle tricuspidal-quartic given": {
            "elimination.frames_tried": 1538,
            "elimination.frames_rejected": 1404,
        },
        "oracle trinodal-quartic generic": {
            "elimination.frames_rejected": 0,
        },
    },
    "curve-analysis": {},
}


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: run failed\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_run(workload: str, seed: int) -> tuple:
    result = run(workload, seed, trace=1)
    spans = json.loads((ROOT / "perfbench" / "out" /
                        f"trace-{workload}-seed{seed}.json").read_text())
    return result, spans


def query_counts(spans: dict, prefix: str) -> dict:
    """Counters of every query whose label starts with the prefix, summed."""
    total: dict = {}
    for label, counts in zip(spans["queries"], spans["query_counts"]):
        if label.startswith(prefix):
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
    if "elimination.frames_tried" in total:
        total["elimination.frames_rejected"] = sum(
            v for k, v in total.items() if k.startswith("elimination.frames_rejected."))
    return total


def check(workload: str, seed: int) -> bool:
    (first, spans), (second, _) = traced_run(workload, seed), traced_run(workload, seed)
    ok = True
    exact = {name: m["value"] for name, m in first["metrics"].items()
             if m["unit"] in ("count", "ratio")}
    diffs = [name for name, value in exact.items()
             if second["metrics"][name]["value"] != value]
    print(f"{workload}: {len(exact)} counts and ratios,"
          f" {'identical' if not diffs else 'DIFFERENT'} across two traced runs")
    for name in diffs:
        print(f"  {name}: {exact[name]} vs {second['metrics'][name]['value']}")
        ok = False
    for prefix, expected in BASELINE[workload].items():
        got = (exact if prefix is None else query_counts(spans, prefix))
        for name, want in expected.items():
            value = got.get(name, 0)
            verdict = "ok" if value == want else "MISMATCH"
            ok = ok and value == want
            print(f"  baseline {prefix or 'pass'} {name}: {value} (expected {want}) {verdict}")
    untraced = run(workload, seed, trace=0)["metrics"]["wall_s"]["value"]
    for label, result in (("first", first), ("second", second)):
        traced = result["metrics"]["trace.wall_s"]["value"]
        print(f"  {label} traced pass {traced:.3f} s, untraced wall_s {untraced:.3f} s:"
              f" tracing overhead {traced - untraced:+.3f} s")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(BASELINE))
    args = parser.parse_args()
    results = [check(w, args.seed) for w in (args.workload or list(BASELINE))]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

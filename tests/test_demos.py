"""Every demo runs to completion and prints pinned bytes.

The pins live in ``tests/data/demo_outputs.json``, keyed by file name.
Running this module as a script rewrites that file from the ``dualis`` in
``src``; do so only when a demo's output is meant to change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "data" / "demo_outputs.json"


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                          cwd=REPO_ROOT, timeout=120)


def test_every_demo_is_pinned():
    assert sorted(json.loads(PINNED.read_text())) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_output_is_pinned(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == json.loads(PINNED.read_text())[demo.name].encode()


if __name__ == "__main__":
    outputs = {}
    for demo in DEMOS:
        done = _run(demo)
        if done.returncode != 0:
            sys.exit(f"{demo.name} exited {done.returncode}:\n{done.stderr.decode()}")
        outputs[demo.name] = done.stdout.decode()
    PINNED.write_text(json.dumps(outputs, indent=2, sort_keys=True) + "\n")

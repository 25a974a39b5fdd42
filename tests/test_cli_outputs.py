"""Every leaf command of the CLI prints pinned bytes and exits with a pinned code.

The pins live in ``tests/data/cli_outputs.json``.  Running this module as a
script rewrites that file from the ``dualis`` on the import path; do so only
when an output is meant to change.  ``{data}`` in an argument stands for
``tests/data/cli`` and ``{tmp}`` for a fresh temporary directory.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from dualis.cli import run_command

DATA = Path(__file__).resolve().parent / "data" / "cli"
PINNED = Path(__file__).resolve().parent / "data" / "cli_outputs.json"

COMMANDS = [
    "curve analyze --poly y^2*z-x^3",
    "curve analyze --file {data}/nodal_cubic.txt",
    "curve analyze --poly u^2*w-v^3 --vars uvw",
    "curve analyze --max-degree 8 --poly x^7*y+y^7*z+z^7*x+x^3*y^3*z^2",
    "curve dual --poly y^2*z-x^3",
    "curve dual --file {data}/nodal_cubic.txt",
    "curve dual --max-degree 8 --poly x^8+y^8+z^8",
    "curve dual --poly x^2*y+y^3-y*z^2",
    "curve dual-degree --poly x^4+y^4+z^4",
    "curve dual-degree --poly x^7+y^7+z^7",
    "plucker classical -d 3 --nodes 1",
    "plucker classical -d 4 --cusps 3",
    "plucker classical -d 3 --nodes 2",
    "plucker check --s1 {data}/line.json --s2 {data}/line.json"
    " --d1 {data}/point.json --d2 {data}/point.json --chi 1 --chi-dual 0",
    "plucker check --s1 {data}/line.json --s2 {data}/line.json"
    " --d1 {data}/point.json --d2 {data}/point.json --chi 2 --chi-dual 0 --form intro",
    "plucker check --s1 {data}/line.json --s2 {data}/conic.json"
    " --d1 {data}/point.json --d2 {data}/conic.json --chi 2 --chi-dual 0 --form conormal",
    "plucker detect-codim --package {data}/conic.json",
    "plucker solve --file {data}/instance.json",
    "chi std --kind pn -n 3",
    "chi std --kind quadric -n 4",
    "chi std --kind grassmannian -n 6 -k 2",
    "chi std --kind grassmannian -n 6",
    "chi ci -n 5 --degrees 3",
    "chi ci -n 4 --degrees 2 2",
    "chi package -n 3 -d 2 --out {tmp}/quadric.json",
    "corpus run {data}/corpus --no-timestamps",
]

FORMATS = ("text", "json")


def _argv(command: str, fmt: str, tmp: Path) -> list:
    words = command.replace("{data}", str(DATA)).replace("{tmp}", str(tmp)).split()
    return words + ["--format", fmt]


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue()


def _leaf_commands() -> list:
    return sorted({" ".join(command.split()[:2]) for command in COMMANDS})


def _options(leaf: str) -> list:
    """The option strings a leaf command's --help lists."""
    _, text = _run(leaf.split() + ["--help"])
    return sorted(set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", text)))


def _record() -> dict:
    outputs = {}
    for command in COMMANDS:
        for fmt in FORMATS:
            with tempfile.TemporaryDirectory() as tmp:
                code, out = _run(_argv(command, fmt, Path(tmp)))
            outputs[f"{command} --format {fmt}"] = {"code": code, "stdout": out}
    return {"outputs": outputs, "options": {leaf: _options(leaf) for leaf in _leaf_commands()}}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_pinned(command, fmt, pinned, tmp_path):
    code, out = _run(_argv(command, fmt, tmp_path))
    want = pinned["outputs"][f"{command} --format {fmt}"]
    assert (code, out) == (want["code"], want["stdout"])


def test_every_leaf_command_is_pinned():
    assert set(_leaf_commands()) == {"curve analyze", "curve dual", "curve dual-degree",
                      "plucker classical", "plucker check", "plucker detect-codim",
                      "plucker solve", "chi std", "chi ci", "chi package", "corpus run"}


@pytest.mark.parametrize("leaf", _leaf_commands())
def test_help_lists_the_pinned_options(leaf, pinned):
    assert _options(leaf) == pinned["options"][leaf]


def test_package_file_matches_its_json_output(tmp_path):
    out = tmp_path / "quadric.json"
    code, text = _run(["chi", "package", "-n", "3", "-d", "2", "--out", str(out),
                       "--format", "json"])
    assert code == 0 and out.read_text() == text


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")

"""Golden corpus: the CLI's exact output on a fixed set of instances.

Each case runs ``kerpair.cli.main`` with ``--json`` and compares the exit
code and stdout byte for byte with ``tests/golden/out/<case>.txt``.
The instances live in ``tests/golden/in/``; they cover every command on
GF(5), Z/30, Z/12 (not square-free: the error paths), GF(5)[z] and
(Z/30)[z], every kernel-pair method valid for the ring and one that is
not.  Each script in ``demos/`` runs in a subprocess with
``PYTHONPATH=src``, its stdout compared byte for byte with
``tests/golden/demos/<name>.txt``, and ``python -m kerpair.cli`` runs
one golden case and one parse error the same way.  Regenerate the
expected files (only
when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kerpair.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
IN = GOLDEN / "in"
OUT = GOLDEN / "out"
DEMO_OUT = GOLDEN / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

METHODS = {
    "gf5": ["projection", "preimage", "quotient", "oracle", "auto", "crt"],
    "zmod30": ["crt", "oracle", "auto", "projection"],
    "zmod12": ["crt", "oracle", "auto"],
    "polygf5": ["poly", "auto", "oracle"],
    "polygf30": ["poly", "auto", "projection"],
}
# (member, non-member) vectors; Z/12 and (Z/30)[z] take the error path
VECTORS = {
    "gf5": ["1,4", "1,0"],
    "zmod30": ["6,7", "1,0"],
    "zmod12": ["3"],
    "polygf5": ["[2,3],[0]", "[0],[1]"],
    "polygf30": ["[0]"],
}
BOUNDARIES = ("free", "fixed", "periodic")


def _cases():
    cases = {"idempotents-30": ["idempotents", "30"],
             "idempotents-12": ["idempotents", "12"]}
    for ring in METHODS:
        f = str(IN / f"{ring}.txt")
        cases[f"{ring}-kernel-A"] = ["kernel", f, "A"]
        cases[f"{ring}-kernel-B"] = ["kernel", f, "B"]
        for method in METHODS[ring]:
            cases[f"{ring}-kernel-pair-{method}"] = [
                "kernel-pair", f, "A", "B", "--method", method]
        cases[f"{ring}-kernel-pair-verify"] = [
            "kernel-pair", f, "A", "B", "--verify", "--trials", "2"]
        for k, vec in enumerate(VECTORS[ring]):
            cases[f"{ring}-member-{k}"] = ["member", f, "A", "B", vec]
        cases[f"{ring}-verify"] = ["verify", f, "A", "B", "--trials", "2"]
        for boundary in BOUNDARIES:
            argv = ["simulate", f, "A", "B", "--u-file", str(IN / f"{ring}_u.txt"),
                    "--boundary", boundary]
            if boundary == "fixed":
                argv += ["--x0-file", str(IN / f"{ring}_x0.txt")]
            cases[f"{ring}-simulate-{boundary}"] = argv
    return cases


CASES = _cases()


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"], out=out)
    return f"exit {code}\n{out.getvalue()}"


def python(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a subprocess from the repository root, with
    ``PYTHONPATH=src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)


def run_demo(script) -> str:
    proc = python(str(script))
    proc.check_returncode()
    return proc.stdout


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    expected = (OUT / f"{case}.txt").read_text()
    assert render(CASES[case]) == expected


@pytest.mark.parametrize("script", DEMOS, ids=lambda s: s.stem)
def test_demo_output(script):
    assert run_demo(script) == (DEMO_OUT / f"{script.stem}.txt").read_text()


def test_module_entry_point(tmp_path):
    """``python -m kerpair.cli`` exits with main's code: 2 and an error line
    for a matrix short of rows, and a golden case's code and stdout."""
    bad = tmp_path / "bad.txt"
    bad.write_text("ring gf 5\nmatrix A 1 1\n1\nmatrix B 1 1\n")
    proc = python("-m", "kerpair.cli", "verify", str(bad), "A", "B")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: matrix 'B' ends after 0 of 1 rows (line 4)\n"
    proc = python("-m", "kerpair.cli", *CASES["gf5-verify"], "--json")
    assert f"exit {proc.returncode}\n{proc.stdout}" == (OUT / "gf5-verify.txt").read_text()


def test_corpus_has_no_stray_files():
    assert sorted(p.stem for p in OUT.glob("*.txt")) == sorted(CASES)
    assert sorted(p.stem for p in DEMO_OUT.glob("*.txt")) == [s.stem for s in DEMOS]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    OUT.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (OUT / f"{case}.txt").write_text(render(argv))
    DEMO_OUT.mkdir(exist_ok=True)
    for script in DEMOS:
        (DEMO_OUT / f"{script.stem}.txt").write_text(run_demo(script))
    print(f"wrote {len(CASES)} cases to {OUT} and {len(DEMOS)} demos to {DEMO_OUT}")

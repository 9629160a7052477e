"""Golden corpus: the CLI's exact output on a fixed set of instances.

Each case runs ``kerpair.cli.main`` with ``--json`` and compares the exit
code and stdout byte for byte with ``tests/golden/out/<case>.txt``.
The instances live in ``tests/golden/in/``; they cover every command on
GF(5), Z/30, Z/12 (not square-free: the error paths), GF(5)[z] and
(Z/30)[z], every kernel-pair method valid for the ring and one that is
not.  Regenerate the expected files (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from kerpair.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
IN = GOLDEN / "in"
OUT = GOLDEN / "out"

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
# the periodic boundary over polynomial rings is left out: it crashed with
# an AttributeError when this corpus was recorded; test_behavior.py covers
# it instead
BOUNDARIES = {
    "gf5": ["free", "fixed", "periodic"],
    "zmod30": ["free", "fixed", "periodic"],
    "zmod12": ["free", "fixed", "periodic"],
    "polygf5": ["free", "fixed"],
    "polygf30": ["free", "fixed"],
}


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
        for boundary in BOUNDARIES[ring]:
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    expected = (OUT / f"{case}.txt").read_text()
    assert render(CASES[case]) == expected


def test_corpus_has_no_stray_files():
    assert sorted(p.stem for p in OUT.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    OUT.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (OUT / f"{case}.txt").write_text(render(argv))
    print(f"wrote {len(CASES)} cases to {OUT}")

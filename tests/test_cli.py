import argparse
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerpair import (
    KerpairError,
    Matrix,
    MatrixParseError,
    ModRing,
    PolyRing,
    PrimeField,
    Submodule,
    make_ring,
    nullspace,
)
from kerpair.cli import (
    _dumps,
    _Formatted,
    build_parser,
    format_matrix_file,
    main,
    matrix_kernel,
    parse_matrix_file,
    parse_vector,
    parse_vector_file,
    split_vector_text,
)

GF_FILE = """\
# worked instance over GF(2)
ring gf 2

matrix A 2 2
1 0
0 0
matrix B 2 1
1
1
"""

ZMOD_FILE = """\
ring zmod 30
matrix A 1 1
15
matrix B 1 1
10
"""

POLY_FILE = """\
ring polygf 2
matrix A 1 1
[0,1]
matrix B 1 1
[1]
"""


POLY30_FILE = """\
ring polygf 30
matrix A 1 2
[0,15] [10]
matrix B 1 1
[5,1]
"""


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv + ["--json"])
    return code, json.loads(text)


@pytest.fixture
def gf_file(tmp_path):
    p = tmp_path / "gf.txt"
    p.write_text(GF_FILE)
    return str(p)


@pytest.fixture
def zmod_file(tmp_path):
    p = tmp_path / "zmod.txt"
    p.write_text(ZMOD_FILE)
    return str(p)


@pytest.fixture
def poly_file(tmp_path):
    p = tmp_path / "poly.txt"
    p.write_text(POLY_FILE)
    return str(p)


@pytest.fixture
def poly30_file(tmp_path):
    p = tmp_path / "poly30.txt"
    p.write_text(POLY30_FILE)
    return str(p)


# -- file format --------------------------------------------------------------


def test_parse_gf_file():
    ring, mats = parse_matrix_file(GF_FILE)
    assert ring == PrimeField(2)
    assert sorted(mats) == ["A", "B"]
    assert mats["A"].entries == ((1, 0), (0, 0))
    assert mats["B"].ncols == 1


def test_parse_poly_file():
    ring, mats = parse_matrix_file(POLY_FILE)
    assert ring == PolyRing(2)
    assert mats["A"].entries == (((0, 1),),)


EMPTY_FILE = """\
ring gf 5
matrix A 2 0
matrix B 0 2
matrix C 2 3
1 2 3
4 0 1
"""


def test_format_round_trip():
    for text in (GF_FILE, ZMOD_FILE, POLY_FILE, EMPTY_FILE):
        ring, mats = parse_matrix_file(text)
        printed = format_matrix_file(ring, mats)
        ring2, mats2 = parse_matrix_file(printed)
        assert ring2 == ring and mats2 == mats
    mats = parse_matrix_file(EMPTY_FILE)[1]
    assert (mats["A"].nrows, mats["A"].ncols) == (2, 0)
    assert (mats["B"].nrows, mats["B"].ncols) == (0, 2)
    assert format_matrix_file(PrimeField(5), mats) == EMPTY_FILE


def test_kernel_pair_with_an_empty_a_is_ker_b(tmp_path):
    # A: R^0 -> R^2 has image 0, so ker(A|C) = ker C
    p = tmp_path / "empty.txt"
    p.write_text(EMPTY_FILE)
    code, pair = run_json(["kernel-pair", str(p), "A", "C"])
    assert code == 0
    code, ker = run_json(["kernel", str(p), "C"])
    assert code == 0
    assert pair["ker_bar"] == ker["kernel"] and ker["kernel"]["rank"] == 1


@pytest.mark.parametrize("text,line", [
    ("", 0),
    ("ring gf 4\n", 1),
    ("ring weird 5\n", 1),
    ("matrix A 1 1\n1\n", 1),                         # missing ring header
    ("ring gf 2\nmatrix A 1 1\n", 2),                 # truncated matrix
    ("ring gf 2\nmatrix A one 1\n1\n", 2),            # bad dims
    ("ring gf 2\nmatrix A 1 1\n1 1\n", 3),            # wrong entry count
    ("ring gf 2\nmatrix A 1 1\nx\n", 3),              # bad element
    ("ring gf 2\nmatrix A 1 1\n1\nmatrix A 1 1\n1\n", 4),  # duplicate
    ("ring gf 2\nstray\n", 2),                        # junk between blocks
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_file(text)
    if line:
        assert exc.value.line == line


RING_HEADER = "expected 'ring <gf|zmod|polygf> <parameter>', got "
MATRIX_HEADER = "expected 'matrix <NAME> <rows> <cols>', got "


@pytest.mark.parametrize("text,message,line", [
    ("", "empty matrix file", 1),
    ("# only a comment\n\n", "empty matrix file", 1),
    ("matrix A 1 1\n1\n", RING_HEADER + "'matrix A 1 1'", 1),
    ("ring gf\n", RING_HEADER + "'ring gf'", 1),
    ("# c\n  ring  gf 5 7 \n", RING_HEADER + "'  ring  gf 5 7 '", 2),
    ("ring gf 4\n", "4 is not prime", 1),
    ("ring weird 5\n", "unknown ring kind 'weird'; expected one of "
                       "['gf', 'polygf', 'zmod']", 1),
    ("ring gf x\n", "invalid literal for int() with base 10: 'x'", 1),
    ("ring gf 2\nstray\n", MATRIX_HEADER + "'stray'", 2),
    ("ring gf 2\n\n matrix  A  1\t\n1\n", MATRIX_HEADER + "' matrix  A  1\\t'", 3),
    ("ring gf 2\nmatrix A one 1\n1\n", "bad dimensions in 'matrix A one 1'", 2),
    ("ring gf 2\nmatrix  A 1 -2\n", "negative dimensions in 'matrix  A 1 -2'", 2),
    ("ring gf 2\nmatrix A 1 1\n1\n\nmatrix A 1 1\n1\n", "duplicate matrix name 'A'", 5),
    ("ring gf 2\nmatrix A 1 1\n1 1\n", "matrix 'A' row has 2 entries, expected 1", 3),
    ("ring gf 2\n# c\nmatrix A 2 2\n1 0\n\n# row two\n0 1 1\n",
     "matrix 'A' row has 3 entries, expected 2", 7),
    ("ring gf 2\nmatrix A 1 1\nx\n", "invalid literal for int() with base 10: 'x'", 3),
    ("ring zmod 30\nmatrix A 2 3\n1 2 3\n4 x 99\n",
     "invalid literal for int() with base 10: 'x'", 4),
    ("ring gf 7\nmatrix A 1 3\n-1 1.5 7\n", "invalid literal for int() with base 10: '1.5'", 3),
    ("ring polygf 5\nmatrix A 2 2\n[1] 2\n[0,1] [2,y]\n",
     "invalid literal for int() with base 10: 'y'", 4),
    ("ring polygf 3\nmatrix A 1 1\n[1,2\n", "unterminated coefficient list: '[1,2'", 3),
    ("ring gf 2\nmatrix A 1 1\n", "matrix 'A' ends after 0 of 1 rows", 2),
    ("ring gf 2\nmatrix A 2 1\n1\n", "matrix 'A' ends after 1 of 2 rows", 3),
    ("ring gf 2\nmatrix A 2 1\n1\n\n# trailing\n", "matrix 'A' ends after 1 of 2 rows", 5),
])
def test_matrix_file_error_messages(text, message, line):
    """Every matrix-file error, its text and its 1-based line; a header
    error echoes the raw line, inner and outer whitespace included."""
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_file(text)
    assert (str(exc.value), exc.value.line) == (message, line)


@pytest.mark.parametrize("kind,q", [("gf", 5), ("zmod", 30), ("polygf", 7)])
def test_matrix_rows_parse_like_entrywise(kind, q):
    """A row with values outside [0, q), a sign, leading zeros, an
    underscore and an int beyond 2**64 reads as ``ring.parse`` of each."""
    tokens = ["-1", str(q), "+5", "007", "1_0", str(2**64 + 3)]
    ring, matrices = parse_matrix_file(
        f"ring {kind} {q}\nmatrix A 1 6\n" + " ".join(tokens) + "\n")
    assert matrices["A"].entries == (tuple(map(ring.parse, tokens)),)


@pytest.mark.parametrize("text,message,line", [
    ("1 2\n\n# c\n1\n", "vector line has 1 entries, expected 2", 4),
    ("1 2 3\n", "vector line has 3 entries, expected 2", 1),
    ("1 2\n 3  x \n", "invalid literal for int() with base 10: 'x'", 2),
])
def test_vector_file_error_messages(tmp_path, text, message, line):
    path = tmp_path / "v.txt"
    path.write_text(text)
    with pytest.raises(MatrixParseError) as exc:
        parse_vector_file(PrimeField(5), str(path), 2)
    assert (str(exc.value), exc.value.line) == (message, line)


@pytest.mark.parametrize("text,message", [
    ("1,2,3", "vector has 3 entries, expected 2"),
    ("1", "vector has 1 entries, expected 2"),
    ("1,x", "invalid literal for int() with base 10: 'x'"),
    ("1,,2", "empty entry in vector '1,,2'"),
    ("1,2,", "empty entry in vector '1,2,'"),
    ("[1,2]],[3", "unmatched ']' in vector '[1,2]],[3'"),
])
def test_vector_argument_error_messages(text, message):
    with pytest.raises(MatrixParseError) as exc:
        parse_vector(PrimeField(5), text, 2)
    assert (str(exc.value), exc.value.line) == (message, None)


def test_parse_errors_reach_stderr_verbatim(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("ring gf 5\nmatrix A 1 1\n1\nmatrix B 1 2\n1\n")
    assert run_cli(["kernel", str(path), "A"])[0] == 2
    assert capsys.readouterr().err == \
        "error: matrix 'B' row has 1 entries, expected 2 (line 5)\n"
    path.write_text("ring gf 5\nmatrix A 1 1\n1\nmatrix B 1 2\n1 0\n")
    assert run_cli(["member", str(path), "A", "B", "1"])[0] == 2
    assert capsys.readouterr().err == "error: vector has 1 entries, expected 2\n"


def test_matrix_file_is_split_into_lines_once():
    calls = []

    class Text(str):
        def splitlines(self, *args):
            calls.append(args)
            return super().splitlines(*args)

    rows = "\n".join("1 0 1" for _ in range(300))
    _, mats = parse_matrix_file(Text(f"ring gf 2\n# 300 rows\nmatrix A 300 3\n{rows}\n"))
    assert mats["A"].nrows == 300
    assert len(calls) == 1


def test_negative_dimensions_name_the_line(tmp_path, capsys):
    text = "ring gf 5\nmatrix A -1 2\n"
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_file(text)
    assert exc.value.line == 2
    path = tmp_path / "neg.txt"
    path.write_text(text)
    code, _ = run_cli(["kernel", str(path), "A"])
    assert code == 2
    assert "(line 2)" in capsys.readouterr().err


def test_parsed_matrices_are_canonical():
    ring, mats = parse_matrix_file("ring zmod 30\nmatrix A 1 3\n-1 31 60\n")
    assert mats["A"] == Matrix(ring, 1, 3, [[29, 1, 0]])
    _, mats = parse_matrix_file("ring polygf 5\nmatrix A 1 2\n[1,5,0] 7\n")
    assert mats["A"].entries == (((1,), (2,)),)


def test_split_vector_text():
    assert split_vector_text("1,2,3") == ["1", "2", "3"]
    assert split_vector_text("[0,1],[1]") == ["[0,1]", "[1]"]
    assert split_vector_text(" [1,0,1] , 3 ") == ["[1,0,1]", "3"]
    assert split_vector_text("") == split_vector_text(" ") == []
    for text in ("1,,2", "1,2,", ",", "1, ,2"):
        with pytest.raises(MatrixParseError, match="empty entry"):
            split_vector_text(text)
    with pytest.raises(MatrixParseError, match="unmatched"):
        split_vector_text("[1,2]],[3")


def test_parse_vector_validates_width():
    with pytest.raises(MatrixParseError):
        parse_vector(PrimeField(5), "1,2,3", 2)


# -- kernel command -----------------------------------------------------------


def test_kernel_gf(gf_file):
    code, doc = run_json(["kernel", gf_file, "A"])
    assert code == 0
    assert doc["kernel"]["rank"] == 1
    assert doc["kernel"]["basis"] == [["0", "1"]]


def test_kernel_zmod(zmod_file):
    code, doc = run_json(["kernel", zmod_file, "A"])
    assert code == 0
    assert doc["kernel"]["kind"] == "components"
    assert doc["kernel"]["rank"] == [0, 1, 1]  # 15 is a unit mod 2 only
    assert doc["kernel"]["size"] == 15


def test_kernel_poly(poly_file):
    code, doc = run_json(["kernel", poly_file, "A"])
    assert code == 0
    assert doc["kernel"]["rank"] == 0  # z is a nonzerodivisor


def test_matrix_kernel_components_match_nullspaces():
    ring = ModRing(6)
    a = Matrix(ring, 1, 2, [[3, 2]])
    sub = matrix_kernel(a)
    from kerpair.crt import reduce_matrix
    for i in range(2):
        assert sub.components[i] == nullspace(reduce_matrix(a, i))


def test_kernel_unknown_matrix(gf_file):
    code, _ = run_cli(["kernel", gf_file, "C"])
    assert code == 2


def test_missing_file():
    code, _ = run_cli(["kernel", "/nonexistent/file.txt", "A"])
    assert code == 2


def test_usage_error():
    code, _ = run_cli(["kernel"])  # missing args
    assert code == 2
    code, _ = run_cli(["no-such-command"])
    assert code == 2


def test_main_reuses_one_parser(gf_file, zmod_file, capsys):
    """Several requests in one process answer as fresh processes would:
    same documents, usage errors, help text and exit codes."""
    first = [run_cli(["kernel-pair", gf_file, "A", "B", "--json"]),
             run_cli(["member", zmod_file, "A", "B", "3", "--json"])]
    assert [code for code, _ in first] == [0, 0]
    assert run_cli(["idempotents", "30", "--json"])[0] == 0
    assert run_cli(["kernel", gf_file]) == (2, "")
    usage = capsys.readouterr().err
    assert usage.startswith("usage: kerpair kernel") and "required" in usage
    with pytest.raises(SystemExit):
        build_parser().parse_args(["kernel", gf_file])
    assert capsys.readouterr().err == usage
    assert run_cli(["--help"])[0] == 0
    assert capsys.readouterr().out == build_parser().format_help()
    assert [run_cli(["kernel-pair", gf_file, "A", "B", "--json"]),
            run_cli(["member", zmod_file, "A", "B", "3", "--json"])] == first


# -- kernel-pair command ------------------------------------------------------


def test_kernel_pair_gf_all_methods(gf_file):
    ranks = {}
    for method in ("projection", "preimage", "quotient", "oracle", "auto"):
        code, doc = run_json(["kernel-pair", gf_file, "A", "B",
                              "--method", method])
        assert code == 0
        ranks[method] = doc["ker_bar"]["rank"]
    assert set(ranks.values()) == {0}


def test_kernel_pair_projection_has_section(gf_file):
    code, doc = run_json(["kernel-pair", gf_file, "A", "B"])
    assert code == 0
    assert doc["section"] == []  # ker_bar is 0 here, so no section columns
    assert doc["ker_f1"]["rank"] == 1
    assert doc["ker_pair"]["rank"] == 1


def test_kernel_pair_zmod(zmod_file):
    code, doc = run_json(["kernel-pair", zmod_file, "A", "B"])
    assert code == 0
    assert doc["ker_bar"]["rank"] == [1, 0, 1]
    assert [e["prime"] for e in doc["per_prime"]] == [2, 3, 5]
    assert doc["ker_bar"]["generators"] != []


def test_kernel_pair_oracle_zmod(zmod_file):
    code, doc = run_json(["kernel-pair", zmod_file, "A", "B",
                          "--method", "oracle"])
    assert code == 0
    assert doc["ker_bar"]["size"] == 10


def test_kernel_pair_poly(poly_file):
    code, doc = run_json(["kernel-pair", poly_file, "A", "B"])
    assert code == 0
    assert doc["ker_bar"]["basis"] == [["[0,1]"]]
    assert doc["section"] == [["[1]", "[0,1]"]]


def test_kernel_pair_oracle_rejected_on_poly(poly_file):
    code, _ = run_cli(["kernel-pair", poly_file, "A", "B",
                       "--method", "oracle"])
    assert code == 2


def test_kernel_pair_wrong_method_for_ring(zmod_file):
    code, _ = run_cli(["kernel-pair", zmod_file, "A", "B",
                       "--method", "projection"])
    assert code == 2


def test_degenerate_note_for_zero_b(tmp_path):
    p = tmp_path / "zb.txt"
    p.write_text("ring gf 3\nmatrix A 2 2\n1 2\n0 1\nmatrix B 2 1\n0\n0\n")
    code, doc = run_json(["kernel-pair", str(p), "A", "B"])
    assert code == 0
    assert doc["notes"] == ["B = 0, so ker(f1|0) is all of M2"]
    assert doc["ker_bar"]["rank"] == 1


def test_kernel_pair_verify_flag(gf_file):
    code, doc = run_json(["kernel-pair", gf_file, "A", "B", "--verify",
                          "--trials", "2"])
    assert code == 0
    names = [e["check"] for e in doc["verify"]]
    assert "method-agreement" in names and "splitting-witness" in names
    assert all(e["violations"] == [] for e in doc["verify"])


def test_kernel_pair_plain_output(gf_file):
    code, text = run_cli(["kernel-pair", gf_file, "A", "B"])
    assert code == 0
    assert "ker(A|B): rank 0" in text


# -- idempotents command ------------------------------------------------------


def test_idempotents_30():
    code, doc = run_json(["idempotents", "30"])
    assert code == 0
    assert doc["primes"] == [2, 3, 5]
    assert doc["idempotents"] == [15, 10, 6]


def test_idempotents_square_factor():
    code, _ = run_cli(["idempotents", "12"])
    assert code == 2


@pytest.mark.parametrize("modulus", ["1", "0", str(2**62 + 1)])
def test_idempotents_modulus_out_of_range(modulus, capsys):
    code, text = run_cli(["idempotents", modulus])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith(f"error: modulus {modulus} out of range")


# -- member command -----------------------------------------------------------


def test_member_yes(zmod_file):
    code, doc = run_json(["member", zmod_file, "A", "B", "3"])
    assert code == 0
    assert doc["member"] is True and doc["verified"] is True


def test_member_no(zmod_file):
    code, doc = run_json(["member", zmod_file, "A", "B", "1"])
    assert code == 1
    assert doc["member"] is False


def test_member_poly_brackets(poly_file):
    code, doc = run_json(["member", poly_file, "A", "B", "[0,0,1]"])
    assert code == 0
    assert doc["witness"] == ["[0,1]"]
    code, doc = run_json(["member", poly_file, "A", "B", "[1]"])
    assert code == 1


def test_member_gf(gf_file):
    code, doc = run_json(["member", gf_file, "A", "B", "0"])
    assert code == 0
    code, doc = run_json(["member", gf_file, "A", "B", "1"])
    assert code == 1


# -- composite coefficients: (Z/30)[z] ----------------------------------------


def test_kernel_poly30(poly30_file):
    code, doc = run_json(["kernel", poly30_file, "A"])
    assert code == 0
    assert doc["kernel"]["kind"] == "poly_components"
    assert doc["kernel"]["primes"] == [2, 3, 5]
    assert len(doc["kernel"]["components"]) == 3


def test_kernel_pair_poly30(poly30_file):
    code, doc = run_json(["kernel-pair", poly30_file, "A", "B"])
    assert code == 0
    assert doc["ker_bar"]["kind"] == "poly_components"
    assert [e["prime"] for e in doc["per_prime"]] == [2, 3, 5]
    assert "section" not in doc
    code, _ = run_cli(["kernel-pair", poly30_file, "A", "B", "--method", "crt"])
    assert code == 2


GOLDEN_POLY30 = str(Path(__file__).resolve().parent / "golden" / "in" / "polygf30.txt")


def test_member_poly30():
    ring, mats = parse_matrix_file(Path(GOLDEN_POLY30).read_text())
    code, doc = run_json(["member", GOLDEN_POLY30, "A", "B", "[0,15]"])
    assert code == 0 and doc["member"] is True
    x = tuple(map(ring.parse, doc["witness"]))
    u = (ring.parse("[0,15]"),)
    residual = [ring.add(p, q) for p, q in zip(mats["A"].matvec(x), mats["B"].matvec(u))]
    assert residual == [ring.zero] * mats["A"].nrows
    code, doc = run_json(["member", GOLDEN_POLY30, "A", "B", "[1]"])
    assert code == 1 and doc["member"] is False


def test_verify_poly30():
    code, doc = run_json(["verify", GOLDEN_POLY30, "A", "B", "--trials", "2"])
    assert code == 0
    assert [c["check"] for c in doc["checks"]] == [
        "idempotent-laws", "base-change", "kernel-exactness", "rank-identity",
        "saturation"]
    assert all(c["violations"] == [] for c in doc["checks"])


# -- simulate command ---------------------------------------------------------


def cli_system(tmp_path):
    p = tmp_path / "sys.txt"
    p.write_text("ring gf 2\nmatrix A 2 2\n0 0\n1 0\nmatrix B 2 1\n1\n0\n")
    u = tmp_path / "u.txt"
    u.write_text("1\n0\n")
    return str(p), str(u)


def test_simulate_free(tmp_path):
    sys_file, u_file = cli_system(tmp_path)
    code, doc = run_json(["simulate", sys_file, "A", "B", "--u-file", u_file])
    assert code == 0
    assert doc["states"] == [["0", "0"], ["1", "0"], ["0", "1"]]


def test_simulate_steps_truncates(tmp_path, capsys):
    sys_file, u_file = cli_system(tmp_path)
    for steps in (1, 0):
        code, doc = run_json(["simulate", sys_file, "A", "B",
                              "--u-file", u_file, "--steps", str(steps)])
        assert code == 0
        assert doc["horizon"] == steps and len(doc["inputs"]) == steps
    code, _ = run_cli(["simulate", sys_file, "A", "B",
                       "--u-file", u_file, "--steps", "5"])
    assert code == 2
    capsys.readouterr()
    code, text = run_cli(["simulate", sys_file, "A", "B",
                          "--u-file", u_file, "--steps", "-1"])
    assert code == 2 and text == ""
    assert "--steps: must be at least 0" in capsys.readouterr().err


def test_simulate_fixed_x0(tmp_path):
    sys_file, u_file = cli_system(tmp_path)
    x0_file = tmp_path / "x0.txt"
    x0_file.write_text("1 1\n")
    code, doc = run_json(["simulate", sys_file, "A", "B", "--u-file", u_file,
                          "--x0-file", str(x0_file), "--boundary", "fixed"])
    assert code == 0
    assert doc["states"][0] == ["1", "1"]


@pytest.mark.parametrize("boundary", ["free", "periodic"])
def test_x0_file_without_a_fixed_boundary_is_a_usage_error(tmp_path, capsys, boundary):
    sys_file, u_file = cli_system(tmp_path)
    x0_file = tmp_path / "x0.txt"
    x0_file.write_text("1 1\n")
    code, text = run_cli(["simulate", sys_file, "A", "B", "--u-file", u_file,
                          "--x0-file", str(x0_file), "--boundary", boundary])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: --x0-file needs --boundary fixed, got --boundary {boundary}\n")


@pytest.mark.parametrize("bad", ["sys", "u", "x0"])
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, bad):
    """A matrix, --u-file or --x0-file with a byte that is not UTF-8 (here
    a Latin-1 comment) exits 2 with one error line naming the file."""
    files = dict(zip(("sys", "u"), map(Path, cli_system(tmp_path))), x0=tmp_path / "x0.txt")
    files["x0"].write_text("1 1\n")
    files[bad].write_bytes(b"# caf\xe9\n" + files[bad].read_bytes())
    code, text = run_cli(["simulate", str(files["sys"]), "A", "B", "--u-file", str(files["u"]),
                          "--x0-file", str(files["x0"]), "--boundary", "fixed"])
    err = capsys.readouterr().err
    assert code == 2 and text == "" and err.count("\n") == 1
    assert err.startswith(f"error: {files[bad]} is not UTF-8 text: ")
    if bad == "sys":
        assert run_cli(["kernel", str(files["sys"]), "A"]) == (2, "")


def test_simulate_periodic_not_admissible(tmp_path):
    p = tmp_path / "sys.txt"
    p.write_text("ring gf 2\nmatrix A 1 1\n1\nmatrix B 1 1\n1\n")
    u = tmp_path / "u.txt"
    u.write_text("1\n")
    code, doc = run_json(["simulate", str(p), "A", "B", "--u-file", str(u),
                          "--boundary", "periodic"])
    assert code == 1
    assert doc["status"] == "not-admissible"


# -- verify command -----------------------------------------------------------


def test_verify_gf(gf_file):
    code, text = run_cli(["verify", gf_file, "A", "B", "--trials", "2"])
    assert code == 0
    assert "method-agreement: ok" in text
    assert "splitting-witness: ok" in text
    assert "FAIL" not in text


def test_verify_zmod(zmod_file):
    code, doc = run_json(["verify", zmod_file, "A", "B", "--trials", "2"])
    assert code == 0
    names = [c["check"] for c in doc["checks"]]
    assert "idempotent-laws" in names and "base-change" in names


def test_verify_poly(poly_file):
    code, doc = run_json(["verify", poly_file, "A", "B"])
    assert code == 0
    names = [c["check"] for c in doc["checks"]]
    assert "saturation" in names and "splitting-witness" in names


def test_verify_negative_control(gf_file, monkeypatch):
    # corrupt the section that verify's splitting check consumes: the
    # violation must surface as a FAIL exit, not be silently accepted
    from dataclasses import replace

    from kerpair import crt
    from kerpair.kernel import ExactSequenceWitness
    from kerpair.kernel import kernel_pair_projection as real

    def corrupted(a, b):
        result = real(a, b)
        witness = result.witness
        bad_iota = witness.iota.map_entries(
            lambda e: a.ring.add(e, a.ring.one))
        return replace(result, witness=ExactSequenceWitness(
            iota=bad_iota, pi2=witness.pi2, section=witness.section))

    monkeypatch.setitem(crt.FIELD, "kernel_pair", corrupted)
    code, text = run_cli(["verify", gf_file, "A", "B", "--trials", "1"])
    assert code == 1
    assert "splitting-witness: FAIL" in text


GOLDEN_IN = Path(__file__).resolve().parent / "golden" / "in"


@pytest.mark.parametrize("name", ["gf5", "zmod30"])
def test_verify_catches_a_wrong_automorphism_inverse(name, monkeypatch):
    # Psi taken as its own inverse breaks (vii) and (ix) for the drawn Psi
    from kerpair.kernel import Automorphism

    real = Automorphism.__init__

    def wrong_inverse(self, matrix):
        real(self, matrix)
        self.inverse = matrix

    monkeypatch.setattr(Automorphism, "__init__", wrong_inverse)
    code, text = run_cli(["verify", str(GOLDEN_IN / f"{name}.txt"), "A", "B"])
    assert code == 1
    assert "automorphism-identities: FAIL" in text


def test_verify_catches_a_ker_bar_that_drops_a_column_of_b(monkeypatch):
    # the preimage ker_bar with B's last column zeroed (the ambient kept)
    import kerpair.cli as cli_mod
    import kerpair.kernel as kernel_mod

    real = kernel_mod._ker_bar

    def dropped(a, b):
        return real(a, Matrix(b.ring, b.nrows, b.ncols, [r[:-1] + (0,) for r in b.entries]))

    monkeypatch.setattr(kernel_mod, "_ker_bar", dropped)
    monkeypatch.setattr(cli_mod, "_ker_bar", dropped)
    code, text = run_cli(["verify", str(GOLDEN_IN / "gf5.txt"), "A", "B"])
    assert code == 1
    assert "method-agreement: FAIL" in text
    assert "automorphism-identities: FAIL" in text


@pytest.mark.parametrize("name, row", [("gf5", "method-agreement"), ("zmod30", "oracle")])
def test_verify_catches_a_u_part_that_drops_its_last_column(name, row, monkeypatch):
    # ``_u_part`` is the one read of ker_bar off a nullspace, shared by the
    # projection and the preimage ker_bar: with its last column dropped
    # everywhere, the quotient ker_bar (GF(5)) and the oracle (Z/30) still
    # disagree with them
    import kerpair.kernel as kernel_mod

    real = kernel_mod._u_part

    def dropped(joint, q2):
        sub = real(joint, q2)
        cols = sub.basis.columns()[:-1]
        return Submodule(sub.ring, q2, basis=Matrix.from_columns(sub.ring, cols, nrows=q2),
                         pivot_rows=sub.pivot_rows[:-1])

    monkeypatch.setattr(kernel_mod, "_u_part", dropped)
    code, text = run_cli(["verify", str(GOLDEN_IN / f"{name}.txt"), "A", "B"])
    assert code == 1
    assert f"{row}: FAIL" in text


def test_verify_catches_a_lift_with_the_next_idempotent(monkeypatch):
    from kerpair.rings import Split

    def swapped(self, v, i):
        e = self.idempotents[(i + 1) % len(self.idempotents)]
        return tuple(self.ring.mul(e, self.ring.normalize(x)) for x in v)

    monkeypatch.setattr(Split, "lift", swapped)
    code, text = run_cli(["verify", str(GOLDEN_IN / "zmod30.txt"), "A", "B"])
    assert code == 1
    assert "base-change: FAIL" in text


def test_idempotent_laws_check_the_split_the_glue_used(monkeypatch):
    """Over (Z/m)[z] the glue runs on the PolyRing split; a fault in its
    idempotents (here e_0 and e_1 swapped) fails the idempotent-laws row,
    which a freshly built Z/m split would not show."""
    from kerpair import PolyRing
    from kerpair.rings import split_ring

    split = split_ring(PolyRing(30))
    es = split.idempotents
    monkeypatch.setattr(split, "idempotents", (es[1], es[0]) + es[2:])
    code, text = run_cli(["verify", str(GOLDEN_IN / "polygf30.txt"), "A", "B"])
    assert code == 1
    assert "idempotent-laws: FAIL e_0 != 1 mod 2" in text


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("command", [["verify"], ["kernel-pair", "--verify"]])
def test_trials_below_one_is_a_usage_error(gf_file, command, trials, capsys):
    code, text = run_cli([command[0], gf_file, "A", "B", *command[1:], "--trials", trials])
    assert code == 2 and text == ""
    assert "--trials: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["member", "A", "B", "1", "--seed", "3"],
                                  ["kernel-pair", "A", "B", "--trials", "3"],
                                  ["kernel-pair", "A", "B", "--seed", "3"]])
def test_seed_and_trials_only_where_verify_runs(gf_file, argv, capsys):
    code, text = run_cli([argv[0], gf_file, *argv[1:]])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert ("--verify" if argv[0] == "kernel-pair" else "--seed") in err


@pytest.mark.parametrize("argv,expect", [
    (["verify", "--seed", "0"], {"seed": 0}),
    (["verify", "--trials", "2"], {"trials": 2}),
    (["kernel-pair", "--verify", "--seed", "0", "--trials", "1"], {"seed": 0, "trials": 1}),
    (["verify"], {}),
])
def test_seed_and_trials_reach_verify_instance(gf_file, argv, expect, monkeypatch):
    import kerpair.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "verify_instance",
                        lambda a, b, **kw: calls.append(kw) or [])
    assert run_cli([argv[0], gf_file, "A", "B", *argv[1:]])[0] == 0
    defaults = {"seed": 1729, "trials": 5}
    assert len(calls) == 1
    assert {**defaults, **calls[0]} == {**defaults, **expect}


def test_option_census():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    census = {name: sorted(s for a in p._actions for s in a.option_strings
                           if s not in ("-h", "--help"))
              for name, p in commands.items()}
    assert census == {
        "kernel": ["--json"], "idempotents": ["--json"], "member": ["--json"],
        "simulate": ["--boundary", "--json", "--steps", "--u-file", "--x0-file"],
        "kernel-pair": ["--json", "--method", "--seed", "--trials", "--verify"],
        "verify": ["--json", "--seed", "--trials"],
    }
    assert sum(map(len, census.values())) == 16


@pytest.mark.parametrize("text,reductions", [
    ("ring zmod 30\nmatrix A 3 2\n1 2\n3 4\n5 6\nmatrix B 3 2\n7 8\n9 10\n11 12\n", 12),
    (POLY30_FILE, 6),
], ids=["Z/30", "(Z/30)[z]"])
def test_verify_reduces_each_matrix_once_per_prime_and_row(text, reductions, monkeypatch):
    # the glue reduces A and B once per prime and the local rows reuse
    # those pairs; over Z/m the oracle row reduces them once more
    from kerpair.cli import verify_instance
    from kerpair.rings import Split

    calls = []
    real = Split.reduce_matrix

    def counted(self, a, i):
        calls.append(i)
        return real(self, a, i)

    _, matrices = parse_matrix_file(text)
    monkeypatch.setattr(Split, "reduce_matrix", counted)
    verify_instance(matrices["A"], matrices["B"], trials=1)
    assert len(calls) == reductions


def test_verify_runs_one_projection_kernel_pair(gf_file, monkeypatch):
    # method-agreement compares against the checked kernel pair instead
    # of computing the projection presentation a second time
    import kerpair.kernel as kernel_mod

    calls = []
    real = kernel_mod._split

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernel_mod, "_split", counted)
    code, _ = run_cli(["verify", gf_file, "A", "B", "--trials", "1"])
    assert code == 0
    assert len(calls) == 1


def test_json_round_trip_stability(zmod_file):
    # re-parsing the emitted generators must present the same submodule
    code, doc = run_json(["kernel-pair", zmod_file, "A", "B"])
    ring = ModRing(30)
    gens = [tuple(ring.parse(s) for s in g)
            for g in doc["ker_bar"]["generators"]]
    rebuilt = Submodule.from_columns(ring, 1, gens)
    code2, doc2 = run_json(["kernel-pair", zmod_file, "A", "B"])
    assert doc2["ker_bar"] == doc["ker_bar"]
    assert rebuilt.size() == doc["ker_bar"]["size"]


# -- the --json writer against json.dumps ------------------------------------

#: non-ASCII (including outside the BMP), quotes, backslashes and control
#: characters, which json escapes
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
    st.characters()), max_size=8)
JSON_SCALARS = st.one_of(JSON_TEXT, st.integers(), st.integers(-2**70, 2**70),
                         st.floats(), st.booleans(), st.none())
#: ring-formatted rows as the result documents hold them: decimals up to
#: 2**62 and polynomial text, empty rows included
RING_TEXT = st.one_of(st.integers(0, 2**62).map(str), st.sampled_from(("[0]", "[1,2]")),
                      st.lists(st.integers(0, 2**62), min_size=1, max_size=3).map(
                          lambda cs: "[" + ",".join(map(str, cs)) + "]"))
#: Z/q vectors enter a _Formatted as the ints themselves (``_vector_doc``)
RING_INTS = st.integers(0, 2**62)
FORMATTED = st.one_of(st.lists(RING_TEXT, max_size=4),
                      st.lists(RING_INTS, max_size=4)).map(_Formatted)
#: lists of _Formatted of one width, which _dumps writes with one template
FORMATTED_ROWS = st.integers(0, 3).flatmap(lambda w: st.lists(st.one_of(
    st.lists(RING_TEXT, min_size=w, max_size=w),
    st.lists(RING_INTS, min_size=w, max_size=w)).map(_Formatted), min_size=1, max_size=4))
#: json writes int, bool and None keys as strings
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), st.booleans(), st.none())


@settings(max_examples=300, deadline=None)
@given(st.recursive(st.one_of(JSON_SCALARS, FORMATTED, FORMATTED_ROWS), lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(JSON_TEXT, max_size=4),
    st.dictionaries(JSON_KEYS, inner, max_size=4)), max_leaves=20))
def test_json_writer_matches_json_dumps(doc):
    assert _dumps(doc) == json.dumps(_as_text(doc), indent=2)


def _as_text(doc):
    """``doc`` with the elements of each _Formatted as the strings of
    their ring text, which is how ``_dumps`` writes them."""
    if type(doc) is _Formatted:
        return list(map(str, doc))
    if type(doc) is dict:
        return {k: _as_text(v) for k, v in doc.items()}
    if type(doc) in (list, tuple):
        return [_as_text(e) for e in doc]
    return doc


# -- fuzz guard: mutated golden inputs ----------------------------------------

GOLDEN_IN = Path(__file__).resolve().parent / "golden" / "in"
#: a member vector each golden matrix file's B accepts in shape
FUZZ_VECTORS = {"gf5": "1,4", "zmod30": "6,7", "zmod12": "3", "polygf5": "[2,3],[0]",
                "polygf30": "[0]"}
FUZZ_TOKENS = ("0", "1", "2", "3", "4", "6", "-1", "7", "30", "99", "[0,1]", "[1]", "[2,0,1]",
               "[]", "[", "]", "[1,", "1.5", "x", "#", "A", "B", "matrix", "gf", "polygf")


def mutate_lines(rng, lines, pool):
    """``lines`` after one or two edits drawn from ``rng``: mostly a token
    replaced by another of the file or by one of FUZZ_TOKENS, else a line
    deleted, inserted from ``pool`` or swapped with another."""
    tokens_pool = FUZZ_TOKENS + tuple(t for line in lines for t in line.split())
    lines = list(lines)
    for _ in range(rng.choice((1, 1, 2))):
        kind, i = rng.randrange(10), rng.randrange(len(lines))
        if kind < 6:
            tokens = lines[i].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(tokens_pool)
            lines[i] = " ".join(tokens)
        elif kind < 7:
            del lines[i]
        elif kind < 8:
            lines.insert(i, rng.choice(pool))
        else:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return lines


def mutated_golden_inputs():
    """(stem, text) for 300 seeded mutations of the golden matrix files."""
    rng = random.Random(2016)
    files = {path.stem: path.read_text().splitlines()
             for path in sorted(GOLDEN_IN.glob("*.txt"))}
    pool = [line for lines in files.values() for line in lines]
    for _ in range(300):
        stem = rng.choice(sorted(FUZZ_VECTORS))
        yield stem, "\n".join(mutate_lines(rng, files[stem], pool)) + "\n"


def test_cli_survives_mutated_golden_inputs(tmp_path):
    """300 seeded mutations of the golden matrix files: kernel, kernel-pair,
    member and verify each exit 0, 1 or 2 without an escaping exception,
    and the parser either returns or raises a MatrixParseError that names
    its line."""
    commands = (["kernel", "FILE", "A"], ["kernel-pair", "FILE", "A", "B"],
                ["member", "FILE", "A", "B", None], ["verify", "FILE", "A", "B", "--trials", "1"])
    for k, (stem, text) in enumerate(mutated_golden_inputs()):
        try:
            parse_matrix_file(text)
        except MatrixParseError as exc:
            assert exc.line is not None, (text, exc)
        path = tmp_path / f"{k}.txt"
        path.write_text(text)
        for command in commands:
            argv = [str(path) if a == "FILE" else a or FUZZ_VECTORS[stem] for a in command]
            assert main(argv, out=io.StringIO()) in (0, 1, 2), (argv, text)


# -- the block reader against the line-at-a-time reader ------------------------
# The reference is the reader as it stood before matrices and vector files
# were read a block at a time, kept verbatim as ref_eliminate is kept.


def ref_records(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, raw, tokens


def ref_entries(ring, tokens, expect: int, what: str, line=None) -> tuple:
    if len(tokens) != expect:
        raise MatrixParseError(f"{what} has {len(tokens)} entries, expected {expect}",
                               line=line)
    try:
        return ring.parse_all(tokens)
    except ValueError as exc:
        raise MatrixParseError(str(exc), line=line)


def ref_parse_matrix_file(text: str):
    ring = None
    matrices = {}
    records = ref_records(text)
    for lineno, raw, tokens in records:
        if ring is None:
            if tokens[0] != "ring" or len(tokens) != 3:
                raise MatrixParseError(
                    f"expected 'ring <gf|zmod|polygf> <parameter>', got {raw!r}",
                    line=lineno)
            try:
                ring = make_ring(tokens[1], int(tokens[2]))
            except (ValueError, KerpairError) as exc:
                raise MatrixParseError(str(exc), line=lineno)
            continue
        if tokens[0] != "matrix" or len(tokens) != 4:
            raise MatrixParseError(
                f"expected 'matrix <NAME> <rows> <cols>', got {raw!r}", line=lineno)
        name = tokens[1]
        if name in matrices:
            raise MatrixParseError(f"duplicate matrix name {name!r}", line=lineno)
        try:
            nrows, ncols = int(tokens[2]), int(tokens[3])
        except ValueError:
            raise MatrixParseError(f"bad dimensions in {raw!r}", line=lineno)
        if nrows < 0 or ncols < 0:
            raise MatrixParseError(f"negative dimensions in {raw!r}", line=lineno)
        rows = [] if ncols else [()] * nrows  # n x 0 takes no row lines
        what = f"matrix {name!r} row"
        while len(rows) < nrows:
            if (record := next(records, None)) is None:
                raise MatrixParseError(
                    f"matrix {name!r} ends after {len(rows)} of {nrows} rows",
                    line=len(text.splitlines()))
            lineno, _, tokens = record
            rows.append(ref_entries(ring, tokens, ncols, what, lineno))
        matrices[name] = Matrix._canonical(ring, nrows, ncols, rows)
    if ring is None:
        raise MatrixParseError("empty matrix file", line=1)
    return ring, matrices


def ref_parse_vector_file(ring, path: str, width: int) -> list:
    return [ref_entries(ring, tokens, width, "vector line", lineno)
            for lineno, _, tokens in ref_records(Path(path).read_text())]


def outcome(parse, *args):
    """What ``parse`` returns, matrices as (name, shape, entries), or the
    (message, line) of the MatrixParseError it raises."""
    try:
        got = parse(*args)
    except MatrixParseError as exc:
        return "error", str(exc), exc.line
    if isinstance(got, tuple):
        ring, matrices = got
        return ring, [(name, m.nrows, m.ncols, m.entries) for name, m in matrices.items()]
    return got


#: the ring of each golden file, for reading its rows as a vector file
FUZZ_RINGS = {"gf5": PrimeField(5), "zmod30": ModRing(30), "zmod12": ModRing(12),
              "polygf5": PolyRing(5), "polygf30": PolyRing(30)}


def test_block_reader_matches_line_reader_on_mutated_golden_inputs(tmp_path):
    """On the fuzz guard's 300 mutated golden inputs: the same (ring,
    matrices) or the same error and line; and, read as a vector file once
    the header lines are dropped, the same vectors or error."""
    path = tmp_path / "v.txt"
    outcomes = set()
    for stem, text in mutated_golden_inputs():
        want = outcome(ref_parse_matrix_file, text)
        assert outcome(parse_matrix_file, text) == want, text
        lines = [line for line in text.splitlines()
                 if line.split()[:1] not in (["ring"], ["matrix"])]
        path.write_text("\n".join(lines) + "\n")
        width = len(next(ref_records(path.read_text()), (0, "", ()))[2])
        vectors = outcome(ref_parse_vector_file, FUZZ_RINGS[stem], str(path), width)
        assert outcome(parse_vector_file, FUZZ_RINGS[stem], str(path), width) == vectors, lines
        outcomes.update((want[0] == "error", vectors[0] == "error"))
    assert outcomes == {True, False}  # both readers both parse and fail


@pytest.mark.parametrize("text,message,line", [
    # the block ends early, after a row with a bad count
    ("ring gf 5\nmatrix A 3 2\n1 2\n3\n", "matrix 'A' row has 1 entries, expected 2", 4),
    # a bad token in row 1 comes before a bad count in row 2
    ("ring gf 5\nmatrix A 2 2\n1 x\n1 2 3\n", "invalid literal for int() with base 10: 'x'", 3),
    ("ring gf 5\nmatrix A 2 2\n1 2 3\n1 x\n", "matrix 'A' row has 3 entries, expected 2", 3),
    # a bad token in a later row, after one-digit rows
    ("ring gf 5\nmatrix A 3 2\n1 2\n3 4\n12 -\n",
     "invalid literal for int() with base 10: '-'", 5),
    # comment and blank lines inside a block
    ("ring gf 5\nmatrix A 3 2\n1 2\n\n# c\n3 4\n   \n5 x\n",
     "invalid literal for int() with base 10: 'x'", 8),
    ("ring gf 5\nmatrix A 3 2\n1 2\n# c\n\n3 4\n", "matrix 'A' ends after 2 of 3 rows", 6),
    # the next header read as a row
    ("ring gf 5\nmatrix A 2 2\n1 2\nmatrix B 1 1\n1\n",
     "matrix 'A' row has 4 entries, expected 2", 4),
])
def test_block_reader_reports_the_first_error_in_file_order(text, message, line):
    assert outcome(parse_matrix_file, text) == outcome(ref_parse_matrix_file, text) \
        == ("error", message, line)


@pytest.mark.parametrize("text", [
    "ring gf 5\nmatrix A 3 2\n1 2\n\n# c\n3 4\n   \n5 6\nmatrix B 3 1\n# c\n7\n8\n9\n",
    "ring gf 5\nmatrix A 3 0\nmatrix B 3 1\n1\n2\n3\n",
    "ring gf 5\nmatrix A 0 2\nmatrix B 0 0\n",
    "ring zmod 10\nmatrix A 2 3\n9 0 5\n-1 10 007\n",
    "ring polygf 7\nmatrix A 2 2\n[1,2] 3\n[] [0,0,1]\n",
])
def test_block_reader_reads_like_line_reader(text):
    got = outcome(parse_matrix_file, text)
    assert got[0] != "error" and got == outcome(ref_parse_matrix_file, text)


@pytest.mark.parametrize("text,want", [
    ("1 2\n# c\n\n3 4\n", [(1, 2), (3, 4)]),
    ("1 2\n3\n4 x\n", ("error", "vector line has 1 entries, expected 2", 2)),
    ("1 x\n3\n", ("error", "invalid literal for int() with base 10: 'x'", 1)),
    ("", []),
])
def test_vector_file_block_reader(tmp_path, text, want):
    path = tmp_path / "v.txt"
    path.write_text(text)
    for parse in (parse_vector_file, ref_parse_vector_file):
        assert outcome(parse, PrimeField(5), str(path), 2) == want

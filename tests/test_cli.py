import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerpair import (
    Matrix,
    MatrixParseError,
    ModRing,
    PolyRing,
    PrimeField,
    Submodule,
    nullspace,
)
from kerpair.cli import (
    _dumps,
    build_parser,
    format_matrix_file,
    main,
    matrix_kernel,
    parse_matrix_file,
    parse_vector,
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


def test_format_round_trip():
    for text in (GF_FILE, ZMOD_FILE, POLY_FILE):
        ring, mats = parse_matrix_file(text)
        printed = format_matrix_file(ring, mats)
        ring2, mats2 = parse_matrix_file(printed)
        assert ring2 == ring and mats2 == mats


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


def test_simulate_steps_truncates(tmp_path):
    sys_file, u_file = cli_system(tmp_path)
    code, doc = run_json(["simulate", sys_file, "A", "B",
                          "--u-file", u_file, "--steps", "1"])
    assert code == 0
    assert doc["horizon"] == 1
    code, _ = run_cli(["simulate", sys_file, "A", "B",
                       "--u-file", u_file, "--steps", "5"])
    assert code == 2


def test_simulate_fixed_x0(tmp_path):
    sys_file, u_file = cli_system(tmp_path)
    x0_file = tmp_path / "x0.txt"
    x0_file.write_text("1 1\n")
    code, doc = run_json(["simulate", sys_file, "A", "B", "--u-file", u_file,
                          "--x0-file", str(x0_file), "--boundary", "fixed"])
    assert code == 0
    assert doc["states"][0] == ["1", "1"]


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
    from kerpair import crt
    from kerpair.kernel import ExactSequenceWitness
    from kerpair.kernel import kernel_pair_projection as real

    def corrupted(a, b):
        result, witness = real(a, b)
        bad_iota = witness.iota.map_entries(
            lambda e: a.ring.add(e, a.ring.one))
        return result, ExactSequenceWitness(iota=bad_iota, pi2=witness.pi2,
                                            section=witness.section)

    monkeypatch.setitem(crt.FIELD, "kernel_pair", corrupted)
    code, text = run_cli(["verify", gf_file, "A", "B", "--trials", "1"])
    assert code == 1
    assert "splitting-witness: FAIL" in text


def test_verify_runs_one_projection_kernel_pair(gf_file, monkeypatch):
    # method-agreement compares against the checked kernel pair instead
    # of computing the projection presentation a second time
    import kerpair.kernel as kernel_mod

    calls = []
    real = kernel_mod._projection_pair

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernel_mod, "_projection_pair", counted)
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
#: json writes int, bool and None keys as strings
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), st.booleans(), st.none())


@settings(max_examples=300, deadline=None)
@given(st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(JSON_TEXT, max_size=4),
    st.dictionaries(JSON_KEYS, inner, max_size=4)), max_leaves=20))
def test_json_writer_matches_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)

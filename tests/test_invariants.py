"""Runtime invariants are explicit checks raising ConsistencyViolatedError
(they survive ``python -O``), and the CLI reports them with exit code 2."""

import io

import pytest

import kerpair.behavior
import kerpair.cli
import kerpair.crt
import kerpair.kernel
import kerpair.polykernel
from kerpair import (
    AdmissibleInputQuery,
    ConsistencyViolatedError,
    Matrix,
    PolyRing,
    PrimeField,
    SystemPair,
    Trajectory,
    admissible,
    kernel_pair_poly,
    kernel_pair_projection,
    poly_kernel,
)
from kerpair.cli import main

GF_FILE = """\
ring gf 5
matrix A 2 1
1
0
matrix B 2 2
1 0
0 0
"""

POLY_FILE = """\
ring polygf 2
matrix A 1 1
[0,1]
matrix B 1 1
[1]
"""

U_FILE = "1 0\n"


def run(tmp_path, text, argv):
    """CLI exit code, with FILE and UFILE in argv standing for a matrix
    file holding ``text`` and an input file holding U_FILE."""
    files = {"FILE": tmp_path / "m.txt", "UFILE": tmp_path / "u.txt"}
    files["FILE"].write_text(text)
    files["UFILE"].write_text(U_FILE)
    return main([str(files.get(a, a)) for a in argv], out=io.StringIO())


def test_missing_field_witness(tmp_path, monkeypatch):
    monkeypatch.setattr(kerpair.kernel, "solve", lambda a, c: None)
    a = Matrix(PrimeField(5), 2, 1, [[1], [0]])
    b = Matrix(PrimeField(5), 2, 2, [[1, 0], [0, 0]])
    with pytest.raises(ConsistencyViolatedError):
        kernel_pair_projection(a, b)
    assert run(tmp_path, GF_FILE, ["kernel-pair", "FILE", "A", "B"]) == 2


def test_missing_poly_witness(tmp_path, monkeypatch):
    monkeypatch.setattr(kerpair.polykernel, "poly_solve", lambda a, c: None)
    ring = PolyRing(2)
    with pytest.raises(ConsistencyViolatedError):
        kernel_pair_poly(Matrix(ring, 1, 1, [[(0, 1)]]), Matrix(ring, 1, 1, [[(1,)]]))
    assert run(tmp_path, POLY_FILE, ["kernel-pair", "FILE", "A", "B"]) == 2


def test_unsaturated_degree_sweep(monkeypatch):
    monkeypatch.setattr(kerpair.polykernel, "kernel_vectors_up_to", lambda a, bound: [])
    with pytest.raises(ConsistencyViolatedError):
        poly_kernel(Matrix(PolyRing(3), 1, 2, [[(1,), (0, 1)]]))


def test_member_witness_that_does_not_verify(tmp_path, monkeypatch):
    monkeypatch.setitem(kerpair.crt.FIELD, "solve", lambda a, c: (1,) * a.ncols)
    assert run(tmp_path, GF_FILE, ["member", "FILE", "A", "B", "0,0"]) == 2


def test_periodic_solve_that_does_not_close(monkeypatch):
    monkeypatch.setattr(kerpair.behavior, "solver", lambda m: lambda c: (1,))
    sys = SystemPair(Matrix(PrimeField(5), 1, 1, [[0]]), Matrix(PrimeField(5), 1, 1, [[1]]))
    with pytest.raises(ConsistencyViolatedError):
        admissible(sys, AdmissibleInputQuery(((3,),), "periodic"))


def test_simulated_trajectory_that_breaks_the_recursion(tmp_path, monkeypatch):
    broken = Trajectory(states=((0,), (4,)), inputs=((1, 0),))
    monkeypatch.setattr(kerpair.cli, "admissible", lambda sys, query: broken)
    text = "ring gf 5\nmatrix A 1 1\n0\nmatrix B 1 2\n1 0\n"
    assert run(tmp_path, text, ["simulate", "FILE", "A", "B", "--u-file", "UFILE"]) == 2

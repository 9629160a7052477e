"""Runtime invariants are explicit checks raising ConsistencyViolatedError
(they survive ``python -O``), and the CLI reports them with exit code 2;
a failed ``verify`` check is reported as a violation with exit code 1."""

import io
import random
from dataclasses import replace

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
    hermite_basis,
    kernel_pair_poly,
    random_matrix,
)
from kerpair.cli import main, verify_instance

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


def test_corrupted_field_section_fails_verify(tmp_path, monkeypatch):
    """A field section is read off the joint kernel, with no solve that
    can fail; a wrong one (here x_u negated on its way into the split) is
    a ``splitting-witness`` violation of verify (exit 1)."""
    split = kerpair.kernel._split
    monkeypatch.setattr(kerpair.kernel, "_split",
                        lambda ker_f1, ker_bar, xs: split(ker_f1, ker_bar, -xs))
    a = Matrix(PrimeField(5), 2, 1, [[1], [0]])
    b = Matrix(PrimeField(5), 2, 2, [[1, 0], [0, 0]])
    checks = dict(verify_instance(a, b))
    assert checks["splitting-witness"]
    assert not any(v for name, v in checks.items() if name != "splitting-witness")
    assert run(tmp_path, GF_FILE, ["verify", "FILE", "A", "B"]) == 1


def _dropped_generator(a, b):
    """The GF(p)[z] kernel pair with ker_bar's last generator and its
    section column dropped, and ker_pair rebuilt from that split: a
    witness consistent with its own result, but not with ker(f1,f2)."""
    result, witness = kernel_pair_poly(a, b)
    ring, q1, q2 = a.ring, a.ncols, b.ncols
    us = Matrix.from_columns(ring, result.ker_bar.basis.columns()[:-1], nrows=q2)
    section = Matrix.from_columns(ring, witness.section.columns()[:-1], nrows=q1 + q2)
    iota = [witness.iota.matvec(x) for x in result.ker_f1.basis.columns()]
    ker_pair = Matrix.from_columns(ring, iota + section.columns(), nrows=q1 + q2)
    result = replace(result, ker_bar=hermite_basis(us), ker_pair=hermite_basis(ker_pair))
    return result, replace(witness, section=section)


def test_joint_kernel_missing_a_section_fails_verify(monkeypatch):
    """ker_pair built from iota and the section cannot vouch for them: the
    ``splitting-witness`` row compares their span with a joint kernel of
    its own, so a split that lost a ker_bar generator is a violation."""
    monkeypatch.setitem(kerpair.crt.POLY, "kernel_pair", _dropped_generator)
    ring, rng = PolyRing(5), random.Random(3)
    for m, q1, q2 in ((3, 2, 2), (4, 2, 4), (5, 3, 4)):
        a = random_matrix(ring, m, q1, rng, max_degree=1)
        b = random_matrix(ring, m, q2, rng, max_degree=1)
        checks = dict(verify_instance(a, b))
        assert checks["splitting-witness"] == ["image(iota) + image(section) != ker(f1,f2)"]
        assert not any(v for name, v in checks.items() if name != "splitting-witness")


def test_missing_poly_witness(tmp_path, monkeypatch):
    monkeypatch.setattr(kerpair.polykernel, "_solve_columns", lambda a, cs: [None] * len(cs))
    ring = PolyRing(2)
    with pytest.raises(ConsistencyViolatedError):
        kernel_pair_poly(Matrix(ring, 1, 1, [[(0, 1)]]), Matrix(ring, 1, 1, [[(1,)]]))
    assert run(tmp_path, POLY_FILE, ["kernel-pair", "FILE", "A", "B"]) == 2


def test_saturation_oracle_vector_outside_the_kernel(tmp_path, monkeypatch):
    """An oracle vector that the computed ker_f1 does not contain is a
    ``saturation`` violation of verify (exit 1), not a crash."""
    monkeypatch.setattr(kerpair.polykernel, "kernel_vectors_up_to",
                        lambda a, bound: [((1,),) * a.ncols])
    ring = PolyRing(2)
    a, b = Matrix(ring, 1, 1, [[(0, 1)]]), Matrix(ring, 1, 1, [[(1,)]])
    checks = dict(verify_instance(a, b))
    assert checks["saturation"]
    assert not any(v for name, v in checks.items() if name != "saturation")
    assert run(tmp_path, POLY_FILE, ["verify", "FILE", "A", "B"]) == 1


def test_member_witness_that_does_not_verify(tmp_path, monkeypatch):
    monkeypatch.setitem(kerpair.crt.FIELD, "solve", lambda a, c: (1,) * a.ncols)
    assert run(tmp_path, GF_FILE, ["member", "FILE", "A", "B", "0,0"]) == 2


def test_periodic_solve_that_does_not_close(monkeypatch):
    monkeypatch.setattr(kerpair.behavior, "solve", lambda m, c: (1,))
    sys = SystemPair(Matrix(PrimeField(5), 1, 1, [[0]]), Matrix(PrimeField(5), 1, 1, [[1]]))
    with pytest.raises(ConsistencyViolatedError):
        admissible(sys, AdmissibleInputQuery(((3,),), "periodic"))


def test_simulated_trajectory_that_breaks_the_recursion(tmp_path, monkeypatch):
    broken = Trajectory(states=((0,), (4,)), inputs=((1, 0),))
    monkeypatch.setattr(kerpair.cli, "admissible", lambda sys, query: broken)
    text = "ring gf 5\nmatrix A 1 1\n0\nmatrix B 1 2\n1 0\n"
    assert run(tmp_path, text, ["simulate", "FILE", "A", "B", "--u-file", "UFILE"]) == 2

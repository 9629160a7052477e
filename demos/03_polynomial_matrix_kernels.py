#!/usr/bin/env python3
"""Kernels of polynomial matrices over GF(p)[z].

GF(p)[z] is a principal ideal domain, so kernels of matrices over it
are free modules; poly_kernel reads a basis off the unimodular transform
of one column Hermite reduction, and the column Hermite normal form
gives each kernel one canonical presentation.

Run: python3 demos/03_polynomial_matrix_kernels.py
"""

from kerpair import (
    Matrix,
    PolyRing,
    hermite_basis,
    hermite_with_transform,
    kernel_pair_poly,
    poly_kernel,
    poly_member,
)

R = PolyRing(3)
z = R.z


def show(v):
    return "[" + ", ".join(R.format(e) for e in v) + "]"


# [1  z] has the rank-one kernel spanned by (z, 2) -- the monic-pivot
# normalization of the obvious solution (-z, 1).
A = Matrix(R, 2, 2, [[(1,), z], [(), ()]])
kb = poly_kernel(A)
print("A = [[1, z], [0, 0]] over GF(3)[z]")
print("kernel basis:", [show(c) for c in kb.basis.columns()],
      " degrees:", kb.column_degrees)

alt = Matrix.from_columns(R, [((0, 2), (1,))], nrows=2)  # (2z, 1)
print("same module as span{(2z, 1)}:",
      kb == poly_kernel(Matrix(R, 1, 2, [[(1,), z]])))
print()

# Hermite form canonicalizes any spanning set: monic pivots on strictly
# increasing rows, earlier entries degree-reduced.
G = Matrix.from_columns(R, [((0, 2),), ((0, 0, 1),)], nrows=1)  # [2z, z^2]
print("hermite([2z, z^2]) =", [show(c) for c in hermite_basis(G).basis.columns()])
print()

# The construction behind poly_kernel: column-reduce [A] by a unimodular
# U so A.U = [H | 0]; the trailing columns of U are a kernel basis, here
# already the canonical one.  The first label keeps its old wording so
# the printed output is stable.
B = Matrix(R, 1, 2, [[z, z]])
H, U, _ = hermite_with_transform(B)
print("A = [z, z]")
print("  degree sweep     :",
      [show(c) for c in poly_kernel(B).basis.columns()])
print("  unimodular route :",
      [show(c) for c in U.columns()[H.ncols:]])
print()

# ker(f1|f2) over GF(p)[z]: membership of u means A x = -B u is
# solvable in polynomials, witnessed by exact division in the Hermite
# presentation.
A2 = Matrix(R, 1, 1, [[z]])
B2 = Matrix(R, 1, 1, [[(1,)]])
result, witness = kernel_pair_poly(A2, B2)
print("ker(z | 1) basis:", [show(c) for c in result.ker_bar.basis.columns()])
for u in [((0, 0, 1),), ((1,),)]:
    x = poly_member(A2, B2, u)
    verdict = f"witness x = {show(x)}" if x is not None else "not a member"
    print(f"  u = {show(u)}: {verdict}")
print("rank identity:", result.ker_pair.rank, "==",
      result.ker_f1.rank, "+", result.ker_bar.rank)

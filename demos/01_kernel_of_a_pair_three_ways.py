#!/usr/bin/env python3
"""Compute ker(f1|f2) over a prime field by three routes.

ker(f1|f2) collects the inputs u for which A x + B u = 0 has a
solution x -- equivalently, the preimage of Im(f1) under f2, living in
the quotient picture N -> N/Im(f1).  The three computations below must
agree to the letter, because every submodule is returned in a canonical
echelon presentation.

Run: python3 demos/01_kernel_of_a_pair_three_ways.py
"""

from kerpair import (
    Matrix,
    PrimeField,
    admissible_set,
    check_witness,
    kernel_pair_oracle,
    kernel_pair_preimage,
    kernel_pair_projection,
    kernel_pair_quotient,
    quotient_map,
)

F = PrimeField(5)

A = Matrix(F, 3, 2, [[1, 2],
                     [0, 1],
                     [0, 0]])
B = Matrix(F, 3, 3, [[1, 0, 3],
                     [0, 2, 1],
                     [0, 0, 1]])

print("A =", A)
print("B =", B)
print()

# Route 1: nullspace of the stacked map [A | B], projected to the u block.
result = kernel_pair_projection(A, B)
print("projection  ker(A|B) basis:", result.ker_bar.basis.columns())

# Route 2: f2^{-1}(Im f1), solved against a basis of the image.
print("preimage    ker(A|B) basis:",
      kernel_pair_preimage(A, B).ker_bar.basis.columns())

# Route 3: kernel of C.B where C presents N -> N/Im(A).
quot, C = kernel_pair_quotient(A, B), quotient_map(A)
print("quotient    ker(A|B) basis:", quot.ker_bar.basis.columns())
print("quotient map C =", C.matrix, " (C.A = 0:", (C.matrix @ A).is_zero(), ")")
print()

# The short exact sequence 0 -> ker f1 -> ker(f1,f2) -> ker(f1|f2) -> 0
# splits over a field; result.witness carries iota, pi2, and a section.
violations = check_witness(A, B, result)
print("splitting witness violations:", violations or "none")
print("section columns (x_u, u):", result.witness.section.columns())
print()

# Brute force closes the loop: enumerate every u in GF(5)^3 and keep
# the ones where A x = -B u is solvable.
oracle = kernel_pair_oracle(A, B)
print("oracle rank:", oracle.basis.ncols, "== computed rank:",
      result.ker_bar.basis.ncols)
print("admissible u count:", len(admissible_set(A, B)),
      "== 5^rank:", 5 ** result.ker_bar.basis.ncols)

# |ker(f1,f2)| = |ker f1| . |ker(f1|f2)| -- the finite shadow of exactness
print("cardinality identity:",
      result.ker_pair.size(), "==",
      result.ker_f1.size(), "*", result.ker_bar.size())

#!/usr/bin/env python3
"""Local-global kernel computation over Z/30.

Z/30 = GF(2) x GF(3) x GF(5) as rings; the splitting is realized inside
Z/30 by the structural idempotents e_1 = 15, e_2 = 10, e_3 = 6.  A
kernel over Z/30 is therefore three field kernels glued together, and
flat base change says reducing the glued kernel mod p lands exactly on
the local kernel.

Run: python3 demos/02_crt_idempotents_local_global.py
"""

from kerpair import (
    Matrix,
    ModRing,
    admissible_set,
    base_change_check,
    idempotents,
    kernel_pair_crt,
)

dec = idempotents(30)
print("primes     :", dec.primes)
print("idempotents:", dec.idempotents)
for i, e in enumerate(dec.idempotents):
    print(f"  e_{i+1} = {e}: e^2 = {e*e % 30}, "
          f"residues = {tuple(e % p for p in dec.primes)}")
print("laws:", dec.check_laws() or "all hold")
print()

R = ModRing(30)
A = Matrix(R, 1, 1, [[15]])
B = Matrix(R, 1, 1, [[10]])

result = kernel_pair_crt(A, B)
print("A = [15], B = [10] over Z/30")
for p, local in zip(result.primes, result.local_results):
    print(f"  mod {p}: ker_bar rank {local.ker_bar.dim}")
# mod 2 A is a unit (onto); mod 3 forces u = 0; mod 5 B vanishes
print("glued kernel size:", result.ker_bar.size())
print("glued generators :", result.ker_bar.generators())
print()

members = admissible_set(A, B)
print("enumerated admissible u:", [u[0] for u in members])
print("count matches ker_bar_count:", len(members) == result.ker_bar.size())
print()

print("per-prime (dim ker_pair, dim ker_f1, dim ker_bar):",
      [(r.ker_pair.dim, r.ker_f1.dim, r.ker_bar.dim) for r in result.local_results])
for i, p in enumerate(result.primes):
    print(f"base change mod {p}:", base_change_check(A, B, i) or "ok")

"""End-to-end acceptance gate.

Each test prints a single pass/fail line for its criterion and then
asserts, so the suite doubles as a human-readable report:

    python3 -m pytest tests/test_acceptance.py -s -q
"""

import random

from kerpair import (
    Automorphism,
    Matrix,
    ModRing,
    PolyRing,
    PrimeField,
    admissible_set,
    base_change_check,
    check_identities,
    check_witness,
    idempotents,
    kernel_of_pair,
    kernel_pair_crt,
    kernel_pair_poly,
    kernel_pair_projection,
    kernel_vectors_up_to,
    matrix_degree,
    nullspace,
    poly_kernel,
    random_invertible,
    random_matrix,
)
from conftest import pair_instances, span_elements

GF2, GF3, GF5 = PrimeField(2), PrimeField(3), PrimeField(5)


def _report(num: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num:02d}] {status} {label}")
    assert not failures, f"criterion {num}: " + "; ".join(map(str, failures[:5]))


def square_free(m: int) -> bool:
    n, p = m, 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def test_criterion_01_idempotent_exactness():
    failures = []
    dec = idempotents(30)
    if dec.idempotents != (15, 10, 6) or dec.primes != (2, 3, 5):
        failures.append(f"idempotents(30) = {dec.idempotents} over {dec.primes}")
    for m in range(2, 10_001):
        if not square_free(m):
            continue
        laws = idempotents(m).check_laws()
        if laws:
            failures.append(f"m={m}: {laws}")
    _report(1, "idempotent exactness up to 10^4", failures)


def test_criterion_02_method_agreement():
    failures = []
    total = 0
    for ring in (GF2, GF3, GF5):
        for a, b in pair_instances(ring, 170, seed=2 * 10 ** 6 + ring.p,
                                   max_rows=4, max_q1=4, max_q2=4):
            total += 1
            results = {m: kernel_of_pair(a, b, m).ker_bar
                       for m in ("projection", "preimage", "quotient")}
            if not (results["projection"] == results["preimage"]
                    == results["quotient"]):
                failures.append(f"{ring}: {a!r}, {b!r}")
    assert total >= 500
    _report(2, f"method agreement on {total} field instances", failures)


def _crt_instances():
    out = []
    for m, count in ((30, 110), (6, 110)):
        ring = ModRing(m)
        for a, b in pair_instances(ring, count, seed=300 + m,
                                   max_rows=2, max_q1=2, max_q2=2):
            out.append((a, b))
    ring = ModRing(30)
    out.append((Matrix(ring, 1, 1, [[15]]), Matrix(ring, 1, 1, [[10]])))
    return out


def test_criterion_03_oracle_equivalence():
    failures = []
    instances = _crt_instances()
    assert len(instances) >= 200
    for a, b in instances:
        glued = kernel_pair_crt(a, b).ker_bar
        enumerated = set(admissible_set(a, b))
        if span_elements(glued) != enumerated:
            failures.append(f"{a.ring}: {a!r}, {b!r}")
    worked = kernel_pair_crt(Matrix(ModRing(30), 1, 1, [[15]]),
                             Matrix(ModRing(30), 1, 1, [[10]])).ker_bar
    if worked.size() != 10:
        failures.append(f"worked instance |ker_bar| = {worked.size()}")
    _report(3, f"CRT gluing equals enumeration on {len(instances)} instances",
            failures)


def test_criterion_04_cardinality():
    failures = []
    total = 0
    for ring in (GF2, GF3, GF5):
        for a, b in pair_instances(ring, 170, seed=2 * 10 ** 6 + ring.p,
                                   max_rows=4, max_q1=4, max_q2=4):
            total += 1
            r = kernel_of_pair(a, b, "preimage")
            if r.ker_pair.size() != r.ker_f1.size() * r.ker_bar.size():
                failures.append(f"{ring}: {a!r}, {b!r}")
    for a, b in _crt_instances():
        total += 1
        r = kernel_pair_crt(a, b)
        if r.ker_pair.size() != r.ker_f1.size() * r.ker_bar.size():
            failures.append(f"{a.ring}: {a!r}, {b!r}")
    _report(4, f"cardinality identity on {total} finite-ring instances",
            failures)


def test_criterion_05_splitting():
    failures = []
    total = 0
    for ring in (GF2, GF3, GF5):
        for a, b in pair_instances(ring, 170, seed=2 * 10 ** 6 + ring.p,
                                   max_rows=4, max_q1=4, max_q2=4):
            total += 1
            v = check_witness(a, b, kernel_pair_projection(a, b))
            if v:
                failures.append(f"{ring}: {v}")
    for ring, seed in ((PolyRing(2), 72), (PolyRing(3), 73)):
        rng = random.Random(seed)
        for _ in range(100):
            p, q1, q2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(ring, p, q1, rng, max_degree=2)
            b = random_matrix(ring, p, q2, rng, max_degree=2)
            total += 1
            v = check_witness(a, b, kernel_pair_poly(a, b))
            if v:
                failures.append(f"{ring}: {v}")
    _report(5, f"exact-sequence splitting on {total} instances", failures)


def test_criterion_06_flat_base_change():
    failures = []
    checked = 0
    for a, b in _crt_instances():
        for i in range(len(a.ring.primes)):
            checked += 1
            v = base_change_check(a, b, i)
            if v:
                failures.append(f"{a.ring} prime #{i}: {v}")
    _report(6, f"flat base change over {checked} prime reductions", failures)


def test_criterion_07_polynomial_kernels():
    failures = []
    total = 0
    for n, seed in ((2, 77), (3, 78)):
        ring = PolyRing(n)
        rng = random.Random(seed)
        for _ in range(100):
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(ring, p, q, rng, max_degree=2)
            total += 1
            kb = poly_kernel(a)
            zero = (ring.zero,) * p
            if any(a.matvec(col) != zero for col in kb.basis.columns()):
                failures.append(f"A K != 0 for {a!r}")
            bound = min(p, q) * max(matrix_degree(a), 1) + 2
            if any(kb.contains(v) is None
                   for v in kernel_vectors_up_to(a, bound)):
                failures.append(f"saturation fails for {a!r}")
            b = random_matrix(ring, p, rng.randint(1, 3), rng, max_degree=2)
            result = kernel_pair_poly(a, b)
            if result.ker_pair.rank != result.ker_f1.rank + result.ker_bar.rank:
                failures.append(f"rank identity fails for {a!r}, {b!r}")
    assert total >= 200
    _report(7, f"polynomial kernels exact and saturated on {total} matrices",
            failures)


def test_criterion_08_pencil_invariant():
    failures = []
    total = 0
    for p, seed in ((2, 88), (3, 89)):
        field, ring = PrimeField(p), PolyRing(p)
        rng = random.Random(seed)
        for _ in range(55):
            n = rng.randint(1, 3)
            c = random_matrix(field, n, n, rng)
            pencil = Matrix(ring, n, n,
                            [[ring.sub(ring.z if i == j else ring.zero,
                                       ring.constant(c.entries[i][j]))
                              for j in range(n)] for i in range(n)])
            total += 1
            if poly_kernel(pencil).rank != 0:
                failures.append(f"pencil kernel nonzero for C = {c!r}")
            b = random_matrix(ring, n, rng.randint(1, 2), rng, max_degree=1)
            result = kernel_pair_poly(pencil, b)
            if result.ker_pair.rank != result.ker_bar.rank:
                failures.append(f"pencil rank identity fails for C = {c!r}")
    assert total >= 100
    _report(8, f"pencil invariant on {total} scalar matrices", failures)


def test_criterion_09_automorphism_identities():
    failures = []
    rng = random.Random(99)
    total = 0
    for _ in range(200):
        p, q1, q2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(GF5, p, q1, rng)
        b = random_matrix(GF5, p, q2, rng)
        psi1 = Automorphism(random_invertible(GF5, q1, rng))
        psi2 = Automorphism(random_invertible(GF5, q2, rng))
        psi = Automorphism(random_invertible(GF5, p, rng))
        total += 1
        v = check_identities(a, b, psi1, psi2, psi)
        if v:
            failures.append(f"{a!r}, {b!r}: {v}")
    assert total >= 200
    _report(9, f"automorphism identities on {total} invertible triples",
            failures)


def _degenerate_suite(ring, a_full, b_any, make_sub, kernel_bar):
    """Five degenerate identities; returns failure strings."""
    failures = []
    p, q1 = a_full.nrows, a_full.ncols
    q2 = b_any.ncols
    zero_a = Matrix.zeros(ring, p, q1)
    zero_b = Matrix.zeros(ring, p, q2)
    eye = Matrix.identity(ring, p)

    if kernel_bar(zero_a, b_any) != make_sub(b_any):
        failures.append("ker(0|B) != nullspace(B)")
    if not kernel_bar(zero_a, eye).is_zero():
        failures.append("ker(0|I) != 0")
    if not kernel_bar(a_full, zero_b).is_full():
        failures.append("ker(A|0) not full")
    if not kernel_bar(eye, b_any).is_full():
        failures.append("A onto does not give full")
    contained = a_full @ Matrix.identity(ring, q1)
    if not kernel_bar(a_full, contained).is_full():
        failures.append("Im(B) in Im(A) does not give full")
    return failures


def test_criterion_10_degenerate_identities():
    failures = []

    # prime field family
    a = Matrix(GF3, 2, 2, [[1, 2], [0, 1]])  # invertible, so onto
    b = Matrix(GF3, 2, 2, [[1, 0], [2, 0]])
    failures += [f"gf: {f}" for f in _degenerate_suite(
        GF3, a, b, nullspace,
        lambda x, y: kernel_of_pair(x, y, "projection").ker_bar)]

    # square-free modular family
    ring = ModRing(6)
    az = Matrix(ring, 2, 2, [[1, 2], [0, 1]])
    bz = Matrix(ring, 2, 2, [[3, 0], [2, 0]])
    from kerpair.cli import matrix_kernel
    failures += [f"zmod: {f}" for f in _degenerate_suite(
        ring, az, bz, matrix_kernel,
        lambda x, y: kernel_pair_crt(x, y).ker_bar)]

    # polynomial family
    pring = PolyRing(2)
    ap = Matrix(pring, 2, 2, [[(1,), (0, 1)], [(), (1,)]])  # unimodular
    bp = Matrix(pring, 2, 2, [[(0, 1), ()], [(1, 1), ()]])
    failures += [f"polygf: {f}" for f in _degenerate_suite(
        pring, ap, bp, poly_kernel,
        lambda x, y: kernel_pair_poly(x, y).ker_bar)]

    _report(10, "degenerate identities per ring family", failures)

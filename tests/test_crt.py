import itertools
import random

import pytest

from kerpair import (
    KernelPairResult,
    Matrix,
    MethodUnavailableError,
    ModRing,
    NotSquareFreeError,
    PolyRing,
    PrimeField,
    RingMismatchError,
    admissible_set,
    base_change_check,
    idempotents,
    ker_bar_count,
    kernel_of_pair,
    kernel_pair_crt,
    kernel_pair_oracle,
    kernel_pair_poly,
    kernel_pair_poly_crt,
    kernel_pair_projection,
    quotient_form_crt,
    random_matrix,
    reduce_matrix,
    submodule_equal,
)
from conftest import pair_instances, span_elements

Z30 = ModRing(30)
Z6 = ModRing(6)


def scan_idempotents(m, primes):
    """Independent oracle: the unique e with e=1 mod p, e=0 elsewhere."""
    out = []
    for p in primes:
        matches = [e for e in range(m)
                   if e % p == 1 % p and all(e % q == 0 for q in primes if q != p)]
        assert len(matches) == 1
        out.append(matches[0])
    return tuple(out)


def test_idempotents_z30():
    dec = idempotents(30)
    assert dec.primes == (2, 3, 5)
    assert dec.idempotents == (15, 10, 6)
    assert dec.check_laws() == []


def test_idempotents_small_cases():
    assert idempotents(2).idempotents == (1,)
    assert idempotents(6).idempotents == scan_idempotents(6, (2, 3)) == (3, 4)
    assert idempotents(105).idempotents == scan_idempotents(105, (3, 5, 7)) \
        == (70, 21, 15)


def test_idempotents_reject_square_factor():
    with pytest.raises(NotSquareFreeError) as exc:
        idempotents(12)
    assert exc.value.prime == 2
    with pytest.raises(NotSquareFreeError) as exc:
        idempotents(75)  # 3 * 5^2
    assert exc.value.prime == 5


def test_idempotent_laws_hold_broadly():
    for m in (2, 3, 10, 15, 30, 42, 210, 1155):
        assert idempotents(m).check_laws() == []


def test_reduce_matrix():
    a = Matrix(Z30, 1, 1, [[15]])
    assert reduce_matrix(a, 0).entries == ((1,),)   # mod 2
    assert reduce_matrix(a, 1).entries == ((0,),)   # mod 3
    assert reduce_matrix(a, 2).entries == ((0,),)   # mod 5
    b = Matrix(ModRing(10), 1, 2, [[7, 11 % 10]])
    assert reduce_matrix(b, 1).entries == ((2, 1),)  # mod 5
    assert reduce_matrix(b, 1).ring == PrimeField(5)


def test_worked_example_z30():
    a = Matrix(Z30, 1, 1, [[15]])
    b = Matrix(Z30, 1, 1, [[10]])
    result = kernel_pair_crt(a, b)
    # mod 2: A=[1] onto -> full; mod 3: A=0,B=[1] -> zero; mod 5: B=0 -> full
    assert [k.dim for k in result.local_kernels] == [1, 0, 1]
    assert result.glued.size() == 2 * 1 * 5
    assert span_elements(result.glued) == {(u,) for u in range(0, 30, 3)}
    assert submodule_equal(result.glued, kernel_pair_oracle(a, b))


def test_degenerate_crt_inputs():
    a = Matrix.zeros(Z6, 2, 2)
    b = Matrix.identity(Z6, 2)
    assert kernel_pair_crt(a, b).glued.is_zero()
    assert kernel_pair_crt(Matrix.identity(Z6, 2), b).glued.is_full()
    b0 = Matrix.zeros(Z6, 2, 2)
    res = kernel_pair_crt(Matrix(Z6, 2, 2, [[1, 2], [3, 4]]), b0)
    assert res.glued.is_full()


def test_gluing_matches_membership():
    # u lies in the glued kernel iff each reduction lies in the local one
    rng = random.Random(201)
    for _ in range(25):
        a = random_matrix(Z6, rng.randint(1, 2), rng.randint(1, 2), rng)
        b = random_matrix(Z6, a.nrows, rng.randint(1, 2), rng)
        result = kernel_pair_crt(a, b)
        for u in itertools.product(range(6), repeat=b.ncols):
            local_ok = all(
                result.local_results[i].ker_bar.contains(
                    tuple(x % p for x in u)) is not None
                for i, p in enumerate(result.primes))
            assert (result.glued.contains(u) is not None) == local_ok


def test_glued_agrees_with_admissible_set():
    for a, b in pair_instances(Z6, 30, seed=211, max_rows=2, max_q1=2, max_q2=2):
        result = kernel_pair_crt(a, b)
        assert span_elements(result.glued) == set(admissible_set(a, b))


def test_base_change_worked_example():
    a = Matrix(Z30, 1, 1, [[15]])
    b = Matrix(Z30, 1, 1, [[10]])
    for i in range(3):
        assert base_change_check(a, b, i) == []


def test_base_change_on_randoms():
    for ring in (Z6, Z30):
        for a, b in pair_instances(ring, 25, seed=223, max_rows=3,
                                   max_q1=3, max_q2=3):
            for i in range(len(ring.primes)):
                assert base_change_check(a, b, i) == []


def test_quotient_form_z6():
    a = Matrix(Z6, 1, 1, [[3]])
    b = Matrix(Z6, 1, 1, [[2]])
    # mod 2: A=[1] onto, pair=ker[1 0] dim 1, f1 dim 0, bar dim 1
    # mod 3: A=0 B=[2], pair=ker[0 2] dim 1, f1 dim 1, bar dim 0
    assert quotient_form_crt(a, b) == [(1, 0, 1), (1, 1, 0)]
    assert ker_bar_count(a, b) == 2
    assert span_elements(kernel_pair_crt(a, b).glued) == {(0,), (3,)}


def test_quotient_form_zero_maps():
    a = Matrix.zeros(Z6, 1, 1)
    b = Matrix.zeros(Z6, 1, 1)
    assert quotient_form_crt(a, b) == [(2, 1, 1), (2, 1, 1)]
    assert ker_bar_count(a, b) == 6


def test_ker_bar_count_matches_oracle():
    for a, b in pair_instances(Z30, 15, seed=227, max_rows=2,
                               max_q1=2, max_q2=2):
        assert ker_bar_count(a, b) == len(admissible_set(a, b))


def test_local_exactness_dimensions():
    for a, b in pair_instances(Z30, 20, seed=229):
        for pair_dim, f1_dim, bar_dim in quotient_form_crt(a, b):
            assert pair_dim == f1_dim + bar_dim


def test_crt_rejects_bad_rings():
    with pytest.raises(NotSquareFreeError):
        kernel_pair_crt(Matrix.zeros(ModRing(12), 1, 1),
                        Matrix.zeros(ModRing(12), 1, 1))
    with pytest.raises(RingMismatchError):
        kernel_pair_crt(Matrix.zeros(PrimeField(5), 1, 1),
                        Matrix.zeros(PrimeField(5), 1, 1))
    with pytest.raises(RingMismatchError):
        kernel_pair_crt(Matrix.zeros(Z6, 1, 1),
                        Matrix.zeros(ModRing(10), 1, 1))


def test_generators_live_in_glued_kernel():
    a = Matrix(Z30, 1, 2, [[15, 6]])
    b = Matrix(Z30, 1, 2, [[10, 3]])
    result = kernel_pair_crt(a, b)
    members = set(admissible_set(a, b))
    for g in result.glued.generators():
        assert result.glued.contains(g) is not None
        assert g in members


@pytest.mark.parametrize("ring, family_entry, inapplicable", [
    (PrimeField(5), lambda a, b: kernel_pair_projection(a, b)[0], "crt"),
    (ModRing(30), kernel_pair_crt, "quotient"),
    (PolyRing(5), lambda a, b: kernel_pair_poly(a, b)[0], "projection"),
    (PolyRing(30), kernel_pair_poly_crt, "oracle"),
], ids=["GF(5)", "Z/30", "GF(5)[z]", "(Z/30)[z]"])
def test_kernel_of_pair_single_dispatch(ring, family_entry, inapplicable):
    for a, b in pair_instances(ring, 5, seed=241, max_rows=2, max_q1=2,
                               max_q2=2, max_degree=1):
        result = kernel_of_pair(a, b)
        assert isinstance(result, KernelPairResult)
        assert result.ker_bar == family_entry(a, b).ker_bar
        if ring.size is not None:
            assert span_elements(result.ker_bar) == set(admissible_set(a, b))
            assert kernel_of_pair(a, b, method="oracle").ker_bar == result.ker_bar
        with pytest.raises(MethodUnavailableError):
            kernel_of_pair(a, b, method=inapplicable)

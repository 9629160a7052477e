import itertools
import random

import pytest

import kerpair.crt as crt
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
    kernel_of_pair,
    kernel_pair_crt,
    kernel_pair_oracle,
    kernel_pair_poly,
    kernel_pair_poly_crt,
    kernel_pair_projection,
    random_matrix,
    reduce_matrix,
)
from kerpair.rings import split_ring
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
    assert [r.ker_bar.dim for r in result.local_results] == [1, 0, 1]
    assert result.ker_bar.size() == 2 * 1 * 5
    assert span_elements(result.ker_bar) == {(u,) for u in range(0, 30, 3)}
    assert result.ker_bar == kernel_pair_oracle(a, b)


def test_degenerate_crt_inputs():
    a = Matrix.zeros(Z6, 2, 2)
    b = Matrix.identity(Z6, 2)
    assert kernel_pair_crt(a, b).ker_bar.is_zero()
    assert kernel_pair_crt(Matrix.identity(Z6, 2), b).ker_bar.is_full()
    b0 = Matrix.zeros(Z6, 2, 2)
    res = kernel_pair_crt(Matrix(Z6, 2, 2, [[1, 2], [3, 4]]), b0)
    assert res.ker_bar.is_full()


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
            assert (result.ker_bar.contains(u) is not None) == local_ok


def test_glued_agrees_with_admissible_set():
    for a, b in pair_instances(Z6, 30, seed=211, max_rows=2, max_q1=2, max_q2=2):
        result = kernel_pair_crt(a, b)
        assert span_elements(result.ker_bar) == set(admissible_set(a, b))


def test_base_change_worked_example():
    a = Matrix(Z30, 1, 1, [[15]])
    b = Matrix(Z30, 1, 1, [[10]])
    for i in range(3):
        assert base_change_check(a, b, i) == []


def test_base_change_on_randoms():
    for ring in (Z6, Z30, PolyRing(30)):
        for a, b in pair_instances(ring, 25, seed=223, max_rows=3,
                                   max_q1=3, max_q2=3, max_degree=1):
            for i in range(len(split_ring(ring).primes)):
                assert base_change_check(a, b, i) == []


@pytest.mark.parametrize("table, entry, ring", [
    ("FIELD", kernel_pair_crt, ModRing(30)),
    ("POLY", kernel_pair_poly_crt, PolyRing(30)),
], ids=["Z/30", "(Z/30)[z]"])
def test_glued_kernel_pairs_go_through_the_backend_table(table, entry, ring, monkeypatch):
    """Both per-family entries answer each prime through crt's backend
    table, so a patched local kernel pair is what they glue."""
    backend = getattr(crt, table)
    real, calls = backend["kernel_pair"], []

    def counted(a, b):
        calls.append(a.ring)
        return real(a, b)

    monkeypatch.setitem(backend, "kernel_pair", counted)
    rng = random.Random(233)
    a = random_matrix(ring, 2, 2, rng, max_degree=1)
    b = random_matrix(ring, 2, 1, rng, max_degree=1)
    result = entry(a, b)
    assert [r.q for r in calls] == [2, 3, 5]
    assert result.primes == (2, 3, 5)


def local_dims(a, b) -> list:
    """(dim ker_pair, dim ker_f1, dim ker_bar) at each prime."""
    return [(r.ker_pair.dim, r.ker_f1.dim, r.ker_bar.dim)
            for r in kernel_pair_crt(a, b).local_results]


def test_quotient_form_z6():
    a = Matrix(Z6, 1, 1, [[3]])
    b = Matrix(Z6, 1, 1, [[2]])
    # mod 2: A=[1] onto, pair=ker[1 0] dim 1, f1 dim 0, bar dim 1
    # mod 3: A=0 B=[2], pair=ker[0 2] dim 1, f1 dim 1, bar dim 0
    assert local_dims(a, b) == [(1, 0, 1), (1, 1, 0)]
    assert kernel_of_pair(a, b).ker_bar.size() == 2
    assert span_elements(kernel_pair_crt(a, b).ker_bar) == {(0,), (3,)}


def test_quotient_form_zero_maps():
    a = Matrix.zeros(Z6, 1, 1)
    b = Matrix.zeros(Z6, 1, 1)
    assert local_dims(a, b) == [(2, 1, 1), (2, 1, 1)]
    assert kernel_of_pair(a, b).ker_bar.size() == 6


def test_ker_bar_count_matches_oracle():
    for a, b in pair_instances(Z30, 15, seed=227, max_rows=2,
                               max_q1=2, max_q2=2):
        assert kernel_of_pair(a, b).ker_bar.size() == len(admissible_set(a, b))


def test_local_exactness_dimensions():
    for a, b in pair_instances(Z30, 20, seed=229):
        for pair_dim, f1_dim, bar_dim in local_dims(a, b):
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
    for g in result.ker_bar.generators():
        assert result.ker_bar.contains(g) is not None
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


@pytest.mark.parametrize("ring, method", [
    (PrimeField(5), "projection"),
    (ModRing(30), "crt"),
    (PolyRing(5), "poly"),
    (PolyRing(30), "poly"),
], ids=["GF(5)", "Z/30", "GF(5)[z]", "(Z/30)[z]"])
def test_result_names_its_family_method(ring, method):
    """Auto and the family's own method both report that method."""
    for a, b in pair_instances(ring, 3, seed=251, max_rows=2, max_q1=2,
                               max_q2=2, max_degree=1):
        assert crt.kernel_pair(a, b)[0].method == method
        assert crt.kernel_pair(a, b, method)[0].method == method


# A = [[6, 10 z], [0, 15]] reduces to [[0, 0], [0, 1]] mod 2, [[0, z], [0, 0]]
# mod 3 and [[1, 0], [0, 0]] mod 5, with z = 1 over Z/30: A x = c is solvable
# mod 2 when 2 | c_1, mod 3 when 3 | c_2 and z | c_1, mod 5 when 5 | c_2.
# ``unsolvable`` fails mod 2 only, mod 3 only, mod 5 only.
@pytest.mark.parametrize("ring, a, solvable, unsolvable", [
    (ModRing(30), [[6, 10], [0, 15]], (4, 0), [(3, 15), (4, 5), (4, 3)]),
    (PolyRing(30), [[(6,), (0, 10)], [(), (15,)]], ((0, 4), (15, 15)),
     [((3,), (15,)), ((4,), (5,)), ((0, 4), (3,))]),
], ids=["Z/30", "(Z/30)[z]"])
def test_solve_glues_the_local_solutions(ring, a, solvable, unsolvable):
    a = Matrix(ring, 2, 2, a)
    x = crt.solve(a, solvable)
    assert x is not None and a.matvec(x) == solvable
    for c in unsolvable:
        assert crt.solve(a, c) is None

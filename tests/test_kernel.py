import itertools
import random

import pytest

from kerpair import (
    Automorphism,
    DimensionMismatchError,
    ExactSequenceWitness,
    IdentityViolatedError,
    Matrix,
    ModRing,
    NotFiniteError,
    NotSquareFreeError,
    OracleTooLargeError,
    PolyRing,
    PrimeField,
    RingMismatchError,
    Submodule,
    admissible_set,
    check_identities,
    check_witness,
    kernel_pair_field,
    kernel_pair_oracle,
    kernel_pair_preimage,
    kernel_pair_projection,
    kernel_pair_quotient,
    nullspace,
    quotient_map,
    random_invertible,
    random_matrix,
)
from kerpair.kernel import _check_pair
from kerpair.rings import split_ring
from conftest import pair_instances, span_elements

GF2, GF3, GF5 = PrimeField(2), PrimeField(3), PrimeField(5)

METHODS = ("projection", "preimage", "quotient")


def test_worked_example_gf2():
    a = Matrix(GF2, 2, 2, [[1, 0], [0, 0]])
    b = Matrix(GF2, 2, 1, [[1], [1]])
    result, witness = kernel_pair_projection(a, b)
    assert result.ker_f1.basis.columns() == [(0, 1)]
    assert result.ker_pair.dim == 1
    assert result.ker_bar.is_zero()
    assert check_witness(a, b, result, witness) == []
    # u=1 would need (1,1) in Im A = span{(1,0)}: it is not
    assert admissible_set(a, b) == [(0,)]


def test_worked_example_quotient_map():
    a = Matrix(GF2, 2, 2, [[1, 0], [0, 0]])
    b = Matrix(GF2, 2, 1, [[1], [1]])
    result, qm = kernel_pair_quotient(a, b)
    assert qm.matrix.entries == ((0, 1),)
    assert qm.rank_f1 == 1
    assert (qm.matrix @ a).is_zero()
    assert (qm.matrix @ b).entries == ((1,),)
    assert result.ker_bar.is_zero()


def test_worked_example_gf3():
    a = Matrix(GF3, 2, 1, [[1], [0]])
    b = Matrix(GF3, 2, 1, [[0], [1]])
    for method in METHODS:
        assert kernel_pair_field(a, b, method).ker_bar.is_zero()
    assert kernel_pair_oracle(a, b).is_zero()
    # oracle by hand: (0,u) in span{(1,0)} iff u = 0
    assert admissible_set(a, b) == [(0,)]


# -- degenerate-input identities --------------------------------------------


def test_zero_f1_gives_nullspace_of_b():
    b = Matrix(GF3, 2, 2, [[1, 2], [0, 0]])
    a = Matrix.zeros(GF3, 2, 2)
    for method in METHODS:
        assert kernel_pair_field(a, b, method).ker_bar == nullspace(b)


def test_onto_f1_gives_full():
    a = Matrix(GF5, 2, 3, [[1, 0, 2], [0, 1, 3]])  # rank 2 = p
    b = random_matrix(GF5, 2, 2, random.Random(5))
    for method in METHODS:
        assert kernel_pair_field(a, b, method).ker_bar.is_full()


def test_zero_f1_identity_f2_gives_zero():
    a = Matrix.zeros(GF2, 2, 2)
    b = Matrix.identity(GF2, 2)
    for method in METHODS:
        assert kernel_pair_field(a, b, method).ker_bar.is_zero()


def test_zero_f2_gives_full():
    a = Matrix(GF3, 2, 2, [[1, 2], [0, 1]])
    b = Matrix.zeros(GF3, 2, 2)
    for method in METHODS:
        assert kernel_pair_field(a, b, method).ker_bar.is_full()


def test_image_containment_gives_full():
    rng = random.Random(7)
    for _ in range(30):
        a = random_matrix(GF3, 3, 2, rng)
        x = random_matrix(GF3, 2, 2, rng)
        b = a @ x  # Im(B) inside Im(A) by construction
        for method in METHODS:
            assert kernel_pair_field(a, b, method).ker_bar.is_full()


def test_full_row_rank_quotient_has_no_rows():
    a = Matrix.identity(GF2, 2)
    qm = quotient_map(a)
    assert qm.matrix.nrows == 0 and qm.rank_f1 == 2


def test_quotient_of_zero_map_is_identity():
    a = Matrix.zeros(GF3, 2, 2)
    qm = quotient_map(a)
    assert qm.matrix == Matrix.identity(GF3, 2)


# -- agreement properties ----------------------------------------------------


def test_methods_agree_and_oracle_confirms():
    for ring in (GF2, GF3, GF5):
        for a, b in pair_instances(ring, 60, seed=101):
            results = [kernel_pair_field(a, b, m) for m in METHODS]
            first = results[0].ker_bar
            for res in results[1:]:
                assert res.ker_bar == first  # identical presentations
            if ring.size ** b.ncols <= 700:
                oracle = kernel_pair_oracle(a, b)
                assert oracle == first


def test_cardinality_identity():
    for ring in (GF2, GF3):
        for a, b in pair_instances(ring, 40, seed=113):
            res = kernel_pair_preimage(a, b)
            assert res.ker_pair.size() == res.ker_f1.size() * res.ker_bar.size()


def test_witness_invariants_on_randoms():
    for ring in (GF2, GF5):
        for a, b in pair_instances(ring, 40, seed=131):
            result, witness = kernel_pair_projection(a, b)
            assert check_witness(a, b, result, witness) == []


def test_section_maps_into_ker_pair():
    a = Matrix(GF3, 1, 1, [[1]])
    b = Matrix(GF3, 1, 2, [[1, 2]])
    result, witness = kernel_pair_projection(a, b)
    for col in witness.section.columns():
        assert a.matvec(col[:1]) == tuple(
            GF3.neg(x) for x in b.matvec(col[1:]))


def test_section_is_deterministic():
    a = Matrix(GF5, 2, 3, [[1, 0, 2], [0, 1, 3]])
    b = Matrix(GF5, 2, 2, [[1, 2], [3, 4]])
    w1 = kernel_pair_projection(a, b)[1]
    w2 = kernel_pair_projection(a, b)[1]
    assert w1.section == w2.section
    assert w1.iota == w2.iota and w1.pi2 == w2.pi2


def test_pi2_section_is_identity_on_ker_bar():
    for a, b in pair_instances(GF3, 30, seed=151):
        result, witness = kernel_pair_projection(a, b)
        proj = witness.pi2 @ witness.section
        assert proj == result.ker_bar.basis


def test_check_witness_flags_corruption():
    a = Matrix(GF3, 1, 1, [[1]])
    b = Matrix(GF3, 1, 2, [[1, 2]])
    result, witness = kernel_pair_projection(a, b)
    assert result.ker_bar.dim == 2
    bad_cols = [(1,) + col[1:] for col in witness.section.columns()]
    bad = ExactSequenceWitness(
        iota=witness.iota, pi2=witness.pi2,
        section=Matrix.from_columns(GF3, bad_cols, nrows=3))
    assert check_witness(a, b, result, bad) != []


def test_check_witness_flags_wrong_ker_bar():
    from kerpair import KernelPairResult

    a = Matrix(GF2, 2, 2, [[1, 0], [0, 0]])
    b = Matrix(GF2, 2, 1, [[1], [1]])
    result, witness = kernel_pair_projection(a, b)
    forged = KernelPairResult(ker_f1=result.ker_f1,
                              ker_pair=result.ker_pair,
                              ker_bar=Submodule.full(GF2, 1),
                              method="projection")
    assert check_witness(a, b, forged, witness) != []


# -- input validation ---------------------------------------------------------


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        kernel_pair_preimage(Matrix.zeros(GF2, 1, 1), Matrix.zeros(GF3, 1, 1))


def test_codomain_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        kernel_pair_preimage(Matrix.zeros(GF2, 1, 1), Matrix.zeros(GF2, 2, 1))


# -- oracle over modular rings -----------------------------------------------


def test_oracle_z30_worked_example():
    ring = ModRing(30)
    a = Matrix(ring, 1, 1, [[15]])
    b = Matrix(ring, 1, 1, [[10]])
    members = admissible_set(a, b)
    assert members == [(u,) for u in range(30) if u % 3 == 0]
    sub = kernel_pair_oracle(a, b)
    assert sub.size() == 10
    assert span_elements(sub) == set(members)


def test_admissible_set_non_square_free():
    # per-prime solvability lies here: 4x = 2 mod 8 has no solution even
    # though 0x = 0 mod 2 does, so the full (x,u) search is required
    ring = ModRing(8)
    a = Matrix(ring, 1, 1, [[4]])
    b = Matrix(ring, 1, 1, [[2]])
    assert admissible_set(a, b) == [(0,), (2,), (4,), (6,)]


def test_oracle_needs_square_free_presentation():
    ring = ModRing(4)
    a = Matrix(ring, 1, 1, [[2]])
    b = Matrix(ring, 1, 1, [[1]])
    assert admissible_set(a, b) == [(0,), (2,)]
    with pytest.raises(NotSquareFreeError):
        kernel_pair_oracle(a, b)


def test_oracle_guard():
    ring = PrimeField(5)
    a = Matrix.zeros(ring, 1, 9)
    b = Matrix.zeros(ring, 1, 9)
    with pytest.raises(OracleTooLargeError):
        admissible_set(a, b)  # 5^9 approaches 2e6
    ring8 = ModRing(8)
    with pytest.raises(OracleTooLargeError):
        # 8^7 u-candidates times 8^7 x-candidates blows the pair guard
        admissible_set(Matrix.zeros(ring8, 1, 7), Matrix.zeros(ring8, 1, 7))


@pytest.mark.parametrize("q2,members", [
    (1, [(0,), (1,), (1,), (2,), (3,)]),   # |members| = |span|, one repeated
    (1, [(0,), (1,)]),                     # not closed
    (4, list(itertools.product(range(5), repeat=4))[:-1]),  # 624 of 625
], ids=["repeated", "two-elements", "624-of-625"])
def test_oracle_rejects_a_set_that_is_not_a_submodule(q2, members, monkeypatch):
    import kerpair.kernel as kernel_mod

    monkeypatch.setattr(kernel_mod, "admissible_set", lambda a, b: members)
    with pytest.raises(IdentityViolatedError):
        kernel_pair_oracle(Matrix.zeros(GF5, 1, 1), Matrix.zeros(GF5, 1, q2))


def test_oracle_error_names_the_distinct_count(monkeypatch):
    import kerpair.kernel as kernel_mod

    members = [(0,), (1,), (1,), (2,), (3,)]
    monkeypatch.setattr(kernel_mod, "admissible_set", lambda a, b: members)
    with pytest.raises(IdentityViolatedError) as exc:
        kernel_pair_oracle(Matrix.zeros(GF5, 1, 1), Matrix.zeros(GF5, 1, 1))
    assert str(exc.value) == ("oracle span has 5 elements but 4 distinct of 5 "
                              "were enumerated")


def test_oracle_rejects_poly():
    ring = PolyRing(2)
    with pytest.raises(NotFiniteError):
        admissible_set(Matrix.zeros(ring, 1, 1), Matrix.zeros(ring, 1, 1))


def ref_admissible_set(a: Matrix, b: Matrix, limit: int = 10 ** 6) -> list:
    """``admissible_set`` as it was before candidates went through one
    product per prime: one reduction and one matvec per candidate and
    prime.  Kept as the reference for that rewrite."""
    _check_pair(a, b)
    ring = a.ring
    if isinstance(ring, PolyRing):
        raise NotFiniteError("cannot enumerate GF(p)[z] vectors")
    q1, q2 = a.ncols, b.ncols
    count = ring.size ** q2
    if count > limit:
        raise OracleTooLargeError(f"{count} candidates exceed the {limit} guard")

    if isinstance(ring, PrimeField) or ring.square_free:
        # A x = -B u is solvable exactly when, at every prime, the rows of
        # A's transform past its rank (the quotient map C) kill -B u, as
        # in ``solve``; C (-B) is built once per prime, not per candidate
        split = None if isinstance(ring, PrimeField) else split_ring(ring)
        parts = [(a, b)] if split is None else [
            (split.reduce_matrix(a, i), split.reduce_matrix(b, i))
            for i in range(len(split.locals))]
        checks = [quotient_map(ai).matrix @ -bi for ai, bi in parts]

        def member(u):
            us = [u] if split is None else [split.reduce(u, i) for i in range(len(checks))]
            return all(not any(c.matvec(ui)) for c, ui in zip(checks, us))
    else:
        if count * ring.size ** q1 > limit:
            raise OracleTooLargeError(
                f"{count * ring.size ** q1} (x,u) pairs exceed the {limit} guard")
        xs = [tuple(x) for x in itertools.product(range(ring.m), repeat=q1)]
        neg_b = -b

        def member(u):
            target = neg_b.matvec(u)
            return any(a.matvec(x) == target for x in xs)

    return [u for u in itertools.product(range(ring.size), repeat=q2) if member(u)]


#: ring, largest q2 for it (at most a few hundred candidates)
ORACLE_RINGS = [(GF2, 8), (GF3, 5), (GF5, 3), (PrimeField(7), 3),
                (ModRing(6), 3), (ModRing(30), 2), (ModRing(210), 1)]


def _oracle_cases(ring, q2max, rng):
    """(A, B) pairs of random, zero and low-rank shapes, with 0 rows,
    q1 = 0 and q2 = 0 among them."""
    def draw(r, c):
        return random_matrix(ring, r, c, rng)

    shapes = [(3, 2, q2max), (4, 3, max(q2max - 1, 1)), (0, 2, q2max),
              (3, 0, q2max), (3, 2, 0), (0, 0, 0)]
    for rows, q1, q2 in shapes:
        yield draw(rows, q1), draw(rows, q2)
        yield Matrix.zeros(ring, rows, q1), draw(rows, q2)
        yield draw(rows, q1), Matrix.zeros(ring, rows, q2)
        yield draw(rows, 1) @ draw(1, q1), draw(rows, 1) @ draw(1, q2)  # rank <= 1
        # Im B inside Im A, so every candidate is a member
        yield draw(rows, q1), draw(rows, q1) @ draw(q1, q2) if q1 else draw(rows, q2)


@pytest.mark.parametrize("ring, q2max", ORACLE_RINGS, ids=repr)
def test_admissible_set_matches_reference(ring, q2max, monkeypatch):
    # the same list, order included, in blocks of the default size and in
    # blocks of 7 candidates, which most candidate sets span several of
    import kerpair.kernel as kernel_mod

    rng = random.Random(211)
    for a, b in _oracle_cases(ring, q2max, rng):
        expected = ref_admissible_set(a, b)
        assert admissible_set(a, b) == expected
        with monkeypatch.context() as m:
            m.setattr(kernel_mod, "_ORACLE_BLOCK", 7)
            assert admissible_set(a, b) == expected


@pytest.mark.parametrize("ring", [GF5, ModRing(30)], ids=repr)
def test_admissible_set_makes_no_matvec(ring, monkeypatch):
    calls = []
    real = Matrix.matvec

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(Matrix, "matvec", counted)
    rng = random.Random(223)
    a, b = random_matrix(ring, 3, 2, rng), random_matrix(ring, 3, 2, rng)
    assert admissible_set(a, b)
    assert calls == []


# -- automorphism identity suite ---------------------------------------------


def test_identity_automorphisms_trivial():
    a = Matrix(GF3, 2, 2, [[1, 2], [0, 1]])
    b = Matrix(GF3, 2, 2, [[2, 0], [1, 1]])
    eye = lambda n: Automorphism(Matrix.identity(GF3, n))
    assert check_identities(a, b, eye(2), eye(2), eye(2)) == []


def test_permutation_case_matches_relabeled_oracle():
    # Psi2 swaps u-coordinates; relabeling the enumeration directly must
    # give the same admissible set as ker(A | B Psi2)
    a = Matrix(GF2, 2, 2, [[1, 0], [0, 0]])
    b = Matrix(GF2, 2, 2, [[1, 0], [1, 1]])
    swap = Matrix(GF2, 2, 2, [[0, 1], [1, 0]])
    psi2 = Automorphism(swap)
    assert check_identities(a, b, Automorphism(Matrix.identity(GF2, 2)),
                            psi2, Automorphism(Matrix.identity(GF2, 2))) == []
    twisted = set(admissible_set(a, b @ swap))
    relabeled = {(u[1], u[0]) for u in admissible_set(a, b)}
    assert twisted == relabeled


def test_identities_on_random_invertible_triples():
    rng = random.Random(163)
    for _ in range(60):
        p, q1, q2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(GF5, p, q1, rng)
        b = random_matrix(GF5, p, q2, rng)
        psi1 = Automorphism(random_invertible(GF5, q1, rng))
        psi2 = Automorphism(random_invertible(GF5, q2, rng))
        psi = Automorphism(random_invertible(GF5, p, rng))
        assert check_identities(a, b, psi1, psi2, psi) == []


def test_identities_dimension_check():
    a = Matrix.zeros(GF2, 2, 2)
    b = Matrix.zeros(GF2, 2, 1)
    eye2 = Automorphism(Matrix.identity(GF2, 2))
    eye1 = Automorphism(Matrix.identity(GF2, 1))
    with pytest.raises(DimensionMismatchError):
        check_identities(a, b, eye1, eye1, eye2)  # psi1 must be 2x2


def test_automorphism_rejects_singular():
    from kerpair import NotInvertible

    with pytest.raises(NotInvertible):
        Automorphism(Matrix.zeros(GF2, 2, 2))
    with pytest.raises(DimensionMismatchError):
        Automorphism(Matrix.zeros(GF2, 1, 2))


def test_automorphism_inverse_cached():
    rng = random.Random(173)
    m = random_invertible(GF5, 3, rng)
    psi = Automorphism(m)
    assert psi.inverse @ m == Matrix.identity(GF5, 3)
    assert m @ psi.inverse == Matrix.identity(GF5, 3)

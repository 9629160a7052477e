import itertools
import random

import pytest

from kerpair import (
    AmbientMismatchError,
    Matrix,
    ModRing,
    NotAFieldError,
    NotSquareFreeError,
    PrimeField,
    Submodule,
    image,
    nullspace,
    random_invertible,
    random_matrix,
    rref,
    solve,
)
from conftest import span_elements

GF2, GF3, GF5 = PrimeField(2), PrimeField(3), PrimeField(5)


def brute_kernel(a):
    ring = a.ring
    zero = (ring.zero,) * a.nrows
    return {v for v in itertools.product(ring.elements(), repeat=a.ncols)
            if a.matvec(v) == zero}


def test_rref_identical_rows():
    res = rref(Matrix(GF2, 2, 2, [[1, 1], [1, 1]]))
    assert res.rank == 1 and res.pivot_cols == (0,)


def test_rref_identity():
    eye = Matrix.identity(GF5, 3)
    res = rref(eye)
    assert res.rank == 3 and res.matrix == eye


def test_rref_rank_drop_mod_three():
    # column 2 is twice column 1 over GF(3), so the rank is 1; confirmed
    # by exhausting column combinations
    a = Matrix(GF3, 2, 2, [[1, 2], [2, 1]])
    assert rref(a).rank == 1
    combos = {tuple(GF3.add(GF3.mul(c1, a.entries[i][0]), GF3.mul(c2, a.entries[i][1]))
                    for i in range(2))
              for c1 in range(3) for c2 in range(3)}
    assert len(combos) == 3  # a rank-2 map would reach all 9 vectors


def test_rref_transform_reconstructs():
    rng = random.Random(21)
    for _ in range(100):
        a = random_matrix(GF5, rng.randint(1, 4), rng.randint(1, 4), rng)
        res = rref(a)
        assert res.transform @ a == res.matrix
        assert rref(res.transform).rank == a.nrows  # invertible


def test_rref_requires_field():
    with pytest.raises(NotAFieldError):
        rref(Matrix(ModRing(6), 1, 1, [[2]]))


def test_nullspace_fixtures():
    assert nullspace(Matrix.zeros(GF2, 2, 2)).dim == 2
    assert nullspace(Matrix.identity(GF2, 2)).dim == 0
    sub = nullspace(Matrix(GF3, 1, 3, [[1, 2, 0]]))
    assert sub.dim == 2
    assert sub.basis.columns() == [(1, 1, 0), (0, 0, 1)]


def test_nullspace_against_enumeration():
    a = Matrix(GF3, 1, 3, [[1, 2, 0]])
    assert span_elements(nullspace(a)) == brute_kernel(a)


def test_rank_nullity():
    rng = random.Random(31)
    for ring in (GF2, GF3, GF5):
        for _ in range(500):
            a = random_matrix(ring, rng.randint(0, 4), rng.randint(0, 4), rng)
            assert nullspace(a).dim + rref(a).rank == a.ncols


def test_solve_fixtures():
    eye = Matrix.identity(GF5, 2)
    assert solve(eye, (3, 1)) == (3, 1)
    assert solve(Matrix(GF2, 2, 2, [[1, 0], [0, 0]]), (0, 1)) is None
    assert solve(Matrix(GF5, 1, 1, [[2]]), (3,)) == (4,)


def test_solve_iff_in_image():
    rng = random.Random(41)
    for _ in range(300):
        a = random_matrix(GF3, rng.randint(1, 3), rng.randint(1, 3), rng)
        b = tuple(rng.randrange(3) for _ in range(a.nrows))
        x = solve(a, b)
        assert (x is not None) == (image(a).contains(b) is not None)
        if x is not None:
            assert a.matvec(x) == b


def test_image_fixtures():
    assert image(Matrix.zeros(GF2, 2, 2)).dim == 0
    assert image(Matrix.identity(GF2, 2)).is_full()
    sub = image(Matrix(GF2, 2, 2, [[1, 1], [1, 1]]))
    assert sub.dim == 1 and sub.basis.columns() == [(1, 1)]


def test_columns_belong_to_image():
    rng = random.Random(51)
    for _ in range(100):
        a = random_matrix(GF5, rng.randint(1, 4), rng.randint(1, 4), rng)
        img = image(a)
        for c in a.columns():
            assert img.contains(c) is not None


def test_echelon_shape():
    # pivots are 1, pivot rows strictly increase, pivot rows are zero
    # outside their own column
    rng = random.Random(61)
    for _ in range(200):
        vecs = [tuple(rng.randrange(5) for _ in range(4))
                for _ in range(rng.randint(0, 4))]
        sub = Submodule.from_columns(GF5, 4, vecs)
        assert list(sub.pivot_rows) == sorted(set(sub.pivot_rows))
        for j, r in enumerate(sub.pivot_rows):
            assert sub.basis.entries[r][j] == 1
            assert all(sub.basis.entries[r][k] == 0
                       for k in range(sub.dim) if k != j)


def test_submodule_equal_fixtures():
    s = Submodule.from_columns(GF3, 2, [(1, 1)])
    assert s == s
    assert Submodule.zero(GF3, 2) != Submodule.full(GF3, 2)
    t = Submodule.from_columns(GF3, 2, [(2, 2)])
    assert s == t
    assert span_elements(s) == span_elements(t)


def test_submodule_equal_is_equivalence():
    rng = random.Random(71)
    subs = [Submodule.from_columns(GF3, 3,
                                   [tuple(rng.randrange(3) for _ in range(3))
                                    for _ in range(rng.randint(0, 3))])
            for _ in range(30)]
    for s in subs:
        assert s == s
    for s, t in itertools.product(subs, repeat=2):
        assert (s == t) == (t == s)
        # transitivity through set semantics
        if s == t:
            assert span_elements(s) == span_elements(t)


def test_submodule_member_fixtures():
    s = Submodule.from_columns(GF5, 2, [(0, 1)])
    assert s.contains((0, 0)) == (0,)
    assert s.contains((1, 0)) is None
    # (2,1) is not a multiple of (1,2): the five multiples leave 1 unreached
    t = Submodule.from_columns(GF5, 2, [(1, 2)])
    assert {tuple(GF5.mul(c, x) for x in (1, 2)) for c in range(5)} == \
        {(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)}
    assert t.contains((2, 1)) is None
    assert t.contains((3, 1)) == (3,)


def test_member_coordinates_reconstruct():
    """A member's coordinates rebuild it; over GF(p) the reduced echelon
    pivots are 1, so they are its entries at the pivot rows.  A vector
    outside the span is rejected."""
    rng = random.Random(81)
    for ring, _ in itertools.product((GF2, GF3, GF5, PrimeField(101)), range(150)):
        p = ring.p
        vecs = [tuple(rng.randrange(p) for _ in range(3))
                for _ in range(rng.randint(1, 3))]
        sub = Submodule.from_columns(ring, 3, vecs)
        coeffs = [rng.randrange(p) for _ in sub.basis.columns()]
        v = tuple(ring.normalize(sum(c * col[i] for c, col in
                                     zip(coeffs, sub.basis.columns())))
                  for i in range(3))
        coords = sub.contains(v)
        assert coords == tuple(v[r] for r in sub.pivot_rows)
        rebuilt = [0, 0, 0]
        for c, col in zip(coords, sub.basis.columns()):
            for i, x in enumerate(col):
                rebuilt[i] = ring.add(rebuilt[i], ring.mul(c, x))
        assert tuple(rebuilt) == v
        w = tuple(rng.randrange(p) for _ in range(3))
        inside = Submodule.from_columns(ring, 3, vecs + [w]).dim == sub.dim
        assert sub.contains(w) == (tuple(w[r] for r in sub.pivot_rows) if inside else None)


def test_ambient_mismatch():
    s = Submodule.zero(GF3, 2)
    t = Submodule.zero(GF3, 3)
    assert s != t
    with pytest.raises(AmbientMismatchError):
        s.contains((0, 0, 0))


def test_components_submodule_over_zmod():
    ring = ModRing(30)
    sub = Submodule.from_columns(ring, 1, [(3,)])
    # multiples of 3: full mod 2, zero mod 3... 3 is a unit mod 2 and 5
    assert sub.size() == 10
    assert sub.contains((6,)) is not None
    assert sub.contains((1,)) is None
    members = span_elements(sub)
    assert members == {(u,) for u in range(0, 30, 3)}
    for g in sub.generators():
        assert sub.contains(g) is not None


def test_components_requires_square_free():
    with pytest.raises(NotSquareFreeError):
        Submodule.from_columns(ModRing(12), 1, [(2,)])


def test_zero_dimensional_edges():
    assert nullspace(Matrix.zeros(GF2, 0, 3)).is_full()
    assert nullspace(Matrix.zeros(GF2, 3, 0)).dim == 0
    assert rref(Matrix.zeros(GF2, 0, 0)).rank == 0


def test_random_invertible_is_invertible():
    rng = random.Random(91)
    for p in (2, 3, 101, 2 ** 61 - 1):
        for n in range(9):
            for _ in range(6):
                m = random_invertible(PrimeField(p), n, rng)
                assert (m.nrows, m.ncols) == (n, n)
                assert rref(m).rank == n


@pytest.mark.parametrize("ring, order", [(GF2, 6), (GF3, 48)], ids=repr)
def test_random_invertible_reaches_all_of_gl2(ring, order):
    # |GL_2(GF(p))| = (p^2 - 1)(p^2 - p); P L U draws reach every element
    rng = random.Random(97)
    assert len({random_invertible(ring, 2, rng) for _ in range(2000)}) == order


def test_random_invertible_runs_no_elimination(monkeypatch):
    from kerpair import linalg

    calls = []
    real = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    rng = random.Random(99)
    for n in range(9):
        random_invertible(GF5, n, rng)
    assert calls == []

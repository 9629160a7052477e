import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerpair import (
    DimensionMismatchError,
    Matrix,
    ModRing,
    PolyRing,
    PrimeField,
    RingMismatchError,
    hstack,
    random_matrix,
    vstack,
)
from kerpair.matrix import _slot_bytes

GF5 = PrimeField(5)


def test_construction_normalizes():
    m = Matrix(GF5, 2, 2, [[7, -1], [10, 3]])
    assert m.entries == ((2, 4), (0, 3))


def test_shape_validation():
    with pytest.raises(DimensionMismatchError):
        Matrix(GF5, 2, 2, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatchError):
        Matrix(GF5, 3, 1, [[1], [2]])


def test_from_columns_checks_column_lengths():
    with pytest.raises(DimensionMismatchError, match="column 1 has length 3, not 2"):
        Matrix.from_columns(GF5, [(1, 2), (1, 2, 3)], nrows=2)
    with pytest.raises(DimensionMismatchError, match="column 0 has length 1, not 2"):
        Matrix.from_columns(GF5, [(1,)], nrows=2)
    with pytest.raises(DimensionMismatchError, match="column 1 has length 1, not 2"):
        Matrix.from_columns(GF5, [(1, 2), (3,)])  # nrows read off column 0
    assert Matrix.from_columns(GF5, [(1, 2), (3, 4)]).entries == ((1, 3), (2, 4))
    assert Matrix.from_columns(GF5, [], nrows=2).entries == ((), ())


def test_ring_mismatch():
    a = Matrix(GF5, 1, 1, [[1]])
    b = Matrix(PrimeField(7), 1, 1, [[1]])
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a @ b
    with pytest.raises(RingMismatchError):
        hstack(a, b)


def test_identity_and_zeros():
    eye = Matrix.identity(GF5, 3)
    z = Matrix.zeros(GF5, 3, 3)
    assert eye @ eye == eye
    assert (z @ eye).is_zero()
    assert eye.transpose() == eye


def test_matmul_associativity():
    rng = random.Random(11)
    for _ in range(30):
        a = random_matrix(GF5, 3, 2, rng)
        b = random_matrix(GF5, 2, 4, rng)
        c = random_matrix(GF5, 4, 2, rng)
        assert (a @ b) @ c == a @ (b @ c)


def test_matvec_matches_matmul():
    rng = random.Random(12)
    for _ in range(30):
        a = random_matrix(GF5, 3, 2, rng)
        v = tuple(rng.randrange(5) for _ in range(2))
        col = Matrix.from_columns(GF5, [v], nrows=2)
        assert (a @ col).column(0) == a.matvec(v)


def test_transpose_involution():
    rng = random.Random(13)
    a = random_matrix(GF5, 3, 4, rng)
    assert a.transpose().transpose() == a
    assert a.transpose().row(1) == a.column(1)


def test_stacking():
    a = Matrix(GF5, 2, 1, [[1], [2]])
    b = Matrix(GF5, 2, 2, [[3, 4], [0, 1]])
    h = hstack(a, b)
    assert h.nrows == 2 and h.ncols == 3
    assert h.column(0) == (1, 2) and h.column(2) == (4, 1)
    v = vstack(a, Matrix(GF5, 1, 1, [[4]]))
    assert v.column(0) == (1, 2, 4)
    with pytest.raises(DimensionMismatchError):
        vstack(a, b)


def test_scale_and_negate():
    a = Matrix(GF5, 1, 2, [[2, 3]])
    assert a.scale(2).entries == ((4, 1),)
    assert (-a).entries == ((3, 2),)
    assert (a - a).is_zero()


def test_poly_matrix_entries():
    ring = PolyRing(3)
    a = Matrix(ring, 1, 2, [[(0, 1), (2,)]])
    v = ((1,), (0, 1))
    # z*1 + 2*z = 3z = 0 over GF(3)
    assert a.matvec(v) == ((),)


def test_zero_width_matrices():
    empty = Matrix.zeros(GF5, 2, 0)
    assert hstack(empty, Matrix.identity(GF5, 2)) == Matrix.identity(GF5, 2)
    assert empty.columns() == []


def test_hashable():
    a = Matrix(GF5, 1, 1, [[2]])
    b = Matrix(GF5, 1, 1, [[2]])
    assert len({a, b}) == 1
    assert Matrix(ModRing(6), 1, 1, [[2]]) != a


# -- products against the ring-method reference -----------------------------

# ``__matmul__``, ``matvec`` and the trajectory step ``_affine`` all run
# on ``matrix._combination``: over GF(p) and Z/m it sums big-int multiples
# of packed rows or columns and reduces once per output slot.  The
# reference is the ring-method loop it replaced, kept here unchanged:
# results must be equal exactly.

def ref_matmul(a, b):
    ring = a.ring
    out = []
    for i in range(a.nrows):
        orow = []
        for j in range(b.ncols):
            acc = ring.zero
            for k in range(a.ncols):
                acc = ring.add(acc, ring.mul(a.entries[i][k], b.entries[k][j]))
            orow.append(acc)
        out.append(orow)
    return Matrix(ring, a.nrows, b.ncols, out)


def ref_matvec(a, v):
    ring = a.ring
    out = []
    for row in a.entries:
        acc = ring.zero
        for x, y in zip(row, v):
            acc = ring.add(acc, ring.mul(x, y))
        out.append(acc)
    return tuple(out)


PRODUCT_RINGS = (PrimeField(2), PrimeField(101), PrimeField(2**31 - 1),
                 PrimeField(2**61 - 1), ModRing(30), ModRing(12), ModRing(2**62))


@st.composite
def products(draw):
    """(A, B, C, v, u) over one ring, (Z/30)[z] included: A is r x k, B is
    k x c, C is r x c, v a length-k vector whose entries (coefficients,
    over (Z/30)[z]) may lie outside [0, q), negatives included, and u a
    canonical length-c vector; each of r, k and c may be 0."""
    ring = draw(st.sampled_from(PRODUCT_RINGS + (PolyRing(30),)))
    q = ring.q
    entry = st.one_of(st.integers(0, q - 1), st.sampled_from((0, 1, q - 1)))
    raw = st.one_of(entry, st.integers(-3 * q, -1), st.integers(q, 3 * q))
    if isinstance(ring, PolyRing):  # trailing zeros and all
        entry, raw = (st.lists(s, max_size=3).map(tuple) for s in (entry, raw))
    r, k, c = (draw(st.integers(0, 7)) for _ in range(3))

    def block(nrows, ncols):
        return Matrix(ring, nrows, ncols, draw(st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)))

    v = tuple(draw(st.lists(raw, min_size=k, max_size=k)))
    u = ring.normalize_all(draw(st.lists(entry, min_size=c, max_size=c)))
    return block(r, k), block(k, c), block(r, c), v, u


@settings(max_examples=400, deadline=None)
@given(products())
def test_products_match_reference(instance):
    a, b, c, v, u = instance
    product = a @ b
    assert (product.nrows, product.ncols) == (a.nrows, b.ncols)
    assert product == ref_matmul(a, b)
    assert a.matvec(v) == ref_matvec(a, v)
    x = a.ring.normalize_all(v)
    assert a._affine(c)(x, u) == ref_matvec(hstack(a, c), x + u)


@pytest.mark.parametrize("ring", PRODUCT_RINGS + (PolyRing(5), PolyRing(30)), ids=repr)
@pytest.mark.parametrize("r, k, c", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)])
def test_products_with_an_empty_dimension(ring, r, k, c):
    a, b = Matrix.zeros(ring, r, k), Matrix.zeros(ring, k, c)
    assert a @ b == Matrix.zeros(ring, r, c) == ref_matmul(a, b)
    assert a.matvec((ring.one,) * k) == (ring.zero,) * r
    step = a._affine(Matrix.zeros(ring, r, c))
    assert step((ring.one,) * k, (ring.one,) * c) == (ring.zero,) * r


# -- packed products at slot-width boundaries --------------------------------

# A product with inner dimension k packs into _slot_bytes(q, k)-byte slots:
# room for the sum of k products of entries below q before one reduction.


def _width_boundaries(q, limit=300):
    """Inner dimensions k <= limit at which the slot of Z/q widens."""
    return [k for k in range(1, limit) if _slot_bytes(q, k) > _slot_bytes(q, k - 1)]


@pytest.mark.parametrize("ring", [PrimeField(2), PrimeField(7), PrimeField(101),
                                  PrimeField(2**16 + 1), ModRing(30),
                                  PrimeField(2**31 - 1), ModRing(2**40)], ids=repr)
def test_products_across_slot_widths(ring):
    rng = random.Random(71)
    q = ring.size
    boundaries = _width_boundaries(q)
    assert boundaries
    for k in sorted({j for b in boundaries[:3] for j in (b - 1, b, b + 1)}):
        # all entries q - 1: every slot reaches the largest sum its width allows
        top = (Matrix(ring, 2, k, [[q - 1] * k] * 2), Matrix(ring, k, 3, [[q - 1] * 3] * k))
        for a, b in (top, (random_matrix(ring, 3, k, rng), random_matrix(ring, k, 2, rng))):
            assert a @ b == ref_matmul(a, b), k
            v = b.column(0)
            assert a.matvec(v) == ref_matvec(a, v), k


@pytest.mark.parametrize("ring", [ModRing(2**62), PrimeField(2**61 - 1)], ids=repr)
@pytest.mark.parametrize("k", [1, 2, 9, 17, 40])
def test_products_with_slots_wider_than_8_bytes(ring, k):
    rng = random.Random(73 + k)
    q = ring.size
    assert _slot_bytes(q, k) > 8
    a, b = random_matrix(ring, 4, k, rng), random_matrix(ring, k, 3, rng)
    top = Matrix(ring, 1, k, [[q - 1] * k])
    for x, y in ((a, b), (top, Matrix(ring, k, 2, [[q - 1] * 2] * k))):
        assert x @ y == ref_matmul(x, y)
        v = tuple(rng.randrange(q) for _ in range(k))
        assert x.matvec(v) == ref_matvec(x, v)


@pytest.mark.parametrize("ring", [PrimeField(2), PrimeField(101), ModRing(30),
                                  ModRing(2**62)], ids=repr)
def test_matvec_reuses_its_packed_columns(ring):
    """The second matvec on one matrix runs on the columns the first one
    packed; its vector has entries below 0 and at or above q."""
    rng = random.Random(79)
    q = ring.size
    a = random_matrix(ring, 6, 5, rng)
    fresh = Matrix(ring, 6, 5, a.entries)
    first = tuple(rng.randrange(q) for _ in range(5))
    second = (-1, q, -q - 2, 3 * q + 1, q - 1)
    assert a.matvec(first) == ref_matvec(a, first)
    assert a.matvec(second) == ref_matvec(a, second)
    assert a.matvec(second) == fresh.matvec(tuple(x % q for x in second))
    # the packed columns are no part of the value
    assert a == fresh and hash(a) == hash(fresh)

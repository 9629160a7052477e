"""The field elimination kernel against reference Gauss-Jordan eliminations.

``rref``, ``nullspace``, ``solve``, ``solve_pair`` and
``Submodule.from_columns`` all run on one private elimination,
``linalg._eliminate``, over packed rows.  Two references are kept here
unchanged: ``ref_rref``, the ring-method elimination those functions
replaced, and ``ref_eliminate``, the elimination on lists of ints with
inline ``% p`` (XOR on bit-packed rows over GF(2)) that the packed rows
replaced.  Results must be equal exactly, transform and witnesses
included.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerpair.linalg as linalg
from kerpair import (
    DimensionMismatchError,
    Matrix,
    PrimeField,
    Submodule,
    nullspace,
    rref,
    solve,
)
from kerpair.crt import kernel_pair
from kerpair.kernel import Automorphism, check_identities
from kerpair.linalg import random_invertible, solve_pair

PRIMES = (2, 3, 101, 2**31 - 1)
#: slots of 1 to 17 bytes; entries of 2**16 + 1 need 3 bytes; the largest
#: prime below 2**62 is 2**62 - 57
ELIMINATION_PRIMES = (2, 3, 5, 101, 2**16 + 1, 2**31 - 1, 2**61 - 1, 2**62 - 57)


# -- reference: elimination on lists of ints ---------------------------------


def ref_eliminate(rows, p, ncols):
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    pivots = []
    if p == 2 and width:  # a row of width 0 has no bits to pack
        packed = [int("".join(map(str, row)), 2) for row in rows]
        for c in range(ncols):
            if len(pivots) == nrows:
                break
            r = len(pivots)
            bit = 1 << (width - 1 - c)
            pivot = next((i for i in range(r, nrows) if packed[i] & bit), None)
            if pivot is None:
                continue
            packed[r], packed[pivot] = packed[pivot], packed[r]
            top = packed[r]
            for i in range(nrows):
                if i != r and packed[i] & bit:
                    packed[i] ^= top
            pivots.append(c)
        form = f"0{width}b"
        return [list(map(int, format(v, form))) for v in packed], pivots
    for c in range(ncols):
        if len(pivots) == nrows:
            break
        r = len(pivots)
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # the pivot row is zero left of c, so row operations start at c
        top = rows[r]
        if top[c] != 1:
            inv = pow(top[c], -1, p)
            top[c:] = [inv * x % p for x in top[c:]]
        tail = top[c:]
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if f and i != r:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
    return rows, pivots


def assert_eliminates_like_reference(rows, p, ncols):
    got_rows, got_pivots = linalg._eliminate([list(r) for r in rows], p, ncols)
    ref_rows, ref_pivots = ref_eliminate([list(r) for r in rows], p, ncols)
    assert ([list(r) for r in got_rows], list(got_pivots)) == (ref_rows, ref_pivots)
    return ref_pivots


# -- reference: Gauss-Jordan through ring methods ---------------------------


def ref_rref(a):
    ring = a.ring
    rows = [list(r) for r in a.entries]
    trans = [list(r) for r in Matrix.identity(ring, a.nrows).entries]
    pivots = []
    r = 0
    for c in range(a.ncols):
        pivot = next((i for i in range(r, a.nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        trans[r], trans[pivot] = trans[pivot], trans[r]
        inv = ring.inv(rows[r][c])
        rows[r] = [ring.mul(inv, x) for x in rows[r]]
        trans[r] = [ring.mul(inv, x) for x in trans[r]]
        for i in range(a.nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[r])]
                trans[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(trans[i], trans[r])]
        pivots.append(c)
        r += 1
        if r == a.nrows:
            break
    return (Matrix(ring, a.nrows, a.ncols, rows), r, tuple(pivots),
            Matrix(ring, a.nrows, a.nrows, trans))


def ref_canonical(ring, ambient, vectors):
    """(basis matrix, pivot rows) of the span, via ref_rref of the rows."""
    if not vectors:
        return Matrix.zeros(ring, ambient, 0), ()
    m, rank, pivots, _ = ref_rref(Matrix.from_rows(ring, vectors))
    cols = [m.row(i) for i in range(rank)]
    basis = Matrix.from_columns(ring, cols, nrows=ambient) if cols else \
        Matrix.zeros(ring, ambient, 0)
    return basis, pivots


def ref_nullspace(a):
    ring = a.ring
    m, _, pivots, _ = ref_rref(a)
    vectors = []
    for f in (c for c in range(a.ncols) if c not in pivots):
        v = [ring.zero] * a.ncols
        v[f] = ring.one
        for i, pc in enumerate(pivots):
            v[pc] = ring.neg(m.entries[i][f])
        vectors.append(tuple(v))
    return ref_canonical(ring, a.ncols, vectors)


def ref_solve(a, b):
    ring = a.ring
    _, rank, pivots, trans = ref_rref(a)
    tb = trans.matvec(tuple(ring.normalize(x) for x in b))
    if any(tb[i] != ring.zero for i in range(rank, a.nrows)):
        return None
    x = [ring.zero] * a.ncols
    for i, pc in enumerate(pivots):
        x[pc] = tb[i]
    return tuple(x)


# -- instances --------------------------------------------------------------


@st.composite
def matrices(draw, p=None, nrows=None):
    """Matrices up to 12x12 over GF(p): random, rank-deficient (L R with
    a small inner dimension) or all-zero; 0 rows and 0 columns included."""
    if p is None:
        p = draw(st.sampled_from(PRIMES))
    if nrows is None:
        nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("random", "rank-deficient", "zero")))
    entry = st.integers(0, p - 1)

    def block(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if kind == "zero":
        rows = [[0] * ncols for _ in range(nrows)]
    elif kind == "random":
        rows = block(nrows, ncols)
    else:
        inner = draw(st.integers(0, 3))
        left, right = block(nrows, inner), block(inner, ncols)
        rows = [[sum(x * y for x, y in zip(lrow, rcol)) % p for rcol in zip(*right)]
                if inner else [0] * ncols for lrow in left]
    return Matrix(PrimeField(p), nrows, ncols, rows)


@st.composite
def systems(draw):
    """(A, B, us): A and B share their rows; us are up to four vectors for B."""
    a = draw(matrices())
    p = a.ring.p
    b = draw(matrices(p=p, nrows=a.nrows))
    us = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=b.ncols,
                                max_size=b.ncols).map(tuple), max_size=4))
    return a, b, us


# -- exact agreement --------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_reference(a):
    res = rref(a)
    assert (res.matrix, res.rank, res.pivot_cols, res.transform) == ref_rref(a)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_and_image_match_reference(a):
    sub = nullspace(a)
    assert (sub.basis, sub.pivot_rows) == ref_nullspace(a)
    img = Submodule.from_columns(a.ring, a.nrows, a.columns())
    assert (img.basis, img.pivot_rows) == ref_canonical(a.ring, a.nrows, a.columns())


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_solve_matches_reference(system, data):
    a, b, us = system
    p = a.ring.p
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=a.ncols, max_size=a.ncols))
    for rhs in (a.matvec(tuple(v)), b.matvec(us[0]) if us else (0,) * a.nrows):
        assert solve(a, rhs) == ref_solve(a, rhs)
    assert solve_pair(a, b, us) == [ref_solve(a, (-b).matvec(u)) for u in us]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("ncols", [0, 1, 5])
def test_zero_rows(p, ncols):
    a = Matrix(PrimeField(p), 0, ncols, [])
    res = rref(a)
    assert (res.rank, res.pivot_cols, res.transform.nrows) == (0, (), 0)
    assert nullspace(a) == Submodule.full(a.ring, ncols)
    assert solve(a, ()) == (0,) * ncols
    b = Matrix(PrimeField(p), 0, 2, [])
    assert solve_pair(a, b, [(1, 0), (0, 1)]) == [(0,) * ncols] * 2


@pytest.mark.parametrize("u", [(1,), (1, 0, 0)])
def test_solve_pair_rejects_a_wrong_length_input(u):
    ring = PrimeField(5)
    a, b = Matrix.identity(ring, 2), Matrix.identity(ring, 2)
    with pytest.raises(DimensionMismatchError):
        solve_pair(a, b, [(1, 0), u])


@pytest.mark.parametrize("p", PRIMES)
def test_zero_columns(p):
    ring = PrimeField(p)
    a = Matrix(ring, 3, 0, [[], [], []])
    res = rref(a)
    assert (res.rank, res.transform) == (0, Matrix.identity(ring, 3))
    assert nullspace(a).basis.ncols == 0
    assert solve(a, (0, 0, 0)) == ()
    assert solve(a, (0, 1, 0)) is None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ELIMINATION_PRIMES), st.data())
def test_eliminate_matches_reference(p, data):
    """Up to 12 rows and 14 columns, with pivots sought in a drawn prefix
    of the columns, the rest trailing transform or right-hand-side
    columns; random, rank-deficient or all-zero, 0 rows and 0 columns
    included.  Entries near p - 1 make rows accumulate fastest."""
    a = data.draw(matrices(p=p))
    extra = data.draw(st.integers(0, 2))
    ncols = data.draw(st.integers(0, a.ncols))
    entry = st.one_of(st.integers(0, p - 1), st.integers(max(0, p - 3), p - 1))
    rows = [list(r) + data.draw(st.lists(entry, min_size=extra, max_size=extra))
            for r in a.entries]
    assert_eliminates_like_reference(rows, p, ncols)


def _slot_boundaries(p):
    """Each k <= 260 at which (p - 1) + k (p - 1)^2, the largest value a
    slot holds after k row operations, needs one byte more than after
    k - 1."""
    def needed(k):
        return -(-((p - 1) + k * (p - 1) ** 2).bit_length() // 8)

    return [k for k in range(1, 261) if needed(k) > needed(k - 1)]


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_eliminate_across_a_slot_width_boundary(p, data):
    """Rank k at each slot-width boundary of p.  In the first matrix k
    unit rows, each with p - 1 in the last column, clear a row of ones:
    its last entry grows to (p - 1) + k (p - 1)^2 before it is reduced,
    the bound a slot must hold, which overflows the narrower slot.  The
    second is dense and random with trailing columns, 8 rows more than k
    so that its rank reaches k; it stays under 80 rows except over GF(2),
    where the reference XORs packed rows."""
    for k in _slot_boundaries(p):
        order = data.draw(st.permutations(range(k + 1)))
        rows = [[int(i == j) for j in range(k)] + [p - 1] for i in range(k)]
        rows.append([1] * k + [p - 1])
        assert len(assert_eliminates_like_reference([rows[i] for i in order], p, k)) == k
        if p > 2 and k > 70:
            continue
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        extra = data.draw(st.integers(0, 3))
        n = k + 8
        rows = [[rng.randrange(p) for _ in range(n + extra)] for _ in range(n)]
        assert len(assert_eliminates_like_reference(rows, p, n)) >= k


@pytest.mark.parametrize("p", PRIMES)
def test_against_sympy(p):
    """Rank and nullspace of one fixed 40x60 matrix of rank <= 25 agree with
    sympy's DomainMatrix over GF(p)."""
    sympy_matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF

    rng = random.Random(p)
    left = [[rng.randrange(p) for _ in range(25)] for _ in range(40)]
    right = [[rng.randrange(p) for _ in range(60)] for _ in range(25)]
    rows = [[sum(x * y for x, y in zip(lrow, rcol)) % p for rcol in zip(*right)]
            for lrow in left]
    a = Matrix(PrimeField(p), 40, 60, rows)
    field = GF(p)
    dm = sympy_matrices.DomainMatrix([[field(x) for x in r] for r in rows], (40, 60), field)
    expected, _ = dm.nullspace().rref()
    expected_cols = [tuple(int(x) % p for x in r) for r in expected.to_list()]
    assert rref(a).rank == dm.rank() == 60 - len(expected_cols)
    assert nullspace(a).basis.columns() == expected_cols


# -- eliminations per kernel pair -------------------------------------------


def _pair(p, inside, rng):
    """A (24x12, rank 12) and B (24x16) over GF(p); with ``inside`` every
    column of B lies in Im A, so ker(A|B) is all of GF(p)^16."""
    ring = PrimeField(p)
    a = Matrix(ring, 24, 12, [[int(i == j) if i < 12 else rng.randrange(p)
                               for j in range(12)] for i in range(24)])
    if inside:
        x = Matrix(ring, 12, 16, [[rng.randrange(p) for _ in range(16)] for _ in range(12)])
        return a, a @ x
    return a, Matrix(ring, 24, 16, [[rng.randrange(p) for _ in range(16)] for _ in range(24)])


@pytest.mark.parametrize("p", [2, 101])
def test_eliminations_per_kernel_pair_constant(p, monkeypatch):
    """A field kernel pair runs a fixed number of eliminations, whatever
    dim ker_bar is; the section is one batched solve, not one per column."""
    calls = []
    real = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    rng = random.Random(11)
    counts, dims = [], []
    for inside in (False, True):
        calls.clear()
        result, witness = kernel_pair(*_pair(p, inside, rng))
        counts.append(len(calls))
        dims.append(result.ker_bar.dim)
        assert witness.section.ncols == result.ker_bar.dim
    assert dims[1] - dims[0] >= 10
    assert counts[0] == counts[1] <= 6


def test_eliminations_per_identity_check(monkeypatch):
    """check_identities computes five ker_bar presentations, each one
    image and one nullspace; ker_f1 and the joint kernel are not formed."""
    rng = random.Random(5)
    ring = PrimeField(7)
    a = Matrix(ring, 5, 3, [[rng.randrange(7) for _ in range(3)] for _ in range(5)])
    b = Matrix(ring, 5, 4, [[rng.randrange(7) for _ in range(4)] for _ in range(5)])
    psis = [Automorphism(random_invertible(ring, n, rng)) for n in (3, 4, 5)]
    calls = []
    real = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert check_identities(a, b, *psis) == []
    assert len(calls) <= 17


def test_kernel_pair_200x300_is_fast():
    """A GF(101) 200x(100+200) kernel pair, A of rank 50, best of three
    under 0.6 s (about 0.2 s with packed rows, 1.6 s with the list
    elimination of ``ref_eliminate``)."""
    ring, rng = PrimeField(101), random.Random(7)

    def draw(nrows, ncols):
        return Matrix(ring, nrows, ncols,
                      [[rng.randrange(101) for _ in range(ncols)] for _ in range(nrows)])

    a = draw(200, 50) @ draw(50, 100)
    b = draw(200, 200)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result, witness = kernel_pair(a, b)
        best = min(best, time.perf_counter() - start)
    assert witness.section.ncols == result.ker_bar.dim == 50
    assert best < 0.6

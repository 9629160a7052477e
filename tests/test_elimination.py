"""The field elimination kernel against a reference Gauss-Jordan.

``rref``, ``nullspace``, ``solve``, ``solve_pair`` and
``Submodule.from_columns`` all run on one private elimination over lists
of ints (bit-packed rows over GF(2)).  The reference below is the
ring-method elimination they replaced, kept here unchanged: results
must be equal exactly, transform and witnesses included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerpair.linalg as linalg
from kerpair import Matrix, PrimeField, Submodule, nullspace, rref, solve
from kerpair.crt import kernel_pair
from kerpair.linalg import solve_pair

PRIMES = (2, 3, 101, 2**31 - 1)


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


@pytest.mark.parametrize("p", PRIMES)
def test_zero_columns(p):
    ring = PrimeField(p)
    a = Matrix(ring, 3, 0, [[], [], []])
    res = rref(a)
    assert (res.rank, res.transform) == (0, Matrix.identity(ring, 3))
    assert nullspace(a).basis.ncols == 0
    assert solve(a, (0, 0, 0)) == ()
    assert solve(a, (0, 1, 0)) is None


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

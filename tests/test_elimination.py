"""The field elimination kernel against reference Gauss-Jordan eliminations.

``rref``, ``nullspace``, ``solve``, ``kernel_pair_projection`` and
``Submodule.from_columns`` all run on one private elimination,
``linalg._eliminate``, over packed rows.  Three references are kept here
unchanged: ``ref_rref``, the ring-method elimination those functions
replaced, ``ref_eliminate``, the elimination on lists of ints with
inline ``% p`` (XOR on bit-packed rows over GF(2)) that the packed rows
replaced, and ``ref_kernel_pair``, the four-elimination kernel pair that
the one echelon of ker[B|A] replaced.  Results must be equal exactly,
transform and witnesses included.
"""

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerpair.linalg as linalg
from kerpair import (
    Matrix,
    ModRing,
    PrimeField,
    Submodule,
    nullspace,
    rref,
    solve,
)
from kerpair.cli import (
    _automorphism_identities,
    _each_local,
    _Instance,
    _method_agreement,
    parse_matrix_file,
)
from kerpair.crt import kernel_pair
from kerpair.kernel import (
    Automorphism,
    _preimage,
    _project_u,
    check_identities,
    kernel_pair_projection,
)
from kerpair.linalg import random_invertible
from kerpair.matrix import hstack

PRIMES = (2, 3, 101, 2**31 - 1)
#: slots of 1 to 17 bytes; entries of 2**16 + 1 need 3 bytes; the largest
#: prime below 2**62 is 2**62 - 57.  Every prime with 1-byte slots at some
#: rank k >= 1 (up to 13) is here, so pivot rows scaled through
#: ``linalg._table`` by every kind of inverse are checked
ELIMINATION_PRIMES = (2, 3, 5, 7, 11, 13, 101, 2**16 + 1, 2**31 - 1, 2**61 - 1, 2**62 - 57)
KERNEL_PAIR_PRIMES = (2, 3, 101, 2**31 - 1, 2**61 - 1, 2**62 - 57)


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


def ref_kernel_pair(a, b):
    """(ker_f1, ker_pair, ker_bar, section) by four eliminations: ker_f1
    and the joint kernel each one nullspace, ker_bar the u-projection of
    the joint kernel, and the section x_u one batched solve of
    A x = -B u, A's free columns pinned to zero."""
    q1, q2 = a.ncols, b.ncols
    ker_f1, ker_pair = nullspace(a), nullspace(hstack(a, b))
    ker_bar = _project_u(ker_pair, q1, q2)
    us = ker_bar.basis
    xs = linalg._solve_columns(a, (-(b @ us)).columns()) if us.ncols else []
    section = Matrix.from_columns(a.ring, [x + u for x, u in zip(xs, us.columns())],
                                  nrows=q1 + q2)
    return ker_f1, ker_pair, ker_bar, section


def assert_kernel_pair_like_reference(a, b):
    result = kernel_pair_projection(a, b)
    got = (result.ker_f1, result.ker_pair, result.ker_bar)
    ref_f1, ref_pair, ref_bar, ref_section = ref_kernel_pair(a, b)
    assert got == (ref_f1, ref_pair, ref_bar)
    assert [s.pivot_rows for s in got] == [s.pivot_rows for s in (ref_f1, ref_pair, ref_bar)]
    assert result.witness.section == ref_section
    return result


# -- instances --------------------------------------------------------------


@st.composite
def matrices(draw, p=None, nrows=None):
    """Matrices up to 12x12 over GF(p): random, rank-deficient (L R with
    a small inner dimension), repeated (copies of up to three columns,
    and zero columns, which make many columns free) or all-zero; 0 rows
    and 0 columns included."""
    if p is None:
        p = draw(st.sampled_from(PRIMES))
    if nrows is None:
        nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("random", "rank-deficient", "repeated", "zero")))
    entry = st.integers(0, p - 1)

    def block(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if kind == "zero":
        rows = [[0] * ncols for _ in range(nrows)]
    elif kind == "random":
        rows = block(nrows, ncols)
    elif kind == "repeated":
        cols = block(draw(st.integers(1, 3)), nrows)
        picks = draw(st.lists(st.integers(-1, len(cols) - 1), min_size=ncols, max_size=ncols))
        rows = [[cols[k][i] if k >= 0 else 0 for k in picks] for i in range(nrows)]
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


@st.composite
def pairs(draw):
    """(A, B) sharing their rows over GF(p), p up to 2**62 - 57."""
    p = draw(st.sampled_from(KERNEL_PAIR_PRIMES))
    a = draw(matrices(p=p))
    return a, draw(matrices(p=p, nrows=a.nrows))


def section_solves(a, b):
    """(u, x_u) for each section column (x_u, u) of kernel_pair_projection."""
    section = kernel_pair_projection(a, b).witness.section
    return [(col[a.ncols:], col[:a.ncols]) for col in section.columns()]


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
    for u, x in section_solves(a, b):
        assert x == ref_solve(a, (-b).matvec(u))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_kernel_pair_matches_reference(pair):
    assert_kernel_pair_like_reference(*pair)


def _seeded_pairs(p, rng):
    """(name, A, B, what must hold) over GF(p): the edge shapes, then
    8x(6+8) and 24x(12+24) pairs with A of rank q1/2 and a quarter of B's
    columns in Im A, as the benchmark draws them."""
    ring = PrimeField(p)

    def draw(nrows, ncols, rank=None):
        if rank is None:
            return Matrix(ring, nrows, ncols,
                          [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])
        return draw(nrows, rank) @ draw(rank, ncols) if rank else Matrix.zeros(ring, nrows, ncols)

    def unit_columns(g, cols):
        return g @ Matrix.from_columns(ring, [tuple(int(i == c) for i in range(6))
                                              for c in cols], nrows=6)

    a = draw(6, 5, 3)
    g = random_invertible(ring, 6, rng)
    yield "A n x 0", Matrix.zeros(ring, 4, 0), draw(4, 3), lambda r: r.ker_f1.ambient == 0
    yield "q2 = 0", a, Matrix.zeros(ring, 6, 0), lambda r: r.ker_bar.ambient == 0
    yield "0 rows", Matrix.zeros(ring, 0, 3), Matrix.zeros(ring, 0, 2), \
        lambda r: r.ker_bar.is_full() and r.ker_f1.is_full()
    yield "A = 0", Matrix.zeros(ring, 4, 3), draw(4, 3), lambda r: r.ker_f1.is_full()
    yield "B in Im A", a, a @ draw(5, 4), lambda r: r.ker_bar.is_full()
    yield "ker_f1 = 0", unit_columns(g, [0, 1]), draw(6, 5), lambda r: r.ker_f1.is_zero()
    yield "ker_bar = 0", hstack(unit_columns(g, [0]), unit_columns(g, [0])), \
        unit_columns(g, [1, 2]), lambda r: r.ker_bar.is_zero() and not r.ker_f1.is_zero()
    for rows, q1, q2 in ((8, 6, 8), (24, 12, 24)):
        a = draw(rows, q1, q1 // 2)
        inside = a @ draw(q1, q2 // 4)
        b = hstack(inside, draw(rows, q2 - q2 // 4))
        yield f"{rows}x({q1}+{q2})", a, b, \
            lambda r: not (r.ker_f1.is_zero() or r.ker_bar.is_zero())


@pytest.mark.parametrize("p", KERNEL_PAIR_PRIMES)
def test_kernel_pair_matches_reference_on_edge_shapes(p):
    for name, a, b, holds in _seeded_pairs(p, random.Random(p)):
        assert holds(assert_kernel_pair_like_reference(a, b)), name


def assert_preimage_like_reference(m, b):
    """``_preimage``, ker_bar read off one nullspace of [B|M] by
    ``_u_part``, equals the u-projection of ker [M|B] by a second
    elimination, pivot rows included."""
    got = _preimage(m, b)
    ref = _project_u(nullspace(hstack(m, b)), m.ncols, b.ncols)
    assert got == ref and got.pivot_rows == ref.pivot_rows
    return got


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ELIMINATION_PRIMES), st.data())
def test_preimage_matches_reference(p, data):
    """M drawn as any matrix, not only an image basis, so its columns may
    be dependent or zero; 0 rows and 0 columns of either included."""
    m = data.draw(matrices(p=p))
    assert_preimage_like_reference(m, data.draw(matrices(p=p, nrows=m.nrows)))


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
def test_preimage_matches_reference_on_edge_shapes(p):
    """An M with no columns, where ker_bar is ker B; and a B whose
    kernel with M has no pivot among the u-rows: B is injective, Im B
    meets Im M in 0, and M's two equal columns give ker [B|M] a vector
    that is 0 in u, so ker_bar = 0 under a kernel that is not."""
    ring = PrimeField(p)
    b = Matrix(ring, 3, 2, [[1, 1], [1, 1], [0, 0]])
    assert assert_preimage_like_reference(Matrix.zeros(ring, 3, 0), b) == nullspace(b)
    b = Matrix(ring, 3, 2, [[1, 0], [0, 1], [0, 0]])
    m = Matrix(ring, 3, 2, [[0, 0], [0, 0], [1, 1]])
    joint = nullspace(hstack(b, m))
    assert joint.dim == 1 and joint.pivot_rows[0] >= b.ncols
    assert assert_preimage_like_reference(m, b).is_zero()


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("ncols", [0, 1, 5])
def test_zero_rows(p, ncols):
    a = Matrix(PrimeField(p), 0, ncols, [])
    res = rref(a)
    assert (res.rank, res.pivot_cols, res.transform.nrows) == (0, (), 0)
    assert nullspace(a) == Submodule.full(a.ring, ncols)
    assert solve(a, ()) == (0,) * ncols
    b = Matrix(PrimeField(p), 0, 2, [])
    pairs = section_solves(a, b)
    assert [u for u, _ in pairs] == [(1, 0), (0, 1)]
    assert [x for _, x in pairs] == [ref_solve(a, ())] * 2 == [(0,) * ncols] * 2


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


def test_one_byte_tables_at_slot_width_boundaries(monkeypatch):
    """At rank k and k - 1 for each slot-width boundary k of every
    elimination prime, the unit rows of the boundary test behind a row of
    p - 1, ``_table(p, c)`` is asked only for p < 257 and a unit c in
    [1, p), and on 1-byte slots only: every prime up to 13 scales pivot
    rows through it by some inverse other than 1, the larger primes never
    (they unpack through it at k = 0, which sizes a slot for p - 1)."""
    calls = []
    real = linalg._table

    def recorded(p, c):
        calls.append((p, c))
        return real(p, c)

    monkeypatch.setattr(linalg, "_table", recorded)
    for p in ELIMINATION_PRIMES:
        for k in _slot_boundaries(p):
            for rank in (k - 1, k):
                rows = [[p - 1] * (rank + 1)]
                rows += [[int(i == j) for j in range(rank)] + [p - 1] for i in range(rank)]
                assert len(assert_eliminates_like_reference(rows, p, rank)) == rank
    assert all(p < 257 and 0 < c < p for p, c in calls)
    assert {p for p, c in calls if c != 1} == {3, 5, 7, 11, 13}
    assert {p for p, _ in calls} == {p for p in ELIMINATION_PRIMES if p < 257}


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
    dim ker_bar is: the nullspace of [B|A'], which pins the section
    itself, the echelon of ker_f1 when ker_f1 != 0 and that of ker_pair
    when ker_bar != 0; nothing per column."""
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
        result = kernel_pair(*_pair(p, inside, rng))
        counts.append(len(calls))
        dims.append(result.ker_bar.dim)
        assert result.witness.section.ncols == result.ker_bar.dim
    assert dims[1] - dims[0] >= 10
    assert counts[0] == counts[1] <= 3


def test_no_section_solve_when_ker_bar_is_zero(monkeypatch):
    """With ker(f1|f2) = 0 there is no section, and ker_pair is iota(ker_f1)
    as it stands: a field kernel pair eliminates [B|A'] and, when ker_f1
    is not 0, echelons it; ker_pair takes no elimination of its own."""
    ring = PrimeField(7)
    b = Matrix(ring, 3, 1, [[0], [1], [0]])
    calls = []
    real = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    for a, eliminations in ((Matrix(ring, 3, 1, [[1], [0], [0]]), 1),
                            (Matrix(ring, 3, 2, [[1, 1], [0, 0], [0, 0]]), 2)):
        calls.clear()
        result = kernel_pair_projection(a, b)
        assert result.ker_bar.is_zero() and result.ker_f1.dim == a.ncols - 1
        assert (result.witness.section.nrows, result.witness.section.ncols) == (a.ncols + 1, 0)
        assert len(calls) == eliminations


def test_eliminations_per_identity_check(monkeypatch):
    """check_identities computes five ker_bar presentations, each one
    nullspace of a [B | M] read off by ``_u_part``, over three images (A
    once, A Psi1, Psi A), and two images of a basis under Psi2 and its
    inverse: 10 eliminations (15 with a second elimination per ker_bar
    for its u-projection); ker_f1 and the joint kernel are not formed."""
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
    assert len(calls) <= 10


@pytest.mark.parametrize("ring", [PrimeField(7), ModRing(30)], ids=repr)
def test_eliminations_per_automorphism_row(ring, monkeypatch):
    """verify's automorphism row forms Im(A) and the base ker_bar once
    per local ring (2 eliminations) and then 10 per trial: the
    Automorphism rrefs of Psi2 and Psi (Psi1 is drawn as a plain matrix,
    since no clause reads its inverse), four twisted ker_bar of one
    nullspace each (two of them over that Im(A), two forming the images
    of A Psi1 and Psi A) and two images under Psi2.  The draws run none
    (GF(7) 5x(3+4), 5 trials: 52, against 78 with Psi1's rref and a
    second elimination per ker_bar, 88 with an image of A per twisted
    ker_bar too and 119 with the rejection draws)."""
    import kerpair.cli as cli_mod

    rng = random.Random(5)
    a = Matrix(ring, 5, 3, [[rng.randrange(ring.size) for _ in range(3)] for _ in range(5)])
    b = Matrix(ring, 5, 4, [[rng.randrange(ring.size) for _ in range(4)] for _ in range(5)])
    c = _Instance(a, b, random.Random(0), 5)
    calls, drawing = [], []  # per elimination: whether a draw was running
    real, real_draw = linalg._eliminate, cli_mod.random_invertible

    def counted(*args):
        calls.append(bool(drawing))
        return real(*args)

    def draw(*args):
        drawing.append(1)
        try:
            return real_draw(*args)
        finally:
            drawing.pop()

    monkeypatch.setattr(linalg, "_eliminate", counted)
    monkeypatch.setattr(cli_mod, "random_invertible", draw)
    assert _each_local(_automorphism_identities)(c) == []
    assert len(calls) <= len(c.locals) * (2 + 10 * 5)
    assert not any(calls)


def test_eliminations_per_method_agreement(monkeypatch):
    """verify's method-agreement row forms the preimage and quotient
    ker_bar alone: 2 eliminations for the preimage (image, nullspace,
    whose u-part is read with no projection), 2 for the quotient (rref,
    nullspace)."""
    ring, matrices = parse_matrix_file(
        (Path(__file__).resolve().parent / "golden" / "in" / "gf5.txt").read_text())
    c = _Instance(matrices["A"], matrices["B"], random.Random(0), 1)
    calls = []
    real = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert _method_agreement(c) == []
    assert len(calls) <= 4


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
        result = kernel_pair(a, b)
        best = min(best, time.perf_counter() - start)
    assert result.witness.section.ncols == result.ker_bar.dim == 50
    assert best < 0.6

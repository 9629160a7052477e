"""Rank, rref and nullspace over GF(p), and rank and kernel over GF(p)[z],
against sympy's DomainMatrix; and the GF(p)[z] kernel pair against the
formula it replaced.

sympy is an outside implementation of the same exact arithmetic, so
agreement here does not depend on any code of this package.  Tier-1 runs
small Hypothesis matrices and fixed shapes up to 60x90 over GF(p), and
polynomial shapes up to 6x8 over GF(p)[z]; with ``KERPAIR_LARGE=1`` the
fixed shapes go up to 200x400 and 10x14 (minutes: sympy takes about 40 s
for one 200x400 rref over GF(101), and about a second for one 8x10
nullspace over GF(p)(z)).  The kernel pair runs small seeded and
Hypothesis pairs, and GF(7)[z] pairs up to 24x(18+18) with
``KERPAIR_LARGE=1``.
"""

import functools

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from kerpair import (  # noqa: E402
    Matrix,
    PolyRing,
    PrimeField,
    hstack,
    kernel_pair_poly,
    nullspace,
    poly_kernel,
    random_matrix,
    rank_over_fractions,
    rref,
    vstack,
)
from kerpair.kernel import _project_u  # noqa: E402
from kerpair.polykernel import _solve_columns, _with_transform  # noqa: E402

PRIMES = (2, 3, 5, 101, 2**31 - 1, 2**61 - 1, 2**62 - 57)

# (p, rows, columns, rank of the L R product, or None for dense random)
SHAPES = [
    (2, 60, 90, None),
    (2, 60, 90, 12),
    (3, 90, 60, 30),
    (101, 60, 90, 12),
    (2**31 - 1, 40, 60, 25),
    (2**61 - 1, 30, 45, 20),
]
LARGE_SHAPES = [
    (2, 200, 400, None),
    (101, 100, 150, None),
    (101, 200, 300, 150),
    (101, 200, 400, 120),
    (2**31 - 1, 200, 400, 100),
    (2**61 - 1, 120, 200, 90),
]


def low_rank(rng, p, nrows, ncols, rank):
    if rank is None:
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(lrow, rcol)) % p for rcol in zip(*right)]
            if rank else [0] * ncols for lrow in left]


def domain_matrix(rows, nrows, ncols, p):
    field = sympy.GF(p)
    return DomainMatrix([[field(x) for x in r] for r in rows], (nrows, ncols), field)


def as_ints(dm, p):
    # GF(p) elements may print in symmetric representation
    return [tuple(int(x) % p for x in r) for r in dm.to_list()]


def assert_agrees_with_sympy(rows, nrows, ncols, p):
    a = Matrix(PrimeField(p), nrows, ncols, rows)
    dm = domain_matrix(rows, nrows, ncols, p)
    res = rref(a)
    expected, pivots = dm.rref()
    assert (res.rank, res.pivot_cols) == (len(pivots), tuple(pivots))
    assert list(res.matrix.entries) == as_ints(expected, p)
    # T A = R for the transform, in plain integer arithmetic
    product = [tuple(sum(x * y for x, y in zip(trow, col)) % p for col in zip(*rows))
               for trow in res.transform.entries]
    assert product == list(res.matrix.entries)
    # the canonical kernel basis is the rref of sympy's kernel rows
    basis = dm.nullspace()
    expected_cols = as_ints(basis.rref()[0], p) if basis.shape[0] else []
    assert nullspace(a).basis.columns() == expected_cols


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 10), st.integers(0, 14),
       st.sampled_from((None, 0, 1, 2, 4)), st.randoms(use_true_random=False))
def test_small_matrices(p, nrows, ncols, rank, rng):
    assert_agrees_with_sympy(low_rank(rng, p, nrows, ncols, rank), nrows, ncols, p)


@pytest.mark.parametrize("p,nrows,ncols,rank", SHAPES)
def test_shapes(p, nrows, ncols, rank):
    rows = low_rank(random.Random(f"{p}/{nrows}/{ncols}"), p, nrows, ncols, rank)
    assert_agrees_with_sympy(rows, nrows, ncols, p)


@pytest.mark.skipif(os.environ.get("KERPAIR_LARGE") != "1",
                    reason="large shapes run with KERPAIR_LARGE=1")
@pytest.mark.parametrize("p,nrows,ncols,rank", LARGE_SHAPES)
def test_large_shapes(p, nrows, ncols, rank):
    rows = low_rank(random.Random(f"{p}/{nrows}/{ncols}"), p, nrows, ncols, rank)
    assert_agrees_with_sympy(rows, nrows, ncols, p)


# GF(p)[z]: (p, rows, columns, rank of the L R product or None, entry degree)
POLY_SHAPES = [
    (2, 4, 6, None, 2),
    (2, 5, 8, 2, 1),
    (3, 3, 5, None, 2),
    (3, 6, 8, 3, 1),
    (5, 4, 7, 2, 2),
    (5, 6, 8, None, 1),
    (101, 5, 7, 3, 1),
    (101, 6, 6, 4, 1),
]
LARGE_POLY_SHAPES = [
    (2, 8, 12, 5, 1),
    (5, 8, 10, None, 2),
    (7, 8, 10, 5, 2),
    (5, 10, 14, None, 1),
    (7, 10, 14, 6, 1),
    (101, 8, 10, None, 2),
]


def poly_instance(p, nrows, ncols, rank, degree) -> Matrix:
    ring, rng = PolyRing(p), random.Random(f"poly {p}/{nrows}/{ncols}/{rank}/{degree}")
    if rank is None:
        return random_matrix(ring, nrows, ncols, rng, max_degree=degree)
    return (random_matrix(ring, nrows, rank, rng, max_degree=degree)
            @ random_matrix(ring, rank, ncols, rng, max_degree=degree))


def assert_poly_agrees_with_sympy(a: Matrix):
    """rank over GF(p)(z) and nullity equal sympy's; each sympy nullspace
    vector, denominators cleared and content divided out, is a primitive
    kernel vector, so it lies in the span of poly_kernel(a), which is
    saturated."""
    p = a.ring.n
    field = sympy.GF(p).frac_field(sympy.symbols("z"))
    ring = field.field.ring
    # sympy's dense coefficient lists run from the top degree down
    dm = DomainMatrix([[field.field(ring.from_list(e[::-1])) for e in row] for row in a.entries],
                      (a.nrows, a.ncols), field)
    null = dm.nullspace().to_list()
    assert rank_over_fractions(a) == dm.rank() == a.ncols - len(null)
    kernel = poly_kernel(a)
    assert kernel.dim == len(null)
    for v in null:
        common = functools.reduce(lambda x, y: x.lcm(y), (e.denom for e in v))
        entries = [e.numer * common.exquo(e.denom) for e in v]
        content = functools.reduce(lambda x, y: x.gcd(y), entries)
        vec = tuple(a.ring.normalize([int(c) for c in e.exquo(content).to_dense()[::-1]])
                    for e in entries)
        assert kernel.contains(vec) is not None, vec


@pytest.mark.parametrize("p,nrows,ncols,rank,degree", POLY_SHAPES)
def test_poly_shapes(p, nrows, ncols, rank, degree):
    assert_poly_agrees_with_sympy(poly_instance(p, nrows, ncols, rank, degree))


@pytest.mark.skipif(os.environ.get("KERPAIR_LARGE") != "1",
                    reason="large shapes run with KERPAIR_LARGE=1")
@pytest.mark.parametrize("p,nrows,ncols,rank,degree", LARGE_POLY_SHAPES)
def test_large_poly_shapes(p, nrows, ncols, rank, degree):
    assert_poly_agrees_with_sympy(poly_instance(p, nrows, ncols, rank, degree))


# GF(p)[z] kernel pair against the formula it replaced: ker_pair from the
# transform-carrying reduction of [A | B], ker_bar its u-projection, the
# section solved against the reduction of A.
# (p, rows, q1, q2, entry degree, rank of A = L R or None, B: random, zero
# or inside Im A)
PAIR_SHAPES = [
    (2, 3, 2, 3, 2, None, "random"),
    (3, 4, 3, 3, 1, 2, "random"),
    (3, 3, 3, 3, 1, 0, "random"),
    (5, 0, 2, 3, 1, None, "random"),
    (5, 3, 0, 2, 1, None, "random"),
    (7, 3, 2, 0, 1, None, "random"),
    (7, 4, 3, 3, 2, None, "zero"),
    (101, 4, 3, 4, 1, 2, "inside"),
    (2, 5, 4, 4, 1, 2, "inside"),
    (2**31 - 1, 3, 3, 3, 1, None, "random"),
]
LARGE_PAIR_SHAPES = [
    (7, 16, 12, 12, 2, None, "random"),
    (7, 16, 12, 12, 2, 9, "random"),
    (7, 24, 18, 18, 2, None, "random"),
    (7, 24, 18, 18, 2, 9, "random"),
]


def pair_instance(rng, p, nrows, q1, q2, degree, rank, b_kind):
    ring = PolyRing(p)

    def draw(r, c):
        return random_matrix(ring, r, c, rng, max_degree=degree)

    a = draw(nrows, q1) if rank is None else draw(nrows, rank) @ draw(rank, q1)
    b = {"random": lambda: draw(nrows, q2), "zero": lambda: Matrix.zeros(ring, nrows, q2),
         "inside": lambda: a @ draw(q1, q2)}[b_kind]()
    return a, b


def assert_pair_matches_projection(a, b):
    ring, q1 = a.ring, a.ncols
    result = kernel_pair_poly(a, b)
    ker_pair = poly_kernel(hstack(a, b))
    ker_bar = _project_u(ker_pair, q1, b.ncols)
    xs = _solve_columns(_with_transform(a), (-(b @ ker_bar.basis)).columns())
    section = vstack(Matrix.from_columns(ring, xs, nrows=q1), ker_bar.basis)
    for new, old in ((result.ker_pair, ker_pair), (result.ker_bar, ker_bar)):
        assert (new, new.pivot_rows) == (old, old.pivot_rows)
    assert result.witness.section == section


@pytest.mark.parametrize("shape", PAIR_SHAPES)
def test_pair_shapes(shape):
    assert_pair_matches_projection(*pair_instance(random.Random(f"pair {shape}"), *shape))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 101, 2**31 - 1)), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 2), st.sampled_from((None, 0, 1, 2)),
       st.sampled_from(("random", "zero", "inside")), st.randoms(use_true_random=False))
def test_small_pairs(p, nrows, q1, q2, degree, rank, b_kind, rng):
    assert_pair_matches_projection(*pair_instance(rng, p, nrows, q1, q2, degree, rank, b_kind))


@pytest.mark.skipif(os.environ.get("KERPAIR_LARGE") != "1",
                    reason="large shapes run with KERPAIR_LARGE=1")
@pytest.mark.parametrize("shape", LARGE_PAIR_SHAPES)
def test_large_pair_shapes(shape):
    assert_pair_matches_projection(*pair_instance(random.Random(f"pair {shape}"), *shape))

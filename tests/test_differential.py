"""Rank, rref and nullspace over GF(p) against sympy's DomainMatrix.

sympy is an outside implementation of the same exact arithmetic, so
agreement here does not depend on any code of this package.  Tier-1 runs
small Hypothesis matrices and fixed shapes up to 60x90; with
``KERPAIR_LARGE=1`` the fixed shapes go up to 200x400 (minutes: sympy
takes about 40 s for one 200x400 rref over GF(101)).
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from kerpair import Matrix, PrimeField, nullspace, rref  # noqa: E402

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

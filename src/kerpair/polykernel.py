"""Kernel bases of polynomial matrices over GF(p)[z].

GF(p)[z] is a principal ideal domain, so the kernel of a matrix map is
a free module; this module computes a basis for it, canonicalizes
generating sets into column Hermite normal form, and builds kernel
pairs with their split-sequence witnesses over GF(p)[z] and, glued
componentwise, over (Z/m)[z] for square-free m.

Everything here is read off one column reduction, ``_hermite``: the
rank over the fraction field is the number of pivots of H.  Only kernels
and solves carry a transform: A U = [H | 0], U unimodular, is the
reduction of [A; I] with U riding as extra rows, the trailing columns of
U are a basis of ker A (unimodularity makes them generate the whole
kernel module, not merely a GF(p)(z)-basis of it), and A x = c is solved
by division against H; both stop at the echelon form H, before the
back-reduction, which changes neither.  A kernel pair carries one
transform, A's: H back-reduced is the Hermite basis H' of Im A,
ker(f1|f2) = B^-1(Im A) is read off one reduction of [H' | B] that
carries the identity below B alone, and the split shared with GF(p),
``kernel._split``, spans ker(f1,f2) by iota(ker f1) and the section,
with no reduction when ker(f1|f2) = 0.  The scalar linearization, whose
nullspace holds every kernel vector of degree <= D, is kept only as the
saturation oracle of ``verify`` and the tests.
"""

from .errors import (
    ConsistencyViolatedError,
    DimensionMismatchError,
    NotAFieldError,
    RingMismatchError,
)
from .kernel import _check_pair, _split
from .linalg import Submodule, _span, nullspace
from .matrix import Matrix, vstack
from .rings import PolyRing, PrimeField


def _require_poly_field(ring):
    if not isinstance(ring, PolyRing) or not ring.coeff_is_prime:
        raise NotAFieldError(f"expected GF(p)[z], got {ring!r}")


def matrix_degree(a: Matrix) -> int:
    """Largest entry degree; 0 for a zero (or empty) matrix."""
    degs = [len(e) - 1 for row in a.entries for e in row if e]
    return max(degs, default=0)


def rank_over_fractions(a: Matrix) -> int:
    """Rank of a polynomial matrix over the fraction field GF(p)(z): the
    number of Hermite pivots, since unimodular column operations keep it."""
    return hermite_basis(a).rank


# -- kernel and saturation oracle --------------------------------------------


def linearized_matrix(a: Matrix, bound: int) -> Matrix:
    """Scalar coefficient matrix M_D whose nullspace encodes the kernel
    vectors of degree <= D = ``bound``.

    Column j*(D+1)+k holds the coefficients of z^k * (column j of A);
    row i*(d+D+1)+c is the z^c coefficient in output row i.
    """
    _require_poly_field(a.ring)
    fp = PrimeField(a.ring.n)
    d = matrix_degree(a)
    height = d + bound + 1
    rows = [[0] * (a.ncols * (bound + 1)) for _ in range(a.nrows * height)]
    for i in range(a.nrows):
        for j in range(a.ncols):
            entry = a.entries[i][j]
            for k in range(bound + 1):
                col = j * (bound + 1) + k
                for e, coeff in enumerate(entry):
                    rows[i * height + e + k][col] = coeff
    return Matrix(fp, a.nrows * height, a.ncols * (bound + 1), rows)


def kernel_vectors_up_to(a: Matrix, bound: int) -> list:
    """All canonical nullspace generators of M_D, as polynomial vectors.

    Spans every kernel vector of degree <= bound; used as the saturation
    oracle against poly_kernel's basis.
    """
    ring = a.ring
    sub = nullspace(linearized_matrix(a, bound))
    vecs = []
    for w in sub.basis.columns():
        v = tuple(ring.normalize(w[j * (bound + 1):(j + 1) * (bound + 1)])
                  for j in range(a.ncols))
        vecs.append(v)
    return vecs


def poly_kernel(a: Matrix) -> Submodule:
    """Hermite-form basis of {v : A v = 0} over GF(p)[z].

    With A U = [H | 0] and U unimodular, the trailing columns of U span
    ker A exactly; their Hermite form is the canonical basis.
    """
    return _kernel_of(_with_transform(a))


def _kernel_of(reduction) -> Submodule:
    """poly_kernel from the reduction (H, U, pivot rows) of A."""
    h, u, _ = reduction
    return _span(h.ring, u.nrows, u.columns()[h.ncols:])


# -- Hermite normal form -----------------------------------------------------


def _hermite(ring, cols, m, back_reduce=True):
    """Column Hermite reduction of the first ``m`` rows of ``cols``, a list
    of columns of equal length >= m; the rows below (a transform, say) go
    through the same column operations.  Each row runs the gcd cascade on
    its entries, smallest degree first, until one column is left hitting
    it, whose pivot is made monic; ``back_reduce`` then reduces every
    earlier pivot column below the pivot degree in each later pivot row,
    which turns the pivot columns into [H; U_p] T, T unit upper triangular.
    Returns (pivot columns, remaining columns, pivot rows)."""
    _require_poly_field(ring)
    zero, sub_mul = ring.zero, ring.sub_mul
    work = [list(c) for c in cols]
    basis, pivot_rows = [], []
    for r in range(m):
        while True:
            hot = [c for c in work if c[r] != zero]
            if len(hot) <= 1:
                break
            # ties go by the rows below m, which fixes U when they hold one
            hot.sort(key=lambda c: (len(c[r]), c[r], c[m:]))
            base = hot[0]
            for other in hot[1:]:
                q, _ = ring.divmod(other[r], base[r])
                # rows above r are zero in every column still in work
                other[r:] = [sub_mul(x, q, y) for x, y in zip(other[r:], base[r:])]
        if not hot:
            continue
        pivot = hot[0]
        inv = ring.inv(ring.constant(pivot[r][-1]))
        pivot[r:] = [ring.mul(inv, e) for e in pivot[r:]]
        work = [c for c in work if c is not pivot]
        basis.append(pivot)
        pivot_rows.append(r)
    if back_reduce:
        _back_reduce(ring, basis, pivot_rows)
    return basis, work, tuple(pivot_rows)


def _back_reduce(ring, basis, pivot_rows):
    """Reduce, in place, every earlier column of the echelon ``basis`` below
    the pivot degree in each later pivot row: the back-reduction step of
    ``_hermite``, on the columns' full length."""
    zero, sub_mul = ring.zero, ring.sub_mul
    for j, r in enumerate(pivot_rows):
        source = basis[j]
        for target in basis[:j]:
            q, _ = ring.divmod(target[r], source[r])
            if q != zero:
                target[r:] = [sub_mul(x, q, y) for x, y in zip(target[r:], source[r:])]


def _with_transform(g: Matrix, back_reduce=False):
    """(H, U, pivot_rows) with U unimodular and g @ U = [H | 0], H in echelon
    form with monic pivots, or in Hermite form if ``back_reduce``."""
    ring, m = g.ring, g.nrows
    basis, rest, pivot_rows = _hermite(
        ring, vstack(g, Matrix.identity(ring, g.ncols)).columns(), m, back_reduce)
    h = Matrix.from_columns(ring, [c[:m] for c in basis], nrows=m)
    u = Matrix.from_columns(ring, [c[m:] for c in basis + rest], nrows=g.ncols)
    return h, u, pivot_rows


def hermite_with_transform(g: Matrix):
    """(H, U, pivot_rows) with H the column Hermite form of g and U
    unimodular such that g @ U = [H | 0].

    H's pivots are monic, sit in strictly increasing rows, and every
    entry of an earlier column in a pivot row has lower degree than the
    pivot.  The trailing columns of U are a basis of ker(g).  U is the
    identity carried as extra rows through the reduction of g.
    """
    return _with_transform(g, back_reduce=True)


def hermite_basis(g: Matrix) -> Submodule:
    """Column Hermite basis of the column span of g, without a transform."""
    basis, _, pivots = _hermite(g.ring, g.columns(), g.nrows)
    rows = list(zip(*basis)) if basis else [()] * g.nrows
    return Submodule(g.ring, g.nrows, basis=Matrix._canonical(g.ring, g.nrows, len(basis), rows),
                     pivot_rows=pivots)


def _solve_columns(reduction, cs) -> list:
    """For each c in ``cs``, what poly_solve(A, c) returns, read off the
    reduction (H, U, pivot rows) = _with_transform(A), back-reduced or not."""
    h, u, pivot_rows = reduction
    for c in cs:
        if len(c) != h.nrows:
            raise DimensionMismatchError(f"rhs length {len(c)} != {h.nrows} rows")
    hermite = Submodule(h.ring, h.nrows, basis=h, pivot_rows=pivot_rows)
    pad = (h.ring.zero,) * (u.ncols - h.ncols)
    out = []
    for c in cs:
        coords = hermite.contains(c)
        out.append(None if coords is None else u.matvec(coords + pad))
    return out


def poly_solve(a: Matrix, c) -> tuple | None:
    """Some x(z) with A x = c over GF(p)[z], or None.

    Forward substitution against the echelon form of A: at each pivot
    row only its own column can contribute, so the coordinate there is
    an exact division or the system is unsolvable.  Coordinates off the
    Hermite basis are pinned to zero, making the witness deterministic.
    """
    return _solve_columns(_with_transform(a), [c])[0]


# -- kernel pairs over GF(p)[z] ----------------------------------------------


def kernel_pair_poly(a: Matrix, b: Matrix):
    """ker(f1|f2) over GF(p)[z], its split-sequence witness in the result.

    One transform-carrying reduction, of A, gives ker_f1, Im A and the
    section.  ker_bar = B^-1(Im A): reduce [H' | B] with H' the Hermite
    basis of Im A (A's echelon form, back-reduced), carrying only the
    u-rows; H' has full column rank, so the u-parts of the columns left
    without a pivot are a basis of ker_bar.  The section has one column
    (x_u, u) per ker_bar basis vector u, every x_u with A x_u = -B u read
    off the reduction of A at once.  It ends in the split shared with
    GF(p), ``kernel._split``: ker_pair is the Hermite basis of
    iota(ker_f1) and the section, or iota(ker_f1) itself when ker_bar = 0.
    """
    _check_pair(a, b)
    ring, p, q1, q2 = a.ring, a.nrows, a.ncols, b.ncols
    reduction = _with_transform(a)
    h, _, pivot_rows = reduction
    image = [list(c) for c in h.columns()]
    _back_reduce(ring, image, pivot_rows)
    zeros = [ring.zero] * q2
    cols = [c + zeros for c in image] + [
        [*bc, *ic] for bc, ic in zip(b.columns(), Matrix.identity(ring, q2).columns())]
    _, rest, _ = _hermite(ring, cols, p, back_reduce=False)
    ker_bar = _span(ring, q2, [c[p:] for c in rest])
    us = ker_bar.basis
    xs = _solve_columns(reduction, (-(b @ us)).columns()) if us.ncols else []
    if None in xs:
        raise ConsistencyViolatedError(f"no section witness for {us.column(xs.index(None))!r}, "
                                       "although it lies in ker(f1|f2)")
    return _split(_kernel_of(reduction), ker_bar, Matrix.from_columns(ring, xs, nrows=q1))


def poly_member(a: Matrix, b: Matrix, u) -> tuple | None:
    """Witness x(z) with A x + B u = 0, or None when u is not in ker(A|B):
    one Hermite solve of A x = -B u."""
    return poly_solve(a, tuple(map(b.ring.neg, b.matvec(u))))


# -- local-global over (Z/m)[z] ----------------------------------------------


def kernel_pair_poly_crt(a: Matrix, b: Matrix):
    """ker(f1|f2) over (Z/m)[z], m square-free, glued from the GF(p_i)[z]
    local kernels through the coefficient-ring idempotents."""
    from .crt import glue_kernel_pair

    if not isinstance(a.ring, PolyRing):
        raise RingMismatchError(f"expected a polynomial matrix, got {a.ring!r}")
    return glue_kernel_pair(a, b)


def random_unimodular(ring: PolyRing, n: int, rng) -> Matrix:
    """Product of 8 elementary column operations; determinant a unit."""
    _require_poly_field(ring)
    cols = [list(c) for c in Matrix.identity(ring, n).columns()]
    for _ in range(8):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            f = ring.normalize([-rng.randrange(ring.n) for _ in range(2)])
            cols[j] = [ring.sub_mul(x, f, y) for x, y in zip(cols[j], cols[i])]
        elif kind == 1:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            c = ring.constant(rng.randrange(1, ring.n))
            cols[i] = [ring.mul(c, e) for e in cols[i]]
    return Matrix.from_columns(ring, cols, nrows=n)

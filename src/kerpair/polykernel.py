"""Kernel bases of polynomial matrices over GF(p)[z].

GF(p)[z] is a principal ideal domain, so the kernel of a matrix map is
a free module; this module computes a basis for it, canonicalizes
generating sets into column Hermite normal form, and builds kernel
pairs with their split-sequence witnesses over GF(p)[z] and, glued
componentwise, over (Z/m)[z] for square-free m.

Everything here is read off one computation, the column Hermite
reduction A U = [H | 0] with U unimodular: the rank over the fraction
field is the number of pivots of H, the trailing columns of U are a
basis of ker A (unimodularity makes them generate the whole kernel
module, not merely a GF(p)(z)-basis of it), and A x = c is solved by
division against H.  The scalar linearization, whose nullspace holds
every kernel vector of degree <= D, is kept only as the saturation
oracle of ``verify`` and the tests.
"""

from dataclasses import dataclass

from .errors import DimensionMismatchError, NotAFieldError, RingMismatchError
from .kernel import _projection_pair
from .linalg import Submodule, nullspace
from .matrix import Matrix
from .rings import PolyRing, PrimeField, split_ring


def _require_poly_field(ring):
    if not isinstance(ring, PolyRing) or not ring.coeff_is_prime:
        raise NotAFieldError(f"expected GF(p)[z], got {ring!r}")


def matrix_degree(a: Matrix) -> int:
    """Largest entry degree; 0 for a zero (or empty) matrix."""
    degs = [len(e) - 1 for row in a.entries for e in row if e]
    return max(degs, default=0)


def vector_degree(v) -> int:
    degs = [len(e) - 1 for e in v if e]
    return max(degs, default=-1)


@dataclass(frozen=True)
class PolyKernelBasis:
    """Column Hermite basis of ker(A) over GF(p)[z]."""

    ambient: int
    basis: Matrix          # ambient x rank, Hermite normal form
    rank: int
    column_degrees: tuple
    pivot_rows: tuple

    @property
    def submodule(self) -> Submodule:
        return Submodule(self.basis.ring, self.ambient, "poly",
                         basis=self.basis, pivot_rows=self.pivot_rows)


def rank_over_fractions(a: Matrix) -> int:
    """Rank of a polynomial matrix over the fraction field GF(p)(z): the
    number of Hermite pivots, since unimodular column operations keep it."""
    return len(hermite_with_transform(a)[2])


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


def poly_kernel(a: Matrix) -> PolyKernelBasis:
    """Hermite-form basis of {v : A v = 0} over GF(p)[z].

    With A U = [H | 0] and U unimodular, the trailing columns of U span
    ker A exactly; their Hermite form is the canonical basis.
    """
    h, u, _ = hermite_with_transform(a)
    return hermite_basis(Matrix.from_columns(a.ring, u.columns()[h.ncols:], nrows=a.ncols))


# -- Hermite normal form -----------------------------------------------------


def _euclid_rows(ring, work, r):
    """Zero out row r in all but one of the columns hitting it.

    ``work`` holds (column, transform-column) pairs whose first nonzero
    entry is at row r or below; classical gcd cascade on the row-r
    entries, smallest degree first.
    """
    while True:
        hot = [wc for wc in work if wc[0][r] != ring.zero]
        if len(hot) <= 1:
            return hot[0] if hot else None
        hot.sort(key=lambda wc: (len(wc[0][r]), wc[0][r], wc[1]))
        base = hot[0]
        for other in hot[1:]:
            q, _ = ring.divmod(other[0][r], base[0][r])
            _column_op(ring, other, base, q)


def _column_op(ring, target, source, q):
    """target -= q * source, applied to the (column, transform) pair."""
    col, ucol = target
    scol, sucol = source
    for i in range(len(col)):
        col[i] = ring.sub(col[i], ring.mul(q, scol[i]))
    for i in range(len(ucol)):
        ucol[i] = ring.sub(ucol[i], ring.mul(q, sucol[i]))


def hermite_with_transform(g: Matrix):
    """(H, U, pivot_rows) with H the column Hermite form of g and U
    unimodular such that g @ U = [H | 0].

    H's pivots are monic, sit in strictly increasing rows, and every
    entry of an earlier column in a pivot row has lower degree than the
    pivot.  The trailing columns of U are a basis of ker(g).
    """
    _require_poly_field(g.ring)
    ring = g.ring
    eye = Matrix.identity(ring, g.ncols)
    work = [[list(g.column(j)), list(eye.column(j))] for j in range(g.ncols)]
    basis = []
    pivot_rows = []
    for r in range(g.nrows):
        pivot = _euclid_rows(ring, work, r)
        if pivot is None:
            continue
        inv = ring.inv(ring.constant(pivot[0][r][-1]))
        pivot[0] = [ring.mul(inv, e) for e in pivot[0]]
        pivot[1] = [ring.mul(inv, e) for e in pivot[1]]
        work = [wc for wc in work if wc is not pivot]
        basis.append(pivot)
        pivot_rows.append(r)
    # back-reduce earlier columns below the pivot degree in each pivot row
    for j, r in enumerate(pivot_rows):
        for k in range(j):
            q, _ = ring.divmod(basis[k][0][r], basis[j][0][r])
            if q != ring.zero:
                _column_op(ring, basis[k], basis[j], q)
    h = Matrix.from_columns(ring, [b[0] for b in basis], nrows=g.nrows)
    u = Matrix.from_columns(ring, [b[1] for b in basis] + [wc[1] for wc in work],
                            nrows=g.ncols)
    return h, u, tuple(pivot_rows)


def hermite_form(g: Matrix) -> Matrix:
    """Column Hermite normal form of the column span of g."""
    h, _, _ = hermite_with_transform(g)
    return h


def hermite_basis(g: Matrix) -> PolyKernelBasis:
    h, _, pivots = hermite_with_transform(g)
    return PolyKernelBasis(
        ambient=g.nrows, basis=h, rank=h.ncols,
        column_degrees=tuple(vector_degree(h.column(j)) for j in range(h.ncols)),
        pivot_rows=pivots)


def kernel_via_unimodular(a: Matrix) -> Submodule:
    """ker(A) as a submodule: an alias of poly_kernel(a).submodule."""
    return poly_kernel(a).submodule


def _solve_columns(a: Matrix, cs) -> list:
    """For each c in ``cs``, what poly_solve(a, c) returns, from one
    Hermite reduction of A."""
    for c in cs:
        if len(c) != a.nrows:
            raise DimensionMismatchError(f"rhs length {len(c)} != {a.nrows} rows")
    h, u, pivot_rows = hermite_with_transform(a)
    hermite = Submodule(a.ring, a.nrows, "poly", basis=h, pivot_rows=pivot_rows)
    pad = (a.ring.zero,) * (u.ncols - h.ncols)
    out = []
    for c in cs:
        coords = hermite.contains(c)
        out.append(None if coords is None else u.matvec(coords + pad))
    return out


def poly_solve(a: Matrix, c) -> tuple | None:
    """Some x(z) with A x = c over GF(p)[z], or None.

    Forward substitution against the Hermite form of A: at each pivot
    row only its own column can contribute, so the coordinate there is
    an exact division or the system is unsolvable.  Coordinates off the
    Hermite basis are pinned to zero, making the witness deterministic.
    """
    return _solve_columns(a, [c])[0]


# -- kernel pairs over GF(p)[z] ----------------------------------------------


def kernel_pair_poly(a: Matrix, b: Matrix):
    """ker(f1|f2) over GF(p)[z] with its split-sequence witness.

    ker_bar is the Hermite form of the u-block of the joint kernel
    basis; exactness of the projection means those generators already
    span ker(A|B), no saturation pass needed.
    """
    def solve_pair(a, b, us):
        return _solve_columns(a, [tuple(map(b.ring.neg, b.matvec(u))) for u in us])

    return _projection_pair(a, b, lambda m: poly_kernel(m).submodule, solve_pair)


def poly_member(a: Matrix, b: Matrix, u) -> tuple | None:
    """Witness x(z) with A x + B u = 0, or None when u is not in ker(A|B):
    one Hermite solve of A x = -B u."""
    return poly_solve(a, tuple(map(b.ring.neg, b.matvec(u))))


# -- local-global over (Z/m)[z] ----------------------------------------------


def reduce_poly_matrix(a: Matrix, i: int) -> Matrix:
    """Coefficientwise reduction of a (Z/m)[z] matrix mod its i-th prime."""
    return split_ring(a.ring).reduce_matrix(a, i)


def kernel_pair_poly_crt(a: Matrix, b: Matrix):
    """ker(f1|f2) over (Z/m)[z], m square-free, glued from the GF(p_i)[z]
    local kernels through the coefficient-ring idempotents."""
    from .crt import glue_kernel_pair

    if not isinstance(a.ring, PolyRing):
        raise RingMismatchError(f"expected a polynomial matrix, got {a.ring!r}")
    return glue_kernel_pair(a, b, split_ring(a.ring), lambda x, y: kernel_pair_poly(x, y)[0])


def poly_base_change_check(a: Matrix, b: Matrix, i: int) -> list:
    """Flatness check over (Z/m)[z]: reducing the glued generators mod
    the i-th prime must reproduce the local kernel."""
    from .crt import base_change_violations

    return base_change_violations(kernel_pair_poly_crt(a, b), i)


def random_unimodular(ring: PolyRing, n: int, rng, ops: int = 8) -> Matrix:
    """Product of elementary column operations; determinant a unit."""
    _require_poly_field(ring)
    cols = [list(c) for c in Matrix.identity(ring, n).columns()]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            f = ring.normalize([rng.randrange(ring.n) for _ in range(2)])
            for r in range(n):
                cols[j][r] = ring.add(cols[j][r], ring.mul(f, cols[i][r]))
        elif kind == 1:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            c = ring.constant(rng.randrange(1, ring.n))
            cols[i] = [ring.mul(c, e) for e in cols[i]]
    return Matrix.from_columns(ring, cols, nrows=n)

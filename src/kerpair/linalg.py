"""Exact linear algebra over prime fields and canonical submodule presentations.

The canonical presentation of a subspace of GF(p)^q is the reduced column
echelon basis: pivot entries 1, pivot rows strictly increasing, every
other entry in a pivot row zero, columns ordered by pivot row.  Two
subspaces are equal as sets exactly when their presentations are
identical, which turns set equality into structural comparison.

Submodules over Z/m (square-free) are presented per prime component, and
submodules over polynomial rings by a column Hermite basis; see
``Submodule`` for the dispatch.
"""

from dataclasses import dataclass

from .errors import AmbientMismatchError, DimensionMismatchError, NotAFieldError
from .matrix import Matrix
from .rings import ModRing, PolyRing, PrimeField, is_local, split_ring


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    rank: int
    pivot_cols: tuple
    transform: Matrix  # invertible, transform @ A == matrix


def _require_field(ring):
    if not isinstance(ring, PrimeField):
        raise NotAFieldError(f"{ring!r} is not a prime field")


def rref(a: Matrix) -> RrefResult:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns the echelon matrix, its rank, the pivot columns, and the
    invertible row transform accumulated alongside the elimination.
    """
    _require_field(a.ring)
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
    return RrefResult(
        matrix=Matrix(ring, a.nrows, a.ncols, rows),
        rank=r,
        pivot_cols=tuple(pivots),
        transform=Matrix(ring, a.nrows, a.nrows, trans),
    )


def _echelon_columns(ring, ambient, vectors):
    """Reduced column echelon basis of the span of ``vectors`` in ring^ambient.

    Returns (basis columns, pivot rows).
    """
    vecs = [v for v in vectors]
    if not vecs:
        return [], ()
    res = rref(Matrix.from_rows(ring, vecs))
    cols = [res.matrix.row(i) for i in range(res.rank)]
    return cols, res.pivot_cols


def nullspace(a: Matrix) -> "Submodule":
    """Canonical basis of the right kernel {v : Av = 0} over a prime field."""
    _require_field(a.ring)
    ring = a.ring
    res = rref(a)
    pivot_set = set(res.pivot_cols)
    free = [c for c in range(a.ncols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [ring.zero] * a.ncols
        v[f] = ring.one
        for i, pc in enumerate(res.pivot_cols):
            v[pc] = ring.neg(res.matrix.entries[i][f])
        vectors.append(tuple(v))
    return Submodule.from_columns(ring, a.ncols, vectors)


def solve(a: Matrix, b) -> tuple | None:
    """Some x with Ax = b, or None when the system is inconsistent.

    Deterministic: after row reduction the free variables are pinned to
    zero, so witnesses are reproducible.
    """
    _require_field(a.ring)
    if len(b) != a.nrows:
        raise DimensionMismatchError(f"rhs length {len(b)} != {a.nrows} rows")
    ring = a.ring
    res = rref(a)
    tb = res.transform.matvec(tuple(ring.normalize(x) for x in b))
    if any(tb[i] != ring.zero for i in range(res.rank, a.nrows)):
        return None
    x = [ring.zero] * a.ncols
    for i, pc in enumerate(res.pivot_cols):
        x[pc] = tb[i]
    return tuple(x)


def image(a: Matrix) -> "Submodule":
    """Canonical basis of the column span of a matrix over a prime field."""
    _require_field(a.ring)
    return Submodule.from_columns(a.ring, a.nrows, a.columns())


class Submodule:
    """Canonical finite presentation of a submodule of ring^ambient.

    kind "field":           reduced column echelon basis over GF(p).
    kind "components":      one field presentation per prime of square-free Z/m;
                            the submodule is glued back through the structural
                            idempotents.
    kind "poly":            column Hermite basis over GF(p)[z].
    kind "poly_components": one poly presentation per prime of (Z/m)[z].
    """

    __slots__ = ("ring", "ambient", "kind", "basis", "pivot_rows", "components")

    def __init__(self, ring, ambient, kind, basis=None, pivot_rows=(), components=()):
        self.ring = ring
        self.ambient = ambient
        self.kind = kind
        self.basis = basis
        self.pivot_rows = tuple(pivot_rows)
        self.components = tuple(components)

    @classmethod
    def from_columns(cls, ring, ambient, columns) -> "Submodule":
        """Canonicalize a spanning set of column vectors."""
        columns = [tuple(ring.normalize(e) for e in c) for c in columns]
        if any(len(c) != ambient for c in columns):
            raise AmbientMismatchError("spanning vector with wrong length")
        if not is_local(ring):
            split = split_ring(ring)
            return cls.glued(ring, ambient, [
                cls.from_columns(local, ambient, [split.reduce(c, i) for c in columns])
                for i, local in enumerate(split.locals)])
        if isinstance(ring, PrimeField):
            cols, pivots = _echelon_columns(ring, ambient, columns)
            basis = Matrix.from_columns(ring, cols, nrows=ambient) if cols else \
                Matrix.zeros(ring, ambient, 0)
            return cls(ring, ambient, "field", basis=basis, pivot_rows=pivots)
        from .polykernel import hermite_form

        basis = hermite_form(Matrix.from_columns(ring, columns, nrows=ambient)
                             if columns else Matrix.zeros(ring, ambient, 0))
        return cls(ring, ambient, "poly", basis=basis, pivot_rows=_poly_pivot_rows(basis))

    @classmethod
    def glued(cls, ring, ambient, components) -> "Submodule":
        """The submodule of a split ring with the given per-prime components."""
        kind = "components" if isinstance(ring, ModRing) else "poly_components"
        return cls(ring, ambient, kind, components=components)

    @classmethod
    def zero(cls, ring, ambient) -> "Submodule":
        return cls.from_columns(ring, ambient, [])

    @classmethod
    def full(cls, ring, ambient) -> "Submodule":
        cols = Matrix.identity(ring, ambient).columns()
        return cls.from_columns(ring, ambient, cols)

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of basis columns (per-component tuple for glued kinds)."""
        if self.kind in ("field", "poly"):
            return self.basis.ncols
        return tuple(c.dim for c in self.components)

    @property
    def rank(self) -> int:
        if self.kind in ("field", "poly"):
            return self.basis.ncols
        return tuple(c.rank for c in self.components)

    def size(self):
        """Number of elements; None over polynomial rings."""
        if self.kind == "field":
            return self.ring.p ** self.basis.ncols
        if self.kind == "components":
            n = 1
            for c in self.components:
                n *= c.size()
            return n
        return None

    def is_zero(self) -> bool:
        if self.kind in ("field", "poly"):
            return self.basis.ncols == 0
        return all(c.is_zero() for c in self.components)

    def is_full(self) -> bool:
        if self.kind in ("field", "poly"):
            return self.basis == Matrix.identity(self.ring, self.ambient)
        return all(c.is_full() for c in self.components)

    def generators(self) -> list:
        """Vectors over the submodule's own ring that generate it.

        For glued kinds each local basis vector is lifted and multiplied by
        the structural idempotent of its component, which kills the lift's
        arbitrariness in the other components.
        """
        if self.kind in ("field", "poly"):
            return self.basis.columns()
        split = split_ring(self.ring)
        return [split.lift(col, i) for i, comp in enumerate(self.components)
                for col in comp.basis.columns()]

    # -- membership --------------------------------------------------------

    def contains(self, v):
        """Coordinates of ``v`` over the generators, or None if not a member."""
        v = tuple(self.ring.normalize(e) for e in v)
        if len(v) != self.ambient:
            raise AmbientMismatchError(f"vector length {len(v)} != ambient {self.ambient}")
        if self.kind == "field":
            return self._contains_field(v)
        if self.kind == "poly":
            return self._contains_poly(v)
        split = split_ring(self.ring)
        coords = []
        for i, comp in enumerate(self.components):
            local = comp.contains(split.reduce(v, i))
            if local is None:
                return None
            coords.extend(local)
        return tuple(coords)

    def _contains_field(self, v):
        ring = self.ring
        coords = tuple(v[r] for r in self.pivot_rows)
        residual = list(v)
        for c, col in zip(coords, self.basis.columns()):
            for i, x in enumerate(col):
                residual[i] = ring.sub(residual[i], ring.mul(c, x))
        return coords if all(x == ring.zero for x in residual) else None

    def _contains_poly(self, v):
        # division against the Hermite basis: at each pivot row only the
        # current column contributes, so the quotient there must be exact
        ring = self.ring
        residual = list(v)
        coords = []
        for j, r in enumerate(self.pivot_rows):
            col = self.basis.column(j)
            q, rem = ring.divmod(residual[r], col[r])
            if rem != ring.zero:
                return None
            coords.append(q)
            if q != ring.zero:
                for i, x in enumerate(col):
                    residual[i] = ring.sub(residual[i], ring.mul(q, x))
        return tuple(coords) if all(x == ring.zero for x in residual) else None

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ring == other.ring
            and self.ambient == other.ambient
            and self.kind == other.kind
            and self.basis == other.basis
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ring, self.ambient, self.kind, self.basis, self.components))

    def __repr__(self):
        if self.kind in ("field", "poly"):
            return (f"Submodule({self.ring!r}, ambient={self.ambient}, "
                    f"rank={self.basis.ncols})")
        return (f"Submodule({self.ring!r}, ambient={self.ambient}, "
                f"components={self.components!r})")


def _poly_pivot_rows(basis: Matrix) -> tuple:
    ring = basis.ring
    pivots = []
    for j in range(basis.ncols):
        col = basis.column(j)
        pivots.append(next(i for i, e in enumerate(col) if e != ring.zero))
    return tuple(pivots)


def submodule_equal(s: Submodule, t: Submodule) -> bool:
    """Set equality of two submodules via their canonical presentations."""
    if s.ring != t.ring or s.ambient != t.ambient:
        raise AmbientMismatchError("comparing submodules of different ambient modules")
    return s == t


def submodule_member(v, s: Submodule):
    """Membership with expressing coordinates; (True, coords) or (False, None)."""
    coords = s.contains(v)
    return (coords is not None), coords


# -- random instances (seeded; used by tests and the verify command) -------


def random_matrix(ring, nrows, ncols, rng, max_degree=2) -> Matrix:
    if isinstance(ring, PolyRing):
        def draw():
            return ring.normalize([rng.randrange(ring.n) for _ in range(max_degree + 1)])
    else:
        def draw():
            return rng.randrange(ring.size)
    return Matrix(ring, nrows, ncols,
                  [[draw() for _ in range(ncols)] for _ in range(nrows)])


def random_invertible(ring, n, rng) -> Matrix:
    """Uniform-ish invertible matrix over a prime field by rejection."""
    _require_field(ring)
    while True:
        cand = random_matrix(ring, n, n, rng)
        if rref(cand).rank == n:
            return cand

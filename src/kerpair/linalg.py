"""Exact linear algebra over prime fields and canonical submodule presentations.

Every elimination over GF(p) -- ``rref``, ``nullspace``, ``solve``
and ``Submodule.from_columns`` -- is one Gauss-Jordan run of
``_eliminate`` on packed rows, the packing that ``matrix`` defines
and uses for products too.  A row is one Python int with a byte-aligned
slot per column, column 0 in the most significant slot, so a row
operation is one big-int multiply-add.  Row operations do not
reduce: a row is reduced mod p when it becomes the pivot row and once
more when the rows are unpacked.  Slots are wide enough for the largest
value that can build up in between, (p - 1) + k (p - 1)^2 after k row
operations, k = min(rows, pivot columns).  GF(2) is the same code with
1-byte slots, 2-byte ones from k = 255 on.  On 1-byte slots a row is
reduced, or scaled and reduced, by one ``bytes.translate`` through a
256-byte table of v -> c v mod p.

The canonical presentation of a subspace of GF(p)^q is the reduced column
echelon basis: pivot entries 1, pivot rows strictly increasing, every
other entry in a pivot row zero, columns ordered by pivot row.  Two
subspaces are equal as sets exactly when their presentations are
identical, which turns set equality into structural comparison.

``Submodule`` is the one presentation over every ring: over GF(p)[z] it
holds the column Hermite basis, and over square-free Z/m or (Z/m)[z] one
local presentation per prime.
"""

import functools
import math
from dataclasses import dataclass

from .errors import AmbientMismatchError, DimensionMismatchError, NotAFieldError
from .matrix import Matrix, _from_slots, _pack, _slot_bytes
from .rings import PolyRing, PrimeField, is_local, split_ring


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    rank: int
    pivot_cols: tuple
    transform: Matrix  # invertible, transform @ A == matrix


def _require_field(ring):
    if not isinstance(ring, PrimeField):
        raise NotAFieldError(f"{ring!r} is not a prime field")


@functools.cache
def _table(p, c):
    """The ``bytes.translate`` table of v -> c v mod p over bytes v, for a
    prime p whose 1-byte slots it reduces and c in [1, p)."""
    return bytes(c * v % p for v in range(256))


def _eliminate(rows, p, ncols):
    """Gauss-Jordan elimination over GF(p) of ``rows``, equal-length
    sequences of ints in [0, p), which it leaves unchanged.

    Pivots are sought in the first ``ncols`` columns only; the columns
    after them (a transform, right-hand sides) go through the same row
    operations.  Returns the reduced rows, as new lists, and the pivot
    columns.  Every field elimination runs here, GF(2) included.

    Each row is packed into one int, column 0 in its most significant
    slot, so that a row operation is one big-int multiply-add (delayed
    modular reduction as in FFLAS-FFPACK, Dumas, Giorgi & Pernet 2008;
    packed rows as in M4RI, Albrecht & Bard).  A row that is not the
    pivot row takes ``row += (p - f) * top`` unreduced, where f is its
    entry at the pivot column mod p, which clears that entry mod p.  A
    row is reduced mod p, and scaled to 1 at its pivot, only when it
    becomes the pivot row, and every row once more when the matrix is
    unpacked.  The pivot row is reduced, so a slot gains at most
    (p - 1)^2 per row operation, and at most k = min(nrows, ncols) row
    operations reach a row: a slot of ``_slot_bytes(p, k)`` bytes never
    overflows into its neighbour.  Entries are read mod p throughout.
    On 1-byte slots the pivot row and the unpacked rows go through
    ``_table`` instead, one ``bytes.translate`` per row.
    """
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    if not width:
        return [list(row) for row in rows], []
    size = _slot_bytes(p, min(nrows, ncols))
    bits, span = 8 * size, width * size
    mask = (1 << bits) - 1
    packed = [_pack(row, p, size) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        shift = (width - 1 - c) * bits  # of column c's slot
        for i in range(r, nrows):
            f = (packed[i] >> shift & mask) % p
            if f:
                break
        else:
            continue
        top = packed[i]
        packed[i] = packed[r]
        # the pivot row is 0 mod p left of c: reduce and scale its tail
        inv = pow(f, -1, p)
        tail = top.to_bytes(span, "big")[c * size:]
        if size == 1:
            top = int.from_bytes(tail.translate(_table(p, inv)), "big")
        else:
            top = _pack([inv * x % p for x in _from_slots(tail, size)], p, size)
        packed[r] = 0  # the pivot row takes no row operation of its own
        packed = [row + (p - f) * top if (f := (row >> shift & mask) % p) else row
                  for row in packed]
        packed[r] = top
        pivots.append(c)
        if r + 1 == nrows:
            break
    if size == 1:
        table = _table(p, 1)
        return [list(row.to_bytes(span, "big").translate(table)) for row in packed], pivots
    return [[x % p for x in _from_slots(row.to_bytes(span, "big"), size)]
            for row in packed], pivots


def rref(a: Matrix) -> RrefResult:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns the echelon matrix, its rank, the pivot columns, and the
    invertible row transform, read off the elimination of [A | I].
    """
    _require_field(a.ring)
    ring, n, m = a.ring, a.ncols, a.nrows
    rows, pivots = _eliminate(
        [r + (0,) * i + (1,) + (0,) * (m - 1 - i) for i, r in enumerate(a.entries)],
        ring.p, n)
    return RrefResult(
        matrix=Matrix._canonical(ring, m, n, [r[:n] for r in rows]),
        rank=len(pivots),
        pivot_cols=tuple(pivots),
        transform=Matrix._canonical(ring, m, m, [r[n:] for r in rows]),
    )


def _echelon(ring, ambient, vectors) -> "Submodule":
    """The canonical presentation of the span of ``vectors`` in
    GF(p)^ambient, whose entries are already in [0, p): one elimination of
    them as rows, none when there are no vectors."""
    rows, pivots = _eliminate(vectors, ring.p, ambient) if vectors else ([], ())
    rank = len(pivots)
    basis = Matrix._canonical(ring, ambient, rank, zip(*rows[:rank])) if rank else \
        Matrix.zeros(ring, ambient, 0)
    return Submodule(ring, ambient, basis=basis, pivot_rows=pivots)


def _span(ring, ambient, columns) -> "Submodule":
    """The canonical presentation of the span of ``columns`` in
    ring^ambient over GF(p) or GF(p)[z], their entries already canonical:
    ``_echelon`` over GF(p), ``hermite_basis`` over GF(p)[z]."""
    if isinstance(ring, PrimeField):
        return _echelon(ring, ambient, columns)
    from .polykernel import hermite_basis

    rows = list(zip(*columns)) if columns else [()] * ambient
    return hermite_basis(Matrix._canonical(ring, ambient, len(columns), rows))


def nullspace(a: Matrix) -> "Submodule":
    """Canonical basis of the right kernel {v : Av = 0} over a prime field.

    One elimination of A with its columns reversed.  There the kernel
    vector of each free column f is 1 at f, 0 at every other free column
    and elsewhere nonzero only at pivot columns before f.  Read back in
    the original order, f becomes its leading entry, so the vectors are
    already the reduced column echelon basis.
    """
    _require_field(a.ring)
    ring, n, p = a.ring, a.ncols, a.ring.p
    rows, pivots = _eliminate([r[::-1] for r in a.entries], p, n)
    free = sorted(set(range(n)).difference(pivots), reverse=True)
    cols = []
    for f in free:
        v = [0] * n
        v[n - 1 - f] = 1
        for row, pc in zip(rows, pivots):
            v[n - 1 - pc] = -row[f] % p
        cols.append(v)
    basis = Matrix._canonical(ring, n, len(cols), zip(*cols)) if cols else \
        Matrix.zeros(ring, n, 0)
    return Submodule(ring, n, basis=basis, pivot_rows=tuple(n - 1 - f for f in free))


def _solve_columns(a: Matrix, rhs) -> list:
    """For each right-hand side c in ``rhs`` (a list of columns), some x
    with A x = c or None; one elimination of [A | c_1 ... c_k].

    Free variables are pinned to zero, so witnesses are reproducible.
    """
    n, k = a.ncols, len(rhs)
    rows, pivots = _eliminate([r + tuple(c[i] for c in rhs)
                               for i, r in enumerate(a.entries)], a.ring.p, n)
    rank = len(pivots)
    out = []
    for j in range(n, n + k):
        if any(row[j] for row in rows[rank:]):
            out.append(None)
            continue
        x = [0] * n
        for row, pc in zip(rows, pivots):
            x[pc] = row[j]
        out.append(tuple(x))
    return out


def solve(a: Matrix, b) -> tuple | None:
    """Some x with Ax = b, or None when the system is inconsistent.

    Deterministic: after row reduction the free variables are pinned to
    zero, so witnesses are reproducible.
    """
    _require_field(a.ring)
    if len(b) != a.nrows:
        raise DimensionMismatchError(f"rhs length {len(b)} != {a.nrows} rows")
    return _solve_columns(a, [a.ring.normalize_all(b)])[0]


def image(a: Matrix) -> "Submodule":
    """Canonical basis of the column span of a matrix over a prime field."""
    _require_field(a.ring)
    return Submodule.from_columns(a.ring, a.nrows, a.columns())


def vector_degree(v) -> int:
    """Largest entry degree of a polynomial vector; -1 for the zero vector."""
    degs = [len(e) - 1 for e in v if e]
    return max(degs, default=-1)


class Submodule:
    """Canonical finite presentation of a submodule of ring^ambient.

    Over GF(p) or GF(p)[z] it is local: ``basis`` (ambient x rank) in
    canonical column form, reduced column echelon over GF(p) and column
    Hermite over GF(p)[z], with its ``pivot_rows``.  Over square-free Z/m or (Z/m)[z]
    it is glued: ``components`` holds one local presentation per prime,
    glued back through the structural idempotents.  Equal submodules have
    equal presentations.
    """

    __slots__ = ("ring", "ambient", "basis", "pivot_rows", "components")

    def __init__(self, ring, ambient, basis=None, pivot_rows=(), components=()):
        self.ring = ring
        self.ambient = ambient
        self.basis = basis
        self.pivot_rows = tuple(pivot_rows)
        self.components = tuple(components)

    @classmethod
    def from_columns(cls, ring, ambient, columns) -> "Submodule":
        """Canonicalize a spanning set of column vectors."""
        columns = list(map(ring.normalize_all, columns))
        if any(len(c) != ambient for c in columns):
            raise AmbientMismatchError("spanning vector with wrong length")
        if not is_local(ring):
            split = split_ring(ring)
            return cls(ring, ambient, components=[
                cls.from_columns(local, ambient, [split.reduce(c, i) for c in columns])
                for i, local in enumerate(split.locals)])
        return _span(ring, ambient, columns)

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
        """Number of basis columns (per-component tuple when glued)."""
        if self.components:
            return tuple(c.dim for c in self.components)
        return self.basis.ncols

    rank = dim

    @property
    def column_degrees(self) -> tuple:
        """Degree of each basis column over GF(p)[z]."""
        return tuple(map(vector_degree, self.basis.columns()))

    def size(self):
        """Number of elements; None over polynomial rings."""
        if self.ring.size is None:
            return None
        if self.components:
            return math.prod(c.size() for c in self.components)
        return self.ring.size ** self.basis.ncols

    def is_zero(self) -> bool:
        if self.components:
            return all(c.is_zero() for c in self.components)
        return self.basis.ncols == 0

    def is_full(self) -> bool:
        if self.components:
            return all(c.is_full() for c in self.components)
        return self.basis == Matrix.identity(self.ring, self.ambient)

    def generators(self) -> list:
        """Vectors over the submodule's own ring that generate it.

        When glued, each local basis vector is lifted and multiplied by
        the structural idempotent of its component, which kills the lift's
        arbitrariness in the other components.
        """
        if not self.components:
            return self.basis.columns()
        split = split_ring(self.ring)
        return [split.lift(col, i) for i, comp in enumerate(self.components)
                for col in comp.basis.columns()]

    # -- membership --------------------------------------------------------

    def contains(self, v):
        """Coordinates of ``v`` over the generators, or None if not a member."""
        v = self.ring.normalize_all(v)
        if len(v) != self.ambient:
            raise AmbientMismatchError(f"vector length {len(v)} != ambient {self.ambient}")
        if not self.components:
            return self._contains_local(v)
        split = split_ring(self.ring)
        coords = []
        for i, comp in enumerate(self.components):
            local = comp.contains(split.reduce(v, i))
            if local is None:
                return None
            coords.extend(local)
        return tuple(coords)

    def _contains_local(self, v):
        # division against the echelon or Hermite basis: at each pivot row
        # only the current column contributes, so the quotient there must be
        # exact (over GF(p) the pivots are 1 and the quotient is v's entry)
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
                residual = [ring.sub_mul(x, q, y) for x, y in zip(residual, col)]
        return tuple(coords) if all(x == ring.zero for x in residual) else None

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ring == other.ring
            and self.ambient == other.ambient
            and self.basis == other.basis
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ring, self.ambient, self.basis, self.components))

    def __repr__(self):
        if self.components:
            return (f"Submodule({self.ring!r}, ambient={self.ambient}, "
                    f"components={self.components!r})")
        return (f"Submodule({self.ring!r}, ambient={self.ambient}, "
                f"rank={self.basis.ncols})")


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
    """Random invertible matrix over GF(p) as P L U (Randall 1993): P a
    permutation, L unit lower and U upper triangular with nonzero diagonal,
    so all of GL_n(GF(p)) can be drawn; one ``getrandbits`` per row, no rejection."""
    _require_field(ring)
    p, k = ring.p, max(ring.p, n).bit_length() + 32  # bits per draw: bias below 2**-32
    mask = (1 << k) - 1
    lower, upper = [], []
    for i in range(n):
        w = rng.getrandbits(k * (n + 1))
        x = [(w >> s & mask) % p for s in range(0, k * n, k)]
        # P: row i of L goes to a random one of the i + 1 places among rows 0..i
        lower.insert((w >> k * n) % (i + 1), x[:i] + [1] + [0] * (n - 1 - i))
        upper.append([0] * i + [1 + (w >> k * i & mask) % (p - 1)] + x[i + 1:])
    return Matrix._canonical(ring, n, n, lower) @ Matrix._canonical(ring, n, n, upper)

"""Dense immutable matrices over a coefficient ring.

A matrix over a ring R with q columns and p rows represents the R-linear
map R^q -> R^p whose columns are the images of the standard basis
vectors.  Entries are canonical ring elements; all operations are pure.

Products over GF(p) and Z/m (``PrimeField``, ``ModRing``) run on the
integers with one reduction mod q per entry; over polynomial rings they
go through the ring's methods.
"""

import functools
from operator import mul

from .errors import DimensionMismatchError, RingMismatchError
from .rings import ModRing, PrimeField


def _modulus(ring):
    """q for Z/q (GF(p) or Z/m), whose products run inline; else None."""
    return ring.size if isinstance(ring, (PrimeField, ModRing)) else None


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring, nrows: int, ncols: int, entries):
        """``entries`` is a row-major nested sequence; values are normalized."""
        if nrows < 0 or ncols < 0:
            raise DimensionMismatchError("negative matrix dimensions")
        rows = tuple(tuple(ring.normalize(e) for e in row) for row in entries)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise DimensionMismatchError(
                f"expected {nrows}x{ncols} entries, got {[len(r) for r in rows]}"
            )
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = rows

    @classmethod
    def _canonical(cls, ring, nrows, ncols, rows):
        """A matrix whose ``rows`` already hold canonical entries in the
        stated shape, as every ring operation and elimination returns them;
        they are stored without ``ring.normalize``."""
        self = object.__new__(cls)
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = tuple(map(tuple, rows))
        return self

    @classmethod
    def from_rows(cls, ring, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(ring, len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, ring, columns, nrows=None):
        columns = [list(c) for c in columns]
        if nrows is None:
            if not columns:
                raise DimensionMismatchError("nrows required for an empty column list")
            nrows = len(columns[0])
        rows = [[c[i] for c in columns] for i in range(nrows)]
        return cls(ring, nrows, len(columns), rows)

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls._canonical(ring, nrows, ncols, [(ring.zero,) * ncols] * nrows)

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls._canonical(ring, n, n,
                              [[o if i == j else z for j in range(n)] for i in range(n)])

    def row(self, i) -> tuple:
        return self.entries[i]

    def column(self, j) -> tuple:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix._canonical(self.ring, self.ncols, self.nrows,
                                 [self.column(i) for i in range(self.ncols)])

    def map_entries(self, func, ring=None) -> "Matrix":
        """Apply ``func`` entrywise, optionally landing in a different ring."""
        target = ring if ring is not None else self.ring
        return Matrix(target, self.nrows, self.ncols,
                      [[func(e) for e in row] for row in self.entries])

    def _check_same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._check_same_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("matrix addition shape mismatch")
        add = self.ring.add
        return Matrix._canonical(self.ring, self.nrows, self.ncols,
                                 [map(add, ra, rb)
                                  for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.neg
        return Matrix._canonical(self.ring, self.nrows, self.ncols,
                                 [map(neg, row) for row in self.entries])

    def scale(self, c) -> "Matrix":
        ring_mul = self.ring.mul
        return Matrix._canonical(self.ring, self.nrows, self.ncols,
                                 [[ring_mul(c, a) for a in row] for row in self.entries])

    def __matmul__(self, other):
        self._check_same_ring(other)
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        ring = self.ring
        # zip(*()) has no columns at all; an inner dimension of 0 still has
        # other.ncols (empty) columns
        cols = list(zip(*other.entries)) if other.nrows else [()] * other.ncols
        q = _modulus(ring)
        if q is not None:
            rows = [[sum(map(mul, row, col)) % q for col in cols] for row in self.entries]
        else:
            add, ring_mul, zero = ring.add, ring.mul, ring.zero
            rows = [[functools.reduce(add, map(ring_mul, row, col), zero) for col in cols]
                    for row in self.entries]
        return Matrix._canonical(ring, self.nrows, other.ncols, rows)

    def matvec(self, v) -> tuple:
        """Apply the matrix to a length-``ncols`` vector."""
        if len(v) != self.ncols:
            raise DimensionMismatchError(f"vector length {len(v)} != {self.ncols} columns")
        ring = self.ring
        q = _modulus(ring)
        if q is not None:
            return tuple(sum(map(mul, row, v)) % q for row in self.entries)
        add, ring_mul, zero = ring.add, ring.mul, ring.zero
        return tuple(functools.reduce(add, map(ring_mul, row, v), zero)
                     for row in self.entries)

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(e == z for row in self.entries for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.entries == other.entries
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.ring, self.nrows, self.ncols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.format(e) for e in row) for row in self.entries
        )
        return f"Matrix({self.ring!r}, {self.nrows}x{self.ncols}: [{body}])"


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if left.ring != right.ring:
        raise RingMismatchError("hstack over different rings")
    if left.nrows != right.nrows:
        raise DimensionMismatchError("hstack row-count mismatch")
    return Matrix._canonical(left.ring, left.nrows, left.ncols + right.ncols,
                             [ra + rb for ra, rb in zip(left.entries, right.entries)])


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.ring != bottom.ring:
        raise RingMismatchError("vstack over different rings")
    if top.ncols != bottom.ncols:
        raise DimensionMismatchError("vstack column-count mismatch")
    return Matrix._canonical(top.ring, top.nrows + bottom.nrows, top.ncols,
                             top.entries + bottom.entries)

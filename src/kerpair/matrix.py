"""Dense immutable matrices over a coefficient ring.

A matrix over a ring R with q columns and p rows represents the R-linear
map R^q -> R^p whose columns are the images of the standard basis
vectors.  Entries are canonical ring elements; all operations are pure.

Every product is a linear combination of vectors, and one kernel,
``_combination``, forms them all: ``A @ X`` combines the rows of X,
``A.matvec(v)`` the columns of A (the map is built on the first matvec
and kept), and ``A._affine(B)``, a trajectory step, the columns of
[A | B].  Over GF(p) and Z/m (``ResidueRing``) the vectors are packed
once, the packing that ``linalg._eliminate`` uses too: a vector of ints
in [0, q) is one Python int with a byte-aligned big-endian slot per
entry, the first entry most significant.  A combination is then one sum
of big-int multiples, reduced only when it is unpacked, once per output
slot (delayed modular reduction, as in FFLAS-FFPACK, Dumas, Giorgi &
Pernet 2008).  Over polynomial rings it goes through the ring's methods.
"""

import functools
import sys
from array import array
from operator import mul

from .errors import DimensionMismatchError, RingMismatchError
from .rings import ResidueRing

#: ``array`` type codes by item size: slots of 1, 2, 4 and 8 bytes
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}
#: ``array`` items are native-endian, slots big-endian
_SWAP = sys.byteorder == "little"


def _slot_bytes(p, k):
    """Bytes per slot of a packed vector over Z/p that takes k multiply-adds
    of reduced operands: room for (p - 1) + k (p - 1)^2."""
    return ((p - 1) * (1 + k * (p - 1))).bit_length() + 7 >> 3


def _restride(buf, size, new):
    """The big-endian ``size``-byte slots of ``buf`` as ``new``-byte
    slots; every value must fit in ``new`` bytes."""
    if new == size:
        return buf
    out = bytearray(len(buf) // size * new)
    n = min(size, new)
    for j in range(n):
        out[new - n + j::new] = buf[size - n + j::size]
    return out


def _pack(values, p, size):
    """One int holding ``values``, ints in [0, p), in big-endian slots of
    ``size`` bytes, the first value most significant."""
    if size == 1:
        return int.from_bytes(bytes(values), "big")
    # array items of the slot width, else of the narrowest width holding p - 1
    item = size if size in _TYPECODES else 2 if p <= 1 << 16 else 4 if p <= 1 << 32 else 8
    words = array(_TYPECODES[item], values)
    if _SWAP:
        words.byteswap()
    return int.from_bytes(_restride(words.tobytes(), item, size), "big")


def _from_slots(buf, size):
    """The values held in the big-endian ``size``-byte slots of ``buf``."""
    if size == 1:
        return buf
    item = 2 if size == 2 else 4 if size <= 4 else -(-size // 8) * 8
    words = array(_TYPECODES[min(item, 8)], _restride(buf, size, item))
    if _SWAP:
        words.byteswap()
    if item <= 8:
        return words
    n = item // 8  # words per slot, most significant first
    values = words[::n]
    for j in range(1, n):
        values = [v << 64 | w for v, w in zip(values, words[j::n])]
    return values


def _unpack(acc, q, count, size):
    """The ``count`` slots of the packed sum ``acc``, reduced mod q."""
    return tuple(map(q.__rmod__, _from_slots(acc.to_bytes(count * size, "big"), size)))


def _combination(ring, vectors, length: int, aligned=False):
    """The map c -> sum_j c[j] vectors[j], for ``length``-entry vectors and
    c of canonical entries.  Over Z/q: the vectors packed once, in slots
    for len(vectors) products (rounded up to an ``array`` width if
    ``aligned``), one big-int sum and one ``_unpack``; else ring methods."""
    if isinstance(ring, ResidueRing):
        q = ring.q
        size = _slot_bytes(q, len(vectors))
        if aligned:
            size = next((s for s in sorted(_TYPECODES) if s >= size), size)
        packed = [_pack(v, q, size) for v in vectors]
        return lambda c: _unpack(sum(map(mul, c, packed)), q, length, size)
    add, ring_mul, zero = ring.add, ring.mul, ring.zero
    entries = list(zip(*vectors)) if vectors else [()] * length
    return lambda c: tuple(functools.reduce(add, map(ring_mul, e, c), zero) for e in entries)


class Matrix:
    # _packed_columns: the _combination of the columns, built by the first
    # matvec; a cache, not part of the value (__eq__ and __hash__ ignore it)
    __slots__ = ("ring", "nrows", "ncols", "entries", "_packed_columns")

    def __init__(self, ring, nrows: int, ncols: int, entries):
        """``entries`` is a row-major nested sequence; values are normalized."""
        if nrows < 0 or ncols < 0:
            raise DimensionMismatchError("negative matrix dimensions")
        rows = tuple(map(ring.normalize_all, entries))
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise DimensionMismatchError(
                f"expected {nrows}x{ncols} entries, got {[len(r) for r in rows]}"
            )
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = rows
        self._packed_columns = None

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
        self._packed_columns = None
        return self

    @classmethod
    def from_rows(cls, ring, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(ring, len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, ring, columns, nrows=None):
        columns = [tuple(c) for c in columns]
        if nrows is None:
            if not columns:
                raise DimensionMismatchError("nrows required for an empty column list")
            nrows = len(columns[0])
        for j, c in enumerate(columns):
            if len(c) != nrows:
                raise DimensionMismatchError(f"column {j} has length {len(c)}, not {nrows}")
        return cls(ring, nrows, len(columns), zip(*columns) if columns else [()] * nrows)

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls._canonical(ring, nrows, ncols, [(ring.zero,) * ncols] * nrows)

    @classmethod
    def identity(cls, ring, n):
        zs, o = (ring.zero,) * n, ring.one
        return cls._canonical(ring, n, n, [zs[:i] + (o,) + zs[i + 1:] for i in range(n)])

    def row(self, i) -> tuple:
        return self.entries[i]

    def column(self, j) -> tuple:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        # zip(*()) has no columns at all; a matrix without rows still has
        # ncols (empty) ones
        return list(zip(*self.entries)) if self.nrows else [()] * self.ncols

    def transpose(self) -> "Matrix":
        return Matrix._canonical(self.ring, self.ncols, self.nrows, self.columns())

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
        combine = _combination(self.ring, other.entries, other.ncols)
        return Matrix._canonical(self.ring, self.nrows, other.ncols,
                                 map(combine, self.entries))

    def matvec(self, v) -> tuple:
        """Apply the matrix to a length-``ncols`` vector, normalized first."""
        if len(v) != self.ncols:
            raise DimensionMismatchError(f"vector length {len(v)} != {self.ncols} columns")
        if self._packed_columns is None:
            self._packed_columns = _combination(self.ring, self.columns(), self.nrows)
        return self._packed_columns(self.ring.normalize_all(v))

    def _affine(self, b: "Matrix"):
        """The map (x, u) -> A x + B u, A this matrix, for vectors of
        canonical entries and of lengths A.ncols and B.ncols, which it
        does not check: a trajectory step, the combination of the columns
        of [A | B], packed once over Z/q in ``array``-width slots."""
        combine = _combination(self.ring, hstack(self, b).columns(), self.nrows, aligned=True)
        return lambda x, u: combine(x + u)

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

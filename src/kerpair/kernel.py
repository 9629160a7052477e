"""Kernels of pairs of linear maps over prime fields.

Given f1: R^q1 -> R^p and f2: R^q2 -> R^p presented by matrices A and B,
the kernel of the pair is

    ker(f1|f2) = {u in R^q2 : A x + B u = 0 for some x}

together with the joint kernel ker(f1,f2) of [A|B] and the plain kernel
of A.  The three sit in a short exact sequence

    0 -> ker(f1) -> ker(f1,f2) -> ker(f1|f2) -> 0

which splits over fields; the splitting is materialized as an
ExactSequenceWitness with an explicit section.

Three independent computations of ker(f1|f2) are provided (projection of
the joint kernel, preimage of the image of f1 under f2, kernel through
the cokernel of f1) plus a brute-force enumeration oracle for small
finite rings.  They must all agree on the canonical presentation.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    ConsistencyViolatedError,
    DimensionMismatchError,
    IdentityViolatedError,
    MethodUnavailableError,
    NotFiniteError,
    NotInvertible,
    OracleTooLargeError,
    RingMismatchError,
)
from .linalg import Submodule, image, nullspace, rref, solve_pair
from .matrix import Matrix, hstack, vstack
from .rings import PolyRing, PrimeField, split_ring


@dataclass(frozen=True)
class KernelPairResult:
    ker_f1: Submodule      # of R^q1; None from the oracle, which enumerates ker_bar only
    ker_pair: Submodule    # of R^(q1+q2); None from the oracle
    ker_bar: Submodule     # of R^q2, this is ker(f1|f2)
    method: str


@dataclass(frozen=True)
class ExactSequenceWitness:
    """Explicit maps realizing the split short exact sequence.

    iota embeds R^q1 as the x-block of R^(q1+q2); pi2 projects onto the
    u-block; section has one column (x_u, u) per ker_bar basis vector u,
    with A x_u = -B u.
    """

    iota: Matrix     # (q1+q2) x q1
    pi2: Matrix      # q2 x (q1+q2)
    section: Matrix  # (q1+q2) x dim(ker_bar)


@dataclass(frozen=True)
class QuotientMap:
    """The map N -> N/Im(f1) over a field, as a (p-r) x p matrix C.

    C is the non-pivot block of the row-reduction transform of A, so
    C A = 0 and rank C = p - rank A; its kernel is exactly Im(A).
    """

    matrix: Matrix
    rank_f1: int


class Automorphism:
    """Invertible square matrix over a prime field with cached inverse."""

    def __init__(self, matrix: Matrix):
        if matrix.nrows != matrix.ncols:
            raise DimensionMismatchError("automorphism matrix must be square")
        res = rref(matrix)
        if res.rank != matrix.nrows:
            raise NotInvertible(f"matrix has rank {res.rank} < {matrix.nrows}")
        self.matrix = matrix
        self.inverse = res.transform  # transform @ matrix == I

    @property
    def ring(self):
        return self.matrix.ring

    @property
    def n(self):
        return self.matrix.nrows


def _check_pair(a: Matrix, b: Matrix):
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring!r} vs {b.ring!r}")
    if a.nrows != b.nrows:
        raise DimensionMismatchError(
            f"codomain mismatch: A has {a.nrows} rows, B has {b.nrows}")


def _project_u(ker_pair: Submodule, q1: int, q2: int) -> Submodule:
    cols = [col[q1:] for col in ker_pair.basis.columns()]
    return Submodule.from_columns(ker_pair.ring, q2, cols)


def _projection_pair(a: Matrix, b: Matrix, kernel, solve_pair):
    """ker(f1|f2) as the u-projection of the joint kernel of [A|B], with
    the split-sequence witness: one section column (x_u, u) per ker_bar
    basis vector u, where ``solve_pair(A, B, us)`` gives every x_u with
    A x_u = -B u at once.  ``kernel`` and ``solve_pair`` are the local
    ring's: elimination over GF(p), Hermite over GF(p)[z]."""
    _check_pair(a, b)
    ring = a.ring
    q1, q2 = a.ncols, b.ncols
    ker_pair = kernel(hstack(a, b))
    ker_bar = _project_u(ker_pair, q1, q2)
    result = KernelPairResult(ker_f1=kernel(a), ker_pair=ker_pair,
                              ker_bar=ker_bar, method="projection")
    iota = vstack(Matrix.identity(ring, q1), Matrix.zeros(ring, q2, q1))
    pi2 = hstack(Matrix.zeros(ring, q2, q1), Matrix.identity(ring, q2))
    us = ker_bar.basis.columns()
    cols = []
    for u, x in zip(us, solve_pair(a, b, us)):
        if x is None:
            raise ConsistencyViolatedError(
                f"no section witness for {u!r}, although it lies in ker(f1|f2)")
        cols.append(x + u)
    section = Matrix.from_columns(ring, cols, nrows=q1 + q2)
    return result, ExactSequenceWitness(iota=iota, pi2=pi2, section=section)


def kernel_pair_projection(a: Matrix, b: Matrix):
    """ker(f1|f2) as the u-projection of the joint kernel of [A|B].

    Returns the result together with the split-sequence witness.
    """
    return _projection_pair(a, b, nullspace, solve_pair)


def _ker_bar(a: Matrix, b: Matrix) -> Submodule:
    """ker(f1|f2) as f2^{-1}(Im f1): solve [M|B](lambda,u) = 0 over a
    basis M of Im(A) and project to u.  Forms ker_bar alone."""
    m = image(a).basis
    return _project_u(nullspace(hstack(m, b)), m.ncols, b.ncols)


def kernel_pair_preimage(a: Matrix, b: Matrix) -> KernelPairResult:
    """ker(f1|f2) by the preimage method (``_ker_bar``), with ker_f1 and
    the joint kernel alongside."""
    _check_pair(a, b)
    return KernelPairResult(ker_f1=nullspace(a),
                            ker_pair=nullspace(hstack(a, b)),
                            ker_bar=_ker_bar(a, b), method="preimage")


def quotient_map(a: Matrix) -> QuotientMap:
    res = rref(a)
    rows = [res.transform.row(i) for i in range(res.rank, a.nrows)]
    c = Matrix.from_rows(a.ring, rows) if rows else Matrix.zeros(a.ring, 0, a.nrows)
    return QuotientMap(matrix=c, rank_f1=res.rank)


def kernel_pair_quotient(a: Matrix, b: Matrix):
    """ker(f1|f2) as ker(p1 . f2) where p1 is the quotient map N -> N/Im(f1)."""
    _check_pair(a, b)
    qm = quotient_map(a)
    ker_bar = nullspace(qm.matrix @ b)
    result = KernelPairResult(ker_f1=nullspace(a),
                              ker_pair=nullspace(hstack(a, b)),
                              ker_bar=ker_bar, method="quotient")
    return result, qm


_METHODS = {
    "projection": lambda a, b: kernel_pair_projection(a, b)[0],
    "preimage": kernel_pair_preimage,
    "quotient": lambda a, b: kernel_pair_quotient(a, b)[0],
}


def kernel_pair_field(a: Matrix, b: Matrix, method: str = "projection") -> KernelPairResult:
    if method not in _METHODS:
        raise MethodUnavailableError(f"method {method!r} does not apply to {a.ring!r}")
    return _METHODS[method](a, b)


# -- witness checking -------------------------------------------------------


def check_witness(a: Matrix, b: Matrix, result: KernelPairResult,
                  witness: ExactSequenceWitness) -> list:
    """Verify every ExactSequenceWitness invariant; returns violations.

    Works over prime fields and over GF(p)[z] (both hereditary, so the
    sequence must split).  An empty list means the witness is valid.
    """
    from .crt import kernel

    ring = a.ring
    q1, q2 = a.ncols, b.ncols
    ab = hstack(a, b)
    violations = []

    if not (witness.pi2 @ witness.iota).is_zero():
        violations.append("pi2 . iota != 0")
    if witness.pi2 @ witness.section != result.ker_bar.basis:
        violations.append("pi2 . section is not the identity on ker_bar")

    iota_cols = [witness.iota.matvec(x) for x in result.ker_f1.basis.columns()]
    sec_cols = witness.section.columns()
    for j, col in enumerate(iota_cols):
        if any(e != ring.zero for e in ab.matvec(col)):
            violations.append(f"iota(ker_f1 basis {j}) is not in ker(f1,f2)")
    for j, col in enumerate(sec_cols):
        if any(e != ring.zero for e in ab.matvec(col)):
            violations.append(f"section column {j} is not in ker(f1,f2)")

    combined = Submodule.from_columns(ring, q1 + q2, iota_cols + sec_cols)
    if combined != result.ker_pair:
        violations.append("image(iota) + image(section) != ker(f1,f2)")
    if combined.rank != len(iota_cols) + len(sec_cols):
        violations.append("image(iota) and image(section) overlap")

    # image(iota) must be exactly ker(pi2) restricted to ker_pair
    restricted = kernel(vstack(ab, witness.pi2))
    iota_span = Submodule.from_columns(ring, q1 + q2, iota_cols)
    if restricted != iota_span:
        violations.append("image(iota) != ker(pi2) within ker(f1,f2)")
    return violations


# -- brute-force oracle -----------------------------------------------------


def admissible_set(a: Matrix, b: Matrix, limit: int = 10 ** 6) -> list:
    """All u with A x + B u = 0 solvable, by direct enumeration.

    Over a field, solvability of each candidate is a rank test; over
    square-free Z/m it is checked modulo every prime factor; over other
    moduli x is enumerated too, since per-prime solvability can lie
    there (4x = 2 has a solution mod 2 but none mod 4).
    """
    _check_pair(a, b)
    ring = a.ring
    if isinstance(ring, PolyRing):
        raise NotFiniteError("cannot enumerate GF(p)[z] vectors")
    q1, q2 = a.ncols, b.ncols
    count = ring.size ** q2
    if count > limit:
        raise OracleTooLargeError(f"{count} candidates exceed the {limit} guard")

    if isinstance(ring, PrimeField) or ring.square_free:
        # A x = -B u is solvable exactly when, at every prime, the rows of
        # A's transform past its rank (the quotient map C) kill -B u, as
        # in ``solve``; C (-B) is built once per prime, not per candidate
        split = None if isinstance(ring, PrimeField) else split_ring(ring)
        parts = [(a, b)] if split is None else [
            (split.reduce_matrix(a, i), split.reduce_matrix(b, i))
            for i in range(len(split.locals))]
        checks = [quotient_map(ai).matrix @ -bi for ai, bi in parts]

        def member(u):
            us = [u] if split is None else [split.reduce(u, i) for i in range(len(checks))]
            return all(not any(c.matvec(ui)) for c, ui in zip(checks, us))
    else:
        if count * ring.size ** q1 > limit:
            raise OracleTooLargeError(
                f"{count * ring.size ** q1} (x,u) pairs exceed the {limit} guard")
        xs = [tuple(x) for x in itertools.product(range(ring.m), repeat=q1)]
        neg_b = -b

        def member(u):
            target = neg_b.matvec(u)
            return any(a.matvec(x) == target for x in xs)

    return [u for u in itertools.product(range(ring.size), repeat=q2) if member(u)]


def kernel_pair_oracle(a: Matrix, b: Matrix, limit: int = 10 ** 6) -> Submodule:
    """Canonical presentation of the enumerated ker(f1|f2).

    The enumerated set is verified to be closed under addition and
    scalar action before it is presented; a set that fails closure
    means a bug somewhere upstream, not bad input.
    """
    ring = a.ring
    members = admissible_set(a, b, limit=limit)
    member_set = set(members)
    for c in ring.elements():
        for u in members:
            if tuple(ring.mul(c, x) for x in u) not in member_set:
                raise IdentityViolatedError(f"oracle set not closed under scaling by {c}")
    if len(members) ** 2 <= 250_000:
        for u in members:
            for v in members:
                if tuple(ring.add(x, y) for x, y in zip(u, v)) not in member_set:
                    raise IdentityViolatedError("oracle set not closed under addition")
    sub = Submodule.from_columns(ring, b.ncols, members)
    if sub.size() != len(members):
        raise IdentityViolatedError(
            f"oracle span has {sub.size()} elements but {len(members)} were enumerated")
    return sub


# -- Prop-style identity suite ----------------------------------------------


def _apply_to_basis(m: Matrix, sub: Submodule) -> Submodule:
    cols = [m.matvec(v) for v in sub.basis.columns()]
    return Submodule.from_columns(m.ring, m.nrows, cols)


def check_identities(a: Matrix, b: Matrix, psi1: Automorphism,
                     psi2: Automorphism, psi: Automorphism,
                     strict: bool = False) -> list:
    """Automorphism identities for ker(. | .), as canonical equalities.

      (vi)   u -> Psi2 u maps ker(A | B Psi2) bijectively onto ker(A|B)
      (vii)  ker(A | B Psi2)  = Psi2^{-1} ker(A|B)
      (viii) ker(A Psi1 | B)  = ker(A|B)
      (ix)   ker(Psi A | B)   = ker(A | Psi^{-1} B)

    Returns the list of violated clauses (empty when all hold); with
    strict=True the first violation raises instead.
    """
    _check_pair(a, b)
    if psi1.n != a.ncols or psi2.n != b.ncols or psi.n != a.nrows:
        raise DimensionMismatchError("automorphism sizes do not match A, B")
    base = _ker_bar(a, b)
    twisted = _ker_bar(a, b @ psi2.matrix)
    violations = []

    if twisted != _apply_to_basis(psi2.inverse, base):
        violations.append("(vii) ker(A | B Psi2) != Psi2^-1 ker(A|B)")
    if _apply_to_basis(psi2.matrix, twisted) != base or twisted.dim != base.dim:
        violations.append("(vi) Psi2 does not carry ker(A | B Psi2) onto ker(A|B)")
    if _ker_bar(a @ psi1.matrix, b) != base:
        violations.append("(viii) ker(A Psi1 | B) != ker(A|B)")
    if _ker_bar(psi.matrix @ a, b) != _ker_bar(a, psi.inverse @ b):
        violations.append("(ix) ker(Psi A | B) != ker(A | Psi^-1 B)")

    if strict and violations:
        raise IdentityViolatedError("; ".join(violations))
    return violations

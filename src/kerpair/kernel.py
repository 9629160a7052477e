"""Kernels of pairs of linear maps over prime fields.

Given f1: R^q1 -> R^p and f2: R^q2 -> R^p presented by matrices A and B,
the kernel of the pair is

    ker(f1|f2) = {u in R^q2 : A x + B u = 0 for some x}

together with the joint kernel ker(f1,f2) of [A|B] and the plain kernel
of A.  The three sit in a short exact sequence

    0 -> ker(f1) -> ker(f1,f2) -> ker(f1|f2) -> 0

which splits over fields and over GF(p)[z]; ``_split``, shared by both,
materializes the splitting as an ExactSequenceWitness with an explicit
section.

Three independent computations of ker(f1|f2) are provided (projection of
the joint kernel, preimage of the image of f1 under f2, kernel through
the cokernel of f1) plus a brute-force enumeration oracle for small
finite rings.  They must all agree on the canonical presentation.  The
other two take ker(f1) and ker(f1,f2) from the projection.
"""

import itertools
from dataclasses import dataclass, replace
from operator import not_, or_

from .errors import (
    DimensionMismatchError,
    IdentityViolatedError,
    NotFiniteError,
    NotInvertible,
    OracleTooLargeError,
    RingMismatchError,
)
from .linalg import Submodule, _echelon, _span, image, nullspace, rref
from .matrix import Matrix, _combination, hstack, vstack
from .rings import ModRing, PolyRing, PrimeField, split_ring


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
class KernelPairResult:
    ker_f1: Submodule      # of R^q1; None from the oracle, which enumerates ker_bar only
    ker_pair: Submodule    # of R^(q1+q2); None from the oracle
    ker_bar: Submodule     # of R^q2, this is ker(f1|f2)
    method: str
    # the split of ``_split``, over GF(p) (projection) and GF(p)[z]; else None
    witness: ExactSequenceWitness | None


#: The method ``auto`` runs over each ring family, and the name its results carry.
_FAMILY_METHOD = {PrimeField: "projection", ModRing: "crt", PolyRing: "poly"}


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


def _u_part(joint: Submodule, q2: int) -> Submodule:
    """The projection onto the first q2 coordinates, the u-rows, of a
    canonical nullspace ``joint`` over GF(p), with no elimination.  Its
    basis is in reduced column echelon form, so the columns with a pivot
    among the u-rows come first and every other column is 0 there; the
    u-parts of the first ones are the projection's canonical basis."""
    ring, rows, pivots = joint.ring, joint.basis.entries, joint.pivot_rows
    nb = sum(r < q2 for r in pivots)
    return Submodule(ring, q2, basis=Matrix._canonical(ring, q2, nb, [r[:nb] for r in rows[:q2]]),
                     pivot_rows=pivots[:nb])


def _split(ker_f1: Submodule, ker_bar: Submodule, xs: Matrix):
    """The kernel pair over GF(p) or GF(p)[z], with its split witness, from
    ker_f1, ker_bar and the x-parts ``xs`` of the section: one x with
    A x = -B u per ker_bar basis vector u.  The section is [xs ; ker_bar's
    basis], and ker(f1,f2) is spanned by iota(ker_f1) and the section: it
    is iota(ker_f1) itself, with ker_f1's pivot rows, when ker_bar = 0.
    The result names its ring family's method, projection or poly."""
    ring, q1, q2 = ker_f1.ring, ker_f1.ambient, ker_bar.ambient
    iota = vstack(Matrix.identity(ring, q1), Matrix.zeros(ring, q2, q1))
    pi2 = hstack(Matrix.zeros(ring, q2, q1), Matrix.identity(ring, q2))
    section = vstack(xs, ker_bar.basis)
    iota_f1 = vstack(ker_f1.basis, Matrix.zeros(ring, q2, ker_f1.dim))
    if ker_bar.is_zero():
        ker_pair = Submodule(ring, q1 + q2, basis=iota_f1, pivot_rows=ker_f1.pivot_rows)
    else:
        ker_pair = _span(ring, q1 + q2, iota_f1.columns() + section.columns())
    return KernelPairResult(ker_f1=ker_f1, ker_pair=ker_pair, ker_bar=ker_bar,
                            method=_FAMILY_METHOD[type(ring)],
                            witness=ExactSequenceWitness(iota=iota, pi2=pi2, section=section))


def kernel_pair_projection(a: Matrix, b: Matrix) -> KernelPairResult:
    """ker(f1|f2) as the u-projection of the joint kernel of [A|B], with the
    split-sequence witness: at most three eliminations, no solve.

    One nullspace of [B | A'], A' being A with its columns reversed.  Its
    canonical basis, rows in (u; x') order, is block lower triangular: the
    columns with a pivot among the u-rows come first, their u-parts are
    ker_bar's canonical basis, and their x'-parts are 0 at the pivot rows
    of the others, which are 0 in u and span ker_f1.  Read back in x
    order those rows are the last nonzero positions of ker_f1: A's columns
    F without a pivot in its row reduction.  So each first x-part is the
    solution of A x = -B u with x[F] = 0, the one a solve pins, and is the
    section as it stands; ker_f1 is one echelon of the other x-parts.
    """
    _check_pair(a, b)
    ring, q1, q2 = a.ring, a.ncols, b.ncols
    joint = nullspace(hstack(b, Matrix._canonical(ring, a.nrows, q1,
                                                  [r[::-1] for r in a.entries])))
    ker_bar = _u_part(joint, q2)
    nb, x_rows = ker_bar.dim, joint.basis.entries[q2:][::-1]
    ker_f1 = _echelon(ring, q1, list(zip(*x_rows))[nb:])
    return _split(ker_f1, ker_bar, Matrix._canonical(ring, q1, nb, [r[:nb] for r in x_rows]))


def _ker_bar(a: Matrix, b: Matrix) -> Submodule:
    """ker(f1|f2) as f2^{-1}(Im f1).  Forms ker_bar alone."""
    return _preimage(image(a).basis, b)


def _preimage(m: Matrix, b: Matrix) -> Submodule:
    """f2^{-1}(Im f1) over a basis M of Im(A): the u-projection of
    ker [B|M], read off its canonical basis by ``_u_part``, so one
    elimination (``_project_u`` of ker [M|B] is the two-elimination
    reference the tests keep)."""
    return _u_part(nullspace(hstack(b, m)), b.ncols)


def kernel_pair_preimage(a: Matrix, b: Matrix) -> KernelPairResult:
    """ker(f1|f2) by the preimage method (``_ker_bar``), with ker_f1 and
    the joint kernel alongside, and no witness."""
    return replace(kernel_pair_projection(a, b), ker_bar=_ker_bar(a, b), method="preimage",
                   witness=None)


def quotient_map(a: Matrix) -> QuotientMap:
    res = rref(a)
    rows = [res.transform.row(i) for i in range(res.rank, a.nrows)]
    c = Matrix.from_rows(a.ring, rows) if rows else Matrix.zeros(a.ring, 0, a.nrows)
    return QuotientMap(matrix=c, rank_f1=res.rank)


def _quotient_ker_bar(a: Matrix, b: Matrix) -> Submodule:
    """ker(p1 . f2), p1 the quotient map N -> N/Im(f1): ker_bar alone."""
    return nullspace(quotient_map(a).matrix @ b)


def kernel_pair_quotient(a: Matrix, b: Matrix) -> KernelPairResult:
    """ker(f1|f2) as ker(p1 . f2) where p1 is the quotient map N -> N/Im(f1),
    with ker_f1 and the joint kernel alongside, and no witness."""
    return replace(kernel_pair_projection(a, b), ker_bar=_quotient_ker_bar(a, b),
                   method="quotient", witness=None)


#: The field methods, by name; ``crt.kernel_pair`` dispatches through it.
_METHODS = {"projection": kernel_pair_projection, "preimage": kernel_pair_preimage,
            "quotient": kernel_pair_quotient}


# -- witness checking -------------------------------------------------------


def check_witness(a: Matrix, b: Matrix, result: KernelPairResult) -> list:
    """Verify every invariant of ``result.witness``; returns violations.

    Works over prime fields and over GF(p)[z] (both hereditary, so the
    sequence must split).  An empty list means the witness is valid.
    """
    from .crt import kernel

    witness, ring = result.witness, a.ring
    if witness is None:
        return [f"no split-sequence witness in the {result.method} result"]
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

    # ker_pair may itself be built from iota and the section, so the joint
    # kernel is also computed here, independently of the kernel pair
    combined = Submodule.from_columns(ring, q1 + q2, iota_cols + sec_cols)
    if combined != result.ker_pair or combined != kernel(ab):
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

#: candidates per product in ``admissible_set``, which bounds its memory
_ORACLE_BLOCK = 4096
#: most candidates any enumeration here, or behavior's, may try
ORACLE_LIMIT = 10 ** 6


def _solve_by_enumeration(a: Matrix, c) -> tuple | None:
    """The first x over Z/m, in product order, with A x = c (normalized), or
    None: for m with a repeated prime factor, where per-prime solvability
    can lie (4x = 2 is solvable mod 2, not mod 4).  Callers guard its size."""
    combine = _combination(a.ring, a.columns(), a.nrows)
    return next((x for x in itertools.product(range(a.ring.m), repeat=a.ncols)
                 if combine(x) == c), None)


def admissible_set(a: Matrix, b: Matrix) -> list:
    """All u with A x + B u = 0 solvable, by direct enumeration.

    Over a field and square-free Z/m, solvability is checked modulo every
    prime factor, for a block of candidates at once; over other moduli x
    is enumerated too (``_solve_by_enumeration``).
    """
    _check_pair(a, b)
    ring = a.ring
    if isinstance(ring, PolyRing):
        raise NotFiniteError("cannot enumerate GF(p)[z] vectors")
    q1, q2 = a.ncols, b.ncols
    count = ring.size ** q2
    if count > ORACLE_LIMIT:
        raise OracleTooLargeError(f"{count} candidates exceed the {ORACLE_LIMIT} guard")

    candidates = itertools.product(range(ring.size), repeat=q2)
    if isinstance(ring, PrimeField) or ring.square_free:
        # A x = -B u is solvable exactly when, at every prime, the rows of
        # A's transform past its rank (the quotient map C) kill -B u, as
        # in ``solve``.  C (-B) is built once per prime and multiplies a
        # block of candidates at a time, their q2 rows reduced mod that
        # prime; a candidate is a member when its column is 0 in every
        # product, and every candidate is when every C is empty
        split = None if isinstance(ring, PrimeField) else split_ring(ring)
        parts = [(a, b)] if split is None else [
            (split.reduce_matrix(a, i), split.reduce_matrix(b, i))
            for i in range(len(split.locals))]
        checks = [c for ai, bi in parts if (c := quotient_map(ai).matrix @ -bi).nrows]
        members = []
        while us := list(itertools.islice(candidates, _ORACLE_BLOCK)):
            rows, nonzero = list(zip(*us)), [0] * len(us)
            for c in checks:
                p = c.ring.p
                block = rows if p == ring.size else [map(p.__rmod__, r) for r in rows]
                for image_row in (c @ Matrix._canonical(c.ring, q2, len(us), block)).entries:
                    nonzero = list(map(or_, nonzero, image_row))
            members += itertools.compress(us, map(not_, nonzero))
        return members
    if count * ring.size ** q1 > ORACLE_LIMIT:
        raise OracleTooLargeError(
            f"{count * ring.size ** q1} (x,u) pairs exceed the {ORACLE_LIMIT} guard")
    neg_b = -b
    return [u for u in candidates if _solve_by_enumeration(a, neg_b.matvec(u)) is not None]


def kernel_pair_oracle(a: Matrix, b: Matrix) -> Submodule:
    """Canonical presentation of the enumerated ker(f1|f2).

    The enumerated set S lies in its span, so S is a submodule exactly
    when its members are distinct and the span has |S| elements; a set
    that fails this means a bug somewhere upstream, not bad input.
    """
    members = admissible_set(a, b)
    sub = Submodule.from_columns(a.ring, b.ncols, members)
    distinct = len(set(members))
    if not distinct == len(members) == sub.size():
        raise IdentityViolatedError(f"oracle span has {sub.size()} elements but "
                                    f"{distinct} distinct of {len(members)} were enumerated")
    return sub


# -- Prop-style identity suite ----------------------------------------------


def _apply_to_basis(m: Matrix, sub: Submodule) -> Submodule:
    """The image of ``sub`` under ``m`` over GF(p): the images of its basis,
    canonical as every product returns them, in one echelon."""
    return _echelon(m.ring, m.nrows, [m.matvec(v) for v in sub.basis.columns()])


def check_identities(a: Matrix, b: Matrix, psi1: Automorphism,
                     psi2: Automorphism, psi: Automorphism) -> list:
    """Automorphism identities for ker(. | .), as canonical equalities.

      (vi)   u -> Psi2 u maps ker(A | B Psi2) bijectively onto ker(A|B)
      (vii)  ker(A | B Psi2)  = Psi2^{-1} ker(A|B)
      (viii) ker(A Psi1 | B)  = ker(A|B)
      (ix)   ker(Psi A | B)   = ker(A | Psi^{-1} B)

    Returns the list of violated clauses (empty when all hold).  Only
    Psi1's matrix is read: no clause needs its inverse.  Every ker_bar
    here is one nullspace (``_preimage``), so the check runs at most 10
    eliminations over GF(p).
    """
    _check_pair(a, b)
    if psi1.n != a.ncols or psi2.n != b.ncols or psi.n != a.nrows:
        raise DimensionMismatchError("automorphism sizes do not match A, B")
    return _identity_check(a, b)(psi1.matrix, psi2, psi)


def _identity_check(a, b):
    """``check_identities`` for fixed A and B, as a function of (Psi1,
    Psi2, Psi): Psi1 a plain invertible matrix, Psi2 and Psi
    ``Automorphism``s, whose inverses (vii) and (ix) read.  Im(A) and the
    base ker_bar are formed once (2 eliminations) for the base, (vi),
    (vii) and the right side of (ix); (viii) and the left side of (ix)
    transform A and form their own images.  A call then runs 8: four
    ker_bar of one nullspace each, the two images of A, and the two
    images of a basis under Psi2 and its inverse."""
    m = image(a).basis
    base = _preimage(m, b)

    def violations(psi1, psi2, psi) -> list:
        twisted = _preimage(m, b @ psi2.matrix)
        out = []
        if twisted != _apply_to_basis(psi2.inverse, base):
            out.append("(vii) ker(A | B Psi2) != Psi2^-1 ker(A|B)")
        if _apply_to_basis(psi2.matrix, twisted) != base or twisted.dim != base.dim:
            out.append("(vi) Psi2 does not carry ker(A | B Psi2) onto ker(A|B)")
        if _ker_bar(a @ psi1, b) != base:
            out.append("(viii) ker(A Psi1 | B) != ker(A|B)")
        if _ker_bar(psi.matrix @ a, b) != _preimage(m, psi.inverse @ b):
            out.append("(ix) ker(Psi A | B) != ker(A | Psi^-1 B)")
        return out

    return violations

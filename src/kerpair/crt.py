"""The one ring dispatch, and local-global kernels over square-free rings.

Every question -- the kernel of a matrix, the kernel of a pair, a
solution of A x = c -- is answered by a local backend (``FIELD`` or
``POLY``): elimination over GF(p) or Hermite reduction over GF(p)[z].
Z/m and (Z/m)[z] with m = p1 ... ps square-free are products of those
local rings (``rings.Split``), so there ``_per_prime`` reduces the
question mod each p_i, answers it locally and keeps each reduction beside
its answer, and ``Split`` glues the answers back through its idempotents:

    ker(A|B) = e_1 ker(A mod p1 | B mod p1) + ... + e_s ker(A mod ps | B mod ps)

Flat base change makes the reduction of the glued kernel mod p_i land
back on the local kernel, which base_change_check verifies on concrete
instances over Z/m and (Z/m)[z].
"""

from dataclasses import dataclass

from .errors import MethodUnavailableError, RingMismatchError
from .kernel import (
    _FAMILY_METHOD,
    KernelPairResult,
    _check_pair,
    kernel_pair_field,
    kernel_pair_oracle,
    kernel_pair_projection,
)
from . import linalg
from .linalg import Submodule, nullspace
from .matrix import Matrix
from .polykernel import kernel_pair_poly, poly_kernel, poly_solve
from .rings import ModRing, PolyRing, PrimeField, ResidueRing, Split, is_local, split_ring


def idempotents(m: int) -> Split:
    """Structural idempotents of square-free m, ascending prime order: the
    Split of Z/m, with its ``primes``, ``idempotents`` and ``check_laws``."""
    return split_ring(ModRing(m))


# -- local backends and the one dispatch --------------------------------------

# What each local ring answers with.  Module-level dicts, like
# kernel._METHODS, because bench/spans.py patches a traced function
# wherever a module or a module-level dict holds it.
FIELD = {"kernel": nullspace, "solve": linalg.solve, "kernel_pair": kernel_pair_projection}
POLY = {"kernel": poly_kernel, "solve": poly_solve, "kernel_pair": kernel_pair_poly}


def _local(question: str, ring):
    """The local backend's answer to ``question`` over ``ring``'s family."""
    return (FIELD if isinstance(ring, ResidueRing) else POLY)[question]


def _per_prime(question: str, split: Split, *args) -> list:
    """(reduced arguments, local answer to ``question``) at every prime of
    ``split``, Matrix arguments reduced through ``reduce_matrix`` and vectors
    through ``reduce``: the one loop over a split ring's primes."""
    answer = _local(question, split.ring)
    reduced = (tuple(split.reduce_matrix(x, i) if isinstance(x, Matrix) else split.reduce(x, i)
                     for x in args) for i in range(len(split.primes)))
    return [(xs, answer(*xs)) for xs in reduced]


def kernel(a: Matrix) -> Submodule:
    """Canonical kernel {v : A v = 0} over any supported ring."""
    if is_local(a.ring):
        return _local("kernel", a.ring)(a)
    parts = _per_prime("kernel", split_ring(a.ring), a)
    return Submodule(a.ring, a.ncols, components=[k for _, k in parts])


def solve(a: Matrix, c) -> tuple | None:
    """Some x with A x = c, or None, over any supported ring; over a split
    ring A x = c is solved mod each prime, and the local x glued."""
    if is_local(a.ring):
        return _local("solve", a.ring)(a, c)
    split = split_ring(a.ring)
    parts = [x for _, x in _per_prime("solve", split, a, c)]
    return None if None in parts else split.glue(parts)


def kernel_pair(a: Matrix, b: Matrix, method: str = "auto"):
    """(result, witness or None): ker(f1|f2) over any supported ring.

    ``auto`` runs the ring family's own method: projection over GF(p),
    per-prime gluing over Z/m, Hermite kernels over GF(p)[z] and
    (Z/m)[z].  Fields also take ``preimage`` and ``quotient``, finite
    rings ``oracle``; any other method raises MethodUnavailableError.
    The witness is the split-sequence section over GF(p) (projection)
    and GF(p)[z]; the oracle's result has ker_bar only.
    """
    ring = a.ring
    if method == "oracle":
        if isinstance(ring, PolyRing):
            raise MethodUnavailableError("the enumeration oracle cannot run over "
                                         "an infinite polynomial ring")
        return KernelPairResult(ker_f1=None, ker_pair=None,
                                ker_bar=kernel_pair_oracle(a, b), method="oracle"), None
    if method not in ("auto", _FAMILY_METHOD[type(ring)]):
        if isinstance(ring, PrimeField):
            return kernel_pair_field(a, b, method), None
        hint = "auto or oracle" if isinstance(ring, ModRing) else "auto"
        raise MethodUnavailableError(
            f"method {method!r} does not apply to {ring!r}; use {hint}")
    if is_local(ring):
        return _local("kernel_pair", ring)(a, b)
    return glue_kernel_pair(a, b), None


# -- local-global results ----------------------------------------------------


@dataclass(frozen=True)
class LocalGlobalResult(KernelPairResult):
    """A kernel pair over a split ring: ker_f1, ker_pair and ker_bar glued
    from one local KernelPairResult per prime, each beside the local pair
    (A mod p, B mod p) it answers."""

    primes: tuple
    local_results: tuple
    local_pairs: tuple


def glue_kernel_pair(a: Matrix, b: Matrix) -> LocalGlobalResult:
    """ker(f1|f2) over Z/m or (Z/m)[z], m square-free (a prime m gives one
    local result): the local kernel pair at every prime, glued, with the
    reduced pairs it answered kept as ``local_pairs``."""
    _check_pair(a, b)
    if isinstance(a.ring, PrimeField):
        raise RingMismatchError(f"expected a Z/m or (Z/m)[z] matrix, got one over {a.ring!r}")
    split = split_ring(a.ring)
    pairs, answers = zip(*_per_prime("kernel_pair", split, a, b))
    locals_ = tuple(r for r, _ in answers)

    def glue(part, ambient):
        return Submodule(a.ring, ambient, components=[getattr(r, part) for r in locals_])

    return LocalGlobalResult(
        ker_f1=glue("ker_f1", a.ncols), ker_pair=glue("ker_pair", a.ncols + b.ncols),
        ker_bar=glue("ker_bar", b.ncols), method=_FAMILY_METHOD[type(a.ring)],
        primes=split.primes, local_results=locals_, local_pairs=pairs)


def reduce_matrix(a: Matrix, i: int) -> Matrix:
    """Entrywise reduction of a Z/m or (Z/m)[z] matrix modulo its i-th
    prime (coefficientwise for polynomials)."""
    return split_ring(a.ring).reduce_matrix(a, i)


def kernel_pair_crt(a: Matrix, b: Matrix) -> LocalGlobalResult:
    """ker(f1|f2) over square-free Z/m, glued from the projection kernel
    pair at each prime."""
    if not isinstance(a.ring, ModRing):
        raise RingMismatchError(f"expected a Z/m matrix, got one over {a.ring!r}")
    return glue_kernel_pair(a, b)


def base_change_violations(result: LocalGlobalResult, i: int) -> list:
    """Reduce the glued kernel mod the i-th prime and compare with the
    local kernel; they must agree by flatness of the factor projection.

    The reduction goes through the glued generators e_j lift(basis) over
    the split ring, not through the stored components, so the comparison
    is against an independently assembled presentation.
    """
    glued = result.ker_bar
    split = split_ring(glued.ring)
    reduced = Submodule.from_columns(split.locals[i], glued.ambient,
                                     [split.reduce(g, i) for g in glued.generators()])
    direct = result.local_results[i].ker_bar
    if reduced != direct:
        return [f"mod {split.primes[i]}: reduction of glued kernel (dim {reduced.dim}) "
                f"!= local kernel (dim {direct.dim})"]
    return []


def base_change_check(a: Matrix, b: Matrix, i: int) -> list:
    """base_change_violations of the glued kernel pair of A and B over
    Z/m or (Z/m)[z] at the i-th prime."""
    return base_change_violations(glue_kernel_pair(a, b), i)

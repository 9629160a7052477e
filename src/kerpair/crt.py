"""The one ring dispatch, and local-global kernels over square-free rings.

Every question -- the kernel of a matrix, the kernel of a pair, a
solution of A x = c -- is answered by a local backend: elimination over
GF(p) or Hermite reduction over GF(p)[z].  Z/m and (Z/m)[z] with
m = p1 ... ps square-free are products of those local rings
(``rings.Split``), so there the question is reduced mod each p_i,
answered locally and glued back through the structural idempotents e_i:

    ker(A|B) = e_1 ker(A mod p1 | B mod p1) + ... + e_s ker(A mod ps | B mod ps)

Flat base change makes the reduction of the glued kernel mod p_i land
back on the local kernel, which base_change_check verifies on concrete
instances.
"""

from dataclasses import dataclass

from .errors import BaseChangeViolatedError, MethodUnavailableError, RingMismatchError
from .kernel import (
    KernelPairResult,
    _check_pair,
    kernel_pair_field,
    kernel_pair_oracle,
    kernel_pair_projection,
)
from .linalg import Submodule, nullspace, solve
from .matrix import Matrix
from .polykernel import kernel_pair_poly, poly_kernel, poly_solve
from .rings import ModRing, PolyRing, PrimeField, Split, is_local, split_ring


@dataclass(frozen=True)
class CrtDecomposition:
    m: int
    primes: tuple          # ascending
    idempotents: tuple     # e_i = 1 mod primes[i], 0 mod the others

    def check_laws(self) -> list:
        """Idempotent laws, verified exactly; returns violations."""
        m, es = self.m, self.idempotents
        out = []
        for i, e in enumerate(es):
            if (e * e) % m != e:
                out.append(f"e_{i} = {e} is not idempotent mod {m}")
            for j, f in enumerate(es[i + 1:], start=i + 1):
                if (e * f) % m != 0:
                    out.append(f"e_{i} e_{j} = {(e * f) % m} != 0 mod {m}")
            if e % self.primes[i] != 1 % self.primes[i]:
                out.append(f"e_{i} != 1 mod {self.primes[i]}")
            for j, p in enumerate(self.primes):
                if j != i and e % p != 0:
                    out.append(f"e_{i} != 0 mod {p}")
        if sum(es) % m != 1 % m:
            out.append(f"sum of idempotents is {sum(es) % m} != 1 mod {m}")
        return out


def idempotents(m: int) -> CrtDecomposition:
    """Structural idempotents of square-free m, ascending prime order."""
    split = split_ring(ModRing(m))
    return CrtDecomposition(m=m, primes=split.primes, idempotents=split.idempotents)


# -- local backends and the one dispatch --------------------------------------

# What each local ring answers with.  Module-level dicts, like
# kernel._METHODS, because bench/spans.py patches a traced function
# wherever a module or a module-level dict holds it.
FIELD = {"kernel": nullspace, "solve": solve, "kernel_pair": kernel_pair_projection}
POLY = {"kernel": lambda a: poly_kernel(a).submodule, "solve": poly_solve,
        "kernel_pair": kernel_pair_poly}


def _resolve(ring):
    """(local backend, Split or None) for a supported ring."""
    backend = FIELD if isinstance(ring, (PrimeField, ModRing)) else POLY
    return backend, None if is_local(ring) else split_ring(ring)


def kernel(a: Matrix) -> Submodule:
    """Canonical kernel {v : A v = 0} over any supported ring."""
    backend, split = _resolve(a.ring)
    if split is None:
        return backend["kernel"](a)
    return Submodule.glued(a.ring, a.ncols, [
        backend["kernel"](split.reduce_matrix(a, i)) for i in range(len(split.locals))])


def solver(a: Matrix):
    """A function c -> some x with A x = c, or None, over any supported
    ring; over a split ring A is reduced once, not per right-hand side."""
    backend, split = _resolve(a.ring)
    local_solve = backend["solve"]
    if split is None:
        return lambda c: local_solve(a, c)
    reduced = [split.reduce_matrix(a, i) for i in range(len(split.locals))]

    def solve_split(c):
        parts = []
        for i, ai in enumerate(reduced):
            x = local_solve(ai, split.reduce(c, i))
            if x is None:
                return None
            parts.append(x)
        return split.glue(parts)

    return solve_split


_FAMILY_METHOD = {PrimeField: "projection", ModRing: "crt", PolyRing: "poly"}


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
    backend, split = _resolve(ring)
    if split is None:
        return backend["kernel_pair"](a, b)
    return glue_kernel_pair(a, b, split, lambda x, y: backend["kernel_pair"](x, y)[0]), None


# -- local-global results ----------------------------------------------------


@dataclass(frozen=True)
class LocalGlobalResult(KernelPairResult):
    """A kernel pair over a split ring: ker_f1, ker_pair and ker_bar glued
    from one local KernelPairResult per prime."""

    primes: tuple
    local_results: tuple

    glued = property(lambda self: self.ker_bar)
    glued_pair = property(lambda self: self.ker_pair)
    glued_f1 = property(lambda self: self.ker_f1)

    @property
    def local_kernels(self) -> tuple:
        return tuple(r.ker_bar for r in self.local_results)


def glue_kernel_pair(a: Matrix, b: Matrix, split: Split, local_pair,
                     method: str = "projection") -> LocalGlobalResult:
    """Reduce A and B at every prime of ``split``, solve each with
    ``local_pair`` (returning a KernelPairResult) and glue."""
    _check_pair(a, b)
    locals_ = tuple(local_pair(split.reduce_matrix(a, i), split.reduce_matrix(b, i))
                    for i in range(len(split.locals)))

    def glue(part, ambient):
        return Submodule.glued(a.ring, ambient, [getattr(r, part) for r in locals_])

    return LocalGlobalResult(
        ker_f1=glue("ker_f1", a.ncols), ker_pair=glue("ker_pair", a.ncols + b.ncols),
        ker_bar=glue("ker_bar", b.ncols), method=method,
        primes=split.primes, local_results=locals_)


def reduce_matrix(a: Matrix, i: int) -> Matrix:
    """Entrywise reduction of a Z/m matrix modulo its i-th prime."""
    return split_ring(a.ring).reduce_matrix(a, i)


def kernel_pair_crt(a: Matrix, b: Matrix, method: str = "projection") -> LocalGlobalResult:
    """ker(f1|f2) over square-free Z/m by per-prime solves and gluing;
    ``method`` picks the field method run at each prime."""
    if not isinstance(a.ring, ModRing):
        raise RingMismatchError(f"expected a Z/m matrix, got one over {a.ring!r}")
    return glue_kernel_pair(a, b, split_ring(a.ring),
                            lambda x, y: kernel_pair_field(x, y, method), method)


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


def base_change_check(a: Matrix, b: Matrix, i: int, strict: bool = False) -> list:
    """base_change_violations of kernel_pair_crt(a, b) at the i-th prime;
    with strict=True a violation raises BaseChangeViolatedError."""
    violations = base_change_violations(kernel_pair_crt(a, b), i)
    if strict and violations:
        raise BaseChangeViolatedError(
            f"A={a!r} B={b!r} prime={a.ring.primes[i]}: " + "; ".join(violations))
    return violations


def quotient_form_crt(a: Matrix, b: Matrix) -> list:
    """Per-prime dimension triples (dim ker_pair, dim ker_f1, dim ker_bar).

    Over each factor field the exact sequence forces
    dim ker_bar = dim ker_pair - dim ker_f1; the global kernel count is
    the product of p_i to the local ker_bar dimension.
    """
    result = kernel_pair_crt(a, b)
    return [(r.ker_pair.dim, r.ker_f1.dim, r.ker_bar.dim)
            for r in result.local_results]


def ker_bar_count(a: Matrix, b: Matrix) -> int:
    """|ker(f1|f2)| over square-free Z/m."""
    result = kernel_pair_crt(a, b)
    return result.glued.size()

"""Trajectories of x(t+1) = A x(t) + B u(t) and admissible inputs.

An input sequence is admissible when some state trajectory makes the
recursion hold.  The bi-infinite behavior is modeled here by three
finite boundary regimes (free initial state, fixed initial state,
periodic of order T); codeword_consistency ties the dynamical picture
to the polynomial one through the pencil zI - A over GF(p)[z].
"""

import itertools
from dataclasses import dataclass, field

from .crt import solver
from .errors import (
    ConsistencyViolatedError,
    DimensionMismatchError,
    NotAFieldError,
    OracleTooLargeError,
    RingMismatchError,
)
from .matrix import Matrix, hstack
from .rings import ModRing, PolyRing, PrimeField


@dataclass(frozen=True)
class SystemPair:
    a: Matrix  # n x n
    b: Matrix  # n x m

    def __post_init__(self):
        if self.a.ring != self.b.ring:
            raise RingMismatchError(f"{self.a.ring!r} vs {self.b.ring!r}")
        if self.a.nrows != self.a.ncols:
            raise DimensionMismatchError("state matrix must be square")
        if self.b.nrows != self.a.nrows:
            raise DimensionMismatchError("B must have one row per state")

    @property
    def ring(self):
        return self.a.ring

    @property
    def n(self):
        return self.a.nrows

    @property
    def m(self):
        return self.b.ncols


@dataclass(frozen=True)
class Trajectory:
    states: tuple   # x(0..T), n-vectors
    inputs: tuple   # u(0..T-1), m-vectors

    @property
    def horizon(self) -> int:
        return len(self.inputs)

    def check(self, sys: SystemPair) -> list:
        """Re-verify the recursion at every step; returns violations.

        One product [A | B] [x(0) ... x(T-1); u(0) ... u(T-1)], compared
        column by column with x(1) ... x(T): row-packed products where
        ``simulate`` steps with column-packed matvecs.
        """
        steps = Matrix(sys.ring, self.horizon, sys.n + sys.m,
                       [x + u for x, u in zip(self.states, self.inputs)])
        expect = (hstack(sys.a, sys.b) @ steps.transpose()).columns()
        return [f"recursion fails at step {t}"
                for t, (x, y) in enumerate(zip(expect, self.states[1:])) if x != y]


@dataclass(frozen=True)
class AdmissibleInputQuery:
    inputs: tuple                  # u(0..T-1)
    boundary: str = "free"         # free | fixed | periodic
    x0: tuple | None = None        # fixed mode only


def _normalize_inputs(sys: SystemPair, inputs) -> tuple:
    ring = sys.ring
    out = []
    for u in inputs:
        if len(u) != sys.m:
            raise DimensionMismatchError(f"input length {len(u)} != {sys.m}")
        out.append(tuple(ring.normalize(e) for e in u))
    return tuple(out)


def _normalize_state(sys: SystemPair, x) -> tuple:
    if len(x) != sys.n:
        raise DimensionMismatchError(f"state length {len(x)} != {sys.n}")
    return tuple(sys.ring.normalize(e) for e in x)


def _run(ab: Matrix, x, inputs) -> Trajectory:
    """The forward recursion from x under ``inputs``, both already
    normalized: one matvec of ab = [A | B] per step."""
    states = [x]
    for u in inputs:
        x = ab.matvec(x + u)
        states.append(x)
    return Trajectory(states=tuple(states), inputs=inputs)


def simulate(sys: SystemPair, x0, inputs) -> Trajectory:
    """Forward recursion from x0; the trajectory invariant holds by
    construction."""
    x = _normalize_state(sys, x0)
    return _run(hstack(sys.a, sys.b), x, _normalize_inputs(sys, inputs))


def _matrix_power(a: Matrix, k: int) -> Matrix:
    """A^k by left-to-right square-and-multiply (Knuth, TAOCP vol. 2,
    4.6.3): one squaring per bit of k after the leading one, and one
    product by A per set bit among them."""
    if k == 0:
        return Matrix.identity(a.ring, a.nrows)
    out = a
    for bit in bin(k)[3:]:
        out = out @ out
        if bit == "1":
            out = out @ a
    return out


def _solve_ring(m: Matrix, rhs, limit: int = 10 ** 6):
    """Some x with M x = rhs, or None."""
    ring = m.ring
    if not isinstance(ring, ModRing) or ring.square_free:
        return solver(m)(rhs)
    # repeated prime factors: per-prime solvability can lie, enumerate
    if ring.m ** m.ncols > limit:
        raise OracleTooLargeError(
            f"{ring.m ** m.ncols} state candidates exceed the {limit} guard")
    rhs = tuple(ring.normalize(e) for e in rhs)
    for x in itertools.product(range(ring.m), repeat=m.ncols):
        if m.matvec(x) == rhs:
            return x
    return None


def admissible(sys: SystemPair, query: AdmissibleInputQuery) -> Trajectory | None:
    """A trajectory witnessing the input sequence, or None.

    free: always admissible, witness starts at 0.
    fixed: the unique trajectory from query.x0.
    periodic: solve (A^T - I) x(0) = -x_zero(T) where x_zero is the
      zero-initial response; then x(T) = x(0) exactly.  A^T comes from
      square-and-multiply, about log2 T + popcount(T) products.
    """
    inputs = _normalize_inputs(sys, query.inputs)
    ring = sys.ring
    ab = hstack(sys.a, sys.b)
    zero_state = (ring.zero,) * sys.n
    if query.boundary == "free":
        return _run(ab, zero_state, inputs)
    if query.boundary == "fixed":
        if query.x0 is None:
            raise DimensionMismatchError("fixed boundary requires x0")
        return _run(ab, _normalize_state(sys, query.x0), inputs)
    if query.boundary != "periodic":
        raise ValueError(f"unknown boundary mode {query.boundary!r}")
    t = len(inputs)
    forced = _run(ab, zero_state, inputs).states[-1]
    m = _matrix_power(sys.a, t) - Matrix.identity(ring, sys.n)
    x0 = _solve_ring(m, tuple(ring.neg(e) for e in forced))
    if x0 is None:
        return None
    traj = _run(ab, _normalize_state(sys, x0), inputs)
    if traj.states[-1] != traj.states[0]:
        raise ConsistencyViolatedError("the periodic solve did not close the loop")
    return traj


# -- polynomial side ---------------------------------------------------------


def pencil(sys: SystemPair) -> tuple:
    """(zI - A, B) over GF(p)[z] for a system over GF(p)."""
    if not isinstance(sys.ring, PrimeField):
        raise NotAFieldError(f"pencil needs a prime field, got {sys.ring!r}")
    ring = PolyRing(sys.ring.p)
    z, n = ring.z, sys.n
    entries = [[ring.sub(z if i == j else ring.zero,
                         ring.constant(sys.a.entries[i][j]))
                for j in range(n)] for i in range(n)]
    bp = sys.b.map_entries(ring.constant, ring=ring)
    return Matrix(ring, n, n, entries), bp


def codeword_consistency(sys: SystemPair, degree_bound: int = 4) -> list:
    """Cross-check the dynamical and polynomial pictures; returns violations.

    Over GF(p)[z] the pencil zI - A has zero kernel (monic determinant),
    the joint and relative kernels have equal rank, and every admissible
    u(z) of degree <= degree_bound must admit a polynomial state witness.
    Witness existence is linear in u, so checking it on the z-shifted
    Hermite generators covers every bounded-degree member; one Hermite
    reduction of zI - A answers all of them.
    """
    from .polykernel import _solve_columns, kernel_pair_poly

    p_matrix, b_poly = pencil(sys)
    ring = p_matrix.ring
    out = []
    result, _ = kernel_pair_poly(p_matrix, b_poly)
    if result.ker_f1.rank != 0:
        out.append("pencil zI - A has a nonzero kernel")
    if result.ker_pair.rank != result.ker_bar.rank:
        out.append(
            f"rank ker(zI-A, B) = {result.ker_pair.rank} != "
            f"rank ker(zI-A | B) = {result.ker_bar.rank}")
    shifts = []
    for j, col in enumerate(result.ker_bar.basis.columns()):
        top = max(degree_bound - max(len(e) - 1 for e in col if e), 0)
        for k in range(top + 1):
            shifted = tuple(ring.mul(e, (0,) * k + (1,)) for e in col)
            shifts.append((j, k, b_poly.matvec(shifted)))
    xs = _solve_columns(p_matrix, [tuple(map(ring.neg, bu)) for _, _, bu in shifts])
    for (j, k, bu), x in zip(shifts, xs):
        if x is None:
            out.append(f"generator {j} shifted by z^{k} lost its witness")
            continue
        residual = tuple(ring.add(s, t) for s, t in zip(p_matrix.matvec(x), bu))
        if any(e != ring.zero for e in residual):
            out.append(f"witness for generator {j} shifted by z^{k} fails")
    return out

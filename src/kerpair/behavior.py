"""Trajectories of x(t+1) = A x(t) + B u(t) and admissible inputs.

An input sequence is admissible when some state trajectory makes the
recursion hold.  The bi-infinite behavior is modeled here by three
finite boundary regimes (free initial state, fixed initial state,
periodic of order T); codeword_consistency checks the dynamics against
ker(zI - A | B) over GF(p)[z], whose index is the reachable subspace.
"""

from dataclasses import dataclass

from .crt import solve
from .errors import (
    ConsistencyViolatedError,
    DimensionMismatchError,
    NotAFieldError,
    OracleTooLargeError,
    RingMismatchError,
)
from .kernel import ORACLE_LIMIT, _solve_by_enumeration
from .matrix import Matrix, _modulus, hstack
from .polykernel import kernel_pair_poly
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


def _normalize(ring, v, size: int, what: str) -> tuple:
    """``v`` over ``ring``, checked to have ``size`` entries."""
    if len(v) != size:
        raise DimensionMismatchError(f"{what} length {len(v)} != {size}")
    q = _modulus(ring)
    if q is not None:  # ring.normalize, inline: int(e) % q
        return tuple(map(q.__rmod__, map(int, v)))
    return tuple(map(ring.normalize, v))


def _run(ab: Matrix, x, inputs) -> Trajectory:
    """The forward recursion from x under ``inputs``, both already
    normalized: one matvec of ab = [A | B] per step."""
    states = [x]
    for u in inputs:
        x = ab.matvec(x + u)
        states.append(x)
    return Trajectory(states=tuple(states), inputs=inputs)


def simulate(sys: SystemPair, x0, inputs) -> Trajectory:
    """Forward recursion from x0, the ``fixed`` boundary of ``admissible``;
    the trajectory invariant holds by construction."""
    return admissible(sys, AdmissibleInputQuery(tuple(inputs), "fixed", x0))


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


def _solve_ring(m: Matrix, rhs):
    """Some x with M x = rhs, or None."""
    ring = m.ring
    if not isinstance(ring, ModRing) or ring.square_free:
        return solve(m, rhs)
    # repeated prime factors: per-prime solvability can lie, enumerate
    if ring.m ** m.ncols > ORACLE_LIMIT:
        raise OracleTooLargeError(
            f"{ring.m ** m.ncols} state candidates exceed the {ORACLE_LIMIT} guard")
    return _solve_by_enumeration(m, tuple(map(ring.normalize, rhs)))


def admissible(sys: SystemPair, query: AdmissibleInputQuery) -> Trajectory | None:
    """A trajectory witnessing the input sequence, or None.

    free: always admissible, witness starts at 0.
    fixed: the unique trajectory from query.x0.
    periodic: solve (A^T - I) x(0) = -x_zero(T) where x_zero is the
      zero-initial response; then x(T) = x(0) exactly.  A^T comes from
      square-and-multiply, about log2 T + popcount(T) products.
    """
    ring = sys.ring
    inputs = tuple(_normalize(ring, u, sys.m, "input") for u in query.inputs)
    ab = hstack(sys.a, sys.b)
    zero_state = (ring.zero,) * sys.n
    if query.x0 is not None and query.boundary in ("free", "periodic"):
        raise ValueError(f"x0 is only for the fixed boundary, not {query.boundary!r}")
    if query.boundary == "free":
        return _run(ab, zero_state, inputs)
    if query.boundary == "fixed":
        if query.x0 is None:
            raise DimensionMismatchError("fixed boundary requires x0")
        return _run(ab, _normalize(ring, query.x0, sys.n, "state"), inputs)
    if query.boundary != "periodic":
        raise ValueError(f"unknown boundary mode {query.boundary!r}")
    t = len(inputs)
    forced = _run(ab, zero_state, inputs).states[-1]
    m = _matrix_power(sys.a, t) - Matrix.identity(ring, sys.n)
    x0 = _solve_ring(m, tuple(ring.neg(e) for e in forced))
    if x0 is None:
        return None
    traj = _run(ab, _normalize(ring, x0, sys.n, "state"), inputs)
    if traj.states[-1] != traj.states[0]:
        raise ConsistencyViolatedError("the periodic solve did not close the loop")
    return traj


# -- polynomial side ---------------------------------------------------------


def pencil(sys: SystemPair) -> tuple:
    """(zI - A, B) over GF(p)[z] for a system over GF(p)."""
    if not isinstance(sys.ring, PrimeField):
        raise NotAFieldError(f"pencil needs a prime field, got {sys.ring!r}")
    ring = PolyRing(sys.ring.p)
    a, b = (m.map_entries(ring.constant, ring=ring) for m in (sys.a, sys.b))
    return Matrix.identity(ring, sys.n).scale(ring.z) - a, b


def _reachable(sys: SystemPair) -> tuple:
    """(dim R, chi): R the reachable subspace and chi the characteristic
    polynomial of A on R, by scalar solves.  Each column b of B extends the
    basis by b, A b, ... until A^k b lies in the span; A^k b's coordinates
    on the new vectors give b's minimal polynomial modulo the old span, an
    A-invariant one, so chi is the product of these polynomials."""
    ring, n = PolyRing(sys.ring.p), sys.n
    basis, chi = [], ring.one
    for v in sys.b.columns():
        new = []
        while (coords := solve(Matrix.from_columns(sys.ring, basis + new, nrows=n), v)) is None:
            new.append(v)
            v = sys.a.matvec(v)
        chi = ring.mul(chi, ring.normalize([-c for c in coords[len(basis):]] + [1]))
        basis += new
    return len(basis), chi


def codeword_consistency(sys: SystemPair) -> list:
    """Cross-check the dynamical and polynomial pictures; returns violations.

    ker(zI - A | B) over GF(p)[z] holds the input sequences that take the
    zero state back to zero (Kalman, Ho & Narendra 1963; Willems 1991), so:
    zI - A has zero kernel; the joint and relative kernels have equal rank;
    each section column, and by linearity its every z-shift, solves
    (zI - A) x + B u = 0; each ker_bar generator, fed in reverse, drives
    ``simulate`` from 0 back to 0; ker_bar's Hermite pivots multiply to
    the chi of ``_reachable``."""
    p_matrix, b_poly = pencil(sys)
    ring, n = p_matrix.ring, sys.n
    result, witness = kernel_pair_poly(p_matrix, b_poly)
    out = []
    if result.ker_f1.rank != 0:
        out.append("pencil zI - A has a nonzero kernel")
    if result.ker_pair.rank != result.ker_bar.rank:
        out.append(f"rank ker(zI-A, B) = {result.ker_pair.rank} != "
                   f"rank ker(zI-A | B) = {result.ker_bar.rank}")
    for j, col in enumerate(witness.section.columns()):
        if any(map(ring.add, p_matrix.matvec(col[:n]), b_poly.matvec(col[n:]))):
            out.append(f"section column {j} fails (zI - A) x + B u = 0")
    det, ker_bar = ring.one, result.ker_bar
    for j, (u, r) in enumerate(zip(ker_bar.basis.columns(), ker_bar.pivot_rows)):
        det = ring.mul(det, u[r])
        inputs = [tuple(e[k] if k < len(e) else 0 for e in u)
                  for k in reversed(range(max(map(len, u))))]
        if any(simulate(sys, (0,) * n, inputs).states[-1]):
            out.append(f"generator {j}, fed in reverse, does not return the state to 0")
    if det != (chi := _reachable(sys)[1]):
        out.append(f"det ker_bar {ring.format(det)} != reachable charpoly {ring.format(chi)}")
    return out

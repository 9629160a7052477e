"""Trajectories of x(t+1) = A x(t) + B u(t) and admissible inputs.

An input sequence is admissible when some state trajectory makes the
recursion hold.  The bi-infinite behavior is modeled here by three
finite boundary regimes (free initial state, fixed initial state,
periodic of order T); codeword_consistency checks the dynamics against
ker(zI - A | B) over GF(p)[z], whose index is the reachable subspace.
"""

import functools
from dataclasses import dataclass
from itertools import accumulate, chain

from .crt import solve
from .errors import (
    ConsistencyViolatedError,
    DimensionMismatchError,
    NotAFieldError,
    OracleTooLargeError,
    RingMismatchError,
)
from .kernel import ORACLE_LIMIT, _solve_by_enumeration
from .matrix import Matrix, hstack
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
        """Re-verify the trajectory; returns violations.

        Every entry must be canonical, every state an n-vector and every
        input an m-vector, with one state more than inputs.  Then one
        product [A | B] [x(0) ... x(T-1); u(0) ... u(T-1)], compared column
        by column with x(1) ... x(T): a row-packed product where
        ``simulate`` steps with column-packed sums.
        """
        out = (_noncanonical(sys.ring, "state x", self.states, sys.n)
               + _noncanonical(sys.ring, "input u", self.inputs, sys.m))
        horizon = self.horizon
        if len(self.states) != horizon + 1:
            out.append(f"{len(self.states)} states for {horizon} inputs")
        if out or not horizon:
            return out
        steps = Matrix._canonical(sys.ring, sys.n + sys.m, horizon,
                                  [*zip(*self.states[:-1]), *zip(*self.inputs)])
        expect = (hstack(sys.a, sys.b) @ steps).columns()
        return [f"recursion fails at step {t}"
                for t, (x, y) in enumerate(zip(expect, self.states[1:])) if x != y]


def _noncanonical(ring, name, vectors, size: int) -> list:
    """Violations for the vectors that do not have ``size`` entries and
    for the entries outside ``ring``'s canonical set, named ``name(t)``."""
    flat = list(chain.from_iterable(vectors))
    if set(map(len, vectors)) <= {size} and ring.contains_all(flat):
        return []
    out = []
    for t, v in enumerate(vectors):
        if len(v) != size:
            out.append(f"{name}({t}) has {len(v)} entries, not {size}")
        out += [f"{name}({t}) entry {i} is {e!r}, not canonical in {ring!r}"
                for i, e in enumerate(v) if not ring.contains(e)]
    return out


@dataclass(frozen=True)
class AdmissibleInputQuery:
    inputs: tuple                  # u(0..T-1)
    boundary: str = "free"         # free | fixed | periodic
    x0: tuple | None = None        # fixed mode only


#: inputs per step of the periodic boundary's blocked Horner scheme; a
#: power of 2, so that its A^k is one of the squarings A^T is built from.
#: Of 2, 4, 8, 16 and 32, 8 gave the fastest periodic ``admissible`` on the
#: trajectory benchmark's shapes
HORNER_BLOCK = 8


def _normalize(ring, v, size: int, what: str) -> tuple:
    """``v`` over ``ring``, checked to have ``size`` entries."""
    if len(v) != size:
        raise DimensionMismatchError(f"{what} length {len(v)} != {size}")
    return ring.normalize_all(v)


def _chunks(flat, size: int, count: int) -> tuple:
    """``count`` consecutive ``size``-tuples of ``flat``."""
    return tuple(zip(*[iter(flat)] * size)) if size else ((),) * count


def _run(step, x, inputs) -> Trajectory:
    """The forward recursion x <- step(x, u) from x under ``inputs``, both
    already normalized."""
    return Trajectory(states=tuple(accumulate(inputs, step, initial=x)), inputs=inputs)


def simulate(sys: SystemPair, x0, inputs) -> Trajectory:
    """Forward recursion from x0, the ``fixed`` boundary of ``admissible``;
    the trajectory invariant holds by construction."""
    return admissible(sys, AdmissibleInputQuery(tuple(inputs), "fixed", x0))


def _matrix_power(a: Matrix, k: int, squares=None) -> Matrix:
    """A^k by right-to-left square-and-multiply (Knuth, TAOCP vol. 2,
    4.6.3): one squaring per bit of k after the lowest, and one product
    per set bit after the first.  The squarings A, A^2, A^4, ... are
    appended to the list ``squares`` when one is given."""
    if k == 0:
        return Matrix.identity(a.ring, a.nrows)
    out, power = None, a
    while True:
        if squares is not None:
            squares.append(power)
        if k & 1:
            out = power if out is None else out @ power
        k >>= 1
        if not k:
            return out
        power = power @ power


def _forced(sys: SystemPair, flat: tuple, a_k: Matrix, k: int) -> tuple:
    """x(T) from x(0) = 0 under the inputs ``flat``, u(0) ... u(T-1) end
    to end, by blocked Horner: x <- A^k x + [A^(k-1) B ... A B  B]
    (u(s); ...; u(s+k-1)), one step per block of k inputs, the first block
    padded in front with zero inputs, which keep x = 0.  The columns of
    A^j B come from matvecs."""
    ring, n = sys.ring, sys.n
    blocks = [sys.b.columns()]
    for _ in range(k - 1):
        blocks.append([sys.a.matvec(c) for c in blocks[-1]])
    cols = [c for block in reversed(blocks) for c in block]
    width = len(cols)
    horner = Matrix._canonical(ring, n, width, zip(*cols) if n else ())
    padded = (ring.zero,) * (-len(flat) % width) + flat
    return functools.reduce(a_k._affine(horner), _chunks(padded, width, len(padded) // width),
                            (ring.zero,) * n)


def _solve_ring(m: Matrix, rhs):
    """Some x with M x = rhs, or None."""
    ring = m.ring
    if not isinstance(ring, ModRing) or ring.square_free:
        return solve(m, rhs)
    # repeated prime factors: per-prime solvability can lie, enumerate
    if ring.m ** m.ncols > ORACLE_LIMIT:
        raise OracleTooLargeError(
            f"{ring.m ** m.ncols} state candidates exceed the {ORACLE_LIMIT} guard")
    return _solve_by_enumeration(m, ring.normalize_all(rhs))


def admissible(sys: SystemPair, query: AdmissibleInputQuery) -> Trajectory | None:
    """A trajectory witnessing the input sequence, or None.

    free: always admissible, witness starts at 0.
    fixed: the unique trajectory from query.x0.
    periodic: solve (A^T - I) x(0) = -x_zero(T) where x_zero is the
      zero-initial response; then x(T) = x(0) exactly.  A^T comes from
      right-to-left square-and-multiply, about log2 T + popcount(T)
      products, and x_zero(T) from ceil(T / k) blocked Horner steps
      (``_forced``), k = min(HORNER_BLOCK, T), whose A^k is one of A^T's
      squarings (or A^T itself).  One run from the solved x(0) then
      gives the trajectory.
    """
    ring, n, m = sys.ring, sys.n, sys.m
    for u in query.inputs:
        if len(u) != m:
            raise DimensionMismatchError(f"input length {len(u)} != {m}")
    t = len(query.inputs)
    flat = ring.normalize_all(chain.from_iterable(query.inputs))
    inputs = _chunks(flat, m, t)
    step = sys.a._affine(sys.b)
    zero_state = (ring.zero,) * n
    if query.x0 is not None and query.boundary in ("free", "periodic"):
        raise ValueError(f"x0 is only for the fixed boundary, not {query.boundary!r}")
    if query.boundary == "free":
        return _run(step, zero_state, inputs)
    if query.boundary == "fixed":
        if query.x0 is None:
            raise DimensionMismatchError("fixed boundary requires x0")
        return _run(step, _normalize(ring, query.x0, n, "state"), inputs)
    if query.boundary != "periodic":
        raise ValueError(f"unknown boundary mode {query.boundary!r}")
    squares = []
    a_t = _matrix_power(sys.a, t, squares)
    forced = zero_state
    if t and m:
        k = min(HORNER_BLOCK, t)
        forced = _forced(sys, flat, a_t if k == t else squares[k.bit_length() - 1], k)
    x0 = _solve_ring(a_t - Matrix.identity(ring, n), tuple(map(ring.neg, forced)))
    if x0 is None:
        return None
    traj = _run(step, _normalize(ring, x0, n, "state"), inputs)
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

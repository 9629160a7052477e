"""Coefficient rings and their exact element arithmetic.

Three families are supported:

* ``PrimeField(p)``      -- GF(p); elements are ints in ``[0, p)``.
* ``ModRing(m)``         -- Z/m; elements are ints in ``[0, m)``.
* ``PolyRing(n)``        -- (Z/n)[z]; elements are tuples of ints in
  ``[0, n)``, constant coefficient first, with no trailing zeros.  The
  zero polynomial is the empty tuple.  For prime ``n`` this is GF(n)[z].

Elements are plain immutable Python values; a ring object interprets
them.  Every operation returns the canonical representative, so equal
elements always compare equal structurally.
"""

import functools
import itertools
import math

from .errors import (
    CompositeModulusError,
    NotFiniteError,
    NotInvertible,
    NotSquareFreeError,
)

#: Moduli are kept machine-word sized; these are desk-scale rings.
MAX_MODULUS = 2**62


#: The first twelve primes: as Miller-Rabin bases they decide primality
#: exactly for every n < 3.18e23, far beyond MAX_MODULUS.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 3.18e23)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial divisor of an odd composite n: Pollard's rho with
    Brent's cycle detection and batched gcds (Brent 1980).  The walk
    y -> y^2 + c starts at 2 with c = 1, 2, ..., so the result is
    deterministic; a c whose walk closes mod every factor at once gives
    gcd n and is skipped."""
    batch = 128
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: step again from its start one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Return the prime factorization of ``n >= 2`` as (prime, exponent)
    pairs, ascending: powers of two by shifting, odd composites split by
    Pollard-Brent until every part passes ``is_prime``."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    twos = (n & -n).bit_length() - 1
    counts = {2: twos} if twos else {}
    parts = [n >> twos]
    while parts:
        m = parts.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            parts += [d, m // d]
    return sorted(counts.items())


def crt_idempotents(primes: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Structural idempotents of Z/m for square-free m with the given primes.

    ``e_i`` is 1 mod ``primes[i]`` and 0 mod every other prime factor, so
    multiplication by ``e_i`` projects onto the i-th field component.
    """
    es = []
    for p in primes:
        n = m // p
        es.append((n * pow(n, -1, p)) % m)
    return tuple(es)


def crt_combine(residues, primes, m: int) -> int:
    """The unique x in [0, m) with x = residues[i] mod primes[i]."""
    es = crt_idempotents(tuple(primes), m)
    return sum(r * e for r, e in zip(residues, es)) % m


class PrimeField:
    """The field GF(p) for a prime p."""

    __slots__ = ("p",)

    kind = "gf"
    is_field = True
    parameter = property(lambda self: self.p)

    def __init__(self, p: int):
        if not 2 <= p <= MAX_MODULUS:
            raise ValueError(f"modulus {p} out of range")
        if not is_prime(p):
            raise CompositeModulusError(f"{p} is not prime")
        self.p = p

    @property
    def size(self):
        return self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def normalize(self, a) -> int:
        return int(a) % self.p

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NotInvertible(f"0 is not invertible in GF({self.p})")
        return pow(a, -1, self.p)

    def elements(self):
        return range(self.p)

    def parse(self, text: str):
        return int(text) % self.p

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ModRing:
    """The modular ring Z/m.

    The distinct prime factors are recorded at construction.  ``square_free``
    says whether m is the product of those primes; only then does the ring
    decompose into a product of prime fields and admit the local-global
    kernel machinery.
    """

    __slots__ = ("m", "primes", "square_free")

    kind = "zmod"
    is_field = False
    parameter = property(lambda self: self.m)

    def __init__(self, m: int):
        if not 2 <= m <= MAX_MODULUS:
            raise ValueError(f"modulus {m} out of range")
        factors = factorize(m)
        self.m = m
        self.primes = tuple(p for p, _ in factors)
        self.square_free = all(k == 1 for _, k in factors)

    @property
    def size(self):
        return self.m

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def normalize(self, a) -> int:
        return int(a) % self.m

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def is_unit(self, a) -> bool:
        return math.gcd(a, self.m) == 1

    def inv(self, a):
        g = math.gcd(a, self.m)
        if g != 1:
            raise NotInvertible(f"{a} is a zero divisor mod {self.m}", witness=g)
        return pow(a, -1, self.m)

    def elements(self):
        return range(self.m)

    def parse(self, text: str):
        return int(text) % self.m

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, ModRing) and other.m == self.m

    def __hash__(self):
        return hash(("zmod", self.m))

    def __repr__(self):
        return f"Z/{self.m}"


class PolyRing:
    """Univariate polynomials over Z/n in the indeterminate z.

    Elements are coefficient tuples, constant term first, trailing zeros
    stripped; the zero polynomial is ``()`` and its degree is None.  Prime
    n gives GF(n)[z], the setting for all field-path operations; a
    square-free composite n is representable only so that coefficientwise
    reduction can split the ring into its GF(p)[z] factors.
    """

    __slots__ = ("n", "coeff_primes", "coeff_square_free")

    kind = "polygf"
    is_field = False
    parameter = property(lambda self: self.n)

    def __init__(self, n: int):
        if not 2 <= n <= MAX_MODULUS:
            raise ValueError(f"coefficient modulus {n} out of range")
        factors = factorize(n)
        self.n = n
        self.coeff_primes = tuple(p for p, _ in factors)
        self.coeff_square_free = all(k == 1 for _, k in factors)

    @property
    def coeff_is_prime(self) -> bool:
        return len(self.coeff_primes) == 1 and self.coeff_primes[0] == self.n

    @property
    def size(self):
        return None

    @property
    def zero(self):
        return ()

    @property
    def one(self):
        return (1,)

    @property
    def z(self):
        """The indeterminate."""
        return (0, 1)

    def normalize(self, coeffs) -> tuple:
        cs = [int(c) % self.n for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and all(isinstance(c, int) and 0 <= c < self.n for c in a)
            and (not a or a[-1] != 0)
        )

    def degree(self, a):
        """Degree of ``a``; None for the zero polynomial."""
        return len(a) - 1 if a else None

    def constant(self, c: int) -> tuple:
        return self.normalize((c,))

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = (cs[i] + c) % self.n
        return self.normalize(cs)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return tuple((-c) % self.n for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        cs = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    cs[i + j] = (cs[i + j] + ca * cb) % self.n
        return self.normalize(cs)

    def scale(self, c: int, a):
        return self.normalize(tuple(c * x for x in a))

    def is_unit(self, a) -> bool:
        return len(a) == 1 and math.gcd(a[0], self.n) == 1

    def inv(self, a):
        if len(a) != 1:
            raise NotInvertible(
                "only nonzero constants are invertible in a polynomial ring"
            )
        g = math.gcd(a[0], self.n)
        if g != 1:
            raise NotInvertible(f"constant {a[0]} is a zero divisor mod {self.n}",
                                witness=g)
        return (pow(a[0], -1, self.n),)

    def divmod(self, a, b):
        """Quotient and remainder of a by b; b's leading coefficient must be a unit."""
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = pow(b[-1], -1, self.n)
        rem = list(a)
        q = [0] * max(0, len(a) - len(b) + 1)
        db = len(b) - 1
        while len(rem) >= len(b):
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - len(b)
            c = (rem[-1] * lead_inv) % self.n
            q[shift] = c
            for i, bc in enumerate(b):
                rem[shift + i] = (rem[shift + i] - c * bc) % self.n
            rem.pop()
        return self.normalize(q), self.normalize(rem)

    def monic(self, a):
        """Scale ``a`` by the inverse of its leading coefficient."""
        if not a:
            return a
        return self.scale(pow(a[-1], -1, self.n), a)

    def elements(self):
        raise NotFiniteError("polynomial rings are infinite")

    def parse(self, text: str):
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"unterminated coefficient list: {text!r}")
            body = text[1:-1].strip()
            coeffs = [int(t) for t in body.split(",")] if body else []
            return self.normalize(coeffs)
        # bare integers are constants
        return self.constant(int(text))

    def format(self, a) -> str:
        if not a:
            return "[0]"
        return "[" + ",".join(str(c) for c in a) + "]"

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.n == self.n

    def __hash__(self):
        return hash(("polygf", self.n))

    def __repr__(self):
        return f"(Z/{self.n})[z]" if not self.coeff_is_prime else f"GF({self.n})[z]"


_KINDS = {"gf": PrimeField, "zmod": ModRing, "polygf": PolyRing}


def make_ring(kind: str, parameter: int):
    """Build a validated ring from its file-header tag and parameter."""
    if kind not in _KINDS:
        raise ValueError(f"unknown ring kind {kind!r}; expected one of {sorted(_KINDS)}")
    return _KINDS[kind](parameter)


# -- splitting square-free rings into local rings ---------------------------


class Split:
    """Z/m or (Z/m)[z], m square-free, as the product of its local rings
    GF(p_i) or GF(p_i)[z], one per prime factor p_i in ascending order.

    ``reduce`` carries a vector into the i-th local ring through that
    ring's ``normalize`` (entrywise for ints, coefficientwise for
    polynomials); ``lift`` carries a local vector back, multiplied by the
    structural idempotent e_i so that it vanishes in every other factor;
    ``glue`` sums the lifts, the inverse of reducing at every prime.
    """

    __slots__ = ("ring", "primes", "locals", "idempotents")

    def __init__(self, ring):
        if isinstance(ring, ModRing):
            m, self.primes, square_free, local = (ring.m, ring.primes,
                                                  ring.square_free, PrimeField)
        else:
            m, self.primes, square_free, local = (ring.n, ring.coeff_primes,
                                                  ring.coeff_square_free, PolyRing)
        if not square_free:
            bad = next(p for p, k in factorize(m) if k > 1)
            what = "modulus" if local is PrimeField else "coefficient modulus"
            raise NotSquareFreeError(
                f"{ring!r} does not decompose; {what} is not square-free", prime=bad)
        self.ring = ring
        self.locals = tuple(local(p) for p in self.primes)
        es = crt_idempotents(self.primes, m)
        self.idempotents = es if local is PrimeField else tuple((e,) for e in es)

    def reduce(self, v, i) -> tuple:
        return tuple(map(self.locals[i].normalize, v))

    def reduce_matrix(self, a, i):
        local = self.locals[i]
        return a.map_entries(local.normalize, ring=local)

    def lift(self, v, i) -> tuple:
        ring, e = self.ring, self.idempotents[i]
        return tuple(ring.mul(e, ring.normalize(x)) for x in v)

    def glue(self, parts) -> tuple:
        lifted = [self.lift(v, i) for i, v in enumerate(parts)]
        return tuple(functools.reduce(self.ring.add, col) for col in zip(*lifted))


def is_local(ring) -> bool:
    """GF(p) and GF(p)[z]: the rings every question is answered over directly."""
    return isinstance(ring, PrimeField) or (
        isinstance(ring, PolyRing) and ring.coeff_is_prime)


@functools.lru_cache(maxsize=64)
def split_ring(ring) -> Split:
    """The Split of a Z/m or (Z/m)[z] ring, built once per ring (building
    the local rings re-tests every prime factor); never mutated."""
    return Split(ring)

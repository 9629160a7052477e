"""Coefficient rings and their exact element arithmetic.

Three families are supported:

* ``PrimeField(p)``      -- GF(p); elements are ints in ``[0, p)``.
* ``ModRing(m)``         -- Z/m; elements are ints in ``[0, m)``.
* ``PolyRing(n)``        -- (Z/n)[z]; elements are tuples of ints in
  ``[0, n)``, constant coefficient first, with no trailing zeros.  The
  zero polynomial is the empty tuple.  For prime ``n`` this is GF(n)[z].

Elements are plain immutable Python values; a ring object interprets
them.  Every operation returns the canonical representative, so equal
elements always compare equal structurally.  Each ring owns its text
format (``parse``, ``format``, ``parse_all``) and its bulk element ops,
``normalize_all`` and ``contains_all`` over a sequence of values.

GF(p) and Z/m share one Z/q body, ``ResidueRing``: its element
arithmetic, parsing and formatting run on the modulus ``q`` alone, and
each subclass adds only its own units and inverses (the primality check
and exact division for GF(p), the factorization and gcd inverses for
Z/m).  All three families take their modulus through one range check,
``2 <= q <= MAX_MODULUS``, and compare equal exactly when family and
modulus agree; ``p``, ``m`` and ``n`` name the same ``q``.  ``Split``,
the one CRT record, reads ``primes`` and ``square_free`` off Z/m and (Z/m)[z].
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


class _Ring:
    """What every family shares: the modulus q in [2, MAX_MODULUS], read
    as ``parameter``, and equality and hash keyed on (family, q), so
    rings of different families never compare equal."""

    __slots__ = ("q",)

    is_field = False
    parameter = property(lambda self: self.q)

    def __init__(self, q: int):
        if not 2 <= q <= MAX_MODULUS:
            raise ValueError(f"modulus {q} out of range [2, {MAX_MODULUS}]")
        self.q = q

    def __eq__(self, other):
        return type(other) is type(self) and other.q == self.q

    def __hash__(self):
        return hash((self.kind, self.q))

    def normalize_all(self, values) -> tuple:
        return tuple(map(self.normalize, values))

    def contains_all(self, values) -> bool:
        return all(map(self.contains, values))

    def parse_all(self, tokens) -> tuple:
        return tuple(map(self.parse, tokens))


@functools.cache
def _digits(q):
    """The ``bytes.translate`` table of the ASCII digit d -> d mod q; the
    other bytes are never read."""
    return bytes((v - 48) % q if 48 <= v < 58 else 0 for v in range(256))


class ResidueRing(_Ring):
    """Z/q with elements the ints in [0, q): the arithmetic GF(p) and Z/m
    share.  Subclasses add their units and inverses."""

    __slots__ = ()

    zero, one = 0, 1
    size = property(lambda self: self.q)

    def normalize(self, a) -> int:
        return int(a) % self.q

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.q

    def normalize_all(self, values) -> tuple:
        return tuple(map(self.q.__rmod__, map(int, values)))

    def contains_all(self, values) -> bool:
        """``all(map(self.contains, values))`` for a sequence ``values``:
        one pass each of ``type``, ``min`` and ``max`` accepts plain ints in
        [0, q); anything else (a ``bool``, say) goes to ``contains``."""
        if set(map(type, values)) <= {int} and (
                not values or min(values) >= 0 and max(values) < self.q):
            return True
        return all(map(self.contains, values))

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def sub_mul(self, a, q, b):
        return (a - q * b) % self.q

    def elements(self):
        return range(self.q)

    def parse(self, text: str):
        return int(text) % self.q

    format = str  # a type is no descriptor: ``ring.format`` is ``str``

    def parse_all(self, tokens) -> tuple:
        """``parse`` of each token of the sequence ``tokens``.  When every
        token is one ASCII digit, one ``bytes.translate`` of their join
        through ``_digits``; else one ``int`` pass, and one ``% q`` pass
        only when some value lies outside [0, q)."""
        text = "".join(tokens)
        # equal lengths with an empty token would hide a longer one
        if (len(text) == len(tokens) and text.isascii() and text.isdigit()
                and "" not in tokens):
            return tuple(text.encode().translate(_digits(self.q)))
        v = tuple(map(int, tokens))
        if v and (min(v) < 0 or max(v) >= self.q):
            return tuple(map(self.q.__rmod__, v))
        return v


class PrimeField(ResidueRing):
    """The field GF(p) for a prime p."""

    __slots__ = ()

    kind = "gf"
    is_field = True
    p = property(lambda self: self.q)

    def __init__(self, p: int):
        super().__init__(p)
        if not is_prime(p):
            raise CompositeModulusError(f"{p} is not prime")

    def is_unit(self, a) -> bool:
        return a % self.q != 0

    def inv(self, a):
        if a % self.q == 0:
            raise NotInvertible(f"0 is not invertible in GF({self.q})")
        return pow(a, -1, self.q)

    def divmod(self, a, b):
        """Exact division in a field: (a * b^-1, 0)."""
        return self.mul(a, self.inv(b)), 0

    def __repr__(self):
        return f"GF({self.q})"


class ModRing(ResidueRing):
    """The modular ring Z/m.

    The distinct prime factors are recorded at construction.  ``square_free``
    says whether m is the product of those primes; only then does the ring
    decompose into a product of prime fields and admit the local-global
    kernel machinery.
    """

    __slots__ = ("primes", "square_free")

    kind = "zmod"
    m = property(lambda self: self.q)

    def __init__(self, m: int):
        super().__init__(m)
        factors = factorize(m)
        self.primes = tuple(p for p, _ in factors)
        self.square_free = all(k == 1 for _, k in factors)

    def is_unit(self, a) -> bool:
        return math.gcd(a, self.q) == 1

    def inv(self, a):
        g = math.gcd(a, self.q)
        if g != 1:
            raise NotInvertible(f"{a} is a zero divisor mod {self.q}", witness=g)
        return pow(a, -1, self.q)

    def __repr__(self):
        return f"Z/{self.q}"


class PolyRing(_Ring):
    """Univariate polynomials over Z/n in the indeterminate z.

    Elements are coefficient tuples, constant term first, trailing zeros
    stripped; the zero polynomial is ``()`` and its degree is None.  Prime
    n gives GF(n)[z], the setting for all field-path operations; a
    square-free composite n is representable only so that coefficientwise
    reduction can split the ring into its GF(p)[z] factors.
    """

    __slots__ = ("primes", "square_free")

    kind = "polygf"
    n = property(lambda self: self.q)
    size = None
    zero, one = (), (1,)
    z = (0, 1)  # the indeterminate

    def __init__(self, n: int):
        super().__init__(n)
        factors = factorize(n)
        self.primes = tuple(p for p, _ in factors)
        self.square_free = all(k == 1 for _, k in factors)

    @property
    def coeff_is_prime(self) -> bool:
        return self.primes == (self.q,)

    def normalize(self, coeffs) -> tuple:
        cs = [int(c) % self.q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and all(isinstance(c, int) and 0 <= c < self.q for c in a)
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
            cs[i] = (cs[i] + c) % self.q
        return self.normalize(cs)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return tuple((-c) % self.q for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        cs = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    cs[i + j] = (cs[i + j] + ca * cb) % self.q
        return self.normalize(cs)

    def sub_mul(self, a, q, b):
        """a - q*b in one pass: plain-int products, one reduction per coefficient."""
        if not q or not b:
            return a
        cs = [*a, *[0] * (len(q) + len(b) - 1 - len(a))]
        for i, c in enumerate(q):
            for j, y in enumerate(b, i):
                cs[j] -= c * y
        return self.normalize(cs)

    def scale(self, c: int, a):
        return self.normalize(tuple(c * x for x in a))

    def is_unit(self, a) -> bool:
        return len(a) == 1 and math.gcd(a[0], self.q) == 1

    def inv(self, a):
        if len(a) != 1:
            raise NotInvertible(
                "only nonzero constants are invertible in a polynomial ring"
            )
        g = math.gcd(a[0], self.q)
        if g != 1:
            raise NotInvertible(f"constant {a[0]} is a zero divisor mod {self.q}",
                                witness=g)
        return (pow(a[0], -1, self.q),)

    def divmod(self, a, b):
        """Quotient and remainder of a by b; b's leading coefficient must be a unit."""
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        n, lead_inv = self.q, pow(b[-1], -1, self.q)
        rem, q = list(a), [0] * max(0, len(a) - len(b) + 1)
        for shift in reversed(range(len(q))):
            # the top term of rem cancels; the rest are reduced at the end
            c = q[shift] = rem.pop() * lead_inv % n
            for i, y in enumerate(b[:-1], shift):
                rem[i] -= c * y
        return self.normalize(q), self.normalize(rem)

    def monic(self, a):
        """Scale ``a`` by the inverse of its leading coefficient."""
        if not a:
            return a
        return self.scale(pow(a[-1], -1, self.q), a)

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

    def __repr__(self):
        return f"(Z/{self.q})[z]" if not self.coeff_is_prime else f"GF({self.q})[z]"


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
    ring's ``normalize_all`` (entrywise for ints, coefficientwise for
    polynomials); ``lift`` carries a local vector back, multiplied by the
    structural idempotent e_i so that it vanishes in every other factor;
    ``glue`` sums the lifts, the inverse of reducing at every prime, and
    is the one CRT combiner; ``check_laws`` verifies the idempotents.
    """

    __slots__ = ("ring", "primes", "m", "locals", "idempotents")

    def __init__(self, ring):
        local = PrimeField if isinstance(ring, ModRing) else PolyRing
        if not ring.square_free:
            bad = next(p for p in ring.primes if ring.q % (p * p) == 0)
            what = "modulus" if local is PrimeField else "coefficient modulus"
            raise NotSquareFreeError(
                f"{ring!r} does not decompose; {what} is not square-free", prime=bad)
        self.ring, self.primes, self.m = ring, ring.primes, ring.q
        self.locals = tuple(local(p) for p in self.primes)
        # e_i = (m/p_i) * ((m/p_i)^-1 mod p_i): 1 mod p_i, 0 mod every other prime
        m = self.m
        es = tuple(m // p * pow(m // p, -1, p) % m for p in self.primes)
        self.idempotents = es if local is PrimeField else tuple((e,) for e in es)

    def reduce(self, v, i) -> tuple:
        return self.locals[i].normalize_all(v)

    def reduce_matrix(self, a, i):
        local = self.locals[i]
        # type(a) is Matrix, which imports this module
        return type(a)._canonical(local, a.nrows, a.ncols, map(local.normalize_all, a.entries))

    def lift(self, v, i) -> tuple:
        ring, e = self.ring, self.idempotents[i]
        return tuple(ring.mul(e, ring.normalize(x)) for x in v)

    def glue(self, parts) -> tuple:
        lifted = [self.lift(v, i) for i, v in enumerate(parts)]
        return tuple(functools.reduce(self.ring.add, col) for col in zip(*lifted))

    def check_laws(self) -> list:
        """The idempotent laws of this split, verified exactly; returns
        violations: e_i e_j is e_i when i = j and 0 otherwise, e_i is 1 mod
        p_i and 0 mod every other prime, and the e_i sum to 1."""
        ring, es, fmt, m = self.ring, self.idempotents, self.ring.format, self.m
        out = []
        for i, e in enumerate(es):
            if ring.mul(e, e) != e:
                out.append(f"e_{i} = {fmt(e)} is not idempotent mod {m}")
            for j, f in enumerate(es[i + 1:], start=i + 1):
                if (ef := ring.mul(e, f)) != ring.zero:
                    out.append(f"e_{i} e_{j} = {fmt(ef)} != 0 mod {m}")
            for j, (p, local) in enumerate(zip(self.primes, self.locals)):
                if local.normalize(e) != (local.one if i == j else local.zero):
                    out.append(f"e_{i} != {int(i == j)} mod {p}")
        if (total := functools.reduce(ring.add, es)) != ring.one:
            out.append(f"sum of idempotents is {fmt(total)} != 1 mod {m}")
        return out


def is_local(ring) -> bool:
    """GF(p) and GF(p)[z]: the rings every question is answered over directly."""
    return isinstance(ring, PrimeField) or (
        isinstance(ring, PolyRing) and ring.coeff_is_prime)


@functools.lru_cache(maxsize=64)
def split_ring(ring) -> Split:
    """The Split of a Z/m or (Z/m)[z] ring, built once per ring (building
    the local rings re-tests every prime factor); never mutated."""
    return Split(ring)

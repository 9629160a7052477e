import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerpair import (
    CompositeModulusError,
    ModRing,
    NotFiniteError,
    NotInvertible,
    NotSquareFreeError,
    PolyRing,
    PrimeField,
    make_ring,
)
from kerpair.rings import factorize, is_prime, split_ring

RINGS = [PrimeField(2), PrimeField(5), PrimeField(7), ModRing(30), ModRing(12),
         PolyRing(2), PolyRing(3)]


def random_element(ring, rng):
    if isinstance(ring, PolyRing):
        return ring.normalize([rng.randrange(ring.n) for _ in range(rng.randint(0, 4))])
    return rng.randrange(ring.size)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_ring_laws(ring):
    # associativity, commutativity, distributivity on 1100 random triples
    rng = random.Random(99)
    for _ in range(1100):
        a, b, c = (random_element(ring, rng) for _ in range(3))
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.mul(a, ring.one) == a
        assert ring.sub(a, b) == ring.add(a, ring.neg(b))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_normalize_idempotent(ring):
    rng = random.Random(3)
    for _ in range(200):
        a = random_element(ring, rng)
        assert ring.normalize(a) == a
        assert ring.contains(a)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_inverse_law(ring):
    rng = random.Random(17)
    for _ in range(300):
        a = random_element(ring, rng)
        if ring.is_unit(a):
            assert ring.mul(ring.inv(a), a) == ring.one
        else:
            with pytest.raises(NotInvertible):
                ring.inv(a)


def test_prime_field_rejects_composite():
    with pytest.raises(CompositeModulusError):
        PrimeField(4)
    with pytest.raises(CompositeModulusError):
        PrimeField(30)


def test_mod_ring_factorization():
    assert ModRing(30).primes == (2, 3, 5)
    assert ModRing(30).square_free
    twelve = ModRing(12)
    assert twelve.primes == (2, 3)
    assert not twelve.square_free


def test_arithmetic_fixtures():
    assert PrimeField(5).add(3, 4) == 2
    assert ModRing(30).mul(15, 15) == 15
    one_plus_z = (1, 1)
    assert PolyRing(2).mul(one_plus_z, one_plus_z) == (1, 0, 1)


def test_inverse_fixtures():
    assert PrimeField(7).inv(3) == 5
    with pytest.raises(NotInvertible) as err:
        ModRing(30).inv(10)
    assert err.value.witness == 10
    with pytest.raises(NotInvertible):
        PolyRing(3).inv((0, 1))


def test_zmod_unit_iff_nonzero_mod_every_prime():
    ring = ModRing(30)
    for a in range(30):
        expect = all(a % p != 0 for p in ring.primes)
        assert ring.is_unit(a) == expect


@given(st.lists(st.integers(0, 4), max_size=6), st.lists(st.integers(0, 4), max_size=6))
def test_poly_divmod(a, b):
    ring = PolyRing(5)
    a, b = ring.normalize(a), ring.normalize(b)
    if b == ring.zero:
        return
    q, r = ring.divmod(a, b)
    assert ring.add(ring.mul(q, b), r) == a
    assert r == ring.zero or len(r) < len(b)


SUB_MUL_RINGS = [PolyRing(2), PolyRing(3), PolyRing(7), PolyRing(101), PolyRing(30)]


@st.composite
def sub_mul_cases(draw):
    """(ring, a, q, b), half of them with a = q*b + r and deg r < deg(q*b),
    so that the leading terms cancel."""
    ring = draw(st.sampled_from(SUB_MUL_RINGS))
    poly = st.lists(st.integers(0, ring.n - 1), max_size=6).map(ring.normalize)
    a, q, b = draw(poly), draw(poly), draw(poly)
    if draw(st.booleans()):
        a = ring.add(ring.mul(q, b), a[:max(len(q) + len(b) - 2, 0)])
    return ring, a, q, b


@given(sub_mul_cases())
def test_poly_sub_mul_is_sub_of_mul(case):
    ring, a, q, b = case
    for x, y, z in ((a, q, b), (a, ring.zero, b), (a, q, ring.zero), (ring.zero, q, b)):
        assert ring.sub_mul(x, y, z) == ring.sub(x, ring.mul(y, z))
        assert ring.contains(ring.sub_mul(x, y, z))


@pytest.mark.parametrize("ring", [PrimeField(2), PrimeField(101), ModRing(30), ModRing(12)],
                         ids=repr)
def test_int_sub_mul_is_sub_of_mul(ring):
    for a, q, b in itertools.product(range(min(ring.size, 13)), repeat=3):
        assert ring.sub_mul(a, q, b) == ring.sub(a, ring.mul(q, b))


def test_poly_degree_and_indeterminate():
    ring = PolyRing(3)
    assert ring.degree(ring.zero) is None
    assert ring.degree(ring.one) == 0
    assert ring.z == (0, 1)
    assert ring.monic((0, 2)) == (0, 1)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_parse_format_round_trip(ring):
    rng = random.Random(5)
    for _ in range(100):
        a = random_element(ring, rng)
        assert ring.parse(ring.format(a)) == a


#: tokens int() reads, as one row: values >= q and negative ones, a sign,
#: leading zeros, an underscore, ints beyond 2**64
INT_TOKENS = ("0", "1", "4", "5", "7", "12", "30", "-1", "-30", "+5", "007", "1_0", " 9 ",
              str(2**64 + 3), str(-2**70 - 1), str(2**62))
POLY_TOKENS = ("[0]", "[]", "[1,2]", "[ 3 , 0 ]", "[-1,7,0]", f"[{2**65},1]")
CODEC_RINGS = RINGS + [PrimeField(2**61 - 1), ModRing(2**62), PolyRing(30)]


def _tokens(ring):
    return INT_TOKENS + (POLY_TOKENS if isinstance(ring, PolyRing) else ())


@pytest.mark.parametrize("ring", CODEC_RINGS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parse_all_matches_elementwise(ring, data):
    """``parse_all`` is ``parse`` entry by entry: on every token at once
    (several out of [0, q)), on drawn rows, and on rows whose values all
    lie in [0, q), which skip the reduction; it reads back what
    ``format`` writes."""
    drawn = st.one_of(st.sampled_from(_tokens(ring)), st.integers(-2**70, 2**70).map(str))
    in_range = st.integers(0, ring.q - 1).map(str)
    for tokens in (_tokens(ring), data.draw(st.lists(drawn, max_size=8)),
                   data.draw(st.lists(in_range, max_size=8))):
        parsed = ring.parse_all(tokens)
        assert type(parsed) is tuple and parsed == tuple(map(ring.parse, tokens))
        assert ring.parse_all(list(map(ring.format, parsed))) == parsed


@pytest.mark.parametrize("ring", CODEC_RINGS, ids=repr)
@pytest.mark.parametrize("bad", ["x", "1.5", "", "0x1f", "[1,x]"])
def test_parse_all_raises_like_parse(ring, bad):
    """A bad token mid-row raises parse's own ValueError text."""
    with pytest.raises(ValueError) as expected:
        ring.parse(bad)
    with pytest.raises(ValueError) as got:
        ring.parse_all(["3", str(2**64), bad, "-1"])
    assert str(got.value) == str(expected.value)


#: one-digit tokens (the ``bytes.translate`` path) beside every form it
#: must leave to ``int``: signs, leading zeros, underscores, non-ASCII
#: digits ``int`` accepts, a digit it rejects, letters, an empty token
#: and padding
DIGIT_EDGE_TOKENS = st.one_of(
    st.sampled_from("0123456789"), st.integers(10, 10**30).map(str),
    st.sampled_from(["-1", "-0", "+3", "07", "1_0", "٣", "１", "²", "x",
                     "", " 7"]))


@pytest.mark.parametrize("q", [2, 3, 7, 10, 11, 101, 2**61 - 1])
@settings(max_examples=150, deadline=None)
@given(tokens=st.lists(DIGIT_EDGE_TOKENS, max_size=12))
def test_parse_all_is_int_mod_q(q, tokens):
    """``parse_all`` is ``int(t) % q`` token by token, or raises the
    ``ValueError`` of the first token ``int`` rejects."""
    ring = PrimeField(q) if is_prime(q) else ModRing(q)
    try:
        want = tuple(int(t) % q for t in tokens)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ring.parse_all(tokens)
        assert str(got.value) == str(exc)
    else:
        got = ring.parse_all(tokens)
        assert got == want and all(type(v) is int for v in got)


BULK_RINGS = [PrimeField(7), PrimeField(2**61 - 1), ModRing(30), ModRing(12), PolyRing(5),
              PolyRing(30)]


@pytest.mark.parametrize("ring", BULK_RINGS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bulk_ops_match_elementwise(ring, data):
    """``normalize_all`` and ``contains_all`` are ``normalize`` and
    ``contains`` entry by entry: on canonical rows, which the one-pass
    check accepts, and on rows with ints below 0 or at or above q,
    ``bool``s, floats, and polynomials with trailing or negative
    coefficients."""
    q = ring.q
    value = st.one_of(st.integers(0, q - 1), st.integers(-3 * q, -1), st.integers(q, 3 * q),
                      st.sampled_from((0, q - 1, q, -1)), st.booleans(), st.just(2.0))
    if isinstance(ring, PolyRing):
        value = st.lists(value, max_size=4).map(tuple)
    canonical = data.draw(st.lists(value.map(ring.normalize), max_size=8))
    mixed = data.draw(st.lists(value, max_size=8))
    for values in (canonical, mixed, canonical + mixed):
        assert ring.normalize_all(values) == tuple(map(ring.normalize, values))
        assert type(ring.normalize_all(values)) is tuple
        assert ring.contains_all(values) == all(map(ring.contains, values))
    assert ring.contains_all(canonical)


def test_poly_parse_forms():
    ring = PolyRing(2)
    assert ring.parse("[0]") == ()
    assert ring.parse("[1,0,1]") == (1, 0, 1)
    assert ring.parse("3") == (1,)  # bare ints are constants
    assert ring.format(()) == "[0]"
    with pytest.raises(ValueError):
        ring.parse("[1,0")


def test_poly_ring_not_enumerable():
    with pytest.raises(NotFiniteError):
        PolyRing(2).elements()


def test_make_ring_dispatch():
    assert make_ring("gf", 7) == PrimeField(7)
    assert make_ring("zmod", 30) == ModRing(30)
    assert make_ring("polygf", 2) == PolyRing(2)
    with pytest.raises(ValueError):
        make_ring("qq", 1)


FAMILIES = {"gf": 2**62 - 57, "zmod": 2**62, "polygf": 2**62}


@pytest.mark.parametrize("kind", FAMILIES)
def test_modulus_range_check(kind):
    for q in (2, FAMILIES[kind]):
        assert make_ring(kind, q).parameter == q
    for q in (1, 2**62 + 1):
        with pytest.raises(ValueError, match=f"modulus {q} out of range"):
            make_ring(kind, q)


def test_families_never_compare_equal():
    rings = [PrimeField(5), ModRing(5), PolyRing(5)]
    for r, s in itertools.combinations(rings, 2):
        assert r != s and s != r
    assert len(set(rings)) == 3
    assert rings == [PrimeField(5), ModRing(5), PolyRing(5)]
    assert [(repr(r), r.kind, r.is_field, r.size, r.parameter) for r in rings] == [
        ("GF(5)", "gf", True, 5, 5), ("Z/5", "zmod", False, 5, 5),
        ("GF(5)[z]", "polygf", False, None, 5)]
    assert (rings[0].p, rings[1].m, rings[2].n) == (5, 5, 5)


def test_split_ring_caches_each_family_apart():
    from kerpair.rings import split_ring

    zmod, poly = split_ring(ModRing(30)), split_ring(PolyRing(30))
    assert zmod is not poly
    assert zmod.ring == ModRing(30) and poly.ring == PolyRing(30)
    assert zmod.locals == (PrimeField(2), PrimeField(3), PrimeField(5))
    assert poly.locals == (PolyRing(2), PolyRing(3), PolyRing(5))
    assert split_ring(ModRing(30)) is zmod and split_ring(PolyRing(30)) is poly


@pytest.mark.parametrize("ring, prime", [(ModRing(12), 2), (PolyRing(90), 3)],
                         ids=["Z/12", "(Z/90)[z]"])
def test_split_names_the_repeated_prime_without_factoring_again(ring, prime, monkeypatch):
    import kerpair.rings as rings

    calls = []
    monkeypatch.setattr(rings, "factorize", lambda n: calls.append(n) or factorize(n))
    with pytest.raises(NotSquareFreeError) as exc:
        split_ring(type(ring)(ring.q))
    assert exc.value.prime == prime and calls == [ring.q]


def test_is_prime_and_factorize():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]


def trial_factorize(n):
    out, d = [], 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            out.append((d, k))
        d += 1
    return out + [(n, 1)] if n > 1 else out


def test_is_prime_and_factorize_match_trial_division():
    for n in range(20_000):
        assert is_prime(n) == (n >= 2 and trial_factorize(n) == [(n, 1)]), n
        if n >= 2:
            assert factorize(n) == trial_factorize(n), n


@pytest.mark.parametrize("build", [
    lambda: PrimeField(2**61 - 1),
    lambda: ModRing((2**31 - 1) * (2**31 - 19)),
    lambda: ModRing(2**62),
], ids=["GF(2^61-1)", "Z/(2^31-1)(2^31-19)", "Z/2^62"])
def test_ring_constructors_fast_at_max_modulus(build):
    # trial division ran for more than 20 s on the first two; the best of
    # three tries keeps a busy host from failing the bound
    times = []
    for _ in range(3):
        start = time.perf_counter()
        build()
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05


def test_factorize_at_max_modulus():
    assert ModRing((2**31 - 1) * (2**31 - 19)).primes == (2**31 - 19, 2**31 - 1)
    assert factorize(2**62) == [(2, 62)]
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    assert factorize(3**39) == [(3, 39)]


@settings(max_examples=200)
@given(st.integers(0, 29))
def test_crt_combine_round_trip(x):
    split = split_ring(ModRing(30))
    assert split.glue([(x % p,) for p in split.primes]) == (x,)


def test_idempotents_defining_congruences():
    es = split_ring(ModRing(30)).idempotents
    for i, p in enumerate((2, 3, 5)):
        for j, e in enumerate(es):
            assert e % p == (1 if i == j else 0)

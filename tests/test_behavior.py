import math
import random
import time

import pytest

from kerpair import (
    AdmissibleInputQuery,
    DimensionMismatchError,
    Matrix,
    ModRing,
    NotAFieldError,
    OracleTooLargeError,
    PolyRing,
    PrimeField,
    SystemPair,
    Trajectory,
    admissible,
    codeword_consistency,
    hstack,
    pencil,
    random_matrix,
    rref,
    simulate,
)
from kerpair.behavior import _matrix_power

GF2, GF3 = PrimeField(2), PrimeField(3)


def delay_system():
    # two-step delay line: x1 <- u, x2 <- x1
    a = Matrix(GF2, 2, 2, [[0, 0], [1, 0]])
    b = Matrix(GF2, 2, 1, [[1], [0]])
    return SystemPair(a, b)


def test_simulate_delay_line():
    traj = simulate(delay_system(), (0, 0), [(1,), (0,)])
    assert traj.states == ((0, 0), (1, 0), (0, 1))
    assert traj.check(delay_system()) == []
    assert traj.horizon == 2


def test_simulate_zero_input_zero_state():
    sys = delay_system()
    traj = simulate(sys, (0, 0), [(0,)] * 4)
    assert all(x == (0, 0) for x in traj.states)


def test_pure_delay_reproduces_inputs():
    ring = GF3
    sys = SystemPair(Matrix.zeros(ring, 2, 2), Matrix.identity(ring, 2))
    us = [(1, 2), (0, 1), (2, 2)]
    traj = simulate(sys, (0, 0), us)
    assert traj.states[1:] == tuple(us)


def test_trajectory_check_catches_tampering():
    sys = delay_system()
    traj = simulate(sys, (0, 0), [(1,), (1,)])
    assert traj.states[-1] == (1, 1)
    bad = Trajectory(states=traj.states[:-1] + ((0, 0),), inputs=traj.inputs)
    assert bad.check(sys) == ["recursion fails at step 1"]


def test_simulate_validates_shapes():
    sys = delay_system()
    with pytest.raises(DimensionMismatchError):
        simulate(sys, (0,), [(1,)])
    with pytest.raises(DimensionMismatchError):
        simulate(sys, (0, 0), [(1, 1)])


def test_system_pair_validation():
    with pytest.raises(DimensionMismatchError):
        SystemPair(Matrix.zeros(GF2, 1, 2), Matrix.zeros(GF2, 1, 1))
    with pytest.raises(DimensionMismatchError):
        SystemPair(Matrix.zeros(GF2, 2, 2), Matrix.zeros(GF2, 1, 1))


def test_free_boundary_always_admissible():
    rng = random.Random(401)
    rings = (GF2, GF3, ModRing(6), ModRing(8))
    count = 0
    while count < 500:
        ring = rings[count % len(rings)]
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        sys = SystemPair(random_matrix(ring, n, n, rng),
                         random_matrix(ring, n, m, rng))
        t = rng.randint(0, 4)
        us = [tuple(rng.randrange(ring.size) for _ in range(m))
              for _ in range(t)]
        traj = admissible(sys, AdmissibleInputQuery(tuple(us), "free"))
        assert traj is not None
        assert traj.states[0] == (ring.zero,) * n
        assert traj.check(sys) == []
        count += 1


def test_fixed_boundary_runs_from_x0():
    sys = delay_system()
    q = AdmissibleInputQuery(((1,),), boundary="fixed", x0=(1, 1))
    traj = admissible(sys, q)
    assert traj.states[0] == (1, 1)
    with pytest.raises(DimensionMismatchError):
        admissible(sys, AdmissibleInputQuery(((1,),), boundary="fixed"))


def test_periodic_nilpotent_zero_input():
    sys = delay_system()  # A nilpotent
    traj = admissible(sys, AdmissibleInputQuery(((0,), (0,)), "periodic"))
    assert traj is not None
    assert traj.states[0] == traj.states[-1] == (0, 0)


def test_periodic_scalar_gf3():
    # x(1) = 2 x(0) + u; periodic with T=1 needs x0 = 2 x0 + u, x0 = -u
    sys = SystemPair(Matrix(GF3, 1, 1, [[2]]), Matrix(GF3, 1, 1, [[1]]))
    for u in range(3):
        traj = admissible(sys, AdmissibleInputQuery(((u,),), "periodic"))
        assert traj is not None
        assert traj.states[0] == traj.states[-1]
        assert traj.states[0] == ((3 - u) % 3,)


def test_periodic_all_inputs_close_gf3():
    rng = random.Random(409)
    for _ in range(50):
        n = rng.randint(1, 2)
        sys = SystemPair(random_matrix(GF3, n, n, rng),
                         random_matrix(GF3, n, 1, rng))
        t = rng.randint(1, 3)
        us = tuple((rng.randrange(3),) for _ in range(t))
        traj = admissible(sys, AdmissibleInputQuery(us, "periodic"))
        if traj is not None:
            assert traj.states[0] == traj.states[-1]
            assert traj.check(sys) == []


def test_periodic_crt_path_z6():
    sys = SystemPair(Matrix(ModRing(6), 1, 1, [[0]]),
                     Matrix(ModRing(6), 1, 1, [[1]]))
    # x(1) = u must equal x(0): the unique closer is x0 = u
    traj = admissible(sys, AdmissibleInputQuery(((3,),), "periodic"))
    assert traj is not None and traj.states == ((3,), (3,))


@pytest.mark.parametrize("ring", [PolyRing(5), PolyRing(30)], ids=["GF(5)[z]", "(Z/30)[z]"])
def test_periodic_over_polynomial_rings(ring):
    # x(1) = z x(0) + u must equal x(0): (z - 1) x0 = -u has the solution
    # x0 = 1 for u = 1 - z, and none for u = 1 (z - 1 is not a unit)
    sys = SystemPair(Matrix(ring, 1, 1, [[(0, 1)]]), Matrix(ring, 1, 1, [[(1,)]]))
    u = ring.normalize((1, -1))
    traj = admissible(sys, AdmissibleInputQuery(((u,),), "periodic"))
    assert traj is not None and traj.states == (((1,),), ((1,),))
    assert admissible(sys, AdmissibleInputQuery((((1,),),), "periodic")) is None


def test_periodic_enumeration_path_z8():
    ring = ModRing(8)
    # 2 x0 - x0 = x0 must hit -forced: A=[2], B=[2], u=2 -> forced 4,
    # need (2-1) x0 = -4 -> x0 = 4
    sys = SystemPair(Matrix(ring, 1, 1, [[2]]), Matrix(ring, 1, 1, [[2]]))
    traj = admissible(sys, AdmissibleInputQuery(((2,),), "periodic"))
    assert traj is not None
    assert traj.states[0] == traj.states[-1] == (4,)
    # and a non-admissible one: A=[0] forces x0 = u exactly... always
    # admissible; instead 4 x0 = 1 mod 8 has no solution
    sys2 = SystemPair(Matrix(ring, 1, 1, [[5]]), Matrix(ring, 1, 1, [[1]]))
    # (5 - 1) x0 = -u -> 4 x0 = -u; u = 1 gives 4 x0 = 7: unsolvable
    assert admissible(sys2, AdmissibleInputQuery(((1,),), "periodic")) is None


def test_periodic_enumeration_guard():
    ring = ModRing(8)
    n = 7
    sys = SystemPair(Matrix.identity(ring, n).scale(5),
                     Matrix.zeros(ring, n, 1))
    with pytest.raises(OracleTooLargeError):
        admissible(sys, AdmissibleInputQuery(((1,),), "periodic"))


def test_periodic_not_admissible_gf2():
    # x(1) = x(0) + u: periodic iff u = 0
    sys = SystemPair(Matrix(GF2, 1, 1, [[1]]), Matrix(GF2, 1, 1, [[1]]))
    assert admissible(sys, AdmissibleInputQuery(((1,),), "periodic")) is None
    assert admissible(sys, AdmissibleInputQuery(((0,),), "periodic")) is not None


def test_unknown_boundary_rejected():
    with pytest.raises(ValueError):
        admissible(delay_system(), AdmissibleInputQuery((), "wrap"))


@pytest.mark.parametrize("ring", [PrimeField(7), ModRing(30), ModRing(8), PolyRing(5)],
                         ids=repr)
def test_matrix_power_is_the_repeated_product(ring):
    a = random_matrix(ring, 3, 3, random.Random(53), max_degree=1)
    product = Matrix.identity(ring, 3)
    for k in range(41):
        assert _matrix_power(a, k) == product, k
        product = product @ a


def _periodic_query(n, horizon, seed):
    """A system over GF(101) with A^T - I invertible, so that every input
    sequence of length T is periodic-admissible, and such a sequence."""
    rng = random.Random(seed)
    ring = PrimeField(101)
    eye = Matrix.identity(ring, n)
    a = random_matrix(ring, n, n, rng)
    while rref(_matrix_power(a, horizon) - eye).rank < n:
        a = random_matrix(ring, n, n, rng)
    sys = SystemPair(a, random_matrix(ring, n, 2, rng))
    us = tuple((rng.randrange(101), rng.randrange(101)) for _ in range(horizon))
    return sys, AdmissibleInputQuery(us, "periodic")


def test_matrix_products_per_periodic_horizon(monkeypatch):
    """A periodic horizon T costs O(log T) matrix products, not T."""
    horizon = 1000
    sys, query = _periodic_query(8, horizon, 61)
    calls = []
    real = Matrix.__matmul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    traj = admissible(sys, query)
    assert traj is not None and traj.check(sys) == []
    assert 0 < len(calls) <= 2 * math.ceil(math.log2(horizon)) + 1


def test_periodic_horizon_500_is_fast():
    # T products of 16x16 matrices through ring methods took 0.5-0.7 s; the
    # best of three tries keeps a busy host from failing the bound
    sys, query = _periodic_query(16, 500, 67)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        traj = admissible(sys, query)
        times.append(time.perf_counter() - start)
        assert traj is not None and traj.states[0] == traj.states[-1]
    assert min(times) < 0.3


def test_free_horizon_1000_simulate_and_check_are_fast():
    # two matvecs and an entrywise sum per step, in simulate and again in
    # the check, took 80-120 ms; one [A | B] matvec per step and one product
    # for the check take about 20 ms.  The best of three tries keeps a busy
    # host from failing the bound
    ring = PrimeField(7)
    rng = random.Random(83)
    sys = SystemPair(random_matrix(ring, 24, 24, rng), random_matrix(ring, 24, 2, rng))
    us = [(rng.randrange(7), rng.randrange(7)) for _ in range(1000)]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        traj = simulate(sys, (0,) * 24, us)
        violations = traj.check(sys)
        times.append(time.perf_counter() - start)
        assert violations == [] and traj.horizon == 1000
    assert min(times) < 0.045


def test_pencil_form():
    sys = SystemPair(Matrix(GF3, 2, 2, [[1, 2], [0, 1]]),
                     Matrix(GF3, 2, 1, [[1], [2]]))
    p, b = pencil(sys)
    assert p.ring == PolyRing(3)
    assert p.entries == (((2, 1), (1,)), ((), (2, 1)))  # [[z-1, -2],[0, z-1]]
    assert b.entries == (((1,),), ((2,),))


def test_pencil_requires_field():
    sys = SystemPair(Matrix.zeros(ModRing(6), 1, 1),
                     Matrix.zeros(ModRing(6), 1, 1))
    with pytest.raises(NotAFieldError):
        pencil(sys)


def test_codeword_consistency_fixtures():
    assert codeword_consistency(delay_system()) == []
    sys = SystemPair(Matrix(GF3, 1, 1, [[2]]), Matrix(GF3, 1, 1, [[1]]))
    assert codeword_consistency(sys) == []
    # no inputs at all: ker_bar is the zero module of rank 0
    sys0 = SystemPair(Matrix(GF2, 1, 1, [[1]]), Matrix.zeros(GF2, 1, 1))
    assert codeword_consistency(sys0) == []


def test_codeword_consistency_reduces_the_pencil_once(monkeypatch):
    """zI - A is reduced once with a transform, for the kernel pair and
    the shifted-generator solves alike; [zI - A | B] is the other one."""
    import kerpair.polykernel as polykernel

    reduced, real = [], polykernel._with_transform
    monkeypatch.setattr(polykernel, "_with_transform",
                        lambda g, back_reduce=False: reduced.append(g) or real(g, back_reduce))
    assert codeword_consistency(delay_system()) == []
    p_matrix, b_poly = pencil(delay_system())
    assert reduced == [p_matrix, hstack(p_matrix, b_poly)]


def test_codeword_consistency_randoms():
    rng = random.Random(419)
    for p in (2, 3):
        ring = PrimeField(p)
        for _ in range(10):
            n, m = rng.randint(1, 2), rng.randint(1, 2)
            sys = SystemPair(random_matrix(ring, n, n, rng),
                             random_matrix(ring, n, m, rng))
            assert codeword_consistency(sys) == []

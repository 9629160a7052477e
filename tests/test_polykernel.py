import itertools
import random
import time

import pytest

import kerpair.polykernel as polykernel
from kerpair import (
    Matrix,
    NotAFieldError,
    PolyRing,
    PrimeField,
    Submodule,
    check_witness,
    hstack,
    hermite_basis,
    hermite_with_transform,
    kernel_pair_poly,
    kernel_pair_poly_crt,
    kernel_vectors_up_to,
    matrix_degree,
    poly_kernel,
    poly_member,
    poly_solve,
    random_matrix,
    random_unimodular,
    rank_over_fractions,
    vector_degree,
)
from kerpair.crt import base_change_check, kernel_pair, reduce_matrix

F2Z = PolyRing(2)
F3Z = PolyRing(3)
Z = (0, 1)


def pm(ring, rows):
    return Matrix(ring, len(rows), len(rows[0]), rows)


# -- reference: the Hermite reduction on (column, transform) pairs ------------
#
# ``polykernel._hermite`` replaced these three functions, kept here
# verbatim under ref_ names: every Hermite result must equal theirs exactly.


def ref_euclid_rows(ring, work, r):
    """Zero out row r in all but one of the columns hitting it.

    ``work`` holds (column, transform-column) pairs whose first nonzero
    entry is at row r or below; classical gcd cascade on the row-r
    entries, smallest degree first.
    """
    while True:
        hot = [wc for wc in work if wc[0][r] != ring.zero]
        if len(hot) <= 1:
            return hot[0] if hot else None
        hot.sort(key=lambda wc: (len(wc[0][r]), wc[0][r], wc[1]))
        base = hot[0]
        for other in hot[1:]:
            q, _ = ring.divmod(other[0][r], base[0][r])
            ref_column_op(ring, other, base, q)


def ref_column_op(ring, target, source, q):
    """target -= q * source, applied to the (column, transform) pair."""
    col, ucol = target
    scol, sucol = source
    for i in range(len(col)):
        col[i] = ring.sub(col[i], ring.mul(q, scol[i]))
    for i in range(len(ucol)):
        ucol[i] = ring.sub(ucol[i], ring.mul(q, sucol[i]))


def ref_hermite_with_transform(g: Matrix):
    """(H, U, pivot_rows) with H the column Hermite form of g and U
    unimodular such that g @ U = [H | 0]."""
    ring = g.ring
    eye = Matrix.identity(ring, g.ncols)
    work = [[list(g.column(j)), list(eye.column(j))] for j in range(g.ncols)]
    basis = []
    pivot_rows = []
    for r in range(g.nrows):
        pivot = ref_euclid_rows(ring, work, r)
        if pivot is None:
            continue
        inv = ring.inv(ring.constant(pivot[0][r][-1]))
        pivot[0] = [ring.mul(inv, e) for e in pivot[0]]
        pivot[1] = [ring.mul(inv, e) for e in pivot[1]]
        work = [wc for wc in work if wc is not pivot]
        basis.append(pivot)
        pivot_rows.append(r)
    # back-reduce earlier columns below the pivot degree in each pivot row
    for j, r in enumerate(pivot_rows):
        for k in range(j):
            q, _ = ring.divmod(basis[k][0][r], basis[j][0][r])
            if q != ring.zero:
                ref_column_op(ring, basis[k], basis[j], q)
    h = Matrix.from_columns(ring, [b[0] for b in basis], nrows=g.nrows)
    u = Matrix.from_columns(ring, [b[1] for b in basis] + [wc[1] for wc in work],
                            nrows=g.ncols)
    return h, u, tuple(pivot_rows)


def fraction_free_rank(a):
    """Rank over GF(p)(z) by fraction-free elimination, rows cross-multiplied
    instead of divided: a reference independent of the Hermite reduction
    (entry degrees double at every step, so only for small matrices)."""
    ring = a.ring
    rows = [list(r) for r in a.entries]
    rank = 0
    for c in range(a.ncols):
        pivot = next((i for i in range(rank, a.nrows) if rows[i][c] != ring.zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, a.nrows):
            if rows[i][c] != ring.zero:
                f, g = pr[c], rows[i][c]
                rows[i] = [ring.sub(ring.mul(f, x), ring.mul(g, y))
                           for x, y in zip(rows[i], pr)]
        rank += 1
        if rank == a.nrows:
            break
    return rank


def test_kernel_of_equal_columns():
    a = pm(F2Z, [[Z, Z]])
    kb = poly_kernel(a)
    assert kb.rank == 1
    assert kb.basis.columns() == [((1,), (1,))]
    assert kb.column_degrees == (0,)


def test_kernel_canonical_basis_gf3():
    a = pm(F3Z, [[(1,), Z], [(), ()]])  # [1 z; 0 0]
    kb = poly_kernel(a)
    assert kb.rank == 1
    assert kb.basis.columns() == [((0, 1), (2,))]  # (z, 2)
    # (2z, 1) spans the same module: membership both ways
    other = hermite_basis(Matrix.from_columns(F3Z, [((0, 2), (1,))], nrows=2))
    assert kb == other
    assert kb.contains(((0, 2), (1,))) == ((2,),)


def test_zero_and_full_kernels():
    assert poly_kernel(pm(F2Z, [[(1,), ()], [(), (1,)]])).rank == 0
    kb = poly_kernel(Matrix.zeros(F2Z, 2, 2))
    assert kb.rank == 2
    assert kb.is_full()


def test_matrix_and_vector_degrees():
    a = pm(F3Z, [[(1, 2), ()], [(0, 0, 1), (2,)]])
    assert matrix_degree(a) == 2
    assert rank_over_fractions(a) == fraction_free_rank(a) == 2
    singular = pm(F3Z, [[(1,), Z], [Z, (0, 0, 1)]])  # column 2 = z * column 1
    assert rank_over_fractions(singular) == fraction_free_rank(singular) == 1


def test_rank_of_16x16_degree_1_is_fast():
    # fraction-free elimination did not finish in 20 s at this size; the
    # best of three tries keeps a busy host from failing the bound
    a = random_matrix(PolyRing(5), 16, 16, random.Random(16), max_degree=1)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert rank_over_fractions(a) == 16
        times.append(time.perf_counter() - start)
    assert min(times) < 1.0


def _hermite_cases():
    """GF(p)[z] matrices up to 6x8 of every awkward shape: no rows, no
    columns, zero, repeated columns, low rank, and plain random ones."""
    rng = random.Random(401)
    for p in (2, 3, 5, 7, 101):
        ring = PolyRing(p)
        yield Matrix.zeros(ring, 0, rng.randint(0, 4))
        yield Matrix.zeros(ring, rng.randint(1, 4), 0)
        yield Matrix.zeros(ring, 3, 4)
        for _ in range(6):
            m, n = rng.randint(1, 6), rng.randint(1, 8)
            g = random_matrix(ring, m, n, rng, max_degree=rng.randint(0, 2))
            yield g
            cols = g.columns()
            yield Matrix.from_columns(ring, cols + cols[:2], nrows=m)
            k = rng.randint(1, 2)
            yield (random_matrix(ring, m, k, rng, max_degree=1)
                   @ random_matrix(ring, k, n, rng, max_degree=1))


def test_hermite_matches_reference_exactly():
    """H, U and pivot rows equal the (column, transform) pair reduction's;
    the transform-free entries agree with its H and pivots."""
    for g in _hermite_cases():
        h, u, pivots = ref_hermite_with_transform(g)
        assert hermite_with_transform(g) == (h, u, pivots)
        basis = hermite_basis(g)
        assert (basis.basis, basis.pivot_rows, basis.rank) == (h, pivots, h.ncols)
        assert rank_over_fractions(g) == len(pivots)
        assert Submodule.from_columns(g.ring, g.nrows, g.columns()) == basis


def test_kernel_and_hermite_bases_are_submodules():
    """poly_kernel and hermite_basis return the canonical Submodule itself,
    and the column degrees are read off its basis."""
    for g in _hermite_cases():
        for kb in (poly_kernel(g), hermite_basis(g)):
            same = Submodule.from_columns(g.ring, kb.ambient, kb.basis.columns())
            assert isinstance(kb, Submodule)
            assert kb == same and hash(kb) == hash(same)
            assert kb.column_degrees == tuple(map(vector_degree, kb.basis.columns()))


def test_echelon_reduction_gives_the_hermite_witnesses():
    """Kernels and solves read the reduction without back-reduction: its
    trailing columns of U equal hermite_with_transform's, and every
    section x = U_p y with H y = c is the same, None where c is not in
    the image."""
    start = time.perf_counter()
    rng = random.Random(419)
    reduced = found = missing = 0
    for g in _hermite_cases():
        ring = g.ring
        echelon, hermite = polykernel._with_transform(g), hermite_with_transform(g)
        assert echelon[2] == hermite[2]
        assert echelon[1].columns()[len(echelon[2]):] == hermite[1].columns()[len(hermite[2]):]
        reduced += echelon[0] != hermite[0]
        cs = [g.matvec(tuple(random_matrix(ring, g.ncols, 1, rng).column(0)))
              for _ in range(2)]
        cs += [tuple(random_matrix(ring, g.nrows, 1, rng).column(0))]
        xs = polykernel._solve_columns(echelon, cs)
        assert xs == polykernel._solve_columns(hermite, cs)
        for c, x in zip(cs, xs):
            if x is not None:
                assert g.matvec(x) == c
        found += sum(x is not None for x in xs)
        missing += xs.count(None)
    assert reduced >= 10 and found >= 100 and missing >= 20, (reduced, found, missing)
    assert time.perf_counter() - start < 2.0


def test_hermite_fixture_scaling():
    g = Matrix.from_columns(F3Z, [((0, 2),)], nrows=1)  # [2z]
    assert hermite_basis(g).basis.columns() == [((0, 1),)]  # monic: [z]


def test_hermite_drops_dependent_column():
    v = ((1, 1), (0, 1))
    zv = tuple(F2Z.mul(Z, e) for e in v)
    g = Matrix.from_columns(F2Z, [v, zv], nrows=2)
    sub = hermite_basis(g)
    assert sub.basis.ncols == 1
    assert sub.contains(zv) is not None
    assert sub.contains(v) is not None
    assert sub.contains(((1,), ())) is None


def test_hermite_idempotent():
    rng = random.Random(301)
    for _ in range(40):
        g = random_matrix(F3Z, rng.randint(1, 3), rng.randint(1, 3), rng,
                          max_degree=2)
        h = hermite_basis(g).basis
        assert hermite_basis(h).basis == h


def test_hermite_transform_is_unimodular_factorization():
    rng = random.Random(311)
    for _ in range(40):
        g = random_matrix(F2Z, rng.randint(1, 3), rng.randint(1, 3), rng,
                          max_degree=2)
        h, u, pivot_rows = hermite_with_transform(g)
        padded = hstack(h, Matrix.zeros(F2Z, g.nrows, g.ncols - h.ncols))
        assert g @ u == padded
        assert list(pivot_rows) == sorted(pivot_rows)


def test_hermite_canonical_under_unimodular_action():
    # column operations must not change the canonical form
    rng = random.Random(313)
    for ring in (F2Z, F3Z):
        for _ in range(25):
            n = rng.randint(1, 3)
            g = random_matrix(ring, rng.randint(1, 3), n, rng, max_degree=2)
            u = random_unimodular(ring, n, rng)
            assert hermite_basis(g @ u).basis == hermite_basis(g).basis


def test_hermite_shape_invariants():
    rng = random.Random(317)
    for _ in range(40):
        g = random_matrix(F3Z, rng.randint(1, 4), rng.randint(1, 4), rng,
                          max_degree=2)
        h, _, pivot_rows = hermite_with_transform(g)
        for j, r in enumerate(pivot_rows):
            piv = h.entries[r][j]
            assert piv and piv[-1] == 1  # monic
            assert all(h.entries[r][k] == () for k in range(j + 1, h.ncols))
            for k in range(j):
                e = h.entries[r][k]
                assert e == () or len(e) < len(piv)  # degree-reduced


def test_kernel_annihilates_and_saturates():
    rng = random.Random(331)
    for ring in (F2Z, F3Z):
        for _ in range(30):
            a = random_matrix(ring, rng.randint(1, 3), rng.randint(1, 3), rng,
                              max_degree=2)
            kb = poly_kernel(a)
            zero = Matrix.zeros(ring, a.nrows, kb.rank) if kb.rank else None
            for col in kb.basis.columns():
                assert a.matvec(col) == (ring.zero,) * a.nrows
            assert kb.rank == a.ncols - rank_over_fractions(a)
            assert rank_over_fractions(a) == fraction_free_rank(a)
            # saturation: every low-degree kernel vector is an exact
            # K[z]-combination of the basis
            bound = min(a.nrows, a.ncols) * max(matrix_degree(a), 1) + 2
            for v in kernel_vectors_up_to(a, bound):
                assert kb.contains(v) is not None


def test_hermite_reductions_per_kernel_pair_constant(monkeypatch):
    """A GF(7)[z] kernel pair runs a fixed number of Hermite reductions,
    whatever dim ker_bar is, and never the degree-bounded nullspaces; the
    section is one batched solve, not one per column.  Only the
    reduction of A carries a transform, and no reduction that carries
    rows below the reduced ones is back-reduced: kernels and solves read
    the echelon form."""
    calls = {"hermite": 0, "transform": 0, "back": 0, "sweep": 0}
    real_hermite, real_transform = polykernel._hermite, polykernel._with_transform

    def counted_hermite(ring, cols, m, back_reduce=True):
        calls["hermite"] += 1
        calls["back"] += back_reduce and bool(cols) and len(cols[0]) > m
        return real_hermite(ring, cols, m, back_reduce)

    def counted_transform(g, back_reduce=False):
        calls["transform"] += 1
        return real_transform(g, back_reduce)

    def forbidden(a, bound):
        calls["sweep"] += 1
        return []

    monkeypatch.setattr(polykernel, "_hermite", counted_hermite)
    monkeypatch.setattr(polykernel, "_with_transform", counted_transform)
    monkeypatch.setattr(polykernel, "kernel_vectors_up_to", forbidden)
    ring = PolyRing(7)
    rng = random.Random(7)
    a = random_matrix(ring, 5, 2, rng, max_degree=1)
    counts, dims = [], []
    for b in (random_matrix(ring, 5, 5, rng, max_degree=1),
              a @ random_matrix(ring, 2, 5, rng, max_degree=1)):
        calls["hermite"] = calls["transform"] = calls["back"] = 0
        result = kernel_pair(a, b)
        counts.append((calls["hermite"], calls["transform"], calls["back"]))
        dims.append(result.ker_bar.dim)
        assert result.witness.section.ncols == result.ker_bar.dim
    assert dims[1] - dims[0] >= 3, dims
    assert calls["sweep"] == 0
    assert counts[0] == counts[1], counts
    assert counts[0][0] <= 5 and counts[0][1] <= 1 and counts[0][2] == 0, counts


def test_kernel_pair_without_ker_bar_skips_the_ker_pair_reduction(monkeypatch):
    """With ker(f1|f2) = 0 there is no section, so ker(f1,f2) is iota(ker_f1)
    as it stands: a GF(7)[z] kernel pair runs the reductions of A, of
    [H' | B] and the Hermite bases of ker_bar and ker_f1, and none for
    ker_pair."""
    calls = []
    real_hermite = polykernel._hermite

    def counted_hermite(ring, cols, m, back_reduce=True):
        calls.append(m)
        return real_hermite(ring, cols, m, back_reduce)

    monkeypatch.setattr(polykernel, "_hermite", counted_hermite)
    ring = PolyRing(7)
    a = pm(ring, [[Z, (1,)], [(0, 0, 1), Z], [(), ()]])
    b = pm(ring, [[()], [()], [(1, 1)]])
    result = kernel_pair(a, b)
    assert len(calls) == 4, calls
    assert result.ker_bar.is_zero() and not result.ker_f1.is_zero()
    assert result.witness.section.ncols == 0
    iota_f1 = Matrix.from_columns(ring, [x + ((),) for x in result.ker_f1.basis.columns()],
                                  nrows=3)
    assert result.ker_pair == Submodule(ring, 3, basis=iota_f1,
                                        pivot_rows=result.ker_f1.pivot_rows)
    assert result.ker_pair == hermite_basis(iota_f1)


def test_poly_kernel_requires_prime_coefficients():
    with pytest.raises(NotAFieldError):
        poly_kernel(Matrix.zeros(PolyRing(6), 1, 1))


def test_poly_solve_fixtures():
    a = pm(F2Z, [[Z]])
    assert poly_solve(a, ((0, 0, 1),)) == ((0, 1),)  # z x = z^2
    assert poly_solve(a, ((1,),)) is None            # z x = 1
    assert poly_solve(a, ((),)) == ((),)
    # consistency with matvec on solvable systems
    rng = random.Random(337)
    for _ in range(40):
        m = random_matrix(F3Z, rng.randint(1, 3), rng.randint(1, 3), rng,
                          max_degree=2)
        x = tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(m.ncols))
        x = tuple(F3Z.normalize(e) for e in x)
        c = m.matvec(x)
        got = poly_solve(m, c)
        assert got is not None
        assert m.matvec(got) == c
        assert poly_solve(m, c) == got  # deterministic


def test_kernel_pair_poly_worked_example():
    a = pm(F2Z, [[Z]])
    b = pm(F2Z, [[(1,)]])
    result = kernel_pair_poly(a, b)
    assert result.ker_f1.rank == 0
    assert result.ker_bar.basis.columns() == [((0, 1),)]  # multiples of z
    assert result.ker_pair.basis.columns() == [((1,), (0, 1))]
    assert check_witness(a, b, result) == []


def test_kernel_pair_poly_degenerate():
    a = pm(F3Z, [[Z, (1, 1)]])
    b = Matrix.zeros(F3Z, 1, 2)
    result = kernel_pair_poly(a, b)
    assert result.ker_bar.is_full()
    a0 = Matrix.zeros(F3Z, 2, 1)
    result = kernel_pair_poly(a0, Matrix.identity(F3Z, 2))
    assert result.ker_bar.rank == 0


def test_kernel_pair_poly_rank_identity():
    rng = random.Random(347)
    for ring in (F2Z, F3Z):
        for _ in range(25):
            p, q1, q2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(ring, p, q1, rng, max_degree=2)
            b = random_matrix(ring, p, q2, rng, max_degree=2)
            result = kernel_pair_poly(a, b)
            assert result.ker_pair.rank == result.ker_f1.rank + result.ker_bar.rank
            assert check_witness(a, b, result) == []


def test_pencil_kernel_is_zero():
    rng = random.Random(349)
    for p, ring in ((2, F2Z), (3, F3Z)):
        for _ in range(10):
            n = rng.randint(1, 3)
            c = random_matrix(PrimeField(p), n, n, rng)
            pencil = Matrix(ring, n, n,
                            [[ring.sub(Z if i == j else (),
                                       (c.entries[i][j],))
                              for j in range(n)] for i in range(n)])
            assert poly_kernel(pencil).rank == 0


def test_poly_member_fixtures():
    a = pm(F2Z, [[Z]])
    b = pm(F2Z, [[(1,)]])
    assert poly_member(a, b, ((),)) == ((),)          # u = 0
    assert poly_member(a, b, ((0, 0, 1),)) == ((0, 1),)  # u = z^2, x = z
    assert poly_member(a, b, ((1,),)) is None          # u = 1
    b0 = Matrix.zeros(F2Z, 1, 1)
    assert poly_member(a, b0, ((1, 1),)) == ((),)      # B = 0: x = 0 works


def test_poly_member_residual_identity():
    rng = random.Random(353)
    for _ in range(30):
        a = random_matrix(F3Z, rng.randint(1, 2), rng.randint(1, 2), rng,
                          max_degree=1)
        b = random_matrix(F3Z, a.nrows, rng.randint(1, 2), rng, max_degree=1)
        result = kernel_pair_poly(a, b)
        for g in result.ker_bar.basis.columns():
            x = poly_member(a, b, g)
            assert x is not None
            lhs = a.matvec(x)
            rhs = tuple(F3Z.neg(e) for e in b.matvec(g))
            assert lhs == rhs


def test_kernel_pair_poly_crt_worked_example():
    ring = PolyRing(6)
    a = pm(ring, [[(0, 3)]])   # 3z
    b = pm(ring, [[(2,)]])     # 2
    result = kernel_pair_poly_crt(a, b)
    assert result.primes == (2, 3)
    # mod 2: A = z, B = 0 -> full; mod 3: A = 0, B = 2 (unit) -> zero
    assert result.local_results[0].ker_bar.is_full()
    assert result.local_results[1].ker_bar.rank == 0
    # membership: u admissible iff u = 0 mod 3 (2u must vanish mod 3,
    # Im(3z) covers anything even); checked against a direct search
    glued = result.ker_bar
    for coeffs in itertools.product(range(6), repeat=3):
        u = ring.normalize(coeffs)
        in_glued = glued.contains((u,)) is not None
        solvable = _solvable_by_search(a, b, (u,), ring)
        assert in_glued == solvable


def _solvable_by_search(a, b, u, ring, max_degree=3):
    """Direct search for x with A x + B u = 0, degree-bounded."""
    target = tuple(ring.neg(e) for e in b.matvec(u))
    coeff_space = itertools.product(range(ring.n), repeat=max_degree + 1)
    vectors = [ring.normalize(c) for c in coeff_space]
    for x in itertools.product(vectors, repeat=a.ncols):
        if a.matvec(x) == target:
            return True
    return False


def test_kernel_pair_poly_crt_prime_matches_field_path():
    rng = random.Random(359)
    for _ in range(10):
        a = random_matrix(F3Z, rng.randint(1, 2), rng.randint(1, 2), rng,
                          max_degree=1)
        b = random_matrix(F3Z, a.nrows, rng.randint(1, 2), rng, max_degree=1)
        crt = kernel_pair_poly_crt(a, b)
        direct = kernel_pair_poly(a, b)
        assert len(crt.local_results) == 1
        assert crt.local_results[0].ker_bar == direct.ker_bar


def test_kernel_pair_poly_crt_degenerate():
    ring = PolyRing(6)
    res = kernel_pair_poly_crt(Matrix.zeros(ring, 2, 2),
                               Matrix.identity(ring, 2))
    assert all(r.ker_bar.rank == 0 for r in res.local_results)
    assert res.ker_bar.contains(((1,), ())) is None
    assert res.ker_bar.contains(((), ())) is not None


def test_poly_base_change():
    ring = PolyRing(6)
    a = pm(ring, [[(0, 3), (2,)]])
    b = pm(ring, [[(1, 2), (3,)]])
    for i in range(2):
        assert base_change_check(a, b, i) == []
    rng = random.Random(367)
    for _ in range(10):
        a = random_matrix(ring, rng.randint(1, 2), rng.randint(1, 2), rng,
                          max_degree=1)
        b = random_matrix(ring, a.nrows, rng.randint(1, 2), rng, max_degree=1)
        for i in range(2):
            assert base_change_check(a, b, i) == []


def test_reduce_poly_matrix():
    ring = PolyRing(6)
    a = pm(ring, [[(3, 4)]])
    r0 = reduce_matrix(a, 0)  # mod 2
    assert r0.ring == PolyRing(2) and r0.entries == (((1,),),)
    r1 = reduce_matrix(a, 1)  # mod 3
    assert r1.ring == PolyRing(3) and r1.entries == (((0, 1),),)


def test_random_unimodular_has_unit_determinant_effect():
    # unimodularity witnessed by the kernel being zero and the Hermite
    # form being the identity
    rng = random.Random(373)
    for _ in range(20):
        u = random_unimodular(F3Z, rng.randint(1, 3), rng)
        assert poly_kernel(u).rank == 0
        assert hermite_basis(u).basis == Matrix.identity(F3Z, u.nrows)

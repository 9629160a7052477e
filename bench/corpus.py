"""Seeded request streams for the four benchmark workloads.

A workload is an endless stream of jobs that cycles through a fixed
schedule of (ring, shape) slots; only the entries are random.  Job j of
seed s draws from its own ``random.Random``, so any prefix of a stream
can be rebuilt without generating what came before it, and two seeds
give instances of the same shapes, which keeps run-to-run cost steady.

A job owns the text files it writes and the CLI requests that read
them.  The program under test sees only those files and argv lists.
Everything here is the benchmark's own arithmetic: nothing is imported
from kerpair, so the generator cannot share a defect with the program.
"""

import operator
import random
from dataclasses import dataclass, field

WORKLOADS = ("field-large", "poly-sweep", "verify-mixed", "trajectory")

P31 = 2**31 - 1

# -- element arithmetic ------------------------------------------------------
#
# gf/zmod elements are ints mod m; polygf elements are coefficient tuples
# mod n, constant term first, no trailing zeros (the CLI's text format).


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntOps:
    def __init__(self, m):
        self.m = m
        self.zero = 0

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def const(self, c):
        return c % self.m

    def draw(self, rng, degree=0):
        return rng.randrange(self.m)

    def fmt(self, a):
        return str(a)

    def parse(self, text):
        return int(text) % self.m


class PolyOps:
    def __init__(self, n):
        self.m = n
        self.zero = ()

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = (cs[i] + c) % self.m
        return _trim(cs)

    def mul(self, a, b):
        if not a or not b:
            return ()
        cs = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                cs[i + j] = (cs[i + j] + x * y) % self.m
        return _trim(cs)

    def const(self, c):
        return _trim((c % self.m,))

    def draw(self, rng, degree=0):
        return _trim(rng.randrange(self.m) for _ in range(degree + 1))

    def fmt(self, a):
        return "[" + ",".join(map(str, a)) + "]" if a else "[0]"

    def parse(self, text):
        body = text.strip()[1:-1].strip()
        return _trim(int(t) % self.m for t in body.split(",")) if body else ()


def ops_for(kind, modulus):
    return PolyOps(modulus) if kind == "polygf" else IntOps(modulus)


def matmul(ops, x, y):
    if isinstance(ops, IntOps):
        cols = list(zip(*y))
        return [[sum(map(operator.mul, row, col)) % ops.m for col in cols] for row in x]
    inner = len(y)
    cols = len(y[0]) if y else 0
    out = []
    for row in x:
        out_row = []
        for j in range(cols):
            acc = ops.zero
            for k in range(inner):
                if row[k] != ops.zero and y[k][j] != ops.zero:
                    acc = ops.add(acc, ops.mul(row[k], y[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def matvec(ops, x, v):
    if isinstance(ops, IntOps):
        return [sum(map(operator.mul, row, v)) % ops.m for row in x]
    out = []
    for row in x:
        acc = ops.zero
        for a, b in zip(row, v):
            if a != ops.zero and b != ops.zero:
                acc = ops.add(acc, ops.mul(a, b))
        out.append(acc)
    return out


def draw_matrix(ops, rng, rows, cols, degree=0):
    return [[ops.draw(rng, degree) for _ in range(cols)] for _ in range(rows)]


def low_rank(ops, rng, rows, cols, rank, degree=0):
    """rows x cols product of two random factors of inner size ``rank``."""
    left = draw_matrix(ops, rng, rows, rank)
    right = draw_matrix(ops, rng, rank, cols, degree)
    return matmul(ops, left, right)


def gf_rank(rows, p):
    """Rank of an integer matrix mod a prime p (the benchmark's own elimination)."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        prow = [(x * inv) % p for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def prime_factors(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# -- jobs ----------------------------------------------------------------------


@dataclass
class Request:
    """One CLI call.  ``argv`` names files by their key in ``Job.files``."""

    kind: str          # kernel-pair | member | verify | simulate
    role: str          # primary | secondary (see README: latency metrics)
    argv: list
    expect: str        # "ok": exit 0; "either": exit 0 or 1 (a random u)
    data: dict = field(default_factory=dict)


@dataclass
class Job:
    kind: str          # ring tag: gf | zmod | polygf
    modulus: int
    a: list
    b: list
    files: dict
    requests: list

    @property
    def ops(self):
        return ops_for(self.kind, self.modulus)


def matrix_file(kind, modulus, ops, mats):
    out = [f"ring {kind} {modulus}"]
    for name, m in mats.items():
        out.append(f"matrix {name} {len(m)} {len(m[0]) if m else 0}")
        out.extend(" ".join(ops.fmt(e) for e in row) for row in m)
    return "\n".join(out) + "\n"


def mix_columns(ops, rng, b, nops):
    """B Q for a random unimodular Q made of ``nops`` column additions.

    Returns (B Q, ops list); ``unmix`` maps u to Q^-1 u, so a member u of
    ker(A|B) becomes the member Q^-1 u of ker(A|B Q).  Multipliers are
    constants, so polynomial degrees do not grow.
    """
    b = [list(r) for r in b]
    cols = len(b[0])
    steps = []
    for _ in range(nops):
        i, j = rng.sample(range(cols), 2)
        c = ops.const(rng.randrange(1, ops.m))
        for r in b:
            r[j] = ops.add(r[j], ops.mul(c, r[i]))
        steps.append((i, j, c))
    return b, steps


def unmix(ops, steps, u):
    """Q^-1 u for the Q built by mix_columns: undo the column additions."""
    u = list(u)
    neg_one = ops.const(-1)
    # Q = E_1 ... E_n with E = I + c e_i e_j^T (col_j += c col_i), so
    # Q^-1 u applies E_1^-1 first, and E^-1 u subtracts c u_j from u_i
    for i, j, c in steps:
        u[i] = ops.add(u[i], ops.mul(neg_one, ops.mul(c, u[j])))
    return u


def vec_arg(ops, u):
    return ",".join(ops.fmt(e) for e in u)


def pair_job(rng, kind, modulus, rows, q1, q2, rank, degree, n_members, n_random):
    """kernel-pair followed by member queries on one A, B.

    A = L R has inner rank ``rank``; B's first q2/4 columns are A X, so
    they lie in Im A, and a unimodular column mix hides them.  Members are
    Q^-1 (v, 0) with v random (ker(A|B) contains every such vector);
    the random queries are mostly non-members.
    """
    ops = ops_for(kind, modulus)
    a = low_rank(ops, rng, rows, q1, rank, degree)
    k = max(1, q2 // 4)
    b_in = matmul(ops, a, draw_matrix(ops, rng, q1, k))
    b_out = draw_matrix(ops, rng, rows, q2 - k, degree)
    b, steps = mix_columns(ops, rng, [x + y for x, y in zip(b_in, b_out)], 2 * q2)
    files = {"pair.txt": matrix_file(kind, modulus, ops, {"A": a, "B": b})}
    reqs = [Request("kernel-pair", "primary",
                    ["kernel-pair", "pair.txt", "A", "B", "--json"], "ok")]
    queries = []
    for _ in range(n_members):
        v = [ops.draw(rng, 1) for _ in range(k)] + [ops.zero] * (q2 - k)
        queries.append((unmix(ops, steps, v), "ok"))
    for _ in range(n_random):
        queries.append(([ops.draw(rng, 1) for _ in range(q2)], "either"))
    for u, expect in queries:
        reqs.append(Request("member", "secondary",
                            ["member", "pair.txt", "A", "B", vec_arg(ops, u), "--json"],
                            expect, {"u": u}))
    return Job(kind, modulus, a, b, files, reqs)


def verify_job(rng, kind, modulus, rows, q1, q2, rank, degree):
    """verify plus kernel-pair on one small instance with rank-deficient A."""
    ops = ops_for(kind, modulus)
    a = low_rank(ops, rng, rows, q1, rank, degree)
    b = draw_matrix(ops, rng, rows, q2, degree)
    files = {"pair.txt": matrix_file(kind, modulus, ops, {"A": a, "B": b})}
    reqs = [Request("verify", "primary", ["verify", "pair.txt", "A", "B", "--json"], "ok"),
            Request("kernel-pair", "secondary",
                    ["kernel-pair", "pair.txt", "A", "B", "--json"], "ok")]
    return Job(kind, modulus, a, b, files, reqs)


def _mat_pow(ops, a, e):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            out = matmul(ops, out, a)
        a = matmul(ops, a, a)
        e >>= 1
    return out


def trajectory_job(rng, kind, modulus, n, m, horizon, boundary):
    """One simulate request.  For the periodic boundary A is redrawn until
    A^T - I is invertible mod every prime of the modulus, so every input
    sequence is admissible and exit 1 would be a failure."""
    ops = ops_for(kind, modulus)
    while True:
        a = draw_matrix(ops, rng, n, n)
        if boundary != "periodic":
            break
        shifted = _mat_pow(ops, a, horizon)
        for i in range(n):
            shifted[i][i] = (shifted[i][i] - 1) % modulus
        if all(gf_rank(shifted, p) == n for p in prime_factors(modulus)):
            break
    b = draw_matrix(ops, rng, n, m)
    inputs = [[ops.draw(rng) for _ in range(m)] for _ in range(horizon)]
    files = {"sys.txt": matrix_file(kind, modulus, ops, {"A": a, "B": b}),
             "u.txt": "\n".join(" ".join(map(str, u)) for u in inputs) + "\n"}
    argv = ["simulate", "sys.txt", "A", "B", "--u-file", "u.txt", "--boundary", boundary]
    data = {"inputs": inputs, "boundary": boundary, "x0": [0] * n}
    if boundary == "fixed":
        x0 = [ops.draw(rng) for _ in range(n)]
        files["x0.txt"] = " ".join(map(str, x0)) + "\n"
        argv += ["--x0-file", "x0.txt"]
        data["x0"] = x0
    role = "primary" if boundary == "periodic" else "secondary"
    return Job(kind, modulus, a, b, files,
               [Request("simulate", role, argv + ["--json"], "ok", data)])


# -- schedules -----------------------------------------------------------------
#
# Each slot is one job; the stream cycles through the slots in order.  A
# run's median latency of each request role (primary, secondary) must land
# in the middle of one slot's samples, not between two slots of different
# cost: each role has an odd number of slots per cycle, or the middle slot
# appears twice (field-large, poly-sweep).  Over GF(5)[z] and GF(7)[z] the
# cost of one shape varies between instances by up to 2x (degenerate cases
# are frequent in small fields), so poly-sweep's middle slot is GF(101)[z],
# whose instances cost the same to within about 10%.  The "tiny" schedules
# keep every code path and run in well under a second; the smoke test uses
# them.

# (kind, modulus, rows, q1, q2); A has inner rank q1/2, 2 members, 2 random
FIELD_LARGE = {
    "full": [("gf", 2, 80, 40, 80), ("gf", 101, 60, 30, 60),
             ("gf", P31, 100, 50, 100), ("gf", 2, 80, 40, 80),
             ("gf", P31, 40, 20, 40), ("gf", 101, 100, 50, 100)],
    "tiny": [("gf", 2, 8, 4, 8), ("gf", 101, 6, 3, 6), ("gf", P31, 6, 4, 6)],
}

# (kind, modulus, rows, q1, q2, inner rank of A, degree, members, random)
POLY_SWEEP = {
    "full": [("polygf", 5, 8, 4, 6, 3, 2, 1, 0), ("polygf", 7, 6, 3, 5, 3, 1, 0, 1),
             ("polygf", 101, 6, 3, 5, 3, 1, 1, 0), ("polygf", 30, 7, 4, 5, 3, 1, 0, 0),
             ("polygf", 5, 4, 2, 4, 1, 2, 0, 1), ("polygf", 7, 10, 6, 6, 4, 2, 0, 0),
             ("polygf", 30, 6, 4, 5, 3, 1, 0, 0), ("polygf", 101, 6, 3, 5, 3, 1, 1, 0),
             ("polygf", 7, 8, 4, 6, 3, 2, 1, 0), ("polygf", 101, 8, 4, 6, 3, 2, 0, 0)],
    "tiny": [("polygf", 5, 3, 2, 2, 1, 1, 1, 1), ("polygf", 30, 2, 1, 2, 1, 1, 0, 0)],
}

# (kind, modulus, rows, q1, q2, inner rank of A, degree)
VERIFY_MIXED = {
    "full": [("gf", 5, 4, 3, 4, 2, 0), ("zmod", 30030, 12, 6, 12, 4, 0),
             ("zmod", 30, 4, 2, 2, 1, 0), ("polygf", 5, 6, 3, 4, 2, 1),
             ("gf", 7, 5, 3, 4, 2, 0), ("zmod", 210, 8, 4, 6, 3, 0),
             ("zmod", 30030, 8, 4, 8, 3, 0), ("polygf", 5, 4, 2, 3, 1, 1),
             ("zmod", 30030, 10, 5, 10, 4, 0)],
    "tiny": [("gf", 5, 3, 2, 2, 1, 0), ("zmod", 30, 3, 2, 2, 1, 0),
             ("polygf", 5, 2, 1, 2, 1, 1)],
}

# (kind, modulus, n, m, horizon, boundary)
TRAJECTORY = {
    "full": [("gf", 101, 16, 3, 500, "periodic"), ("gf", 7, 24, 4, 1000, "free"),
             ("zmod", 30, 12, 2, 300, "periodic"), ("gf", 101, 8, 2, 500, "fixed"),
             ("gf", 7, 20, 3, 300, "periodic"), ("zmod", 30, 16, 3, 600, "free"),
             ("gf", 101, 24, 4, 200, "periodic"), ("gf", 7, 12, 2, 400, "periodic")],
    "tiny": [("gf", 7, 3, 2, 6, "periodic"), ("zmod", 30, 3, 1, 5, "free"),
             ("gf", 101, 2, 2, 4, "fixed")],
}


def schedule(workload, size):
    return {"field-large": FIELD_LARGE, "poly-sweep": POLY_SWEEP,
            "verify-mixed": VERIFY_MIXED, "trajectory": TRAJECTORY}[workload][size]


def make_job(workload, size, seed, index):
    """Job ``index`` of the stream for (workload, size, seed)."""
    slots = schedule(workload, size)
    slot = slots[index % len(slots)]
    rng = random.Random(f"{workload}/{size}/{seed}/{index}")
    if workload == "field-large":
        kind, modulus, rows, q1, q2 = slot
        return pair_job(rng, kind, modulus, rows, q1, q2, max(1, q1 // 2), 0, 2, 2)
    if workload == "poly-sweep":
        return pair_job(rng, *slot)
    if workload == "verify-mixed":
        return verify_job(rng, *slot)
    return trajectory_job(rng, *slot)


def cycle_length(workload, size):
    return len(schedule(workload, size))

"""Command-line interface.

Matrices arrive in a single text file so that A and B can never
disagree about the ring:

    ring gf 5
    matrix A 2 2
    1 2
    3 4
    matrix B 2 1
    0
    1

Ring tags are gf/zmod/polygf; polynomial entries are bracketed
coefficient lists like [0,1] (constant term first).  Blank lines and
lines starting with # are ignored.

Exit codes: 0 success, 1 violation / not a member / not admissible,
2 usage or parse errors.
"""

import argparse
import functools
import json
import random
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import crt, polykernel
from .behavior import AdmissibleInputQuery, SystemPair, admissible, simulate
from .crt import kernel as matrix_kernel
from .errors import ConsistencyViolatedError, KerpairError, MatrixParseError
from .kernel import (
    Automorphism,
    check_identities,
    check_witness,
    kernel_pair_field,
    kernel_pair_oracle,
)
from .linalg import Submodule, random_invertible
from .matrix import Matrix, hstack
from .rings import is_local, make_ring, split_ring

DEFAULT_SEED = 1729


# -- file formats ------------------------------------------------------------


def parse_matrix_file(text: str):
    """(ring, {name: Matrix}) from the matrix file format."""
    ring = None
    matrices = {}
    lines = text.splitlines()
    i = 0

    def significant(k):
        s = lines[k].strip()
        return s and not s.startswith("#")

    while i < len(lines):
        if not significant(i):
            i += 1
            continue
        tokens = lines[i].split()
        if ring is None:
            if tokens[0] != "ring" or len(tokens) != 3:
                raise MatrixParseError(
                    f"expected 'ring <gf|zmod|polygf> <parameter>', got {lines[i]!r}",
                    line=i + 1)
            try:
                ring = make_ring(tokens[1], int(tokens[2]))
            except (ValueError, KerpairError) as exc:
                raise MatrixParseError(str(exc), line=i + 1)
            i += 1
            continue
        if tokens[0] != "matrix" or len(tokens) != 4:
            raise MatrixParseError(
                f"expected 'matrix <NAME> <rows> <cols>', got {lines[i]!r}",
                line=i + 1)
        name = tokens[1]
        if name in matrices:
            raise MatrixParseError(f"duplicate matrix name {name!r}", line=i + 1)
        try:
            nrows, ncols = int(tokens[2]), int(tokens[3])
        except ValueError:
            raise MatrixParseError(f"bad dimensions in {lines[i]!r}", line=i + 1)
        if nrows < 0 or ncols < 0:
            raise MatrixParseError(f"negative dimensions in {lines[i]!r}", line=i + 1)
        i += 1
        rows = []
        while len(rows) < nrows:
            if i >= len(lines):
                raise MatrixParseError(
                    f"matrix {name!r} ends after {len(rows)} of {nrows} rows",
                    line=len(lines))
            if not significant(i):
                i += 1
                continue
            entries = lines[i].split()
            if len(entries) != ncols:
                raise MatrixParseError(
                    f"matrix {name!r} row has {len(entries)} entries, expected {ncols}",
                    line=i + 1)
            try:
                rows.append(list(map(ring.parse, entries)))
            except ValueError as exc:
                raise MatrixParseError(str(exc), line=i + 1)
            i += 1
        # ring.parse returns canonical elements, so nothing is re-normalized
        matrices[name] = Matrix._canonical(ring, nrows, ncols, rows)
    if ring is None:
        raise MatrixParseError("empty matrix file", line=1)
    return ring, matrices


def format_matrix_file(ring, matrices) -> str:
    """Inverse of parse_matrix_file, entry for entry."""
    out = [f"ring {ring.kind} {ring.parameter}"]
    for name, m in matrices.items():
        out.append(f"matrix {name} {m.nrows} {m.ncols}")
        for row in m.entries:
            out.append(" ".join(ring.format(e) for e in row))
    return "\n".join(out) + "\n"


def split_vector_text(text: str) -> list:
    """Split on top-level commas, leaving bracketed coefficient lists whole."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_vector(ring, text: str, expect: int) -> tuple:
    parts = split_vector_text(text)
    if len(parts) != expect:
        raise MatrixParseError(f"vector has {len(parts)} entries, expected {expect}")
    try:
        return tuple(ring.parse(p) for p in parts)
    except ValueError as exc:
        raise MatrixParseError(str(exc))


def parse_vector_file(ring, path: str, width: int) -> list:
    """One vector per line, whitespace-separated ring elements."""
    vectors = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        entries = s.split()
        if len(entries) != width:
            raise MatrixParseError(
                f"vector line has {len(entries)} entries, expected {width}",
                line=lineno)
        try:
            vectors.append(tuple(ring.parse(e) for e in entries))
        except ValueError as exc:
            raise MatrixParseError(str(exc), line=lineno)
    return vectors


# -- result documents --------------------------------------------------------


def _vector_doc(ring, v):
    return [ring.format(e) for e in v]


def _submodule_doc(sub: Submodule) -> dict:
    if sub.kind in ("field", "poly"):
        return {
            "kind": sub.kind,
            "ambient": sub.ambient,
            "rank": sub.basis.ncols,
            "basis": [_vector_doc(sub.ring, c) for c in sub.basis.columns()],
        }
    doc = {
        "kind": sub.kind,
        "ambient": sub.ambient,
        "rank": list(sub.rank),
        "generators": [_vector_doc(sub.ring, g) for g in sub.generators()],
        "components": [_submodule_doc(c) for c in sub.components],
        "primes": list(split_ring(sub.ring).primes),
    }
    if sub.kind == "components":
        doc["size"] = sub.size()
    return doc


def _ring_doc(ring) -> str:
    return repr(ring)


def _print_submodule(label: str, sub: Submodule, out):
    if sub.kind in ("field", "poly"):
        print(f"{label}: rank {sub.basis.ncols} in ambient {sub.ambient}", file=out)
        for c in sub.basis.columns():
            print("  [" + ", ".join(sub.ring.format(e) for e in c) + "]", file=out)
    else:
        print(f"{label}: per-prime ranks {list(sub.rank)} in ambient {sub.ambient}",
              file=out)
        for g in sub.generators():
            print("  [" + ", ".join(sub.ring.format(e) for e in g) + "]", file=out)


def _dumps(doc, indent="\n") -> str:
    """``json.dumps(doc, indent=2)``, byte for byte.  Any indent sends
    ``json`` to its pure-Python encoder; here strings go through the C
    quoting function, a list of strings in one join.  Values dispatch on
    their exact type, the plain dicts, lists and scalars of a document."""
    inner = indent + "  "
    kind = type(doc)
    if kind is dict:
        if not doc:
            return "{}"
        return "{" + inner + ("," + inner).join(
            _quote(k if type(k) is str else json.dumps(k)) + ": " + _dumps(v, inner)
            for k, v in doc.items()) + indent + "}"
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        items = map(_quote, doc) if set(map(type, doc)) == {str} else \
            (_dumps(e, inner) for e in doc)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is str:
        return _quote(doc)
    return json.dumps(doc)


def _emit(doc: dict, args, out) -> int:
    if args.json:
        print(_dumps(doc), file=out)
    return doc["exit_code"]


# -- kernel of a single matrix -----------------------------------------------


def cmd_kernel(args, out) -> int:
    ring, matrices = parse_matrix_file(Path(args.file).read_text())
    a = _named(matrices, args.name)
    sub = matrix_kernel(a)
    doc = {"command": "kernel", "ring": _ring_doc(ring), "matrix": args.name,
           "kernel": _submodule_doc(sub), "status": "ok", "exit_code": 0}
    if not args.json:
        print(f"ring {_ring_doc(ring)}", file=out)
        _print_submodule(f"ker({args.name})", sub, out)
    return _emit(doc, args, out)


def _named(matrices, name) -> Matrix:
    if name not in matrices:
        raise MatrixParseError(
            f"no matrix named {name!r}; file defines {sorted(matrices)}")
    return matrices[name]


# -- kernel pairs ------------------------------------------------------------


def _degenerate_notes(a: Matrix, b: Matrix) -> list:
    notes = []
    if b.is_zero() and b.ncols >= 1:
        notes.append("B = 0, so ker(f1|0) is all of M2")
    if a.is_zero() and b == Matrix.identity(b.ring, b.nrows):
        notes.append("A = 0 and B = I, so ker(0|I) = 0")
    return notes


def cmd_kernel_pair(args, out) -> int:
    ring, matrices = parse_matrix_file(Path(args.file).read_text())
    a, b = _named(matrices, args.name_a), _named(matrices, args.name_b)
    result, witness = crt.kernel_pair(a, b, method=args.method)
    doc = {"command": "kernel-pair", "ring": _ring_doc(ring),
           "matrices": [args.name_a, args.name_b], "method": args.method,
           "ker_bar": _submodule_doc(result.ker_bar),
           "notes": _degenerate_notes(a, b),
           "status": "ok", "exit_code": 0}
    if result.ker_f1 is not None:
        doc["ker_f1"] = _submodule_doc(result.ker_f1)
        doc["ker_pair"] = _submodule_doc(result.ker_pair)
    if hasattr(result, "local_results"):
        doc["per_prime"] = [
            {"prime": p, "ker_bar": _submodule_doc(r.ker_bar)}
            for p, r in zip(result.primes, result.local_results)]
    if witness is not None:
        doc["section"] = [_vector_doc(ring, c) for c in witness.section.columns()]

    violations = []
    if args.verify:
        violations = verify_instance(a, b, trials=args.trials,
                                     seed=args.seed, collect=True)
        doc["verify"] = [{"check": name, "violations": v} for name, v in violations]
        violations = [(n, v) for n, v in violations if v]
        if violations:
            doc["status"] = "violation"
            doc["exit_code"] = 1

    if not args.json:
        print(f"ring {_ring_doc(ring)}", file=out)
        for note in doc["notes"]:
            print(f"note: {note}", file=out)
        _print_submodule(f"ker({args.name_a}|{args.name_b})", result.ker_bar, out)
        if "ker_f1" in doc:
            print(f"ker({args.name_a}) rank: {doc['ker_f1']['rank']}", file=out)
            print(f"joint kernel rank: {doc['ker_pair']['rank']}", file=out)
        if args.verify:
            for entry in doc["verify"]:
                v = entry["violations"]
                flag = "ok" if not v else "FAIL " + "; ".join(v)
                print(f"verify {entry['check']}: {flag}", file=out)
    return _emit(doc, args, out)


# -- idempotents -------------------------------------------------------------


def cmd_idempotents(args, out) -> int:
    deco = crt.idempotents(args.modulus)
    laws = deco.check_laws()
    doc = {"command": "idempotents", "modulus": deco.m,
           "primes": list(deco.primes), "idempotents": list(deco.idempotents),
           "laws": laws or ["orthogonality, idempotency, and unit sum all hold"],
           "status": "ok" if not laws else "violation",
           "exit_code": 0 if not laws else 1}
    if not args.json:
        for p, e in zip(deco.primes, deco.idempotents):
            print(f"prime {p}: e = {e}", file=out)
        for line in doc["laws"]:
            print(line, file=out)
    return _emit(doc, args, out)


# -- membership --------------------------------------------------------------


def cmd_member(args, out) -> int:
    ring, matrices = parse_matrix_file(Path(args.file).read_text())
    a, b = _named(matrices, args.name_a), _named(matrices, args.name_b)
    u = parse_vector(ring, args.vector, b.ncols)
    bu = b.matvec(u)
    x = crt.solver(a)(tuple(map(ring.neg, bu)))
    doc = {"command": "member", "ring": _ring_doc(ring),
           "vector": _vector_doc(ring, u), "member": x is not None}
    if x is not None:
        residual = tuple(ring.add(p, q) for p, q in zip(a.matvec(x), bu))
        if any(e != ring.zero for e in residual):
            raise ConsistencyViolatedError(f"witness {x!r} leaves residual {residual!r}")
        doc.update(witness=_vector_doc(ring, x), verified=True,
                   status="ok", exit_code=0)
    else:
        doc.update(status="not-member", exit_code=1)
    if not args.json:
        if x is None:
            print("not a member", file=out)
        else:
            print("member; witness x = ["
                  + ", ".join(ring.format(e) for e in x) + "]", file=out)
    return _emit(doc, args, out)


# -- simulation --------------------------------------------------------------


def cmd_simulate(args, out) -> int:
    ring, matrices = parse_matrix_file(Path(args.file).read_text())
    a, b = _named(matrices, args.name_a), _named(matrices, args.name_b)
    sys_pair = SystemPair(a=a, b=b)
    inputs = parse_vector_file(ring, args.u_file, sys_pair.m)
    if args.steps is not None:
        if args.steps > len(inputs):
            raise MatrixParseError(
                f"--steps {args.steps} exceeds the {len(inputs)} inputs on file")
        inputs = inputs[:args.steps]
    x0 = None
    if args.x0_file is not None:
        states = parse_vector_file(ring, args.x0_file, sys_pair.n)
        if len(states) != 1:
            raise MatrixParseError("x0 file must contain exactly one vector")
        x0 = states[0]
    query = AdmissibleInputQuery(inputs=tuple(inputs), boundary=args.boundary, x0=x0)
    traj = admissible(sys_pair, query)
    doc = {"command": "simulate", "ring": _ring_doc(ring),
           "boundary": args.boundary, "horizon": len(inputs)}
    if traj is None:
        doc.update(status="not-admissible", exit_code=1)
        if not args.json:
            print("not admissible under the periodic boundary", file=out)
        return _emit(doc, args, out)
    violations = traj.check(sys_pair)
    if violations:
        raise ConsistencyViolatedError("; ".join(violations))
    doc.update(states=[_vector_doc(ring, x) for x in traj.states],
               inputs=[_vector_doc(ring, u) for u in traj.inputs],
               status="ok", exit_code=0)
    if not args.json:
        for t, x in enumerate(traj.states):
            u = ("  u = [" + ", ".join(ring.format(e) for e in traj.inputs[t]) + "]"
                 if t < len(traj.inputs) else "")
            print(f"x({t}) = [" + ", ".join(ring.format(e) for e in x) + "]" + u,
                  file=out)
    return _emit(doc, args, out)


# -- verification ------------------------------------------------------------


class _Instance:
    """What the checks read: A, B, the kernel pair through the ``crt``
    dispatch, and the local instances (label, A, B, local result) -- the
    instance itself over GF(p) and GF(p)[z], its reduction at each prime
    over Z/m and (Z/m)[z]."""

    def __init__(self, a: Matrix, b: Matrix, rng, trials: int):
        self.a, self.b, self.ring, self.rng, self.trials = a, b, a.ring, rng, trials
        self.result, self.witness = crt.kernel_pair(a, b)
        self.split, self.finite = not is_local(self.ring), self.ring.size is not None
        if not self.split:
            self.locals = [("", a, b, self.result)]
        else:
            split = split_ring(self.ring)
            self.locals = [(f"mod {p}: ", split.reduce_matrix(a, i),
                            split.reduce_matrix(b, i), self.result.local_results[i])
                           for i, p in enumerate(split.primes)]


def _each_local(check):
    """A row run on every local instance, its violations labelled."""
    return lambda c: [label + v for label, fa, fb, r in c.locals
                      for v in check(c, fa, fb, r)]


def _method_agreement(c) -> list:
    bars = {"projection": c.result.ker_bar}
    bars.update((m, kernel_pair_field(c.a, c.b, m).ker_bar)
                for m in ("preimage", "quotient"))
    if bars["projection"] == bars["preimage"] == bars["quotient"]:
        return []
    return ["method presentations differ: "
            + ", ".join(f"{n} rank {s.basis.ncols}" for n, s in bars.items())]


def _kernel_exactness(c, a, b, r) -> list:
    ab = hstack(a, b)
    return ["joint kernel basis column fails A.K = 0"
            for col in r.ker_pair.basis.columns() if any(ab.matvec(col))]


def _rank_identity(c, a, b, r) -> list:
    if r.ker_pair.rank == r.ker_f1.rank + r.ker_bar.rank:
        return []
    return [f"rank {r.ker_pair.rank} != {r.ker_f1.rank} + {r.ker_bar.rank}"]


def _cardinality(c) -> list:
    lhs = c.result.ker_pair.size()
    rhs = c.result.ker_f1.size() * c.result.ker_bar.size()
    return [] if lhs == rhs else [f"|ker_pair| = {lhs} but |ker_f1|*|ker_bar| = {rhs}"]


def _oracle(c) -> list:
    oracle, computed = kernel_pair_oracle(c.a, c.b), c.result.ker_bar
    return [] if oracle == computed else [
        f"oracle dim {oracle.dim} != computed dim {computed.dim}"]


def _automorphism_identities(c, a, b, r) -> list:
    out = []
    for _ in range(c.trials):
        psi1 = Automorphism(random_invertible(a.ring, a.ncols, c.rng))
        psi2 = Automorphism(random_invertible(a.ring, b.ncols, c.rng))
        psi = Automorphism(random_invertible(a.ring, a.nrows, c.rng))
        out.extend(check_identities(a, b, psi1, psi2, psi))
    return out


def _saturation(c, a, b, r) -> list:
    bound = min(a.nrows, a.ncols) * polykernel.matrix_degree(a) + 2
    return [f"degree-{bound} oracle vector escapes the basis"
            for v in polykernel.kernel_vectors_up_to(a, bound)
            if r.ker_f1.contains(v) is None]


# (name, runs when, violations), in report order.  A split ring runs the
# local rows at each prime; the oracle row is absent above 10**5 candidates.
_CHECKS = (
    ("idempotent-laws", lambda c: c.split,
     lambda c: crt.idempotents(c.ring.parameter).check_laws()),
    ("base-change", lambda c: c.split,
     lambda c: [v for i in range(len(c.locals))
                for v in crt.base_change_violations(c.result, i)]),
    ("method-agreement", lambda c: c.ring.is_field, _method_agreement),
    ("kernel-exactness", lambda c: not c.finite, _each_local(_kernel_exactness)),
    ("rank-identity", lambda c: not c.finite, _each_local(_rank_identity)),
    ("splitting-witness", lambda c: c.witness is not None,
     lambda c: check_witness(c.a, c.b, c.result, c.witness)),
    ("cardinality", lambda c: c.finite, _cardinality),
    ("oracle", lambda c: c.finite and c.ring.size ** c.b.ncols <= 10 ** 5, _oracle),
    ("automorphism-identities", lambda c: c.finite,
     _each_local(_automorphism_identities)),
    ("saturation", lambda c: not c.finite, _each_local(_saturation)),
)


def verify_instance(a: Matrix, b: Matrix, trials: int = 5,
                    seed: int = DEFAULT_SEED, collect: bool = False) -> list:
    """Run the full invariant suite on one instance.

    Returns [(check name, violations)] for every row of _CHECKS that
    applies to the ring; with collect=False the empty checks are dropped.
    """
    c = _Instance(a, b, random.Random(seed), trials)
    checks = [(name, run(c)) for name, applies, run in _CHECKS if applies(c)]
    return checks if collect else [(n, v) for n, v in checks if v]


def cmd_verify(args, out) -> int:
    ring, matrices = parse_matrix_file(Path(args.file).read_text())
    a, b = _named(matrices, args.name_a), _named(matrices, args.name_b)
    checks = verify_instance(a, b, trials=args.trials, seed=args.seed, collect=True)
    failed = [(n, v) for n, v in checks if v]
    doc = {"command": "verify", "ring": _ring_doc(ring),
           "checks": [{"check": n, "violations": v} for n, v in checks],
           "status": "ok" if not failed else "violation",
           "exit_code": 0 if not failed else 1}
    if not args.json:
        for n, v in checks:
            print(f"{n}: " + ("ok" if not v else "FAIL " + "; ".join(v)), file=out)
    return _emit(doc, args, out)


# -- argument plumbing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the full result document as JSON")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized checks")

    parser = argparse.ArgumentParser(
        prog="kerpair",
        description="exact kernels of pairs of linear maps over finite rings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", parents=[common],
                       help="kernel of a single named matrix")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("kernel-pair", parents=[common],
                       help="ker(A|B) with section witness")
    p.add_argument("file")
    p.add_argument("name_a")
    p.add_argument("name_b")
    p.add_argument("--method", default="auto",
                   choices=["projection", "preimage", "quotient", "oracle",
                            "crt", "poly", "auto"])
    p.add_argument("--verify", action="store_true",
                   help="also run the invariant suite on this instance")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=cmd_kernel_pair)

    p = sub.add_parser("idempotents", parents=[common],
                       help="structural idempotents of a square-free modulus")
    p.add_argument("modulus", type=int)
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("member", parents=[common],
                       help="decide u in ker(A|B) and print a witness")
    p.add_argument("file")
    p.add_argument("name_a")
    p.add_argument("name_b")
    p.add_argument("vector", help="comma-separated entries, e.g. 1,2 or [0,1],[1]")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("simulate", parents=[common],
                       help="drive x(t+1) = A x(t) + B u(t)")
    p.add_argument("file")
    p.add_argument("name_a")
    p.add_argument("name_b")
    p.add_argument("--u-file", required=True, help="one input vector per line")
    p.add_argument("--x0-file", help="single-line initial state (fixed boundary)")
    p.add_argument("--steps", type=int)
    p.add_argument("--boundary", default="free",
                   choices=["free", "fixed", "periodic"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="run the invariant suite on one instance")
    p.add_argument("file")
    p.add_argument("name_a")
    p.add_argument("name_b")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code  # argparse exits with 0 (--help) or 2
    try:
        return args.func(args, out)
    except MatrixParseError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    except KerpairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())

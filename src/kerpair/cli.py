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
from .errors import (
    ConsistencyViolatedError,
    KerpairError,
    MatrixParseError,
    MethodUnavailableError,
)
from .kernel import (
    Automorphism,
    check_identities,
    check_witness,
    kernel_pair_field,
    kernel_pair_oracle,
    kernel_pair_projection,
)
from .linalg import Submodule, random_invertible
from .matrix import Matrix, hstack
from .rings import ModRing, PolyRing, PrimeField, make_ring, split_ring

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


def ring_parameter(ring) -> int:
    if isinstance(ring, PrimeField):
        return ring.p
    if isinstance(ring, ModRing):
        return ring.m
    return ring.n


def format_matrix_file(ring, matrices) -> str:
    """Inverse of parse_matrix_file, entry for entry."""
    out = [f"ring {ring.kind} {ring_parameter(ring)}"]
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
    quoting function, a list of strings in one join."""
    inner = indent + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        return "{" + inner + ("," + inner).join(
            _quote(k if isinstance(k, str) else json.dumps(k)) + ": " + _dumps(v, inner)
            for k, v in doc.items()) + indent + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = map(_quote, doc) if set(map(type, doc)) == {str} else \
            (_dumps(e, inner) for e in doc)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(doc, str):
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
    if isinstance(result, crt.LocalGlobalResult):
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
    if isinstance(ring, PolyRing) and not ring.coeff_is_prime:
        raise MethodUnavailableError(f"membership over {ring!r} is not supported")
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


def _verify_field(a: Matrix, b: Matrix, rng, trials: int) -> list:
    checks = []
    results = {name: kernel_pair_field(a, b, method=name)
               for name in ("projection", "preimage", "quotient")}
    bars = {name: r.ker_bar for name, r in results.items()}
    agree = []
    if not (bars["projection"] == bars["preimage"] == bars["quotient"]):
        agree.append("method presentations differ: "
                     + ", ".join(f"{n} rank {s.basis.ncols}" for n, s in bars.items()))
    checks.append(("method-agreement", agree))

    result, witness = kernel_pair_projection(a, b)
    checks.append(("splitting-witness", check_witness(a, b, result, witness)))
    return checks + _finite_checks(a, b, result, [("", a, b)], rng, trials)


def _verify_zmod(a: Matrix, b: Matrix, rng, trials: int) -> list:
    ring = a.ring
    checks = [("idempotent-laws", crt.idempotents(ring.m).check_laws())]
    result = crt.kernel_pair_crt(a, b)
    checks.append(("base-change", [v for i in range(len(ring.primes))
                                   for v in crt.base_change_violations(result, i)]))
    split = split_ring(ring)
    fields = [(f"mod {p}: ", split.reduce_matrix(a, i), split.reduce_matrix(b, i))
              for i, p in enumerate(split.primes)]
    return checks + _finite_checks(a, b, result, fields, rng, trials)


def _finite_checks(a: Matrix, b: Matrix, result, fields, rng, trials: int) -> list:
    """Cardinality, the oracle, and the automorphism identities over each
    (label, A, B) of ``fields``, the instance itself or its reductions."""
    card = []
    lhs = result.ker_pair.size()
    rhs = result.ker_f1.size() * result.ker_bar.size()
    if lhs != rhs:
        card.append(f"|ker_pair| = {lhs} but |ker_f1|*|ker_bar| = {rhs}")
    checks = [("cardinality", card)]

    if a.ring.size ** b.ncols <= 10 ** 5:
        oracle = kernel_pair_oracle(a, b)
        checks.append(("oracle", [] if oracle == result.ker_bar else
                       [f"oracle dim {oracle.dim} != computed dim {result.ker_bar.dim}"]))

    ident = []
    for label, fa, fb in fields:
        for _ in range(trials):
            psi1 = Automorphism(random_invertible(fa.ring, fa.ncols, rng))
            psi2 = Automorphism(random_invertible(fa.ring, fb.ncols, rng))
            psi = Automorphism(random_invertible(fa.ring, fa.nrows, rng))
            ident.extend(label + v for v in check_identities(fa, fb, psi1, psi2, psi))
    checks.append(("automorphism-identities", ident))
    return checks


def _verify_poly(a: Matrix, b: Matrix, rng, trials: int) -> list:
    ring = a.ring
    checks = []
    result, witness = polykernel.kernel_pair_poly(a, b)

    exact = []
    ab = hstack(a, b)
    for col in result.ker_pair.basis.columns():
        if any(e != ring.zero for e in ab.matvec(col)):
            exact.append("joint kernel basis column fails A.K = 0")
    checks.append(("kernel-exactness", exact))

    rank = []
    if result.ker_pair.rank != result.ker_f1.rank + result.ker_bar.rank:
        rank.append(f"rank {result.ker_pair.rank} != "
                    f"{result.ker_f1.rank} + {result.ker_bar.rank}")
    checks.append(("rank-identity", rank))

    checks.append(("splitting-witness", check_witness(a, b, result, witness)))

    sat = []
    d = polykernel.matrix_degree(a)
    bound = min(a.nrows, a.ncols) * d + 2
    for v in polykernel.kernel_vectors_up_to(a, bound):
        if result.ker_f1.contains(v) is None:
            sat.append(f"degree-{bound} oracle vector escapes the basis")
    checks.append(("saturation", sat))
    return checks


def verify_instance(a: Matrix, b: Matrix, trials: int = 5,
                    seed: int = DEFAULT_SEED, collect: bool = False) -> list:
    """Run the full invariant suite on one instance.

    Returns [(check name, violations)]; with collect=False the empty
    checks are dropped.
    """
    rng = random.Random(seed)
    ring = a.ring
    if isinstance(ring, PrimeField):
        checks = _verify_field(a, b, rng, trials)
    elif isinstance(ring, ModRing):
        checks = _verify_zmod(a, b, rng, trials)
    elif ring.coeff_is_prime:
        checks = _verify_poly(a, b, rng, trials)
    else:
        raise MethodUnavailableError(f"verify does not support {ring!r}")
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
        return exc.code if isinstance(exc.code, int) else 2
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

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
import itertools
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
    _identity_check,
    _ker_bar,
    _quotient_ker_bar,
    check_witness,
    kernel_pair_oracle,
)
from .linalg import Submodule, random_invertible
from .matrix import Matrix, hstack
from .rings import is_local, make_ring, split_ring

DEFAULT_SEED = 1729


# -- file formats ------------------------------------------------------------


def _records(text: str):
    """(line number, raw line, tokens) for every line of ``text`` that is
    neither blank nor a comment; the text is split into lines once."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, raw, tokens


def _entries(ring, tokens, expect: int, what: str, line=None) -> tuple:
    """The ``expect`` ring elements in ``tokens``; ``what`` names the row
    or vector in the count error, ``line`` is the error's line."""
    if len(tokens) != expect:
        raise MatrixParseError(f"{what} has {len(tokens)} entries, expected {expect}",
                               line=line)
    try:
        return ring.parse_all(tokens)
    except ValueError as exc:
        raise MatrixParseError(str(exc), line=line)


def _rows(ring, block: list, width: int, what: str) -> list:
    """The rows of ``block``, records of ``width`` entries each: one count
    check over the block and one ``parse_all`` of all its tokens.  A bad
    count or token re-reads the block row by row through ``_entries``, so
    the error raised is the first in file order, with its line."""
    token_rows = [row for _, _, row in block]
    if set(map(len, token_rows)) <= {width}:
        try:
            flat = ring.parse_all(list(itertools.chain.from_iterable(token_rows)))
        except ValueError:
            pass
        else:
            return list(zip(*[iter(flat)] * width))
    return [_entries(ring, row, width, what, lineno) for lineno, _, row in block]


def parse_matrix_file(text: str):
    """(ring, {name: Matrix}) from the matrix file format; a matrix's rows
    are read as one block (``_rows``)."""
    ring = None
    matrices = {}
    records = _records(text)
    for lineno, raw, tokens in records:
        if ring is None:
            if tokens[0] != "ring" or len(tokens) != 3:
                raise MatrixParseError(
                    f"expected 'ring <gf|zmod|polygf> <parameter>', got {raw!r}",
                    line=lineno)
            try:
                ring = make_ring(tokens[1], int(tokens[2]))
            except (ValueError, KerpairError) as exc:
                raise MatrixParseError(str(exc), line=lineno)
            continue
        if tokens[0] != "matrix" or len(tokens) != 4:
            raise MatrixParseError(
                f"expected 'matrix <NAME> <rows> <cols>', got {raw!r}", line=lineno)
        name = tokens[1]
        if name in matrices:
            raise MatrixParseError(f"duplicate matrix name {name!r}", line=lineno)
        try:
            nrows, ncols = int(tokens[2]), int(tokens[3])
        except ValueError:
            raise MatrixParseError(f"bad dimensions in {raw!r}", line=lineno)
        if nrows < 0 or ncols < 0:
            raise MatrixParseError(f"negative dimensions in {raw!r}", line=lineno)
        if not ncols:  # n x 0 takes no row lines
            rows = [()] * nrows
        else:
            block = list(itertools.islice(records, nrows))
            rows = _rows(ring, block, ncols, f"matrix {name!r} row")
            if len(rows) < nrows:
                raise MatrixParseError(
                    f"matrix {name!r} ends after {len(rows)} of {nrows} rows",
                    line=len(text.splitlines()))
        # ring.parse_all returns canonical elements, so nothing is re-normalized
        matrices[name] = Matrix._canonical(ring, nrows, ncols, rows)
    if ring is None:
        raise MatrixParseError("empty matrix file", line=1)
    return ring, matrices


def format_matrix_file(ring, matrices) -> str:
    """Inverse of parse_matrix_file, entry for entry."""
    out = [f"ring {ring.kind} {ring.parameter}"]
    for name, m in matrices.items():
        out.append(f"matrix {name} {m.nrows} {m.ncols}")
        if m.ncols:
            out += (" ".join(map(ring.format, row)) for row in m.entries)
    return "\n".join(out) + "\n"


def split_vector_text(text: str) -> list:
    """Split on top-level commas, leaving bracketed coefficient lists whole.
    A blank text is the zero-length vector; an empty entry or an unmatched
    ``]`` is a parse error.  Bracket-free text takes one ``str.split``."""
    if not text.strip():
        return []
    if "[" not in text and "]" not in text:
        parts = list(map(str.strip, text.split(",")))
    else:
        depths = list(itertools.accumulate((ch == "[") - (ch == "]") for ch in text))
        if min(depths) < 0:
            raise MatrixParseError(f"unmatched ']' in vector {text!r}")
        cuts = [-1, *(i for i, ch in enumerate(text) if ch == "," and depths[i] == 0),
                len(text)]
        parts = [text[i + 1:j].strip() for i, j in zip(cuts, cuts[1:])]
    if "" in parts:
        raise MatrixParseError(f"empty entry in vector {text!r}")
    return parts


def parse_vector(ring, text: str, expect: int) -> tuple:
    return _entries(ring, split_vector_text(text), expect, "vector")


def parse_vector_file(ring, path: str, width: int) -> list:
    """One vector per line, whitespace-separated ring elements, read as
    one block (``_rows``)."""
    return _rows(ring, list(_records(_read(path))), width, "vector line")


def _read(path) -> str:
    """The text of the file ``path``, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path} is not UTF-8 text: {exc}") from None


# -- result documents --------------------------------------------------------


class _Formatted(list):
    """A vector's ring elements, each of which ``str.format`` writes as its
    ``ring.format`` text: the elements themselves over Z/q, whose
    ``format`` is ``str``, and their text over polynomial rings.  That text
    holds only digits, brackets and commas, so ``_dumps`` writes them
    without escaping."""


def _vector_doc(ring, v):
    return _Formatted(v if ring.format is str else map(ring.format, v))


#: A submodule document's "kind", by ring family and whether it is glued.
_SUBMODULE_KIND = {("gf", False): "field", ("polygf", False): "poly",
                   ("zmod", True): "components", ("polygf", True): "poly_components"}


def _submodule_doc(sub: Submodule) -> dict:
    glued = bool(sub.components)
    doc = {"kind": _SUBMODULE_KIND[sub.ring.kind, glued], "ambient": sub.ambient,
           "rank": list(sub.rank) if glued else sub.rank}
    if not glued:
        doc["basis"] = [_vector_doc(sub.ring, c) for c in sub.basis.columns()]
        return doc
    doc["generators"] = [_vector_doc(sub.ring, g) for g in sub.generators()]
    doc["components"] = [_submodule_doc(c) for c in sub.components]
    doc["primes"] = list(split_ring(sub.ring).primes)
    if sub.ring.size is not None:
        doc["size"] = sub.size()
    return doc


def _print_submodule(label: str, sub: Submodule, out):
    rank = f"per-prime ranks {list(sub.rank)}" if sub.components else f"rank {sub.rank}"
    print(f"{label}: {rank} in ambient {sub.ambient}", file=out)
    for g in sub.generators():
        print("  [" + ", ".join(map(sub.ring.format, g)) + "]", file=out)


def _row_template(indent, width) -> str:
    """The ``str.format`` template of a ``_Formatted`` of ``width``
    elements, as ``_dumps`` writes it at ``indent``."""
    inner = indent + "  "
    return f'[{inner}"' + f'",{inner}"'.join(["{}"] * width) + f'"{indent}]' if width else "[]"


def _dumps(doc, indent="\n") -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, with the elements of
    a ``_Formatted`` written as strings of their ring text.  Any indent
    sends ``json`` to its pure-Python encoder; here strings go through the
    C quoting function, a list of strings in one join, a ``_Formatted``
    through one ``str.format`` of a row template with no quoting call, a
    list of ``_Formatted`` of one width through one ``str.format`` of that
    row template repeated, and an exact ``int`` through ``str``.  Values
    dispatch on their exact type, the plain dicts, lists and scalars of a
    document."""
    inner = indent + "  "
    kind = type(doc)
    if kind is _Formatted:
        return _row_template(indent, len(doc)).format(*doc)
    if kind is dict:
        if not doc:
            return "{}"
        return "{" + inner + ("," + inner).join(
            _quote(k if type(k) is str else json.dumps(k)) + ": " + _dumps(v, inner)
            for k, v in doc.items()) + indent + "}"
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        kinds = set(map(type, doc))
        if kinds == {_Formatted} and len(widths := set(map(len, doc))) == 1:
            rows = ("," + inner).join([_row_template(inner, widths.pop())] * len(doc))
            return ("[" + inner + rows + indent + "]").format(*itertools.chain.from_iterable(doc))
        items = map(_quote, doc) if kinds == {str} else (_dumps(e, inner) for e in doc)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is str:
        return _quote(doc)
    if kind is int:
        return str(doc)
    return json.dumps(doc)


def _emit(doc: dict, args, out) -> int:
    if args.json:
        print(_dumps(doc), file=out)
    return doc["exit_code"]


# -- kernel of a single matrix -----------------------------------------------


def cmd_kernel(args, out) -> int:
    ring, matrices = parse_matrix_file(_read(args.file))
    a = _named(matrices, args.name)
    sub = matrix_kernel(a)
    doc = {"command": "kernel", "ring": repr(ring), "matrix": args.name,
           "kernel": _submodule_doc(sub), "status": "ok", "exit_code": 0}
    if not args.json:
        print(f"ring {ring!r}", file=out)
        _print_submodule(f"ker({args.name})", sub, out)
    return _emit(doc, args, out)


def _named(matrices, name) -> Matrix:
    if name not in matrices:
        raise MatrixParseError(
            f"no matrix named {name!r}; file defines {sorted(matrices)}")
    return matrices[name]


def _pair(args):
    """(ring, A, B): the matrices ``name_a`` and ``name_b`` of ``file``."""
    ring, matrices = parse_matrix_file(_read(args.file))
    return ring, _named(matrices, args.name_a), _named(matrices, args.name_b)


def _check_options(args) -> dict:
    """The --seed and --trials given; verify_instance's defaults fill in the rest."""
    return {k: getattr(args, k) for k in ("seed", "trials") if hasattr(args, k)}


# -- kernel pairs ------------------------------------------------------------


def _degenerate_notes(a: Matrix, b: Matrix) -> list:
    notes = []
    if b.is_zero() and b.ncols >= 1:
        notes.append("B = 0, so ker(f1|0) is all of M2")
    if a.is_zero() and b == Matrix.identity(b.ring, b.nrows):
        notes.append("A = 0 and B = I, so ker(0|I) = 0")
    return notes


def cmd_kernel_pair(args, out) -> int:
    checks = _check_options(args)
    if checks and not args.verify:
        raise MatrixParseError(f"--{next(iter(checks))} needs --verify")
    ring, a, b = _pair(args)
    result, witness = crt.kernel_pair(a, b, method=args.method)
    doc = {"command": "kernel-pair", "ring": repr(ring),
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
        violations = verify_instance(a, b, **checks)
        doc["verify"] = [{"check": name, "violations": v} for name, v in violations]
        violations = [(n, v) for n, v in violations if v]
        if violations:
            doc["status"] = "violation"
            doc["exit_code"] = 1

    if not args.json:
        print(f"ring {ring!r}", file=out)
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
    try:
        deco = crt.idempotents(args.modulus)
    except ValueError as exc:  # the modulus range check
        raise MatrixParseError(str(exc))
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
    ring, a, b = _pair(args)
    u = parse_vector(ring, args.vector, b.ncols)
    bu = b.matvec(u)
    x = crt.solve(a, tuple(map(ring.neg, bu)))
    doc = {"command": "member", "ring": repr(ring),
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
                  + ", ".join(map(ring.format, x)) + "]", file=out)
    return _emit(doc, args, out)


# -- simulation --------------------------------------------------------------


def cmd_simulate(args, out) -> int:
    if args.x0_file is not None and args.boundary != "fixed":
        raise MatrixParseError(
            f"--x0-file needs --boundary fixed, got --boundary {args.boundary}")
    ring, a, b = _pair(args)
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
    doc = {"command": "simulate", "ring": repr(ring),
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
            u = ("  u = [" + ", ".join(map(ring.format, traj.inputs[t])) + "]"
                 if t < len(traj.inputs) else "")
            print(f"x({t}) = [" + ", ".join(map(ring.format, x)) + "]" + u,
                  file=out)
    return _emit(doc, args, out)


# -- verification ------------------------------------------------------------


class _Instance:
    """What the checks read: A, B, the kernel pair through the ``crt``
    dispatch, and the local instances (label, A, B, local result) -- the
    instance itself over GF(p) and GF(p)[z], and over Z/m and (Z/m)[z]
    the pair at each prime that the glued kernel pair already reduced."""

    def __init__(self, a: Matrix, b: Matrix, rng, trials: int):
        self.a, self.b, self.ring, self.rng, self.trials = a, b, a.ring, rng, trials
        self.result, self.witness = crt.kernel_pair(a, b)
        self.split, self.finite = not is_local(self.ring), self.ring.size is not None
        r = self.result
        self.locals = [("", a, b, r)] if not self.split else [
            (f"mod {p}: ", fa, fb, local)
            for p, (fa, fb), local in zip(r.primes, r.local_pairs, r.local_results)]


def _each_local(check):
    """A row run on every local instance, its violations labelled."""
    return lambda c: [label + v for label, fa, fb, r in c.locals
                      for v in check(c, fa, fb, r)]


def _method_agreement(c) -> list:
    bars = {"projection": c.result.ker_bar, "preimage": _ker_bar(c.a, c.b),
            "quotient": _quotient_ker_bar(c.a, c.b)[0]}
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
    check, out = _identity_check(a, b), []
    for _ in range(c.trials):
        psi1 = Automorphism(random_invertible(a.ring, a.ncols, c.rng))
        psi2 = Automorphism(random_invertible(a.ring, b.ncols, c.rng))
        psi = Automorphism(random_invertible(a.ring, a.nrows, c.rng))
        out.extend(check(psi1, psi2, psi))
    return out


def _saturation(c, a, b, r) -> list:
    bound = min(a.nrows, a.ncols) * polykernel.matrix_degree(a) + 2
    return [f"degree-{bound} oracle vector escapes the basis"
            for v in polykernel.kernel_vectors_up_to(a, bound)
            if r.ker_f1.contains(v) is None]


# (name, runs when, violations), in report order.  A split ring runs the
# local rows at each prime; the oracle row is absent above 10**5 candidates.
_CHECKS = (
    ("idempotent-laws", lambda c: c.split, lambda c: split_ring(c.ring).check_laws()),
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


def verify_instance(a: Matrix, b: Matrix, trials: int = 5, seed: int = DEFAULT_SEED) -> list:
    """Run the full invariant suite on one instance.

    Returns [(check name, violations)] for every row of _CHECKS that
    applies to the ring, passing rows included (with no violations).
    """
    c = _Instance(a, b, random.Random(seed), trials)
    return [(name, run(c)) for name, applies, run in _CHECKS if applies(c)]


def cmd_verify(args, out) -> int:
    ring, a, b = _pair(args)
    checks = verify_instance(a, b, **_check_options(args))
    failed = [(n, v) for n, v in checks if v]
    doc = {"command": "verify", "ring": repr(ring),
           "checks": [{"check": n, "violations": v} for n, v in checks],
           "status": "ok" if not failed else "violation",
           "exit_code": 0 if not failed else 1}
    if not args.json:
        for n, v in checks:
            print(f"{n}: " + ("ok" if not v else "FAIL " + "; ".join(v)), file=out)
    return _emit(doc, args, out)


# -- argument plumbing -------------------------------------------------------


def _at_least(low):
    """An argparse type: an int no smaller than ``low``."""
    def integer(text) -> int:
        if (n := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return integer


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the full result document as JSON")
    pair = argparse.ArgumentParser(add_help=False)
    for name in ("file", "name_a", "name_b"):
        pair.add_argument(name)
    # left unset when not given, so verify_instance's defaults apply
    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"seed for randomized checks (default {DEFAULT_SEED})")
    checks.add_argument("--trials", type=_at_least(1), default=argparse.SUPPRESS,
                        help="random automorphism trials per local ring")

    parser = argparse.ArgumentParser(
        prog="kerpair",
        description="exact kernels of pairs of linear maps over finite rings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", parents=[common],
                       help="kernel of a single named matrix")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("kernel-pair", parents=[common, pair, checks],
                       help="ker(A|B) with section witness")
    p.add_argument("--method", default="auto",
                   choices=["projection", "preimage", "quotient", "oracle",
                            "crt", "poly", "auto"])
    p.add_argument("--verify", action="store_true",
                   help="also run the invariant suite on this instance")
    p.set_defaults(func=cmd_kernel_pair)

    p = sub.add_parser("idempotents", parents=[common],
                       help="structural idempotents of a square-free modulus")
    p.add_argument("modulus", type=int)
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("member", parents=[common, pair],
                       help="decide u in ker(A|B) and print a witness")
    p.add_argument("vector", help="comma-separated entries, e.g. 1,2 or [0,1],[1]")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("simulate", parents=[common, pair],
                       help="drive x(t+1) = A x(t) + B u(t)")
    p.add_argument("--u-file", required=True, help="one input vector per line")
    p.add_argument("--x0-file", help="single-line initial state (--boundary fixed only)")
    p.add_argument("--steps", type=_at_least(0))
    p.add_argument("--boundary", default="free",
                   choices=["free", "fixed", "periodic"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common, pair, checks],
                       help="run the invariant suite on one instance")
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
    except (KerpairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())

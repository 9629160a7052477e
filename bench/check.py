"""Output checks behind ``failed``: content digests and independent arithmetic.

A digest covers only the canonical content of a result document (bases,
generators, section, witness, membership, check names and violations,
trajectory) and the exit code, so fields a later version adds to the
document do not count as a changed answer.

The arithmetic checks recompute with the benchmark's own element
arithmetic from ``corpus``: every section column and member witness
solves A x + B u = 0, every per-prime ker(A|B) generator over Z/m passes a
rank test, verify reports no violation, and a trajectory obeys its recursion
and boundary condition.
"""

import hashlib
import json

from corpus import gf_rank, matvec

CONTENT_KEYS = {
    "kernel-pair": ("ker_bar", "ker_f1", "ker_pair", "section", "per_prime"),
    "member": ("member", "witness"),
    "verify": ("checks",),
    "simulate": ("states", "inputs"),
}


def _canonical(value):
    """Strip a submodule document down to its basis or generators."""
    if isinstance(value, dict) and "kind" in value:
        if "basis" in value:
            return {"basis": value["basis"]}
        return {"generators": value["generators"],
                "components": [_canonical(c) for c in value["components"]]}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def digest(kind, code, doc):
    content = {key: _canonical(doc.get(key)) for key in CONTENT_KEYS[kind]}
    content["exit_code"] = code
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _expected_code(req, code):
    if req.expect == "either":
        return code in (0, 1)
    return code == 0


def _residual_is_zero(job, x, u):
    ops = job.ops
    ax, bu = matvec(ops, job.a, x), matvec(ops, job.b, u)
    return all(ops.add(p, q) == ops.zero for p, q in zip(ax, bu))


def check(job, req, code, doc):
    """Problems with one response (``doc`` is its parsed JSON output, or
    None); an empty list means it is correct."""
    if not _expected_code(req, code):
        return [f"{req.kind}: unexpected exit code {code}"]
    if doc is None:
        return [f"{req.kind}: output is not one JSON document"]
    ops, parse = job.ops, job.ops.parse
    q1 = len(job.a[0])
    problems = []
    if req.kind == "kernel-pair":
        for j, col in enumerate(doc.get("section", [])):
            v = [parse(e) for e in col]
            if not _residual_is_zero(job, v[:q1], v[q1:]):
                problems.append(f"section column {j} fails A x_u + B u = 0")
        # over (Z/m)[z] only the digest checks the per-prime kernels
        for local in doc.get("per_prime", []) if job.kind == "zmod" else ():
            p = local["prime"]
            a = [[e % p for e in row] for row in job.a]
            rank_a = gf_rank(a, p)
            for j, col in enumerate(local["ker_bar"]["basis"]):
                bu = matvec(ops, job.b, [parse(e) for e in col])
                if gf_rank([r + [y] for r, y in zip(a, bu)], p) != rank_a:
                    problems.append(f"mod {p}: ker_bar generator {j} has no x")
    elif req.kind == "member":
        if code == 0:
            u = req.data["u"]
            x = [parse(e) for e in doc["witness"]]
            if doc.get("member") is not True or not _residual_is_zero(job, x, u):
                problems.append("member witness fails A x + B u = 0")
    elif req.kind == "verify":
        bad = [c["check"] for c in doc["checks"] if c["violations"]]
        if bad:
            problems.append(f"verify reports violations in {bad}")
    else:
        problems += _check_trajectory(job, req.data, doc)
    return problems


def _check_trajectory(job, data, doc):
    ops = job.ops
    states = [[ops.parse(e) for e in x] for x in doc["states"]]
    inputs = [[ops.parse(e) for e in u] for u in doc["inputs"]]
    problems = []
    if inputs != data["inputs"] or len(states) != len(inputs) + 1:
        return ["trajectory inputs differ from the input file"]
    for t, u in enumerate(inputs):
        step = [ops.add(p, q) for p, q in zip(matvec(ops, job.a, states[t]),
                                              matvec(ops, job.b, u))]
        if step != states[t + 1]:
            problems.append(f"recursion fails at step {t}")
            break
    if data["boundary"] == "periodic":
        if states[-1] != states[0]:
            problems.append("periodic trajectory does not close")
    elif states[0] != data["x0"]:
        problems.append("trajectory does not start at its initial state")
    return problems

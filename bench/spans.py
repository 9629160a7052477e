"""Per-layer spans and counts, taken from outside the program.

``Tracer.install`` replaces each traced public function of ``kerpair``
with a wrapper that records a span (name, start, end, parent span,
request id).  A module that did ``from .linalg import rref`` holds its
own binding, so every ``kerpair.*`` module namespace, and every dict in
one (``kernel._METHODS``), is patched wherever it holds the original.
Methods are patched on their class.  Ring arithmetic is counted, not
timed: a span per ``add`` would cost more than the addition.

Spans live in flat arrays while the run lasts and are written out when
it ends.  A span's self time is its duration minus the time its child
spans cover; the program is single-threaded, so children never overlap.
"""

import json
import sys
import zipfile
from array import array
from collections import defaultdict
from time import perf_counter

TRACED = {
    "matrix": ["Matrix.__matmul__", "Matrix.matvec"],
    "linalg": ["rref", "nullspace", "solve", "Submodule.from_columns"],
    "kernel": ["kernel_pair_projection", "kernel_pair_preimage",
               "kernel_pair_quotient", "check_witness", "check_identities",
               "kernel_pair_oracle"],
    "crt": ["kernel_pair_crt", "reduce_matrix", "base_change_check"],
    "polykernel": ["kernel_pair_poly", "poly_kernel", "kernel_vectors_up_to",
                   "rank_over_fractions", "hermite_with_transform", "poly_solve",
                   "poly_member", "kernel_pair_poly_crt"],
    "behavior": ["admissible", "simulate"],
    "cli": ["parse_matrix_file", "cmd_kernel_pair", "cmd_member", "cmd_verify",
            "cmd_simulate"],
}
RING_CLASSES = ("PrimeField", "ModRing", "PolyRing")
RING_OPS = ("add", "sub", "mul", "neg", "inv", "normalize", "divmod")


def _max_degree(matrix):
    return max((len(e) - 1 for row in matrix.entries for e in row if e), default=0)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_request = -1
        self.ring_ops = [0]
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._restore = []

    # -- patching ----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            i = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.request.append(self.current_request)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        ops = self.ring_ops

        def wrapper(*args):
            ops[0] += 1
            return fn(*args)

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if item is original:
                            value[key] = wrapper
                            self._restore.append((value, key, original))

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kerpair" or n.startswith("kerpair.")]
        rings = sys.modules["kerpair.rings"]
        for cls_name in RING_CLASSES:
            cls = getattr(rings, cls_name)
            self._set(cls, "__init__",
                      self._span(f"rings.{cls_name}", cls.__dict__["__init__"]))
            for op in RING_OPS:
                if op in cls.__dict__:
                    self._set(cls, op, self._counted(cls.__dict__[op]))
        observers = {
            "linalg.rref": self._observe_rref,
            "kernel.kernel_pair_oracle": self._observe_oracle,
            "polykernel.hermite_with_transform": self._observe_hermite,
            "polykernel.poly_kernel": self._observe_poly_kernel,
        }
        for mod_name, attrs in TRACED.items():
            mod = sys.modules[f"kerpair.{mod_name}"]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        self._set(cls, meth, classmethod(self._span(name, raw.__func__)))
                    else:
                        self._set(cls, meth, self._span(name, raw))
                    continue
                original = getattr(mod, attr)
                wrapper = self._span(name, original, observers.get(name))
                self._patch_function(original, wrapper, modules)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- counts taken from arguments and results ---------------------------

    def _observe_rref(self, args, result):
        self.counts["linalg.rref.cells"] += args[0].nrows * args[0].ncols

    def _observe_oracle(self, args, result):
        a, b = args[0], args[1]
        self.counts["kernel.oracle.candidates"] += a.ring.size ** b.ncols
        self.counts["kernel.oracle.members"] += result.size()

    def _observe_hermite(self, args, result):
        h, u, _ = result
        deg = max(_max_degree(h), _max_degree(u))
        self.counts["polykernel.hermite.max_degree"] = max(
            self.counts["polykernel.hermite.max_degree"], deg)

    def _observe_poly_kernel(self, args, result):
        self.counts["polykernel.sweep.kept"] += result.rank

    # -- results -----------------------------------------------------------

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}, and per-span
        (name, request) lists for ratio metrics."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            dur = end[i] - start[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
        return calls, total, self_s

    def calls_by_request(self, name, parent_name=None):
        """Per request id, the calls of span ``name`` (under a parent span
        named ``parent_name``, when given)."""
        nid = self._ids.get(name)
        pid = self._ids.get(parent_name) if parent_name else None
        out = defaultdict(int)
        for i in range(len(self.start)):
            if self.name[i] != nid:
                continue
            if parent_name is not None:
                p = self.parent[i]
                if p < 0 or self.name[p] != pid:
                    continue
            out[self.request[i]] += 1
        return out

    def write(self, path):
        """All spans, as raw arrays plus the name table, in one zip file."""
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as z:
            z.writestr("names.json", json.dumps(self.names))
            for field in ("name", "parent", "request", "start", "end"):
                z.writestr(f"{field}.{getattr(self, field).typecode}",
                           getattr(self, field).tobytes())

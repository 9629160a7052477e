"""Every function the benchmark traces (bench/spans.py TRACED) still
exists under its name, and its Tracer installs on the package and
uninstalls without a trace, so ``bench/run.py --trace 1`` cannot break
silently on a rename or a moved method.  bench/spans.py is loaded by
path, read-only."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced():
    return [(mod, attr) for mod, attrs in _spans().TRACED.items() for attr in attrs]


@pytest.mark.parametrize("mod, attr", _traced())
def test_traced_name_resolves(mod, attr):
    owner = importlib.import_module(f"kerpair.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _bindings():
    """Every name bound in a kerpair module, in a module-level dict, or in
    the namespace of a class a kerpair module defines, with its value."""
    out = {}
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "kerpair"}
    for mod_name, mod in modules.items():
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if isinstance(value, dict):
                out.update({(mod_name, attr, key): item for key, item in value.items()})
            if inspect.isclass(value) and value.__module__ == mod_name:
                out.update({(mod_name, attr, "." + key): item
                            for key, item in vars(value).items()})
    return out


def test_tracer_installs_and_uninstalls_cleanly():
    import kerpair
    import kerpair.cli  # noqa: F401 -- TRACED names cli functions
    from kerpair import Matrix, ModRing, PrimeField

    before = _bindings()
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        ring = PrimeField(5)
        kerpair.kernel_of_pair(Matrix(ring, 1, 1, [[1]]), Matrix(ring, 1, 1, [[2]]))
        ring = ModRing(30)
        kerpair.kernel_of_pair(Matrix(ring, 1, 1, [[2]]), Matrix(ring, 1, 1, [[3]]))
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.summary()
    assert calls["kernel.kernel_pair_projection"] == 4  # GF(5), then 2, 3, 5
    assert calls["rings.ModRing"] >= 1 and calls["rings.PrimeField"] >= 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

"""Every function the benchmark traces (bench/spans.py TRACED) still
exists under its name, so ``bench/run.py --trace 1`` cannot break
silently on a rename.  bench/spans.py is loaded by path, read-only."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attrs in spans.TRACED.items() for attr in attrs]


@pytest.mark.parametrize("mod, attr", _traced())
def test_traced_name_resolves(mod, attr):
    owner = importlib.import_module(f"kerpair.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

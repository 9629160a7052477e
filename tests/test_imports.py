"""Import rules of the package, read off its source with ast.

kerpair has no runtime dependency: every import is of the standard
library or of the package itself.  polykernel's private helpers stay
private: no other module imports an underscore name from it.  Every
source, test and bench file parses as Python 3.10, the oldest version
pyproject.toml admits.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kerpair"
MODULES = sorted(SRC.glob("*.py"))
PYTHON_FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def imports(path):
    """(level, module, names) for every import statement of ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or "", tuple(a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    outside = [module for level, module, _ in imports(path)
               if level == 0 and module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "polykernel.py"],
                         ids=lambda p: p.name)
def test_no_private_polykernel_imports(path):
    private = [name for level, module, names in imports(path)
               if level and module == "polykernel" for name in names if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

"""Import rules of the package, read off its source with ast.

kerpair has no runtime dependency: every import is of the standard
library or of the package itself.  polykernel's private helpers stay
private: no other module imports an underscore name from it.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kerpair"
MODULES = sorted(SRC.glob("*.py"))


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

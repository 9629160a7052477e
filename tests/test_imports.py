"""Import rules of the package, read off its source with ast.

kerpair has no runtime dependency: every import is of the standard
library or of the package itself.  polykernel's private helpers stay
private: no other module imports an underscore name from it.  Every
source, test and bench file parses as Python 3.10, the oldest version
pyproject.toml admits.  The package binds its documented public names
and no retired one, and its version is the one pyproject.toml declares.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import types
from pathlib import Path

import pytest

import kerpair

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kerpair"
MODULES = sorted(SRC.glob("*.py"))
PYTHON_FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
README = (ROOT / "README.md").read_text()

#: The public names of ``kerpair``, as the README's "Public names" lists them.
SURFACE = frozenset("""
    kernel_of_pair KernelPairResult LocalGlobalResult ExactSequenceWitness
    check_witness check_identities
    PrimeField ModRing PolyRing make_ring idempotents
    Matrix hstack vstack Submodule RrefResult rref nullspace image solve
    random_matrix random_invertible vector_degree
    kernel_pair_projection kernel_pair_preimage kernel_pair_quotient
    kernel_pair_oracle admissible_set quotient_map
    QuotientMap Automorphism
    kernel_pair_crt kernel_pair_poly_crt reduce_matrix base_change_check
    kernel_pair_poly poly_kernel poly_solve poly_member hermite_basis
    hermite_with_transform kernel_vectors_up_to rank_over_fractions
    matrix_degree random_unimodular
    SystemPair Trajectory AdmissibleInputQuery simulate admissible
    codeword_consistency pencil
    KerpairError AmbientMismatchError CompositeModulusError
    ConsistencyViolatedError DimensionMismatchError IdentityViolatedError
    MatrixParseError MethodUnavailableError NotAFieldError NotFiniteError
    NotInvertible NotSquareFreeError OracleTooLargeError RingMismatchError
""".split())


#: The header rows of the README's migration tables, one per release that retired names.
MIGRATIONS = ("| 0.1 name | 0.2.0 replacement |", "| 0.2.0 name | 0.3.0 replacement |")


def retired_names():
    """The names retired in 0.2.0 and 0.3.0: the first column of the
    README's migration tables, read as the last dotted part before any call."""
    tables = [README.split(header)[1].split("\n\n")[0] for header in MIGRATIONS]
    return {m.group(1) for table in tables
            for m in re.finditer(r"^\| `(?:\w+\.)?(\w+)", table, re.MULTILINE)}


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


def test_public_names_are_the_documented_surface():
    public = {name for name, value in vars(kerpair).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == SURFACE
    assert sorted(name for name in SURFACE if f"`{name}`" not in README) == []


def test_no_module_binds_a_retired_name():
    """Neither a kerpair module nor a class it defines binds a retired name."""
    retired = retired_names()
    assert len(retired) == 17
    modules = [kerpair] + [importlib.import_module(f"kerpair.{info.name}")
                           for info in pkgutil.iter_modules(kerpair.__path__)]
    bound = []
    for mod in modules:
        bound += [(mod.__name__, name) for name in vars(mod) if name in retired]
        for cls_name, cls in vars(mod).items():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                bound += [(mod.__name__, f"{cls_name}.{name}")
                          for name in vars(cls) if name in retired]
    assert bound == []


def test_version_is_declared_once():
    declared = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(),
                         re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == kerpair.__version__ == "0.3.0"

"""Exact kernels of pairs of linear maps.

For f1: R^q1 -> R^p and f2: R^q2 -> R^p given by matrices A and B,
computes ker(f1|f2) = {u : A x + B u = 0 for some x} together with the
short exact sequence linking it to ker(A) and ker[A|B], over prime
fields GF(p), square-free modular rings Z/m, and polynomial rings
GF(p)[z].

>>> from kerpair import Matrix, PrimeField, kernel_of_pair
>>> gf2 = PrimeField(2)
>>> a = Matrix(gf2, 2, 2, [[1, 0], [0, 0]])
>>> b = Matrix(gf2, 2, 1, [[1], [1]])
>>> kernel_of_pair(a, b).ker_bar.basis.ncols
0
"""

from . import crt
from .behavior import (
    AdmissibleInputQuery,
    SystemPair,
    Trajectory,
    admissible,
    codeword_consistency,
    pencil,
    simulate,
)
from .crt import (
    CrtDecomposition,
    LocalGlobalResult,
    base_change_check,
    idempotents,
    kernel_pair_crt,
    ker_bar_count,
    quotient_form_crt,
    reduce_matrix,
)
from .errors import (
    AmbientMismatchError,
    BaseChangeViolatedError,
    CompositeModulusError,
    ConsistencyViolatedError,
    DimensionMismatchError,
    IdentityViolatedError,
    KerpairError,
    MatrixParseError,
    MethodUnavailableError,
    NotAFieldError,
    NotFiniteError,
    NotInvertible,
    NotSquareFreeError,
    OracleTooLargeError,
    RingMismatchError,
)
from .kernel import (
    Automorphism,
    ExactSequenceWitness,
    KernelPairResult,
    QuotientMap,
    admissible_set,
    check_identities,
    check_witness,
    kernel_pair_field,
    kernel_pair_oracle,
    kernel_pair_preimage,
    kernel_pair_projection,
    kernel_pair_quotient,
    quotient_map,
)
from .linalg import (
    RrefResult,
    Submodule,
    image,
    nullspace,
    random_invertible,
    random_matrix,
    rref,
    solve,
    submodule_equal,
    submodule_member,
)
from .matrix import Matrix, hstack, vstack
from .polykernel import (
    PolyKernelBasis,
    hermite_basis,
    hermite_form,
    hermite_with_transform,
    kernel_pair_poly,
    kernel_pair_poly_crt,
    kernel_vectors_up_to,
    kernel_via_unimodular,
    matrix_degree,
    poly_base_change_check,
    poly_kernel,
    poly_member,
    poly_solve,
    random_unimodular,
    rank_over_fractions,
    reduce_poly_matrix,
    vector_degree,
)
from .rings import ModRing, PolyRing, PrimeField, make_ring

__version__ = "0.1.0"


def kernel_of_pair(a: Matrix, b: Matrix, method: str = "auto"):
    """ker(f1|f2) for any supported ring: a KernelPairResult (a
    LocalGlobalResult over Z/m and (Z/m)[z]) whose ker_bar is the
    canonical presentation.

    ``auto`` runs projection over GF(p), per-prime gluing over Z/m and
    Hermite kernels over GF(p)[z]; a method that does not apply to the
    ring raises MethodUnavailableError.  See ``crt.kernel_pair``.
    """
    return crt.kernel_pair(a, b, method)[0]

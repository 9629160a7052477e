"""Exception types shared across the package."""


class KerpairError(Exception):
    """Base class for all errors raised by this package."""


class CompositeModulusError(KerpairError):
    """A prime field was requested with a composite modulus."""


class RingMismatchError(KerpairError):
    """Operands live over different coefficient rings."""


class NotAFieldError(KerpairError):
    """A field-only operation was invoked over a non-field ring."""


class NotInvertible(KerpairError):
    """The element has no multiplicative inverse.

    Over a modular ring the offending gcd is attached as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DimensionMismatchError(KerpairError):
    """Matrix or vector shapes are incompatible."""


class AmbientMismatchError(KerpairError):
    """Submodules or vectors live in different ambient modules."""


class NotSquareFreeError(KerpairError):
    """The modulus has a repeated prime factor, attached as ``prime``."""

    def __init__(self, message, prime=None):
        super().__init__(message)
        self.prime = prime


class OracleTooLargeError(KerpairError):
    """Brute-force enumeration would exceed the configured guard."""


class NotFiniteError(KerpairError):
    """Enumeration was requested over an infinite ring."""


class IdentityViolatedError(KerpairError):
    """An automorphism identity failed on a concrete instance."""


class ConsistencyViolatedError(KerpairError):
    """A computed result failed its own invariant: a witness that does not
    verify, a kernel vector without a section witness, a periodic solve
    that does not close, or dynamical and polynomial pictures that disagree.
    This is a defect in the program, not in the input."""


class MethodUnavailableError(KerpairError):
    """The requested kernel method does not apply to this ring."""


class MatrixParseError(KerpairError):
    """A matrix file could not be parsed; ``line`` is 1-based."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

"""Exception types shared across the library."""


class InvarkitError(Exception):
    """Base class for all library errors."""


class InvalidArgument(InvarkitError, ValueError):
    """An argument has the wrong type or lies outside its admissible values."""


class ZeroVector(InvarkitError):
    """Normalization requested for a vector with (near-)zero norm."""


class DimensionMismatch(InvarkitError):
    """Operands have incompatible dimensions."""


class EmptyPool(InvarkitError):
    """Pooling requested over an empty value list."""


class SoftMaxDenominatorZero(InvarkitError):
    """Soft-max pooling denominator underflowed to zero."""


class ZeroSignature(InvarkitError):
    """A layer produced an all-zero signature where renormalization is required."""


class OutOfRange(InvarkitError):
    """A projection fell outside the admissible interval."""


class WeightsNotNormalized(InvarkitError):
    """Template weights are negative or do not sum to one."""


class KernelAsymmetric(InvarkitError):
    """A kernel handle returned asymmetric values."""


class SingularDesign(InvarkitError):
    """Least-squares design matrix is rank-deficient beyond tolerance."""


class SingularSystem(InvarkitError):
    """Regularized normal equations could not be solved."""


class InvalidN(InvarkitError):
    """Requested center count is outside [1, N]."""


class DivergenceDetected(InvarkitError):
    """Training objective blew up past the divergence guard."""


class DuplicateComposition(InvarkitError):
    """A pattern family contains duplicate compositions or parts."""


class InvalidConfig(InvarkitError):
    """Suite configuration is malformed or inconsistent."""


class MalformedFile(InvarkitError):
    """A configuration file could not be parsed or has unknown keys."""


class OutputUnwritable(InvarkitError):
    """The requested report path cannot be written."""

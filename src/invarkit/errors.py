"""Exception types shared across the library, its argument checks and JSON reader."""

import json
import math

import numpy as np


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


def _index(name: str, v, lo: int | None = None, error=InvalidArgument) -> int:
    """v as an int; anything but a Python or numpy integer, or v < lo, raises ``error``."""
    ok = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
    if not ok or (lo is not None and v < lo):
        bound = "" if lo is None else f" >= {lo}"
        raise error(f"{name} must be an integer{bound}, not {v!r}")
    return int(v)


def _finite(name: str, v, lo: float | None = None, strict=True, error=InvalidArgument):
    """Raise ``error`` unless v is a finite real, not bool or array, above lo.

    With strict=False, v may equal lo.
    """
    try:
        ok = not isinstance(v, (bool, np.bool_, np.ndarray)) and math.isfinite(v)
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        ok = False
    if ok and lo is not None:
        ok = v > lo if strict else v >= lo
    if not ok:
        bound = "" if lo is None else f" {'>' if strict else '>='} {lo}"
        raise error(f"{name} must be a finite real{bound}, not {v!r}")


def _reals(name: str, values) -> np.ndarray:
    """values as a float array; InvalidArgument unless every entry is a finite real."""
    try:
        v = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InvalidArgument(f"{name} must be an array of reals") from exc
    if v.dtype.kind not in "biuf":
        raise InvalidArgument(f"{name} must hold real numbers, not {v.dtype} values")
    if not np.isfinite(v).all():
        raise InvalidArgument(f"{name} must be finite")
    return v.astype(float, copy=False)


def _json_object(text, what: str, keys: tuple) -> dict:
    """text parsed as a JSON object that holds every key in ``keys``.

    Text that is not JSON, a document that is not an object and a missing
    key raise InvalidArgument; each message names ``what``.
    """
    try:
        doc = json.loads(text)
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidArgument(f"{what} is not JSON text: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidArgument(f"{what} must be a JSON object, not {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InvalidArgument(f"{what} lacks the keys {missing}")
    return doc

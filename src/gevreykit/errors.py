"""Exception hierarchy shared across the toolkit, one validator per kind
of scalar argument the exported functions take, and two for results that
may leave the double range: each returns the value it accepts and refuses
any other with a DomainError naming the argument.

Exit-code mapping used by the CLI: usage errors -> 2, data errors -> 3,
resource errors -> 4.
"""

import cmath
import math
import numbers

import numpy as np


class GevreyKitError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(GevreyKitError):
    """Unsupported group family or inconsistent configuration."""


class ContractViolation(GevreyKitError):
    """A documented precondition between modules was violated."""


class DomainError(GevreyKitError):
    """Argument outside the mathematical domain of an operation."""


class ResourceError(GevreyKitError):
    """Requested computation exceeds the desk-scale resource budget."""


class InsufficientDataError(GevreyKitError):
    """Not enough nonzero spectral data to fit or classify."""


class IllPairedError(GevreyKitError):
    """Duality pairing refused: partial sums failed the convergence check."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class DataError(GevreyKitError):
    """Malformed persisted data (JSON/CSV round-trip failures)."""


def _refuse(name, value, kind):
    raise DomainError("%s must be %s, got %r" % (name, kind, value))


def check_positive(name, value):
    """A real number in (0, inf)."""
    return value if 0.0 < value < math.inf else _refuse(name, value, "positive and finite")


def check_finite(name, value):
    """A finite real or complex number."""
    return value if cmath.isfinite(value) else _refuse(name, value, "finite")


def check_int(name, value, low):
    """An integer, not a bool or a float, of at least ``low``; returned as an int."""
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low
    return int(value) if ok else _refuse(name, value, "an integer >= %d" % low)


def check_norm_exponent(name, p):
    """A norm exponent p >= 1, infinity included."""
    return p if p >= 1 else _refuse(name, p, ">= 1 or infinity")


def check_in_range(what, result, nonzero=False):
    """A result all of whose numbers are finite and, where ``nonzero`` says
    its exact value is not 0, not all 0; any other left the double range on
    the way and is refused with a DomainError naming ``what`` ("t = 400.0")."""
    if np.isfinite(result).all() and (np.any(result) or not nonzero):
        return result
    raise DomainError("%s takes the result outside the double range" % what)


def check_product(what, scale, factors):
    """``scale * factors`` when every product is a finite double, checked
    before it is formed; any other is refused as check_in_range refuses."""
    if abs(scale) <= np.finfo(float).max / np.max(np.abs(factors), initial=1.0):
        return scale * factors
    raise DomainError("%s takes the result outside the double range" % what)

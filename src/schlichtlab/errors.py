"""Exception types shared across the package.

Every error the library raises deliberately derives from
:class:`SchlichtLabError` so callers can catch the whole family at once.
Plain I/O failures (report export) propagate as the builtin ``OSError``.
"""


class SchlichtLabError(Exception):
    """Base class for all deliberate schlichtlab errors."""


class DivisionByZeroConstantTerm(SchlichtLabError, ZeroDivisionError):
    """Series division where the divisor has constant term zero."""


class UnnormalizedConstantTerm(SchlichtLabError, ValueError):
    """log/sqrt of a series whose constant term is not 1."""


class InnerConstantTermNonzero(SchlichtLabError, ValueError):
    """Composition with an inner series that does not vanish at 0."""


class InvalidParameter(SchlichtLabError, ValueError):
    """Out-of-range or malformed constructor/operation parameter."""


class OutsideDisk(SchlichtLabError, ValueError):
    """Evaluation point outside the open unit disk."""


class NonMonotoneProfile(SchlichtLabError, ArithmeticError):
    """A growth profile increased where it must be non-increasing.

    Signals an evaluation problem (typically insufficient series
    truncation close to the boundary), not bad mathematics.
    """


class AmbiguousDirection(SchlichtLabError, ArithmeticError):
    """Two well-separated circle maxima of equal modulus.

    Typically means the function is symmetric or of slow growth, so no
    single direction of greatest growth exists.
    """


class InvalidAlpha(SchlichtLabError, ValueError):
    """A growth-index argument outside (0, 1] where positivity is required."""


class QuadratureUnconverged(SchlichtLabError, ArithmeticError):
    """Doubling the quadrature rule still moved the result."""


class IndexOutOfRange(SchlichtLabError, IndexError):
    """Mean/decomposition index beyond the stored coefficient range."""


class ComplexCoefficients(SchlichtLabError, TypeError):
    """Real-only machinery was fed genuinely complex coefficients."""


class ConfigError(SchlichtLabError, ValueError):
    """Invalid scenario configuration."""

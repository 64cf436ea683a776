"""Truncated complex power-series arithmetic.

A :class:`ComplexSeries` holds the coefficients ``c[0] .. c[N]`` of a power
series truncated at order ``N``.  Binary operations truncate at the smaller
of the two operand orders and nothing extends a series silently, so every
stored coefficient is exact formal-series arithmetic through the result
order (up to rounding).

``log``, ``exp`` and ``sqrt`` use the standard derivative recurrences
(convolutions of the form ``f' = g' * f``), which are O(N^2) and stable in
double precision for the orders used here (N <= 256).  All values are
immutable after construction; every operation is a pure function.

An overflow, a division by zero or an invalid value leaves a non-finite
coefficient, which the constructor rejects.  Every operation in which numpy
could warn of one runs with its floating-point warnings off, so a result
beyond double range raises :class:`~schlichtlab.errors.InvalidParameter`
and never a numpy warning.

The module also holds the one definition of a number that every entry
point of the lab checks its inputs against, each check raising
:class:`~schlichtlab.errors.InvalidParameter` naming the parameter:

* :func:`is_number`, the one type test: an int, float, complex or numpy
  number, never a bool, a timedelta64, a string, an array or anything else;
* :func:`finite_parameter`, one finite real or complex number;
* :func:`integer_parameter`, one integer within optional bounds;
* :func:`numeric_array`, an array of a numeric dtype (not bool, str or
  object) and of a given number of dimensions, and
  :func:`coefficient_array`, such a vector as finite complex coefficients;
* :func:`evaluation_point`, a number or a numeric array;
* :func:`require_instance`, an object of one class, and
  :func:`array_parameter`, any array that is not a ragged nest.
"""

from __future__ import annotations

import cmath
import functools
import operator
import sys
from typing import Optional

import numpy as np

from .errors import (
    DivisionByZeroConstantTerm,
    InnerConstantTermNonzero,
    InvalidParameter,
    UnnormalizedConstantTerm,
)

# log/sqrt demand a constant term this close to 1 (normalized branch).
NORMALIZED_TOL = 1e-12
# constant terms below this are treated as exactly zero by compose().
_ZERO_TOL = 1e-14
#: the largest series order a member may have.  Each order-N member feeds
#: O(N^2) work and memory (series log and sqrt, the audit's Grunsky table of
#: (N/2 + 1) x N complex entries, 134 MB at N = 4096), so a larger order is
#: refused up front instead of failing inside numpy's allocator.
MAX_ORDER = 4096


# the scalar types of a number; a bool (an int) and a timedelta64 (a numpy
# integer) are refused apart, as numeric_array refuses their dtypes
_SCALARS = (int, float, complex, np.number)
_INT_LIMIT = int(sys.float_info.max)  # the largest int a double holds


def is_number(value) -> bool:
    """The one type test for a number: an int, float, complex or numpy
    number, never a bool, a timedelta64, a string, an array or any other
    object."""
    return isinstance(value, _SCALARS) and not isinstance(value, (bool, np.timedelta64))


def finite_parameter(value, name: str, kind=float):
    """``value``, one number (:func:`is_number`), converted by ``kind``
    (float or complex) and checked to be finite.

    A complex value (Python or numpy) for ``kind=float`` is refused before
    conversion, so no imaginary part is dropped and numpy does not warn.
    Anything but a number, an int beyond double range and a NaN or infinite
    value raise :class:`InvalidParameter` too.
    """
    if not is_number(value):
        raise InvalidParameter(f"{name} must be a number, got {value!r:.60}")
    if kind is float and isinstance(value, (complex, np.complexfloating)):
        raise InvalidParameter(f"{name} must be a real number, got {value!r}")
    try:
        out = kind(value)
    except OverflowError:
        raise InvalidParameter(f"{name} lies beyond double range") from None
    if not cmath.isfinite(out):
        raise InvalidParameter(f"{name} must be finite, got {value!r}")
    return out


def integer_parameter(value, name: str, minimum: Optional[int] = None,
                      maximum: Optional[int] = None) -> int:
    """``value`` as an int, within ``minimum`` and ``maximum`` when given.

    Raises :class:`InvalidParameter` for bools, for floats (fractional,
    NaN or not), for strings and for anything else that is not an integer,
    and for an integer out of bounds; a minimum of 1 reads "must be positive".
    """
    if isinstance(value, bool):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    try:
        out = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r:.60}") from None
    if minimum is not None and out < minimum:
        least = "positive" if minimum == 1 else f"at least {minimum}"
        raise InvalidParameter(f"{name} must be {least}")
    if maximum is not None and out > maximum:
        raise InvalidParameter(f"{name} must be at most {maximum}, got {out}")
    return out


def require_instance(value, kind, caller: str) -> None:
    """Raise :class:`InvalidParameter`, naming ``caller``, unless ``value``
    is an instance of the class ``kind``."""
    if not isinstance(value, kind):
        raise InvalidParameter(f"{caller} needs a {kind.__name__}, got {type(value).__name__}")


def array_parameter(values, name: str) -> np.ndarray:
    """``np.asarray(values)``; a ragged nest of lists raises
    :class:`InvalidParameter` naming ``name``."""
    try:
        return np.asarray(values)
    except ValueError:
        raise InvalidParameter(f"{name} must be a regular array, not a ragged nest") from None


def numeric_array(values, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` as an ``ndim``-dimensional array of ints, floats or complex
    numbers, unconverted; a ragged nest, another shape and a bool, string
    or object array (an int beyond int64 makes one) raise
    :class:`InvalidParameter`.  One dtype test, no scan of the elements."""
    arr = array_parameter(values, name)
    if arr.dtype.kind not in "iufc" or arr.ndim != ndim:
        raise InvalidParameter(f"{name} must be a {ndim}-D array of numbers")
    return arr


def coefficient_array(values, name: str) -> np.ndarray:
    """``values``, a :func:`numeric_array` vector, as a read-only complex128
    copy, checked to be finite; anything else raises :class:`InvalidParameter`.
    A long double beyond double range becomes inf in the copy, quietly."""
    with np.errstate(over="ignore"):
        arr = numeric_array(values, name).astype(np.complex128)
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def evaluation_point(z):
    """``z`` checked to be a number (:func:`is_number`) or a numeric array,
    by one type or dtype test with no scan of the elements; anything else,
    and an int beyond double range, raises :class:`InvalidParameter`."""
    if isinstance(z, np.ndarray):
        if z.dtype.kind in "iufc":
            return z
    elif is_number(z):
        if isinstance(z, int) and not -_INT_LIMIT <= z <= _INT_LIMIT:
            raise InvalidParameter(f"the point {z!r:.40} lies beyond double range")
        return z
    raise InvalidParameter(f"an evaluation point must be a number or a numeric array, got {z!r}")


def _quiet(op):
    """``op`` with numpy's floating-point warnings off, entered once per call."""
    @functools.wraps(op)
    def quiet(*args):
        with np.errstate(all="ignore"):
            return op(*args)
    return quiet


class ComplexSeries:
    """Power series ``c[0] + c[1] z + ... + c[N] z^N`` truncated at order N.

    The coefficient array is complex128, read-only, and guaranteed finite.
    The constructor takes any non-empty :func:`coefficient_array`, and the
    arithmetic operators another series or one finite number
    (:func:`finite_parameter`).  Calling the series evaluates the plain
    partial sum at a point (no tail estimate; certified evaluation lives
    with the function families).
    """

    __slots__ = ("coeffs",)
    # numpy defers to the reflected operator, so an array on the left is
    # refused too instead of becoming an object array of series
    __array_ufunc__ = None

    def __init__(self, coeffs):
        arr = coefficient_array(coeffs, "coefficients")
        if arr.size == 0:
            raise InvalidParameter("coefficients must not be empty")
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "ComplexSeries":
        """The series 1 of order ``order``, an integer from 0 to MAX_ORDER."""
        c = np.zeros(integer_parameter(order, "order", 0, MAX_ORDER) + 1, dtype=np.complex128)
        c[0] = 1.0
        return cls(c)

    # -- ring operations -------------------------------------------------

    @_quiet
    def __add__(self, other):
        if isinstance(other, ComplexSeries):
            n = min(self.order, other.order)
            return ComplexSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])
        c = self.coeffs.copy()
        c[0] += finite_parameter(other, "a series operand", complex)
        return ComplexSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return ComplexSeries(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, ComplexSeries):
            return self + (-other)
        return self + -finite_parameter(other, "a series operand", complex)

    def __rsub__(self, other):
        return (-self) + other

    @_quiet
    def __mul__(self, other):
        if isinstance(other, ComplexSeries):
            n = min(self.order, other.order)
            return ComplexSeries(np.convolve(self.coeffs, other.coeffs)[: n + 1])
        return ComplexSeries(self.coeffs * finite_parameter(other, "a series operand", complex))

    __rmul__ = __mul__

    @_quiet
    def __truediv__(self, other):
        if not isinstance(other, ComplexSeries):
            return ComplexSeries(self.coeffs / finite_parameter(other, "a series operand", complex))
        if other.coeffs[0] == 0:
            raise DivisionByZeroConstantTerm("divisor has zero constant term")
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        q = np.zeros(n + 1, dtype=np.complex128)
        for k in range(n + 1):
            q[k] = (a[k] - np.dot(q[:k], b[k:0:-1])) / b[0]
        return ComplexSeries(q)

    def __rtruediv__(self, other):
        num = np.zeros(self.order + 1, dtype=np.complex128)
        num[0] = finite_parameter(other, "a series operand", complex)
        return ComplexSeries(num) / self

    # -- transcendental maps ---------------------------------------------

    @_quiet
    def log(self) -> "ComplexSeries":
        """Formal logarithm; requires constant term 1 (normalized branch)."""
        f = self.coeffs
        if abs(f[0] - 1.0) > NORMALIZED_TOL:
            raise UnnormalizedConstantTerm(
                f"log needs constant term 1, got {f[0]!r}"
            )
        n = self.order
        out = np.zeros(n + 1, dtype=np.complex128)
        out[0] = np.log(f[0])
        kout = np.zeros(n + 1, dtype=np.complex128)  # k * out[k], filled as we go
        for k in range(1, n + 1):
            acc = k * f[k] - np.dot(kout[1:k], f[k - 1 : 0 : -1])
            out[k] = acc / (k * f[0])
            kout[k] = k * out[k]
        return ComplexSeries(out)

    @_quiet
    def exp(self) -> "ComplexSeries":
        """Formal exponential (any constant term)."""
        f = self.coeffs
        n = self.order
        out = np.zeros(n + 1, dtype=np.complex128)
        out[0] = np.exp(f[0])
        kf = np.arange(n + 1) * f  # k * f[k]
        for k in range(1, n + 1):
            out[k] = np.dot(kf[1 : k + 1], out[k - 1 :: -1][:k]) / k
        return ComplexSeries(out)

    @_quiet
    def sqrt(self) -> "ComplexSeries":
        """Formal square root with constant term 1; requires c[0] = 1."""
        f = self.coeffs
        if abs(f[0] - 1.0) > NORMALIZED_TOL:
            raise UnnormalizedConstantTerm(
                f"sqrt needs constant term 1, got {f[0]!r}"
            )
        n = self.order
        out = np.zeros(n + 1, dtype=np.complex128)
        out[0] = np.sqrt(f[0])
        for k in range(1, n + 1):
            acc = f[k] - np.dot(out[1:k], out[k - 1 : 0 : -1])
            out[k] = acc / (2.0 * out[0])
        return ComplexSeries(out)

    # -- calculus and evaluation -----------------------------------------

    @_quiet
    def deriv(self) -> "ComplexSeries":
        if self.order == 0:
            return ComplexSeries([0.0])
        return ComplexSeries(self.coeffs[1:] * np.arange(1, self.order + 1))

    @_quiet
    def __call__(self, z):
        """Partial sum at ``z`` (scalar or array), by Horner's rule.

        Raises :class:`InvalidParameter` for a point that is not a number
        or a numeric array (:func:`evaluation_point`), and where the sum is
        not finite.
        """
        out = np.polyval(self.coeffs[::-1], evaluation_point(z))
        if not np.all(np.isfinite(out)):
            raise InvalidParameter("the partial sum is not finite at the given point")
        return out

    def __repr__(self):
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        tail = ", ..." if self.order > 3 else ""
        return f"ComplexSeries(order={self.order}, coeffs={head[:-1]}{tail}])"


def compose(outer: ComplexSeries, inner: ComplexSeries) -> ComplexSeries:
    """Truncated composition ``outer(inner(z))``.

    ``inner`` must vanish at 0 (constant terms below 1e-14 are accepted as
    rounding noise and zeroed).  The result is exact through the common
    truncation order ``min(outer.order, inner.order)``.
    """
    require_instance(outer, ComplexSeries, "compose")
    require_instance(inner, ComplexSeries, "compose")
    c0 = inner.coeffs[0]
    if abs(c0) > _ZERO_TOL:
        raise InnerConstantTermNonzero(
            f"inner series has constant term {c0!r}, expected 0"
        )
    n = min(outer.order, inner.order)
    g = inner.coeffs[: n + 1].copy()
    g[0] = 0.0
    acc = np.zeros(n + 1, dtype=np.complex128)
    for c in outer.coeffs[n::-1]:
        acc = np.convolve(acc, g)[: n + 1]
        acc[0] += c
    return ComplexSeries(acc)

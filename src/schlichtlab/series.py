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
"""

from __future__ import annotations

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


def integer_parameter(value, name: str, minimum: Optional[int] = None,
                      maximum: Optional[int] = None) -> int:
    """``value`` as an int, within ``minimum`` and ``maximum`` when given.

    Raises :class:`InvalidParameter` for bools, for floats (fractional,
    NaN or not), for strings and for anything else that is not an integer.
    """
    if isinstance(value, bool):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    try:
        out = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise InvalidParameter(f"{name} must be at least {minimum}")
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


# the scalar types an operand or an evaluation point may have (a bool is refused)
_SCALARS = (int, float, complex, np.number)
_INT_LIMIT = int(sys.float_info.max)  # the largest int a double holds


def _number(value) -> complex:
    """The non-series operand ``value`` as one complex number.

    One type test, no scan: an int, float, complex or numpy number passes,
    a bool, an array, a string or anything else raises
    :class:`InvalidParameter`, and so does an int beyond double range.
    """
    if isinstance(value, bool) or not isinstance(value, _SCALARS):
        raise InvalidParameter(f"a series operand must be a series or one number, got {value!r}")
    try:
        return complex(value)
    except OverflowError:
        raise InvalidParameter(f"the operand {value!r} lies beyond double range") from None


def evaluation_point(z):
    """``z`` checked to be a number (not a bool) or a numeric array, by one
    type or dtype test with no scan of the elements; anything else, and an
    int beyond double range, raises :class:`InvalidParameter`."""
    if isinstance(z, np.ndarray):
        if z.dtype.kind in "iufc":
            return z
    elif isinstance(z, _SCALARS) and not isinstance(z, bool):
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
    Arithmetic operators accept another series or one number (see
    :func:`_number`).  Calling the series evaluates the plain partial sum
    at a point (no tail estimate; certified evaluation lives with the
    function families).
    """

    __slots__ = ("coeffs",)
    # numpy defers to the reflected operator, so an array on the left is
    # refused too instead of becoming an object array of series
    __array_ufunc__ = None

    def __init__(self, coeffs):
        try:
            arr = np.array(coeffs, dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameter("coefficients must be a sequence of numbers") from None
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidParameter("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("coefficients must be finite")
        arr.setflags(write=False)
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
        c[0] += _number(other)
        return ComplexSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return ComplexSeries(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ComplexSeries) else -_number(other))

    def __rsub__(self, other):
        return (-self) + other

    @_quiet
    def __mul__(self, other):
        if isinstance(other, ComplexSeries):
            n = min(self.order, other.order)
            return ComplexSeries(np.convolve(self.coeffs, other.coeffs)[: n + 1])
        return ComplexSeries(self.coeffs * _number(other))

    __rmul__ = __mul__

    @_quiet
    def __truediv__(self, other):
        if not isinstance(other, ComplexSeries):
            return ComplexSeries(self.coeffs / _number(other))
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
        num[0] = _number(other)
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

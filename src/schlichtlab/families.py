"""Test-function corpus: normalized univalent maps and their inversions.

The corpus members are classical: the Koebe map ``k(z) = z/(1-z)^2``, its
rotations ``e^{-it} k(e^{it} z)`` and dilations ``f(rz)/r``, the half-plane
map ``z/(1-z)``, and disk-automorphism transforms of the Koebe map.  Each
carries its truncated coefficient series plus, where one exists, a closed
form for values and derivatives so boundary-near evaluation stays honest.

``invert_to_sigma`` passes from a normalized map ``f`` on the disk to the
exterior map ``g(z) = 1/f(1/z) = z + b0 + b1/z + ...`` via a series
reciprocal; the exterior coefficients feed the Grunsky machinery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, OutsideDisk
from .series import ComplexSeries

KINDS = ("koebe", "rotation", "dilation", "halfplane", "koebe_transform", "custom")

#: members whose growth index is 1 or sits strictly inside (0, 1)
MAXIMAL_GROWTH_KINDS = frozenset({"koebe", "rotation", "koebe_transform"})

_NORM_TOL = 1e-12
_COEFF_SLACK = 1e-9  # |a_n| <= n + slack, used as a corpus sanity gate

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_ANGLE_TOL = 1e-10  # golden-section bracket width that ends the angle search


@dataclass(frozen=True)
class SchlichtFunction:
    """A normalized univalent function: a_0 = 0, a_1 = 1.

    ``series`` is the truncated coefficient series.  ``value_fn`` and
    ``deriv_fn`` are closed-form evaluators (None for series-only
    functions); both accept scalars or numpy arrays.
    """

    series: ComplexSeries
    kind: str
    params: dict
    value_fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    deriv_fn: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def has_closed_form(self) -> bool:
        return self.value_fn is not None

    @property
    def order(self) -> int:
        return self.series.order

    def coefficient(self, n: int) -> complex:
        if not 0 <= n <= self.order:
            raise InvalidParameter(f"coefficient index {n} beyond order {self.order}")
        return complex(self.series.coeffs[n])

    def label(self) -> str:
        def short(v):
            if isinstance(v, complex):
                return f"{v.real:.4g}{v.imag:+.4g}j"
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        bits = ",".join(f"{k}={short(v)}" for k, v in sorted(self.params.items())
                        if k != "base")
        return f"{self.kind}({bits})" if bits else self.kind


@dataclass(frozen=True)
class SigmaFunction:
    """Exterior map ``g(z) = z + b0 + sum b_n z^{-n}`` on |z| > 1."""

    b0: complex
    tail: np.ndarray  # b_1 .. b_N
    order: int

    def __post_init__(self):
        tail = np.asarray(self.tail, dtype=np.complex128)
        if tail.shape != (self.order,):
            raise InvalidParameter("tail must hold exactly `order` coefficients")
        if not (np.isfinite(self.b0) and np.all(np.isfinite(tail))):
            raise InvalidParameter("exterior coefficients must be finite")
        tail.setflags(write=False)
        object.__setattr__(self, "tail", tail)

    def b(self, n: int) -> complex:
        """Coefficient of z^{-n}; zero beyond the stored order."""
        if n == 0:
            return complex(self.b0)
        return complex(self.tail[n - 1]) if n <= self.order else 0.0


def _check_class_s(coeffs: np.ndarray, what: str) -> None:
    if abs(coeffs[0]) > _NORM_TOL or abs(coeffs[1] - 1.0) > _NORM_TOL:
        raise InvalidParameter(f"{what}: series is not normalized (a0=0, a1=1)")
    n = np.arange(len(coeffs))
    bad = np.abs(coeffs[2:]) > n[2:] + _COEFF_SLACK
    if np.any(bad):
        j = int(np.argmax(bad)) + 2
        raise InvalidParameter(
            f"{what}: |a_{j}| = {abs(coeffs[j]):.6g} exceeds the coefficient bound {j}"
        )


def _koebe_value(z):
    return z / (1.0 - z) ** 2


def _koebe_deriv(z):
    return (1.0 + z) / (1.0 - z) ** 3


def make_schlicht(kind: str, params: Optional[dict] = None, order: int = 128) -> SchlichtFunction:
    """Construct a corpus member by family tag.

    kind:
      * ``koebe``           -- a_n = n
      * ``rotation``        -- ``theta``: e^{-it} k(e^{it} z), a_n = n e^{i(n-1)t}
      * ``dilation``        -- ``r`` in (0,1), optional ``base`` (default Koebe):
                               base(r z)/r, a_n -> a_n r^{n-1}
      * ``halfplane``       -- z/(1-z), a_n = 1
      * ``koebe_transform`` -- ``w`` with |w| < 1: the renormalized composite
                               (k((z+w)/(1+conj(w) z)) - k(w)) / ((1-|w|^2) k'(w)),
                               built by truncated series algebra
      * ``custom``          -- ``coeffs``: explicit coefficient array
    """
    params = dict(params or {})
    if order < 2:
        raise InvalidParameter("order must be at least 2")

    if kind == "koebe":
        coeffs = np.arange(order + 1, dtype=np.complex128)
        return SchlichtFunction(ComplexSeries(coeffs), kind, params,
                                _koebe_value, _koebe_deriv)

    if kind == "halfplane":
        coeffs = np.ones(order + 1, dtype=np.complex128)
        coeffs[0] = 0.0
        return SchlichtFunction(
            ComplexSeries(coeffs), kind, params,
            lambda z: z / (1.0 - z),
            lambda z: 1.0 / (1.0 - z) ** 2,
        )

    if kind == "rotation":
        theta = float(params.get("theta", 0.0))
        n = np.arange(order + 1)
        coeffs = n * np.exp(1j * (n - 1) * theta)
        coeffs[0] = 0.0
        rot = cmath.exp(1j * theta)
        return SchlichtFunction(
            ComplexSeries(coeffs), kind, {"theta": theta},
            lambda z, _r=rot: _koebe_value(_r * z) / _r,
            lambda z, _r=rot: _koebe_deriv(_r * z),
        )

    if kind == "dilation":
        r = params.get("r")
        if r is None or not 0.0 < float(r) < 1.0:
            raise InvalidParameter("dilation needs r in (0, 1)")
        r = float(r)
        base = params.get("base")
        if base is None:
            base = make_schlicht("koebe", order=order)
        if base.order < order:
            raise InvalidParameter("dilation base series is shorter than the requested order")
        return dilated(base, r, order=order)

    if kind == "koebe_transform":
        w = complex(params.get("w", 0.0))
        if abs(w) >= 1.0:
            raise InvalidParameter("koebe_transform needs |w| < 1")
        return _koebe_transform(w, order)

    if kind == "custom":
        coeffs = np.asarray(params.get("coeffs"), dtype=np.complex128)
        if coeffs.ndim != 1 or len(coeffs) != order + 1:
            raise InvalidParameter("custom needs a coefficient array of length order+1")
        _check_class_s(coeffs, "custom")
        return SchlichtFunction(ComplexSeries(coeffs), kind, {}, None, None)

    raise InvalidParameter(f"unknown family kind {kind!r}")


def _koebe_transform(w: complex, order: int) -> SchlichtFunction:
    # Series algebra throughout: phi = (z+w)/(1+conj(w) z) as a truncated
    # series, then k(phi) = phi/(1-phi)^2 via series reciprocal.  Expanding
    # the Koebe map around w and composing would be equivalent but loses
    # precision geometrically in |1-w|^{-order}.
    wc = w.conjugate()
    num = np.zeros(order + 1, dtype=np.complex128)
    num[0], num[1] = w, 1.0
    den = np.zeros(order + 1, dtype=np.complex128)
    den[0], den[1] = 1.0, wc
    phi = ComplexSeries(num) / ComplexSeries(den)
    inv = 1.0 / (1.0 - phi)
    kphi = phi * inv * inv
    kw = _koebe_value(w)
    scale = (1.0 - abs(w) ** 2) * _koebe_deriv(w)
    fser = (kphi - kw) / scale
    coeffs = fser.coeffs.copy()
    if abs(coeffs[0]) > 1e-10 or abs(coeffs[1] - 1.0) > 1e-10:
        raise InvalidParameter(
            "koebe_transform lost its normalization; parameters are too "
            "close to the boundary for this order"
        )
    # the constant and linear terms are 0 and 1 up to rounding; pin them
    coeffs[0] = 0.0
    coeffs[1] = 1.0
    _check_class_s(coeffs, "koebe_transform")

    def value(z, _w=w, _wc=wc, _kw=kw, _scale=scale):
        phi_z = (z + _w) / (1.0 + _wc * z)
        return (_koebe_value(phi_z) - _kw) / _scale

    def deriv(z, _w=w, _wc=wc, _scale=scale):
        phi_z = (z + _w) / (1.0 + _wc * z)
        dphi = (1.0 - abs(_w) ** 2) / (1.0 + _wc * z) ** 2
        return _koebe_deriv(phi_z) * dphi / _scale

    return SchlichtFunction(ComplexSeries(coeffs), "koebe_transform", {"w": w},
                            value, deriv)


def rotated(f: SchlichtFunction, phi: float) -> SchlichtFunction:
    """Rotate any corpus member: ``e^{-i phi} f(e^{i phi} z)`` (stays normalized)."""
    n = np.arange(f.order + 1)
    coeffs = f.series.coeffs * np.exp(1j * (n - 1) * phi)
    coeffs = coeffs.copy()
    coeffs[0] = 0.0
    rot = cmath.exp(1j * phi)
    value_fn = deriv_fn = None
    if f.has_closed_form:
        base_v, base_d = f.value_fn, f.deriv_fn
        value_fn = lambda z, _r=rot: base_v(_r * z) / _r  # noqa: E731
        deriv_fn = lambda z, _r=rot: base_d(_r * z)  # noqa: E731
    return SchlichtFunction(ComplexSeries(coeffs), "custom",
                            {"rotated_from": f.kind, "phi": phi},
                            value_fn, deriv_fn)


def dilated(f: SchlichtFunction, r: float, order: Optional[int] = None) -> SchlichtFunction:
    """Dilate any corpus member: ``f(r z)/r`` (stays normalized)."""
    if not 0.0 < r < 1.0:
        raise InvalidParameter("dilation needs r in (0, 1)")
    order = f.order if order is None else order
    if order > f.order:
        raise InvalidParameter("dilation cannot extend the base series")
    n = np.arange(order + 1)
    coeffs = f.series.coeffs[: order + 1] * r ** (n - 1.0)
    coeffs = coeffs.copy()
    coeffs[0] = 0.0
    value_fn = deriv_fn = None
    if f.has_closed_form:
        base_v, base_d = f.value_fn, f.deriv_fn
        value_fn = lambda z, _r=r: base_v(_r * z) / _r  # noqa: E731
        deriv_fn = lambda z, _r=r: base_d(_r * z)  # noqa: E731
    return SchlichtFunction(ComplexSeries(coeffs), "dilation",
                            {"r": r, "base": f.kind},
                            value_fn, deriv_fn)


def invert_to_sigma(f: SchlichtFunction, order: int) -> SigmaFunction:
    """Exterior coefficients of ``g(z) = 1/f(1/z)``.

    With ``P(u) = f(u)/u`` (constant term 1), the reciprocal ``Q = 1/P``
    gives ``g(z) = z * Q(1/z) = z + q_1 + q_2/z + ...``, so ``b_n = q_{n+1}``.
    Needs ``f.order >= order + 2`` so the reciprocal is exact through the
    requested exterior order.
    """
    if f.order < order + 2:
        raise InvalidParameter(
            f"inversion to exterior order {order} needs a series of order >= {order + 2}"
        )
    p = ComplexSeries(f.series.coeffs[1:])  # f(u)/u
    q = 1.0 / p
    return SigmaFunction(b0=complex(q.coeffs[1]),
                         tail=q.coeffs[2 : order + 2],
                         order=order)


# -- certified evaluation ----------------------------------------------


def _tail_linear(n_order: int, x: float) -> float:
    """sum_{n > N} n x^n, closed form; the universal coefficient-bound tail."""
    if x == 0.0:
        return 0.0
    return x ** (n_order + 1) * ((n_order + 1) * (1.0 - x) + x) / (1.0 - x) ** 2


def _tail_quadratic(n_order: int, x: float) -> float:
    """sum_{n > N} n^2 x^n, closed form (for derivative tails)."""
    if x == 0.0:
        return 0.0
    n = n_order
    u = x ** (n + 1) * ((n + 1) * (n + 2) * (1.0 - x) ** 2
                        + 2.0 * x * ((n + 2) - (n + 1) * x)) / (1.0 - x) ** 3
    return u - _tail_linear(n, x)


def eval_certified(f: SchlichtFunction, z: complex):
    """Value of ``f`` at ``z`` with a rigorous error bound.

    Closed forms return (value, 0).  Series-only functions return the
    partial sum plus the tail bound sum_{n>N} n |z|^n, valid for every
    normalized univalent function by the coefficient bound |a_n| <= n.
    """
    if abs(z) >= 1.0:
        raise OutsideDisk(f"|z| = {abs(z):.6g} is not inside the unit disk")
    if f.has_closed_form:
        return f.value_fn(z), 0.0
    return f.series(z), _tail_linear(f.order, abs(z))


def deriv_certified(f: SchlichtFunction, z: complex):
    """Derivative of ``f`` at ``z`` with a rigorous error bound.

    The series tail bound is sum_{n>N} n^2 |z|^{n-1}, again from |a_n| <= n.
    """
    if abs(z) >= 1.0:
        raise OutsideDisk(f"|z| = {abs(z):.6g} is not inside the unit disk")
    if f.deriv_fn is not None:
        return f.deriv_fn(z), 0.0
    x = abs(z)
    bound = 0.0 if x == 0.0 else _tail_quadratic(f.order, x) / x
    return f.series.deriv()(z), bound


# -- maximum modulus on circles ----------------------------------------


def radius_grid(radii) -> np.ndarray:
    """``radii`` as a float array, checked to be a grid of circles.

    Raises :class:`InvalidParameter` unless ``radii`` is a non-empty 1-D
    real array, strictly increasing inside (0, 1); NaN and infinities fail.
    """
    grid = np.asarray(radii)
    if grid.dtype.kind not in "iuf" or grid.ndim != 1 or grid.size == 0:
        raise InvalidParameter("radii must be a non-empty 1-D grid")
    grid = grid.astype(float)
    # the range test goes first: NaN fails it, and np.diff never meets an inf
    if not np.all((grid > 0.0) & (grid < 1.0)) or np.any(np.diff(grid) <= 0.0):
        raise InvalidParameter("radii must be strictly increasing inside (0, 1)")
    return grid


def max_modulus(f: SchlichtFunction, r, grid: int = 512):
    """Maximum of |f| on the circles |z| = r and the maximizing angles.

    ``r`` is one radius or a 1-D array of radii.  A uniform grid of
    ``grid`` (>= 64) angles locates the best cell on every circle in one
    array evaluation; golden-section refinement then pins each angle to
    1e-10, all circles in lockstep, with ``np.where`` choosing each
    circle's side.  |f| on a circle can have several local maxima, so
    ``grid`` is the density knob.  Every evaluation goes through the same
    array arithmetic, so a circle's result does not depend on the other
    radii in the call.

    Returns ``(M, theta)``: floats for a scalar ``r``, arrays otherwise,
    with each angle wrapped to (-pi, pi].
    """
    radii = np.asarray(r)
    if radii.dtype.kind not in "iuf" or radii.ndim > 1 or radii.size == 0:
        raise InvalidParameter("radii must be one real number or a non-empty 1-D array")
    radii = radii.astype(float)
    if not np.all((radii > 0.0) & (radii < 1.0)):  # NaN fails here too
        raise OutsideDisk(f"radius {r!r} is not inside (0, 1)")
    if grid < 64:
        raise InvalidParameter("grid must be at least 64")
    fn = f.value_fn if f.has_closed_form else f.series
    lanes = np.atleast_1d(radii)

    def circle_abs(rad, theta):
        return np.abs(fn(rad * np.exp(1j * theta)))

    thetas = 2.0 * np.pi * np.arange(grid) / grid
    j = np.argmax(circle_abs(lanes[:, None], thetas), axis=1)
    h = 2.0 * np.pi / grid
    a, b = thetas[j] - h, thetas[j] + h
    # one step count for every lane, from the nominal bracket width 2h
    steps = int(math.ceil(math.log(_ANGLE_TOL / (2.0 * h)) / math.log(_INV_PHI)))
    width = b - a
    c, d = a + _INV_PHI2 * width, a + _INV_PHI * width
    yc, yd = circle_abs(lanes, c), circle_abs(lanes, d)
    for _ in range(steps):
        # left lanes keep [a, d] and probe a new c; the others keep [c, b]
        left = yc > yd
        kept, y_kept = np.where(left, c, d), np.where(left, yc, yd)
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = width * _INV_PHI
        t = a + np.where(left, _INV_PHI2, _INV_PHI) * width
        y = circle_abs(lanes, t)
        c, yc = np.where(left, t, kept), np.where(left, y, y_kept)
        d, yd = np.where(left, kept, t), np.where(left, y_kept, y)
    # wrap to (-pi, pi]
    theta = np.array([math.remainder(t, 2.0 * math.pi) for t in (0.5 * (a + b)).tolist()])
    vals = circle_abs(lanes, theta)
    if radii.ndim == 0:
        return float(vals[0]), float(theta[0])
    return vals, theta


def standard_corpus(order: int = 128):
    """The five-member test corpus used by audits and scans."""
    return [
        make_schlicht("koebe", order=order),
        make_schlicht("halfplane", order=order),
        make_schlicht("rotation", {"theta": math.pi / 3.0}, order=order),
        make_schlicht("dilation", {"r": 0.9}, order=order),
        make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j * math.pi / 4.0)}, order=order),
    ]

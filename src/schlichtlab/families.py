"""Test-function corpus: normalized univalent maps and their inversions.

The corpus members are classical: the Koebe map ``k(z) = z/(1-z)^2``, its
rotations ``e^{-it} k(e^{it} z)`` and dilations ``f(rz)/r``, the half-plane
map ``z/(1-z)``, and disk-automorphism transforms of the Koebe map.  Each
carries its truncated coefficient series.

Every one of them, and every rotation or dilation of one, is the rational
map ``f(z) = z(1 - rho z)/(1 - beta z)^2`` for a pair (beta, rho)
(Pommerenke, *Univalent Functions*, 1975, ch. 1).  The Koebe map (1, 0),
the half-plane map (1, 1) and the transforms take their series from their
pair, ``a_n = beta^{n-2} (n beta - (n-1) rho)``, the powers by one running
product (:func:`_pair_window` bounds the rounding); a rotation by ``phi``
multiplies the pair by the unit ``e^{i phi}`` and a_n by its powers, a
dilation by ``r`` multiplies the pair by ``r`` and a_n by ``r^{n-1}``.
The rotation and dilation kinds are the Koebe map rotated or dilated.  A
closed-form member stores its pair, and one evaluator gives its values and
derivatives, so boundary-near evaluation stays honest; the pair also gives
its growth class (:attr:`SchlichtFunction.maximal_growth`).  Series-only
maps (``custom``) carry no pair and are evaluated from their partial
sums.

Members are built a window at a time: :func:`_transforms` and
:func:`_dilations` give one member per parameter, the coefficients of all
of them one 2-D block, a running product along its rows or one power
table, checked whole and made read-only; each member's series is a row of
the block, a view.  A single member is a window of one row, built by the
same code.  One private factory, :func:`_member`, makes every member from
such a row, called through :func:`_window` by the builders alone
(:func:`make_schlicht`, :func:`rotated`, :func:`dilated` and the two
window builders); a caller's coefficients reach it only as a copy, and
:class:`SchlichtFunction` refuses a direct call, so no member carries a
pair that is not its series' pair.

``max_modulus`` searches the circles of a whole batch of members at once,
in a number of array evaluations that does not grow with the batch.  One
(members x radii) broadcast gives the reference cell of every circle; one
flat array holds the arcs of cells that a bound on |f| leaves able to hold
each circle's maximum, each member's pair repeated over its cells; each
golden-section step evaluates every lane at once.  The direction check,
:func:`_ambiguities`, reads the last circle's arc cells and gives one
verdict per member.  A series-only member, a batch of one, is evaluated by
its partial sums throughout.

``invert_to_sigma`` passes from a normalized map ``f`` on the disk to the
exterior map ``g(z) = 1/f(1/z) = z + b0 + b1/z + ...``; the exterior
coefficients feed the Grunsky machinery.  For a pair they are exact,
``b0 = rho - 2 beta`` and ``b_m = rho^{m-1} (rho - beta)^2``, the powers
again by running product; series-only maps go through a series
reciprocal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameter, OutsideDisk
from .series import (MAX_ORDER, ComplexSeries, array_parameter, coefficient_array,
                     evaluation_point, finite_parameter, integer_parameter, is_number,
                     numeric_array, require_instance)

#: the parameter names each kind of make_schlicht reads; any other key is refused
KIND_PARAMETERS = {"koebe": (), "halfplane": (), "rotation": ("theta",), "dilation": ("r",),
                   "koebe_transform": ("w",), "custom": ("coeffs",)}

#: the pairs (beta, rho) of the Koebe and half-plane maps
_BASE_PAIRS = {"koebe": (1.0, 0.0), "halfplane": (1.0, 1.0)}

_NORM_TOL = 1e-12
_UNIT_TOL = 4.0 * np.finfo(float).eps  # |beta| = 1 to 4 ulps: maximal growth
_COEFF_SLACK = 1e-9  # |a_n| <= n + slack, used as a corpus sanity gate
# the bound of each coefficient's column: |a_0|, |a_1 - 1| <= _NORM_TOL, |a_n| <= n + slack
_BOUNDS = np.concatenate(([_NORM_TOL, _NORM_TOL], np.arange(2, MAX_ORDER + 1) + _COEFF_SLACK))

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_ANGLE_TOL = 1e-10  # golden-section bracket width that ends the angle search

#: uniform angles of the circle search's grid stage, the same for every caller
CIRCLE_GRID = 512
CIRCLE_ANGLES = 2.0 * np.pi * np.arange(CIRCLE_GRID) / CIRCLE_GRID
_CIRCLE_RAY = np.exp(1j * CIRCLE_ANGLES)
_GRID_STEP = 2.0 * np.pi / CIRCLE_GRID
# one golden-section step count for every lane, from the nominal bracket width 2h
_GOLDEN_STEPS = int(math.ceil(math.log(_ANGLE_TOL / (2.0 * _GRID_STEP)) / math.log(_INV_PHI)))
_ARC_MARGIN = 1.01  # a grid cell is skipped only when its bound is below L / 1.01
_ARC_GUARD = 2.0 ** -20  # a circle with r |beta| or 1 - r |beta| below this is searched whole


def closed_form_value(z, beta, rho):
    """``z(1 - rho z)/(1 - beta z)^2``; the pair may be scalars or arrays.

    Spelled with ufunc calls, as :func:`closed_form_deriv` is, not with
    operators: under an operator numpy reuses a temporary of 256 KiB or more
    (16,384 complex128 entries) in place, and the in-place complex product
    rounds differently, so a lane's bits would depend on the size of its
    batch.  A scalar point gives an ``np.complex128``.
    """
    return np.divide(np.multiply(z, np.subtract(1.0, np.multiply(rho, z))),
                     np.square(np.subtract(1.0, np.multiply(beta, z))))


def closed_form_deriv(z, beta, rho):
    """``(1 + (beta - 2 rho) z)/(1 - beta z)^3``, the derivative of the closed form."""
    return np.divide(np.add(1.0, np.multiply(np.subtract(beta, np.multiply(2.0, rho)), z)),
                     np.power(np.subtract(1.0, np.multiply(beta, z)), 3))


def closed_form_log_deriv(z, beta, rho):
    """``log(1 + (beta - 2 rho) z) - 3 log(1 - beta z)``: log f'(z) of the closed form.

    Univalence gives |beta - 2 rho| <= 1 and |beta| <= 1, so both factors
    keep a positive real part on the disk and both principal logarithms lie
    on the branch that is continuous there with log f'(0) = 0.  The principal
    logarithm of f'(z) itself does not: for Koebe at z = 0.95 e^{1.2i} it is
    off by 2 pi i.
    """
    return np.log(1.0 + (beta - 2.0 * rho) * z) - 3.0 * np.log(1.0 - beta * z)


@dataclass(frozen=True)
class SchlichtFunction:
    """A normalized univalent function: a_0 = 0, a_1 = 1.

    ``series`` is the truncated coefficient series.  ``beta_rho`` is the
    pair (beta, rho) of the closed form ``z(1 - rho z)/(1 - beta z)^2``, or
    None for a series-only function.  :meth:`value` and :meth:`deriv`
    accept a number or a numeric numpy array, and raise
    :class:`InvalidParameter` for anything else
    (:func:`series.evaluation_point`).  A closed form evaluates with
    numpy's floating-point warnings off, so a NaN point or the pole gives
    NaN or inf in an array as it does for a Python number, and gives an
    ``np.complex128`` for a scalar point.

    Only the builders make one (:func:`make_schlicht`, :func:`rotated`,
    :func:`dilated` and the window builders, all through :func:`_member`),
    so a member's pair is its series' pair; a direct call, and so
    ``dataclasses.replace``, raises :class:`InvalidParameter`.  Two members
    are equal when their series (coefficient arrays), kinds, params and
    pairs are, so a copy equals its original; a member does not hash.
    """

    series: ComplexSeries
    kind: str
    params: dict
    beta_rho: Optional[tuple] = None

    __hash__ = None  # the params dict does not hash; say so under the class's name

    def __post_init__(self):
        raise InvalidParameter("a SchlichtFunction is built by make_schlicht, rotated or "
                               "dilated, not by hand")

    @property
    def has_closed_form(self) -> bool:
        return self.beta_rho is not None

    def value(self, z):
        """f(z): the closed form, or the partial sum of a series-only map."""
        if self.beta_rho is None:
            return self.series(z)
        with np.errstate(all="ignore"):
            return closed_form_value(evaluation_point(z), *self.beta_rho)

    def deriv(self, z):
        """f'(z): the closed form, or the derivative's partial sum."""
        if self.beta_rho is None:
            return self.series.deriv()(z)
        with np.errstate(all="ignore"):
            return closed_form_deriv(evaluation_point(z), *self.beta_rho)

    @property
    def maximal_growth(self) -> bool:
        """Whether the growth index is positive, read from the pair.

        A pair with |beta| = 1 and beta != rho has a_n ~ n beta^{n-2}
        (beta - rho), so its growth index |beta - rho| lies in (0, 1]: the
        Koebe map and the transforms.  |beta| = 1 is tested to within 4 ulps,
        so the dilations by the eight doubles r >= 1 - 4 eps (numerically the
        Koebe map at every order up to MAX_ORDER) count as maximal too.  The
        half-plane map (beta = rho), the other dilations and series-only maps
        do not.

        A rotation scales beta by a unit that is itself off by about an ulp:
        over 100,000 Koebe maps, rotations and transforms taken through three
        nested rotations by any finite angle, |beta| stayed within 2 ulps of
        1, so they kept the class, except transforms whose beta and rho
        differ by less than an ulp (|w| within 2 ulps of 1), which a
        rotation can round to beta = rho.  The dilation at the edge,
        r = 1 - 4 eps, can leave the class under a rotation (at 221 of 2001
        angles in [-7, 7]); those by 1 - 3.5 eps and closer to 1 kept it.
        """
        beta, rho = self.beta_rho or (0.0, 0.0)  # no pair: |beta| = 0 stands in
        return abs(abs(beta) - 1.0) <= _UNIT_TOL and beta != rho

    @property
    def order(self) -> int:
        return self.series.order

    def label(self) -> str:
        def short(v):
            if isinstance(v, complex):
                return f"{v.real:.4g}{v.imag:+.4g}j"
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        bits = ",".join(f"{k}={short(v)}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({bits})" if bits else self.kind


def _member(coeffs: np.ndarray, kind: str, params: dict, pair) -> SchlichtFunction:
    """The one factory of :class:`SchlichtFunction`: the member with the
    series of ``coeffs`` (a_0 .. a_N) and the pair ``pair``, or None for a
    series-only map.  ``coeffs`` is a row of a block that :func:`_window`
    checked and made read-only, taken as it is; a caller's array reaches it
    only as a copy.  It passes by the constructor's gate, so each builder
    gives a pair whose series is ``coeffs``."""
    f = object.__new__(SchlichtFunction)
    # one attribute at a time: Python 3.11 then keeps the values inline and
    # makes no instance dict, which a freed member would leave on a free list
    object.__setattr__(f, "series", ComplexSeries._of(coeffs))
    object.__setattr__(f, "kind", kind)
    object.__setattr__(f, "params", params)
    object.__setattr__(f, "beta_rho", pair)
    return f


def _window(block: np.ndarray, kind: str, params: list, pairs: list) -> list:
    """The members of the rows of ``block``, a 2-D complex128 array that no
    caller holds: checked whole (:func:`_check_class_s`), made read-only,
    and row i made the series of a ``kind`` member with ``params[i]`` and
    ``pairs[i]`` by :func:`_member`.  Every builder ends here, a single
    member as a block of one row."""
    _check_class_s(block, kind)
    block.setflags(write=False)
    return [_member(row, kind, p, pair) for row, p, pair in zip(block, params, pairs)]


@dataclass(frozen=True)
class SigmaFunction:
    """Exterior map ``g(z) = z + b0 + sum b_n z^{-n}`` on |z| > 1."""

    b0: complex
    tail: np.ndarray  # b_1 .. b_N
    order: int

    def __post_init__(self):
        b0 = finite_parameter(self.b0, "b0", complex)
        order = integer_parameter(self.order, "exterior order", 0)
        tail = coefficient_array(self.tail, "tail")
        if tail.shape != (order,):
            raise InvalidParameter("tail must hold exactly `order` coefficients")
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "order", order)


def _check_class_s(block: np.ndarray, kind: str) -> None:
    """Raise :class:`InvalidParameter` for the first row of ``block`` that
    is not normalized (a_0 = 0, a_1 = 1) or breaks |a_n| <= n + slack,
    naming its first such coefficient.  One comparison with the column
    bounds tests the whole block; a NaN or an infinity fails it too."""
    size = np.abs(block)
    size[:, 1] = np.abs(block[:, 1] - 1.0)
    good = size <= _BOUNDS[: block.shape[1]]
    if good.all():
        return
    i, j = divmod(int(good.argmin()), block.shape[1])
    what = kind if len(block) == 1 else f"{kind} (row {i} of its window)"
    if j < 2:
        raise InvalidParameter(f"{what}: series is not normalized (a0=0, a1=1)")
    raise InvalidParameter(f"{what}: |a_{j}| = {size[i, j]:.6g} exceeds the coefficient bound {j}")


def make_schlicht(kind: str, params: Optional[dict] = None, order: int = 128) -> SchlichtFunction:
    """Construct a corpus member by family tag.

    kind, and the parameter names it reads (``KIND_PARAMETERS[kind]``):
      * ``koebe``           -- none: k(z) = z/(1-z)^2; (beta, rho) = (1, 0)
      * ``rotation``        -- ``theta`` (default 0): the Koebe map's
                               ``rotated(k, theta)``, e^{-it} k(e^{it} z)
      * ``dilation``        -- ``r`` in (0,1): the Koebe map's ``dilated(k, r)``
      * ``halfplane``       -- none: z/(1-z); (beta, rho) = (1, 1)
      * ``koebe_transform`` -- ``w`` with |w| < 1 (default 0): the renormalized
                               composite
                               (k((z+w)/(1+conj(w) z)) - k(w)) / ((1-|w|^2) k'(w)),
                               with beta = (1-conj(w))/(1-w) and
                               rho = (w-conj(w))/(1-w^2)
      * ``custom``          -- ``coeffs``: explicit coefficient array (series only)

    Every kind but ``custom`` takes its series from its pair, the rotation
    and the dilation by the code of :func:`rotated` and :func:`dilated`,
    each a block of one row (:func:`_window`), as a custom series is.

    An unknown kind, or a key of ``params`` the kind does not read, raises
    :class:`InvalidParameter` before anything is built.  ``order`` must be
    an integer from 2 to MAX_ORDER; anything else raises
    :class:`InvalidParameter`.
    """
    if not isinstance(kind, str) or kind not in KIND_PARAMETERS:
        raise InvalidParameter(f"unknown family kind {kind!r}")
    if not isinstance(params, (dict, type(None))):
        raise InvalidParameter(f"params must be a dict of parameter values, got {params!r}")
    params = params or {}
    unknown = set(params) - set(KIND_PARAMETERS[kind])
    if unknown:
        raise InvalidParameter(f"unknown parameter keys for {kind}: {sorted(unknown, key=str)}; "
                               f"it reads {list(KIND_PARAMETERS[kind])}")
    order = integer_parameter(order, "order", 2, MAX_ORDER)

    if kind in _BASE_PAIRS:
        return _pair_window([_BASE_PAIRS[kind]], order, kind, [{}])[1][0]

    if kind == "rotation":
        theta = finite_parameter(params.get("theta", 0.0), "rotation theta")
        return _rotated(make_schlicht("koebe", order=order), theta, kind, {"theta": theta})

    if kind == "dilation":
        r = finite_parameter(params.get("r"), "dilation r")
        return _dilations(make_schlicht("koebe", order=order), [r])[1][0]

    if kind == "koebe_transform":
        w = finite_parameter(params.get("w", 0.0), "koebe_transform w", complex)
        return _transforms([w], order)[1][0]

    coeffs = coefficient_array(params.get("coeffs"), "custom coeffs")
    if len(coeffs) != order + 1:
        raise InvalidParameter("custom needs a coefficient array of length order+1")
    return _window(coeffs[None], kind, [{}], [None])[0]


def _powers(x, count: int) -> np.ndarray:
    """x^0 .. x^{count-1} as complex numbers, by one running product."""
    powers = np.ones(count, dtype=np.complex128)
    powers[1:] = np.cumprod(np.full(max(count - 1, 0), x, dtype=np.complex128))
    return powers


def _transforms(ws, order: int) -> tuple:
    """``(block, members)``: ``make_schlicht("koebe_transform", {"w": w},
    order)`` for each complex ``w`` of ``ws``, each member's series a row
    of the one block; any |w| >= 1 raises :class:`InvalidParameter`.

    The composite (k(phi) - k(w)) / ((1-|w|^2) k'(w)), phi = (z+w)/(1+conj(w) z),
    is the pair member of beta = (1-conj(w))/(1-w), rho = (w-conj(w))/(1-w^2).
    """
    if any(abs(w) >= 1.0 for w in ws):
        raise InvalidParameter("koebe_transform needs |w| < 1")
    pairs = [((1.0 - w.conjugate()) / (1.0 - w), (w - w.conjugate()) / (1.0 - w * w)) for w in ws]
    return _pair_window(pairs, order, "koebe_transform", [{"w": w} for w in ws])


def _pair_window(pairs, order: int, kind: str, params: list) -> tuple:
    """``(block, members)``: the members ``z(1 - rho z)/(1 - beta z)^2`` of
    order ``order``, one per (beta, rho) of ``pairs``, as the rows of one
    block: a_1 = 1 and a_n = beta^{n-2} (n beta - (n-1) rho) for n >= 2.

    beta^{n-2} is a running product along each row (as :func:`_powers`
    takes it), within about 1.2 (n-3) machine epsilons of the exact power
    of the double beta for n >= 3 (sqrt(5)/2 epsilons per complex product),
    and exact for n = 2.  The factor n beta - (n-1) rho rounds its two
    products and the difference: within eps/2 (n |beta| + (n-1) |rho|) +
    eps/2 |factor| of the exact value, which is far more than eps |factor|
    when the two terms cancel.  The last product rounds once more.  So,
    with s_n = |beta|^{n-2} (n |beta| + (n-1) |rho|), a_n lies within about

        eps ((1.2 (n-2) + 4) |a_n| + s_n / 2)

    of the exact value of the double pair, short of underflow.  The Koebe
    and half-plane maps (beta = 1) come out exact.  ``beta ** (n - 2)``,
    which numpy hands to libm's ``cpow`` from a power of 100 up, was off by
    up to 430 eps relative at w = 0.99 e^{0.3i}.  The products are ufunc
    calls with the array operand first, whose bits do not depend on the
    size of the block: numpy's product of a scalar and an array rounds
    differently from that of the array and the scalar, and an operator on a
    temporary of 16,384 entries or more can swap the two.
    """
    beta, rho = np.array(pairs, dtype=np.complex128).T[:, :, None]
    n = np.arange(2, order + 1)
    block = np.empty((len(pairs), order + 1), dtype=np.complex128)
    block[:, :3] = (0.0, 1.0, 1.0)  # a_0, a_1, and beta^0 for a_2
    block[:, 3:] = beta.repeat(order - 2, axis=1).cumprod(axis=1)  # beta^1 .. beta^{N-2}
    factor = np.multiply(n, beta)
    np.subtract(factor, np.multiply(n - 1.0, rho), out=factor)
    np.multiply(block[:, 2:], factor, out=block[:, 2:])
    return block, _window(block, kind, params, pairs)


def _scaled(f: SchlichtFunction, scales: list, powers: np.ndarray, kind: str,
            params: list) -> tuple:
    """``(block, members)``: the members ``f(c z)/c`` of ``kind`` for each c
    of ``scales``, row i with a_0 = 0 and a_n = a_n(f) powers[i, n-1] for
    n >= 1 (powers[i, j] = c^j), and the pair (c beta, c rho) of a closed form."""
    block = np.empty((len(scales), f.order + 1), dtype=np.complex128)
    block[:, 0] = 0.0
    np.multiply(f.series.coeffs[1:], powers, out=block[:, 1:])
    pairs = [None if f.beta_rho is None else (f.beta_rho[0] * c, f.beta_rho[1] * c)
             for c in scales]
    return block, _window(block, kind, params, pairs)


def rotated(f: SchlichtFunction, phi: float) -> SchlichtFunction:
    """Rotate any corpus member: ``e^{-i phi} f(e^{i phi} z)``, a_n -> a_n
    e^{i(n-1) phi} (stays normalized).

    ``phi`` may be any finite number; anything else raises
    :class:`InvalidParameter`.  The pair is scaled by the unit
    ``u = e^{i phi}``, and the coefficients by the powers
    e^{i(n-1) phase(u)}: the angle is reduced to (-pi, pi] before it is
    multiplied, so series and pair stay one map at every ``phi``.
    """
    require_instance(f, SchlichtFunction, "rotated")
    phi = finite_parameter(phi, "rotation angle phi")
    return _rotated(f, phi, "custom", {"rotated_from": f.kind, "phi": phi})


def _rotated(f: SchlichtFunction, phi: float, kind: str, params: dict) -> SchlichtFunction:
    """``rotated(f, phi)``, a float ``phi``, as a member of ``kind`` with ``params``."""
    unit = cmath.exp(1j * phi)
    powers = np.exp(1j * cmath.phase(unit) * np.arange(f.order))
    return _scaled(f, [unit], powers[None], kind, [params])[1][0]


def dilated(f: SchlichtFunction, r: float) -> SchlichtFunction:
    """Dilate any corpus member: ``f(r z)/r``, a_n -> a_n r^{n-1} (stays normalized).

    ``r`` must be a number in (0, 1); anything else raises
    :class:`InvalidParameter`.  Like :func:`rotated`, the member records
    where it came from: its kind is ``custom`` and its params hold
    ``dilated_from`` (``f``'s kind) and ``r``.
    """
    require_instance(f, SchlichtFunction, "dilated")
    r = finite_parameter(r, "dilation r")
    return _dilations(f, [r], {"dilated_from": f.kind})[1][0]


def _dilations(f: SchlichtFunction, radii: list, origin: Optional[dict] = None) -> tuple:
    """``(block, members)``: ``f(r z)/r`` for each float ``r`` of ``radii``,
    checked to lie in (0, 1), each member's series a row of the one block.

    Without ``origin`` the members are of kind ``dilation`` with params
    ``{"r": r}``; with it, of kind ``custom`` with ``origin`` and ``r``.
    The powers r^{n-1} are taken for n >= 1 only, so a tiny ``r``
    underflows them quietly instead of overflowing r^{-1}.
    """
    if not all(0.0 < r < 1.0 for r in radii):
        raise InvalidParameter("dilation needs r in (0, 1)")
    powers = np.array(radii, dtype=float)[:, None] ** np.arange(f.order, dtype=float)
    kind = "dilation" if origin is None else "custom"
    return _scaled(f, radii, powers, kind, [dict(origin or {}, r=r) for r in radii])


def invert_to_sigma(f: SchlichtFunction, order: int) -> SigmaFunction:
    """Exterior coefficients of ``g(z) = 1/f(1/z)``.

    For a closed form, ``g(z) = (z - beta)^2 sum_j rho^j z^{-j-1}``, so
    ``b0 = rho - 2 beta`` and ``b_m = rho^{m-1} (rho - beta)^2`` exactly,
    the powers rho^{m-1} taken by running product (:func:`_powers`).
    For a series-only map, with ``P(u) = f(u)/u`` (constant term 1), the
    reciprocal ``Q = 1/P`` gives ``g(z) = z * Q(1/z) = z + q_1 + q_2/z + ...``,
    so ``b_n = q_{n+1}``.  Either way the series must reach ``order + 2``,
    which the reciprocal needs to be exact through the exterior order.
    """
    require_instance(f, SchlichtFunction, "invert_to_sigma")
    order = integer_parameter(order, "exterior order", 0)
    if f.order < order + 2:
        raise InvalidParameter(
            f"inversion to exterior order {order} needs a series of order >= {order + 2}"
        )
    if f.has_closed_form:
        beta, rho = f.beta_rho
        return SigmaFunction(b0=complex(rho - 2.0 * beta),
                             tail=_powers(rho, order) * (rho - beta) ** 2,
                             order=order)
    p = ComplexSeries(f.series.coeffs[1:])  # f(u)/u
    q = 1.0 / p
    return SigmaFunction(b0=complex(q.coeffs[1]),
                         tail=q.coeffs[2 : order + 2],
                         order=order)


# -- certified evaluation ----------------------------------------------


def _tail_linear(n_order: int, x: float) -> float:
    """sum_{n > N} n x^n, closed form; the universal coefficient-bound tail."""
    return x ** (n_order + 1) * ((n_order + 1) * (1.0 - x) + x) / (1.0 - x) ** 2


def _tail_quadratic(n_order: int, x: float) -> float:
    """sum_{n > N} n^2 x^n, closed form (for derivative tails)."""
    n = n_order
    u = x ** (n + 1) * ((n + 1) * (n + 2) * (1.0 - x) ** 2
                        + 2.0 * x * ((n + 2) - (n + 1) * x)) / (1.0 - x) ** 3
    return u - _tail_linear(n, x)


def _disk_modulus(z) -> float:
    """|z| of one point, a number (:func:`series.is_number`), checked to lie
    inside the unit disk; NaN raises :class:`OutsideDisk`."""
    if not is_number(z):
        raise InvalidParameter(f"the point must be one number, got {z!r:.60}")
    try:
        x = float(abs(z))
    except OverflowError:
        raise InvalidParameter(f"the point {z!r:.40} lies beyond double range") from None
    if not x < 1.0:  # NaN fails here too
        raise OutsideDisk(f"|z| = {x:.6g} is not inside the unit disk")
    return x


def eval_certified(f: SchlichtFunction, z: complex):
    """Value of ``f`` at ``z`` with a rigorous error bound.

    Closed forms return (value, 0).  Series-only functions return the
    partial sum plus the tail bound sum_{n>N} n |z|^n, valid for every
    normalized univalent function by the coefficient bound |a_n| <= n.
    """
    require_instance(f, SchlichtFunction, "eval_certified")
    x = _disk_modulus(z)
    bound = 0.0 if f.has_closed_form else _tail_linear(f.order, x)
    return f.value(z), bound


def deriv_certified(f: SchlichtFunction, z: complex):
    """Derivative of ``f`` at ``z`` with a rigorous error bound.

    The series tail bound is sum_{n>N} n^2 |z|^{n-1}, again from |a_n| <= n.
    """
    require_instance(f, SchlichtFunction, "deriv_certified")
    x = _disk_modulus(z)
    bound = 0.0 if f.has_closed_form or x == 0.0 else _tail_quadratic(f.order, x) / x
    return f.deriv(z), bound


# -- maximum modulus on circles ----------------------------------------


def radius_grid(radii) -> np.ndarray:
    """``radii`` as a float array, checked to be a grid of circles.

    Raises :class:`InvalidParameter` unless ``radii`` is a non-empty 1-D
    real array, strictly increasing inside (0, 1); NaN and infinities fail.
    """
    grid = numeric_array(radii, "radii", 1, "iuf").astype(float)
    if grid.size == 0:
        raise InvalidParameter("radii must be a non-empty 1-D grid")
    # the range test goes first: NaN fails it, and np.diff never meets an inf
    if not np.all((grid > 0.0) & (grid < 1.0)) or np.any(np.diff(grid) <= 0.0):
        raise InvalidParameter("radii must be strictly increasing inside (0, 1)")
    return grid


def batch(f) -> list:
    """``f``, one member or a sequence of members, as the list of one batch.

    One array evaluation serves a batch, so it holds closed-form members
    only, or exactly one series-only member; anything else raises
    :class:`InvalidParameter`.
    """
    members = [f] if isinstance(f, SchlichtFunction) else list(f) if np.iterable(f) else []
    if not members or not all(isinstance(g, SchlichtFunction) for g in members):
        raise InvalidParameter("a batch needs one or more SchlichtFunction members")
    if len(members) > 1 and not all(g.has_closed_form for g in members):
        raise InvalidParameter("a batch holds closed-form members only, "
                               "or exactly one series-only member")
    return members


def batch_evaluator(members, lanes: int, derivative: bool = False):
    """The function giving f(z), or f'(z), on a flat array ``z`` that holds
    ``lanes`` points of each member in turn.

    Closed-form members evaluate their pairs, repeated ``lanes`` times, as
    arrays through the same expression as :meth:`SchlichtFunction.value`
    and :meth:`SchlichtFunction.deriv`; a series-only member (a batch of
    one) uses its partial sums.
    """
    if not members[0].has_closed_form:
        return members[0].deriv if derivative else members[0].value
    pairs = np.array([g.beta_rho for g in members], dtype=np.complex128)
    beta, rho = np.repeat(pairs[:, 0], lanes), np.repeat(pairs[:, 1], lanes)
    closed_form = closed_form_deriv if derivative else closed_form_value
    return lambda z: closed_form(z, beta, rho)


def _arcs(members, radii: np.ndarray, grid: np.ndarray):
    """The cells of each circle that the grid stage of :func:`max_modulus`
    evaluates: ``count`` cells from grid index ``first`` on, mod
    CIRCLE_GRID, both of shape ``(members, radii)``.

    A closed-form member's circle keeps the arc where its bound can reach
    L / 1.01, widened by one cell on each side, L the member's |f| at the
    cell nearest -arg beta, every member's and circle's L from one
    ``(members, radii)`` broadcast.  A series-only member, a circle where
    r |beta| or 1 - r |beta| lies below 2^-20 (beta = 0 among them) and an
    arc that covers the circle keep all CIRCLE_GRID cells.
    """
    first = np.zeros((len(members), len(radii)), dtype=np.int64)
    count = np.full(first.shape, CIRCLE_GRID)
    if not members[0].has_closed_form:  # a batch of one series-only map
        return first, count
    pairs = np.array([g.beta_rho for g in members], dtype=np.complex128)
    centre = -np.angle(pairs[:, :1])
    nearest = np.rint(centre[:, 0] / _GRID_STEP).astype(np.int64) % CIRCLE_GRID
    # every member's reference cells, (members, radii), in one evaluation
    with np.errstate(all="ignore"):
        low = np.abs(closed_form_value(grid[:, nearest].T, pairs[:, :1], pairs[:, 1:]))
    r, size, spread = radii, np.abs(pairs[:, :1]), np.abs(pairs[:, 1:])
    gap = 1.0 - r * size
    with np.errstate(all="ignore"):  # low = 0 or beta = 0 give s = inf or NaN: the whole circle
        # the bound reaches low / margin where sin^2((theta - centre)/2) <= s
        s = (_ARC_MARGIN * r * (1.0 + r * spread) / low - gap * gap) / (4.0 * r * size)
        half = 2.0 * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))
        lo = np.ceil((centre - half) / _GRID_STEP) - 1.0
        width = np.floor((centre + half) / _GRID_STEP) + 2.0 - lo
    arc = (r * size >= _ARC_GUARD) & (gap >= _ARC_GUARD) & (s < 1.0) & (width < CIRCLE_GRID)
    first[:] = np.where(arc, lo % CIRCLE_GRID, 0)
    count[:] = np.where(arc, width, CIRCLE_GRID)
    return first, count


def max_modulus(f, r):
    """Maximum of |f| on the circles |z| = r and the maximizing angles.

    ``f`` is one member or a sequence of members (see :func:`batch`); ``r``
    is one radius or a 1-D array of radii, shared by every member.  The
    search has two stages.  The grid stage finds each circle's best cell
    among the CIRCLE_GRID (512) uniform angles CIRCLE_ANGLES, at points
    formed once per call: the arc cells of every member's circles in one
    flat evaluation, each member's pair repeated over its cells.
    Golden-section refinement then pins every angle of every member to
    1e-10 in lockstep, with ``np.where`` choosing each lane's side and each
    lane evaluating its member's pair.  Every evaluation goes through the
    same array arithmetic, with the pair as the first operand of each
    product, where a scalar and an array repeating it round alike, so a
    lane's result depends neither on the other radii nor on the other
    members in the call.  A series-only member, a batch of one, uses its
    partial sums.

    On each circle of a closed-form member the grid stage evaluates only an
    arc (:func:`_arcs`), and still picks the cell the whole grid picks.  On
    |z| = r, with theta' = theta + arg beta,

        |f(r e^{i theta})| <= U(theta)
            = r (1 + r |rho|) / ((1 - r |beta|)^2 + 4 r |beta| sin^2(theta'/2)),

    since |1 - beta z|^2 = (1 - r |beta|)^2 + 4 r |beta| sin^2(theta'/2).
    U falls with the distance of theta from -arg beta, so the cells where
    U reaches L / 1.01 form one arc about -arg beta, L the computed |f| at
    the cell nearest it; the arc is widened by one cell on each side, far
    more than the rounding of its ends, and holds that cell.  An arc is
    only taken where r |beta| >= 2^-20, so nothing that matters underflows,
    and 1 - r |beta| >= 2^-20.  In floating point |1 - beta z| then loses
    at most about 2 eps to rounding and is at least 1 - r |beta|, and
    |1 - rho z| <= 1 + r |rho| gains at most a few eps, so a computed |f|
    exceeds U by a relative 20 eps / (1 - r |beta|) < 5e-9 at most.  A
    dropped cell's computed |f| is therefore below (1 + 5e-9) L / 1.01 < L,
    below the arc's maximum.  The arc's cells are the whole grid's points,
    evaluated by the elementwise arithmetic of :meth:`SchlichtFunction.value`,
    so they have the same bits, and they are taken in grid order: the first
    cell holding the arc's maximum (``np.argmax``'s choice, a NaN first) is
    the whole grid's.

    The direction check (:func:`_ambiguities`) reads the last circle's
    evaluated cells, with NaN in every skipped cell, so neither a skipped
    cell nor an arc's end cell is a local maximum; its verdict is still the
    whole circle's.  An arc is kept only where s < 1 in :func:`_arcs`, that
    is where L > 1.01 r (1 + r |rho|) / (1 + r |beta|)^2; as L is at most
    (1 + 5e-9) r (1 + r |rho|) / (1 - r |beta|)^2, this forces
    (1 + r |beta|)^2 / (1 - r |beta|)^2 > 1.01 / (1 + 5e-9), so
    r |beta| > 0.0024, and with |beta| <= 1, L > 1.01 r / (1 + r)^2 > 0.0024.
    Every skipped cell lies below (1 + 5e-9) L / 1.01, and each end cell
    below the same bound up to the rounding of the arc's ends, so those
    cells sit more than 2e-5 under the circle's maximum, far beyond the
    check's 1e-6 tolerance.  Hence both cells the check compares lie
    strictly inside the arc, with the whole grid's bits and the whole
    grid's neighbours.

    For one member, returns ``(M, theta)``: floats for a scalar ``r``,
    arrays otherwise, with each angle wrapped to (-pi, pi].  For a
    sequence, both gain a leading member axis, and a third item is the
    list of verdicts on each member's last circle: None when one maximum
    dominates, else the :class:`~schlichtlab.errors.AmbiguousDirection`
    message.
    """
    members = batch(f)
    radii = array_parameter(r, "radii")
    lanes = numeric_array(np.atleast_1d(radii), "radii", 1, "iuf").astype(float)
    if lanes.size == 0:
        raise InvalidParameter("radii must be one real number or a non-empty 1-D array")
    if not np.all((lanes > 0.0) & (lanes < 1.0)):  # NaN fails here too
        raise OutsideDisk(f"radius {r!r} is not inside (0, 1)")

    grid = lanes[:, None] * _CIRCLE_RAY  # the (radii, grid) points, shared by every member
    first, count = _arcs(members, lanes, grid)
    sizes, first, count = count.sum(axis=1), first.ravel(), count.ravel()
    starts = np.cumsum(count) - count
    pos = np.arange(np.sum(count)) - np.repeat(starts, count)
    # an arc past the last cell is taken in grid order: 0 .. wrap-1, then first on
    wrap = np.repeat(np.maximum(first + count - CIRCLE_GRID, 0), count)
    cell = np.where(pos < wrap, pos, pos + np.repeat(first, count) - wrap)
    # every member's arc cells in one evaluation, each member's pair repeated
    # over its cells
    member, ring = np.divmod(np.repeat(np.arange(count.size), count), len(lanes))
    with np.errstate(all="ignore"):
        cells = np.abs(batch_evaluator(members, sizes)(grid[ring, cell]))
    peak = np.repeat(np.maximum.reduceat(cells, starts), count)
    hits = np.flatnonzero((cells == peak) | np.isnan(cells))
    best = CIRCLE_ANGLES[cell[hits[np.searchsorted(hits, starts)]]]
    # the lanes: every radius of each member in turn
    a, b = best - _GRID_STEP, best + _GRID_STEP

    rad = np.tile(lanes, len(members))
    value = batch_evaluator(members, len(lanes))

    def circle_abs(theta):
        return np.abs(value(rad * np.exp(1j * theta)))

    width = b - a
    c, d = a + _INV_PHI2 * width, a + _INV_PHI * width
    yc, yd = circle_abs(c), circle_abs(d)
    for _ in range(_GOLDEN_STEPS):
        # left lanes keep [a, d] and probe a new c; the others keep [c, b]
        left = yc > yd
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = width * _INV_PHI
        t = a + np.where(left, _INV_PHI2, _INV_PHI) * width
        y = circle_abs(t)
        c, d = np.where(left, t, d), np.where(left, c, t)
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
    # wrap to (-pi, pi]
    theta = np.array([math.remainder(t, 2.0 * math.pi) for t in (0.5 * (a + b)).tolist()])
    vals = circle_abs(theta).reshape(len(members), -1)
    theta = theta.reshape(vals.shape)
    if radii.ndim == 0:
        vals, theta = vals[:, 0], theta[:, 0]
    if isinstance(f, SchlichtFunction):
        return (float(vals[0]), float(theta[0])) if radii.ndim == 0 else (vals[0], theta[0])
    on_last = ring == len(lanes) - 1
    last = np.full((len(members), CIRCLE_GRID), np.nan)
    last[member[on_last], cell[on_last]] = cells[on_last]
    return vals, theta, _ambiguities(last)


def _ambiguities(circles: np.ndarray) -> list:
    """For each row of ``circles``, |f| at the CIRCLE_ANGLES of one circle
    (NaN in a cell left unevaluated), None when one maximum dominates, else
    the :class:`~schlichtlab.errors.AmbiguousDirection` message.  One
    np.roll pair marks the local maxima of every row, NaN comparing False;
    only a row with two or more of them (a plateau counts each of its cells)
    is compared in Python."""
    local = (circles >= np.roll(circles, 1, axis=1)) & (circles >= np.roll(circles, -1, axis=1))
    out, window = [None] * len(circles), 4.0 * np.pi / CIRCLE_GRID
    for i in np.flatnonzero(np.count_nonzero(local, axis=1) > 1).tolist():
        vals, peaks = circles[i], np.flatnonzero(local[i])
        order = peaks[np.argsort(vals[peaks])[::-1]]
        best, second = order[0], order[1]
        sep = abs(math.remainder(CIRCLE_ANGLES[best] - CIRCLE_ANGLES[second], 2.0 * math.pi))
        if vals[best] - vals[second] <= 1e-6 and sep > window:
            out[i] = (f"circle maxima at angles {CIRCLE_ANGLES[best]:.4f} and "
                      f"{CIRCLE_ANGLES[second]:.4f} agree in modulus; no single growth "
                      "direction")
    return out


def standard_corpus(order: int = 128):
    """The five-member test corpus used by audits and scans."""
    return [
        make_schlicht("koebe", order=order),
        make_schlicht("halfplane", order=order),
        make_schlicht("rotation", {"theta": math.pi / 3.0}, order=order),
        make_schlicht("dilation", {"r": 0.9}, order=order),
        make_schlicht("koebe_transform", {"w": 0.3 * cmath.exp(1j * math.pi / 4.0)}, order=order),
    ]

"""First-order and order-N low-pass filters on the periodic interval.

The filter acts in two equivalent ways: in coefficient space every harmonic
a_k picks up a sinc multiplier determined by the kernel variant, and in
physical space the first-order filter is the symmetric moving average over
[theta - eps, theta + eps].  Order N composes N first-order passes; the
variants differ in how the per-stage range scales with N:

    naive     stage eps,            total range N*eps      (requires eps <= pi/N)
    fixed     stage eps/N,          total range eps
    gaussian  stage eps/sqrt(N),    total range sqrt(N)*eps
    scaled    stages eps/2, eps/4,  total range eps*(1 - 2^-N)

A variant is only its data, the stage table (_stage_groups) of half-widths
a_1..a_N, read by the multiplier m_k = prod_n sinc(k a_n) on the k-th harmonic
and by its envelope |m_k| <= prod_n min(1, 1/(k a_n)), whose integral is the
one tail rule (_cutoff) over the first 60 groups with nonzero width.
The kernel of every variant is

    1/(2*pi) + (1/pi) * sum_k m_k cos(k dtheta),

in closed form for N <= 2 and for scaled N <= 10: in u = theta/h, h the
narrowest stage, the stages are boxes of integer half-widths (1, 1 for equal
stages, 1, 2, ..., 2^(N-1) for scaled), so the kernel is one polynomial of
degree N-1 per unit cell, a table (_box_table) keyed by those widths, built
once by repeated box integration and read by Horner's rule at d and, where
the widths reach pi, at its image 2*pi - d.  For scaled, m_k is the
running product over the stages, never the algebraically equal
2^(N(N+1)/2)/(k eps)^N prefactor form, which overflows already for moderate N.

One plan (_plan) makes every decision of a kernel evaluation, and its type is
its engine: a _Table (the box-spline table) or a _Series (K signed weights),
each read by at(d) and grid(M).  Each refusal comes from the code that
decides it: _plan's argument checks, _closed_form's table and the tail rule.

m_k depends only on the spec and k, so the series and kernel_integral read
m_1..m_K from a per-process table (_multipliers) of at most 2 MiB, a quarter
of it per spec, least recently used spec out first, with the bits of a fresh
filter_multiplier call; the tail rule is memoised too.  Filtering
coefficients reads the same table on both sides of the conjugate pair
(_filtered): apply_filter_coeffs, and so the CLI's filter and waveform, and
disk's complex_filter_coeffs, complex_filter_eval and complex_filter_order_n.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FilterRangeError, InsufficientOrderError, NonConvergenceError
from .series import (
    DEFAULT_OPTIONS,
    PARITIES,
    EvalOptions,
    HarmonicCoefficients,
    SampledSignal,
    _finite,
    _grid_values,
    _mirror,
    _point_values,
    _pointwise,
    _resolution,
    _thetas,
)

__all__ = [
    "VARIANTS",
    "KernelSpec",
    "sinc",
    "filter_multiplier",
    "apply_filter_coeffs",
    "filter_direct",
    "kernel_eval",
    "kernel_grid",
    "kernel_integral",
    "stage_range",
    "total_range",
]

VARIANTS = ("naive", "fixed", "gaussian", "scaled")

_SINC_TAYLOR_CUT = 1e-4

# A factor sinc(x) with 0 <= x < this rounds to exactly 1.0 (x^2/6 < 2^-54) and is skipped.
_NEGLIGIBLE_ARG = 1e-8

# _multipliers keeps m_1..m_K per spec, least recently used first, in at most this many bytes.
# m_k grows in blocks of _GROW_BLOCK harmonics, so its temporaries stay small.
_CACHE_BYTES = 2**21
_MULTIPLIERS: OrderedDict[KernelSpec, np.ndarray] = OrderedDict()
_NO_MULTIPLIERS = np.empty(0)
_GROW_BLOCK = 2**12


@dataclass(frozen=True)
class KernelSpec:
    """Order N, range parameter eps (radians), and range-scaling variant.

    The total range must fit in the period (naive N*eps <= pi, gaussian
    sqrt(N)*eps <= pi), and scaled needs eps < pi.
    """

    order: int
    range_param: float
    variant: str = "fixed"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        message = "order must be a non-negative integer"
        if _finite(self.order, message) < 0 or int(self.order) != self.order:
            raise ValueError(message)
        object.__setattr__(self, "order", int(self.order))
        eps = float(_finite(self.range_param, "range_param must lie in (0, pi]"))
        if not (0.0 < eps <= np.pi):
            raise ValueError("range_param must lie in (0, pi]")
        if self.variant == "scaled" and eps == np.pi:
            raise ValueError("scaled variant requires eps strictly inside (0, pi)")
        object.__setattr__(self, "range_param", eps)
        self._check_total_range()

    def _check_total_range(self) -> None:
        eps, n = self.range_param, self.order
        if self.variant == "naive" and n >= 1 and eps > np.pi / n:
            raise ValueError(
                f"naive variant requires eps <= pi/N (total range N*eps <= pi); eps={eps} N={n}"
            )
        if self.variant == "gaussian" and math.sqrt(max(n, 1)) * eps > np.pi:
            raise ValueError(f"gaussian variant requires sqrt(N)*eps <= pi; eps={eps} N={n}")


class _Periodised(KernelSpec):
    """A spec whose total range may exceed pi: KernelSpec without that check.

    Where KernelSpec accepts the same fields, its kernel is the same bit for bit.
    """

    def _check_total_range(self) -> None:
        pass


def sinc(x):
    """sin(x)/x with a Taylor fallback 1 - x^2/6 for |x| < 1e-4 (x^4/120 is under half an ulp)."""
    arr = np.asarray(_finite(x, "sinc argument must be finite"))
    small = np.abs(arr) < _SINC_TAYLOR_CUT
    out = np.empty_like(arr)
    x = arr[~small]
    out[small] = _sinc_taylor(arr[small])
    out[~small] = np.sin(x) / x
    return float(out) if arr.ndim == 0 else out


def _sinc_taylor(t: np.ndarray) -> np.ndarray:
    """sinc's branch for |t| < _SINC_TAYLOR_CUT."""
    return 1.0 - t * t / 6.0


def _stage_groups(spec: KernelSpec):
    """The variant's stage table: groups (half-width a, multiplicity), widest first.

    Scaled stages eps/2^j come one at a time and lazily, so a consumer pays only
    for the stages it reads; ldexp never overflows (a = 0 past the subnormals).
    """
    eps, n = spec.range_param, spec.order
    if spec.variant == "scaled":
        for j in range(1, n + 1):
            yield math.ldexp(eps, -j), 1
    elif n:
        yield {"naive": eps, "fixed": eps / n, "gaussian": eps / math.sqrt(n)}[spec.variant], n


def stage_range(spec: KernelSpec) -> float:
    """Range of each first-order pass making up the order-N filter (scaled: the widest, eps/2)."""
    return next(_stage_groups(spec), (0.0, 0))[0]


def total_range(spec: KernelSpec) -> float:
    """Half-width of the kernel's support."""
    if spec.order == 0:
        return 0.0
    if spec.variant == "naive":
        return spec.order * spec.range_param
    if spec.variant == "fixed":
        return spec.range_param
    if spec.variant == "gaussian":
        return math.sqrt(spec.order) * spec.range_param
    return spec.range_param * (1.0 - 0.5**spec.order)


def filter_multiplier(k, spec: KernelSpec):
    """Eigenvalue prod_n sinc(k a_n) of the order-N filter on the k-th harmonic.

    A group (a, m) of the stage table contributes sinc(k a)^m.  With k ascending,
    each group's arguments k a ascend too, so sinc's Taylor and sin(x)/x branches
    are two slices; the factors below them (k a < _NEGLIGIBLE_ARG) are exactly
    1.0 and are skipped, and as the widths shrink the product stops at the first
    group with none left.  N = 0 is the identity (1).  A scalar k gives the bits
    of the one-element array.
    """
    karr = np.asarray(_finite(k, "harmonic index k must be finite"))
    if np.any(karr < 1):
        raise ValueError("harmonic index k must be >= 1")
    flat = karr.ravel()
    order = None if np.all(flat[1:] >= flat[:-1]) else np.argsort(flat)
    if order is not None:
        flat = flat[order]
    out = np.ones_like(flat)
    lo = 0  # flat[:lo] has no factor left that differs from 1.0
    for a, mult in _stage_groups(spec):
        if flat.size and not math.isfinite(float(flat[-1]) * a):  # a Python float: no warning
            raise ValueError("sinc argument must be finite")
        arg = flat[lo:] * a
        skip, cut = np.searchsorted(arg, (_NEGLIGIBLE_ARG, _SINC_TAYLOR_CUT))
        if skip == arg.size:
            break
        taylor, exact = _sinc_taylor(arg[skip:cut]), np.sin(arg[cut:])
        exact /= arg[cut:]
        if mult > 1:  # a power of 1 would only cost a pass over the array
            taylor **= mult
            np.power(exact, mult, out=exact)
        out[lo + skip : lo + cut] *= taylor
        out[lo + cut :] *= exact
        lo += skip
    if order is not None:
        out[order] = out.copy()  # back to the caller's order of k
    return float(out[0]) if karr.ndim == 0 else out.reshape(karr.shape)


def _multipliers(spec: KernelSpec, K: int) -> np.ndarray:
    """m_1..m_K as a read-only array, from the per-process table _MULTIPLIERS.

    A shorter entry grows by filter_multiplier on k = L+1..K only, which gives
    the bits of the one-shot array, as filter_multiplier decides each element
    from its own k.  An array over a quarter of _CACHE_BYTES is returned and
    not kept (the shorter entry stays); least recently used entries go once
    the table passes _CACHE_BYTES.
    """
    m = _MULTIPLIERS.get(spec, _NO_MULTIPLIERS)
    if m.size >= K:  # K >= 1, so spec has an entry
        _MULTIPLIERS.move_to_end(spec)
        return m[:K]
    grown = np.empty(K)
    grown[: m.size] = m
    for lo in range(m.size, K, _GROW_BLOCK):
        hi = min(lo + _GROW_BLOCK, K)
        grown[lo:hi] = filter_multiplier(np.arange(lo + 1.0, hi + 1.0), spec)
    m = grown
    m.flags.writeable = False
    if m.nbytes <= _CACHE_BYTES // 4:
        _MULTIPLIERS.pop(spec, None)
        _MULTIPLIERS[spec] = m
        while sum(v.nbytes for v in _MULTIPLIERS.values()) > _CACHE_BYTES:
            _MULTIPLIERS.popitem(last=False)
    return m


def _filtered(a: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """a_k * m_k, k = 1..K, with m_k from the table: the filter of both sides of the pair."""
    return a * _multipliers(spec, a.size) if a.size else a  # _multipliers needs K >= 1


def apply_filter_coeffs(coeffs: HarmonicCoefficients, spec: KernelSpec) -> HarmonicCoefficients:
    """Multiply every a_k by the filter's eigenvalue; parity and length kept."""
    return HarmonicCoefficients(coeffs.parity, _filtered(coeffs.coeffs, spec))


def filter_direct(signal: SampledSignal, eps: float) -> SampledSignal:
    """Symmetric moving average (1/2eps) * integral over [theta-eps, theta+eps].

    The window integral is taken over the periodic linear interpolant of the
    grid values: cumulative trapezoid between nodes, exact fragment integrals
    at the two fractional endpoints, and an h^2/12 endpoint-slope correction
    (centered-difference slopes) that removes the trapezoid boundary error.
    The result is clipped to [min(signal), max(signal)], which the exact
    operator satisfies.  eps in (0, pi] is checked as KernelSpec(1, eps, "naive").
    """
    eps = KernelSpec(1, eps, "naive").range_param
    v = signal.values
    m = signal.resolution
    h = 2.0 * np.pi / m
    if 2.0 * eps < 8.0 * h:
        raise FilterRangeError(
            f"range too small for grid: 2*eps = {2 * eps:.3g} spans fewer than "
            f"8 grid cells of {h:.3g}"
        )

    vp = np.concatenate([v, v[:1]])
    cells = h * (vp[:-1] + vp[1:]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    period_integral = cum[-1]
    slope = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h)

    def window_edge(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = (x + np.pi) / h  # whole periods, node index i and in-cell fraction
        wraps = np.floor(t / m)
        t = t - wraps * m
        # rounding in the reduction can leave t a hair outside [0, m)
        i = np.clip(np.floor(t).astype(int), 0, m - 1)
        frac = t - i
        vi = v[i]
        vnext = v[(i + 1) % m]
        fragment = h * (vi * frac + 0.5 * (vnext - vi) * frac * frac)
        antider = wraps * period_integral + cum[i] + fragment
        edge_slope = slope[i] * (1.0 - frac) + slope[(i + 1) % m] * frac
        return antider, edge_slope

    thetas = signal.thetas()
    upper, slope_u = window_edge(thetas + eps)
    lower, slope_l = window_edge(thetas - eps)
    integral = (upper - lower) - (h * h / 12.0) * (slope_u - slope_l)
    out = integral / (2.0 * eps)
    return SampledSignal(np.clip(out, v.min(), v.max()))


def _fold(d: np.ndarray) -> np.ndarray:
    """Reduce angles to [0, pi] using evenness first, so kernels are exactly even: |d| mod 2*pi,
    then its image 2*pi - |d| past pi (it rounds to at most pi there, and to at least |d| below)."""
    d = np.mod(np.abs(d), 2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d, out=d)


@functools.lru_cache(maxsize=None)  # one table per width tuple _closed_form reads
def _box_table(widths: tuple[int, ...]) -> np.ndarray:
    """The density of a sum of uniforms on [-w, w], w in widths (powers of two, narrowest first,
    widths[0] = 1), on u >= 0: row j holds the t^(N-1-j) coefficients of its polynomials in
    t = u - floor(u) on the cells [c, c+1), c = 0..R-1, R = sum(widths) its support's half-width,
    and a zero cell c = R past it.  With u = theta/h it is the kernel times h.

    A box of half-width w turns the polynomials p_c, with integrals Q_c(t) = int_0^t p_c, into
        (S_c + Q_{c+w}(t) - Q_{c-w}(t)) / (2w),   S_c = sum_{j=c-w}^{c+w-1} Q_j(1),
    and S_c, a window of 2w cell masses, adds the masses pairwise by doubling (never as a
    difference of cumulative sums, which loses the small windows of the tail to cancellation).
    """
    p, r = np.full((2, 1), 0.5), 1  # the unit box on its cells -1 and 0, ascending powers
    for w in widths[1:]:
        q = np.zeros((2 * r + 4 * w, p.shape[1] + 1))  # cells -r-2w .. r+2w-1
        q[2 * w : 2 * w + 2 * r, 1:] = p / np.arange(1, p.shape[1] + 1)
        mass = q.sum(axis=1)
        for span in (2**i for i in range(w.bit_length())):  # 1, 2, ..., w: windows of 2 * span
            mass = mass[:-span] + mass[span:]
        r += w
        lo = np.arange(2 * r)  # the index in q of cell c - w, for the new cells c = -r .. r-1
        p = q[lo + 2 * w] - q[lo]
        p[:, 0] = mass[lo]
        p /= 2 * w
    table = np.zeros((len(widths), r + 1))
    table[:, :r] = p[r:, ::-1].T
    table.flags.writeable = False
    return table


class _Table(NamedTuple):
    """The exact kernel of a spec: its _box_table rows in units of its narrowest stage h, and
    whether the widths reach pi (image)."""

    rows: np.ndarray
    h: float
    image: bool

    def at(self, d: np.ndarray) -> np.ndarray:
        """The kernel at folded d, Horner's rule in the rows at u = d/h, plus at the image
        2*pi - d where the widths reach pi (the support's half-width is at most 2*pi, and below
        pi the image lies past it).  h is a normal float (_closed_form checks it), so u is
        finite, and u >= R reads the zero cell: 0.0.  A lone box reads 1/4, the mean of its
        one-sided limits, at its edge u = 1."""
        rows, h, image = self
        u = np.stack((d, 2.0 * np.pi - d)) / h if image else d / h
        cell = np.minimum(u, rows.shape[1] - 1).astype(np.intp)  # floor(u) on the support
        t = u - cell
        v, *lower = rows.take(cell, axis=1)  # every row's coefficients at u, in one gather
        for row in lower:
            v = v * t + row
        if len(rows) == 1:
            v = np.where(u == 1.0, 0.25, v)
        return (v[0] + v[1] if image else v) / h

    def grid(self, m: int) -> np.ndarray:
        """The kernel on theta_j = -pi + 2*pi*j/M: j <= M/2, folded, then mirrored."""
        return _mirror(self.at(_fold(_thetas(np.arange(m // 2 + 1), m))), m)


@functools.lru_cache(maxsize=256)
def _closed_form(spec: KernelSpec) -> _Table | None:
    """The _Table of the exact kernel for N = 1, 2 and scaled N <= 10, else None (N >= 1).

    In units of its narrowest stage h the stages are boxes of integer half-widths, one per
    stage, which key its _box_table.  h must be a normal float, so the values stay finite.
    Below that no engine serves the spec, so NonConvergenceError: the series has no K at
    N = 1, and at N >= 2 its K passes the second breakpoint, 1/h for equal stages and
    4/eps for scaled, above 1e305 wherever h is below the normal floats.
    """
    if spec.order > 2 and not (spec.variant == "scaled" and spec.order <= 10):
        return None
    groups = list(_stage_groups(spec))
    h = groups[-1][0]
    if h < sys.float_info.min:
        raise NonConvergenceError(
            f"{spec.variant} kernel (N={spec.order}): its narrowest stage, {h:.3g}, is below "
            "the normal floats: no table. No tail_tol or k_max can help: widen eps or change N.")
    rows = _box_table(tuple(int(a / h) for a, mult in reversed(groups) for _ in range(mult)))
    return _Table(rows, h, sum(a * mult for a, mult in groups) >= np.pi)  # mult <= 2: 2a is a + a


@functools.lru_cache(maxsize=256)
def _envelope_cutoff(spec: KernelSpec, deriv: int, tol: float) -> float:
    """Smallest K >= the (deriv+2)-th breakpoint with (1/pi) int_K^inf x^deriv e(x) dx <= tol.

    e(x) = prod_n min(1, 1/(x a_n)) bounds |m_k|, as |sinc(x)| <= min(1, 1/x).  Between
    breakpoints 1/a_n the integrand is c x^-(p+1), p = (stages past their breakpoint) - deriv - 1,
    so with p >= 1 on [K, inf) it decreases and its integral bounds the sum over k > K.  The
    breakpoints are the stage table's first 60 groups with a > 0 (dropping a stage, or a zero
    width's identity factor, only raises e), walked down from infinity in logs, and the crossing
    segment is solved in closed form.  inf when fewer than deriv + 2 stages are left.
    """
    table = itertools.islice(_stage_groups(spec), 60)
    groups = [(-math.log(a), mult) for a, mult in table if a > 0]
    n = sum(mult for _, mult in groups)
    if n < deriv + 2:
        return math.inf
    log_c = sum(mult * log_b for log_b, mult in groups)  # c = prod of the active breakpoints
    budget, frac, upper = math.pi * tol, 1.0, math.inf  # frac: share of budget left below upper
    for log_b, mult in reversed(groups):
        p = n - deriv - 1
        # on [x, e^upper] the integral is budget * share (x^-p - e^(-p upper)), share = c/(p budget)
        log_share = log_c - math.log(p * budget)
        hi = math.exp(min(log_share - p * log_b, 700.0))
        lo = math.exp(log_share - p * upper)
        if hi - lo >= frac or n - mult < deriv + 2:
            break
        frac -= hi - lo
        n, log_c, upper = n - mult, log_c - mult * log_b, log_b
    log_x = max((log_share - math.log(frac + lo)) / p, log_b)
    return math.ceil(math.exp(log_x)) if log_x < 709.0 else math.inf


def _cutoff(spec: KernelSpec, deriv: int, tol: float, k_max: int, radius: float = 1.0) -> int:
    """Smallest K with the rigorous tail bound (1/pi) sum_{k>K} |m_k| k^deriv r^k <= tol.

    The one rule is the envelope integral of _envelope_cutoff.  At a radius
    ratio r < 1 (deriv 0 only) |m_k| <= 1 also gives the geometric tail
    r^(K+1) / (pi (1 - r)), and the smaller K wins.
    Raises NonConvergenceError when no rule reaches tol within k_max, and says why if none can.
    """
    k_need = _envelope_cutoff(spec, deriv, tol)
    if radius < 1.0:
        # r^(K+1) <= budget; an inf budget gives K = 1, an underflowed one is taken in logs
        budget = math.pi * tol * (1.0 - radius)
        if budget > 0.0:
            log_budget = math.log(budget)
        else:
            log_budget = math.log(math.pi) + math.log(tol) + math.log1p(-radius)
        k_need = min(k_need, math.ceil(max(log_budget / math.log(radius), 1.0)))
    if k_need > k_max:
        where = f" at radius ratio {radius}" if radius < 1.0 else ""
        series = f"{spec.variant} kernel series (N={spec.order}, derivative order {deriv}){where}"
        if math.isinf(k_need):  # no tail_tol or k_max can help: say why
            n = sum(mult for a, mult in itertools.islice(_stage_groups(spec), 60) if a > 0)
            why = (f"it has {n} stage(s) of nonzero width and its tail rule needs {deriv + 2}"
                   if n < deriv + 2 else "its stages are too narrow for a K in the float range")
            raise NonConvergenceError(f"{series} has no finite cutoff: {why}. "
                                      "No tail_tol or k_max can help: widen eps or change N.")
        raise NonConvergenceError(
            f"{series} needs {k_need} harmonics to reach tail_tol={tol}; k_max={k_max}. "
            f"Loosen tail_tol or raise k_max."
        )
    return int(k_need)


class _Series(NamedTuple):
    """A kernel or derivative as the series const + (1/pi) * sum_k weights[k-1] trig(k theta),
    trig = cos or sin by parity, K = weights.size."""

    const: float
    parity: str
    weights: np.ndarray

    def at(self, d: np.ndarray) -> np.ndarray:
        """The values at angles d, by the power sum."""
        return self.const + _point_values(self.weights, d, self.parity) / np.pi

    def grid(self, m: int) -> np.ndarray:
        """The values on theta_j = -pi + 2*pi*j/M, by one FFT."""
        return self.const + _grid_values(self.weights, m, self.parity) / np.pi


def _plan(spec: KernelSpec, deriv: int, opts: EvalOptions, radius: float = 1.0):
    """The plan of the kernel's deriv-th derivative, with terms r^k at radius ratio r: a _Table
    or a _Series, each with at(d) and grid(M).

    Checks deriv >= 0 is an integer, order >= 1 at deriv 0 and r = 1 (order 0 is the
    delta kernel), and N >= deriv + 2 for absolute convergence.  At deriv 0 and r = 1, N <= 2
    and scaled N <= 10 read their box-spline table on the period (_closed_form, which refuses
    a narrowest stage below the normal floats).  Else K is the tail rule's and
    w_k = +-k^deriv m_k: d^n/dtheta^n cos(k theta) cycles -k^n sin, -k^n cos, +k^n sin,
    +k^n cos.
    """
    deriv = _resolution(deriv, 0, "derivative order")
    if deriv == 0 and spec.order < 1 and radius == 1.0:
        raise ValueError("kernel evaluation requires order >= 1 (order 0 is the delta kernel)")
    if deriv >= 1 and spec.order < deriv + 2:
        raise InsufficientOrderError(
            f"derivative of order {deriv} needs steps >= {deriv + 2}, got {spec.order}"
        )
    table = _closed_form(spec) if deriv == 0 and radius == 1.0 else None
    if table is not None:
        return table
    const = 1.0 / (2.0 * np.pi) if deriv == 0 else 0.0
    K = _cutoff(spec, deriv, opts.tail_tol, opts.k_max, radius)
    weights = _multipliers(spec, K)
    if deriv:
        k = np.arange(1, K + 1, dtype=float)
        weights = (1.0, -1.0, -1.0, 1.0)[deriv % 4] * k**deriv * weights
    # _Series(...) without the NamedTuple's generated __new__, which a scalar call would pay for
    return tuple.__new__(_Series, (const, PARITIES[deriv % 2], weights))


def kernel_eval(spec: KernelSpec, dtheta, opts: EvalOptions | None = None, deriv: int = 0):
    """The kernel (deriv = 0) or its deriv-th derivative at separation dtheta (scalar or array).

    Its plan (_plan) is the exact table (_Table) at deriv 0 for N <= 2 and
    for scaled N <= 10, or else the series (_Series), differentiated term by
    term (N >= deriv + 2), truncated where the rigorous tail bound drops below
    opts.tail_tol.  Order 0 is the delta kernel and is not evaluable pointwise.
    ValueError unless every angle is finite.
    """
    plan = _plan(spec, deriv, opts or DEFAULT_OPTIONS)
    return _pointwise(dtheta, lambda d: plan.at(_fold(d) if deriv == 0 else d))


def kernel_grid(
    spec: KernelSpec, resolution: int, opts: EvalOptions | None = None, deriv: int = 0
) -> np.ndarray:
    """The kernel (deriv = 0) or its deriv-th derivative on theta_j = -pi + 2*pi*j/M.

    Its plan (_plan) reads its table (_Table) on j <= M/2, mirrored, so
    exactly even, or else takes one FFT of the series (_Series) cut by the
    tail rule, at cost O(K + M log M) for any K, with v[M-j] == v[j] exactly
    (kernels, even derivatives) or v[M-j] == -v[j] (odd derivatives).
    """
    resolution = _resolution(resolution)
    return _plan(spec, deriv, opts or DEFAULT_OPTIONS).grid(resolution)


def kernel_integral(spec: KernelSpec, opts: EvalOptions | None = None) -> float:
    """Periodic trapezoid quadrature of the kernel over one period.

    The kernel is evaluated through its Fourier series truncated below the
    quadrature bandwidth (K = min(k_max, quad_resolution - 1)), so the
    quadrature is alias-free and measures the constant term exactly: every
    retained harmonic integrates to zero on the uniform periodic grid.
    """
    opts = opts or DEFAULT_OPTIONS
    if spec.order < 1:
        raise ValueError("kernel_integral requires order >= 1")
    m = opts.quad_resolution
    plan = _Series(1.0 / (2.0 * np.pi), "cosine", _multipliers(spec, min(opts.k_max, m - 1)))
    return float(plan.grid(m).sum() * (2.0 * np.pi / m))

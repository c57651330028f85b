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

in closed form for N = 1 (a box) and N = 2 (two boxes convolved).  For
scaled, m_k is the running product over the stages, never the algebraically
equal 2^(N(N+1)/2)/(k eps)^N prefactor form, which overflows already for
moderate N.

m_k depends only on the spec and k, so the kernel series (kernel_eval,
kernel_grid, scaled_kernel_derivative, disk.complex_kernel_eval) and
kernel_integral read m_1..m_K from a per-process table (_multipliers) of at
most 2 MiB, a quarter of it per spec, least recently used spec out first,
with the bits of a fresh filter_multiplier call; the tail rule is memoised
too.  Filtering a user's coefficients (apply_filter_coeffs) computes its
multipliers afresh.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import FilterRangeError, InsufficientOrderError, NonConvergenceError
from .series import (
    DEFAULT_OPTIONS,
    PARITIES,
    EvalOptions,
    HarmonicCoefficients,
    SampledSignal,
    _grid_values,
    _mirror,
    _point_values,
    theta_grid,
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
        if int(self.order) != self.order or self.order < 0:
            raise ValueError("order must be a non-negative integer")
        object.__setattr__(self, "order", int(self.order))
        eps = float(self.range_param)
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
    """A spec whose total range may exceed pi: its kernel is the series wrapped on the period.

    It has no compact support, so it has no closed form (_closed_form) and takes the series.
    """

    def _check_total_range(self) -> None:
        pass


def sinc(x):
    """sin(x)/x with a Taylor fallback 1 - x^2/6 for |x| < 1e-4 (x^4/120 is under half an ulp)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sinc argument must be finite")
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


def _stages(spec: KernelSpec) -> list[float]:
    """Half-widths a_1..a_N of the first-order passes composing the filter."""
    return [a for a, mult in _stage_groups(spec) for _ in range(mult)]


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
    karr = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(karr)):
        raise ValueError("harmonic index k must be finite")
    if np.any(karr < 1):
        raise ValueError("harmonic index k must be >= 1")
    flat = karr.ravel()
    order = None if np.all(flat[1:] >= flat[:-1]) else np.argsort(flat)
    if order is not None:
        flat = flat[order]
    out = np.ones_like(flat)
    lo = 0  # flat[:lo] has no factor left that differs from 1.0
    for a, mult in _stage_groups(spec):
        arg = flat[lo:] * a
        if arg.size and not np.isfinite(arg[-1]):
            raise ValueError("sinc argument must be finite")
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


def apply_filter_coeffs(coeffs: HarmonicCoefficients, spec: KernelSpec) -> HarmonicCoefficients:
    """Multiply every a_k by the filter's eigenvalue; parity and length kept."""
    if len(coeffs) == 0:
        return coeffs
    k = np.arange(1, len(coeffs) + 1)
    return HarmonicCoefficients(coeffs.parity, coeffs.coeffs * filter_multiplier(k, spec))


def _fractional_index(x: np.ndarray, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split angles into (whole periods, node index, in-cell fraction)."""
    h = 2.0 * np.pi / resolution
    t = (x + np.pi) / h
    wraps = np.floor(t / resolution)
    t = t - wraps * resolution
    # rounding in the reduction can leave t a hair outside [0, resolution)
    idx = np.clip(np.floor(t).astype(int), 0, resolution - 1)
    return wraps, idx, t - idx


def filter_direct(signal: SampledSignal, eps: float, opts: EvalOptions | None = None) -> SampledSignal:
    """Symmetric moving average (1/2eps) * integral over [theta-eps, theta+eps].

    The window integral is taken over the periodic linear interpolant of the
    grid values: cumulative trapezoid between nodes, exact fragment integrals
    at the two fractional endpoints, and an h^2/12 endpoint-slope correction
    (centered-difference slopes) that removes the trapezoid boundary error.
    The result is clipped to [min(signal), max(signal)], which the exact
    operator satisfies.
    """
    eps = float(eps)
    if not (0.0 < eps <= np.pi):
        raise ValueError("eps must lie in (0, pi]")
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
        wraps, i, frac = _fractional_index(x, m)
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


def _fold(dtheta) -> np.ndarray:
    """Reduce to [0, pi] using evenness first, so kernels are exactly even."""
    d = np.abs(np.asarray(dtheta, dtype=float))
    d = np.mod(d, 2.0 * np.pi)
    return np.where(d > np.pi, 2.0 * np.pi - d, d)


def _box_kernel(d: np.ndarray, half_width: float) -> np.ndarray:
    """First-order kernel: 1/(2a) inside, 0 outside, lateral-limit average at the edge."""
    a = half_width
    return np.where(d < a, 1.0 / (2.0 * a), np.where(d == a, 1.0 / (4.0 * a), 0.0))


def _two_box_kernel(d: np.ndarray, a: float, b: float) -> np.ndarray:
    """Convolution of boxes with half-widths a >= b: overlap / (4ab)."""
    overlap = np.minimum(d + b, a) - np.maximum(d - b, -a)
    return np.clip(overlap, 0.0, None) / (4.0 * a * b)


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
    Raises NonConvergenceError when no rule reaches tol within k_max.
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
        raise NonConvergenceError(
            f"{spec.variant} kernel series (N={spec.order}, derivative order {deriv}){where} needs "
            f"{k_need} harmonics to reach tail_tol={tol}; k_max={k_max}. "
            f"Loosen tail_tol or raise k_max."
        )
    return int(k_need)


def _kernel_series(
    spec: KernelSpec, deriv: int, opts: EvalOptions, radius: float = 1.0
) -> tuple[float, str, np.ndarray]:
    """The kernel's deriv-th derivative as c + (1/pi) * sum_k w_k trig(k theta).

    Returns (c, parity of trig, w) with K cut by the tail rule, for terms
    that also carry r^k when the radius ratio r is below 1.  The n-th
    derivative of cos(k theta) cycles through -k^n sin, -k^n cos, +k^n sin,
    +k^n cos, so w_k = +-k^deriv m_k on cos (even deriv) or sin (odd deriv).
    A derivative needs N >= deriv + 2 for its series to converge absolutely.
    """
    if deriv >= 1 and spec.order < deriv + 2:
        raise InsufficientOrderError(
            f"derivative of order {deriv} needs steps >= {deriv + 2}, got {spec.order}"
        )
    K = _cutoff(spec, deriv, opts.tail_tol, opts.k_max, radius)
    weights = _multipliers(spec, K)
    if deriv:
        k = np.arange(1, K + 1, dtype=float)
        weights = (1.0, -1.0, -1.0, 1.0)[deriv % 4] * k**deriv * weights
    return (1.0 / (2.0 * np.pi) if deriv == 0 else 0.0), PARITIES[deriv % 2], weights


def _closed_form(spec: KernelSpec, deriv: int, caller: str):
    """The one path choice: the exact kernel d -> K(d) on folded angles, or None for the series.

    Only N <= 2 at deriv 0 has one (a box, two boxes convolved), and not a _Periodised spec.
    Checks deriv >= 0 is an integer, and order >= 1 at deriv 0 (order 0 is the delta kernel).
    """
    if not isinstance(deriv, (int, np.integer)) or deriv < 0:
        raise ValueError(f"derivative order must be a non-negative integer, got {deriv!r}")
    if deriv == 0 and spec.order < 1:
        raise ValueError(f"{caller} requires order >= 1 (order 0 is the delta kernel)")
    if deriv or spec.order > 2 or isinstance(spec, _Periodised):
        return None
    stages = _stages(spec)
    return lambda d: (_box_kernel if spec.order == 1 else _two_box_kernel)(d, *stages)


def _kernel_points(spec: KernelSpec, dtheta, opts: EvalOptions | None, deriv: int):
    """The kernel (deriv 0, at dtheta folded to [0, pi]) or its deriv-th derivative at dtheta."""
    closed = _closed_form(spec, deriv, "kernel_eval")
    d = _fold(dtheta) if deriv == 0 else np.asarray(dtheta, dtype=float)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    if closed is not None:
        out = closed(d)
    else:
        const, parity, weights = _kernel_series(spec, deriv, opts or DEFAULT_OPTIONS)
        out = const + _point_values(weights, d, parity) / np.pi
    return float(out[0]) if scalar else out


def kernel_eval(spec: KernelSpec, dtheta, opts: EvalOptions | None = None):
    """Kernel value at separation dtheta (scalar or array).

    N = 1 and N = 2 use the exact closed forms (_closed_form); otherwise the
    Fourier series is summed, truncated where the rigorous tail bound drops
    below opts.tail_tol.  Order 0 is the identity's singular kernel and is
    not evaluable pointwise.
    """
    return _kernel_points(spec, dtheta, opts, 0)


def kernel_grid(
    spec: KernelSpec, resolution: int, opts: EvalOptions | None = None, deriv: int = 0
) -> np.ndarray:
    """The kernel (deriv = 0) or its deriv-th derivative on theta_j = -pi + 2*pi*j/M.

    A closed form (_closed_form) is taken on j <= M/2 and mirrored, so it is
    exactly even; else one FFT sums the series cut by the tail rule, at cost
    O(K + M log M) for any K, with v[M-j] == v[j] exactly (kernels, even
    derivatives) or v[M-j] == -v[j] (odd derivatives).
    """
    opts = opts or DEFAULT_OPTIONS
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    closed = _closed_form(spec, deriv, "kernel_grid")
    if closed is not None:
        return _mirror(closed(_fold(theta_grid(resolution)[: resolution // 2 + 1])), resolution)
    const, parity, weights = _kernel_series(spec, deriv, opts)
    return const + _grid_values(weights, resolution, parity) / np.pi


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
    mult = _multipliers(spec, min(opts.k_max, m - 1))
    values = 1.0 / (2.0 * np.pi) + _grid_values(mult, m, "cosine") / np.pi
    return float(values.sum() * (2.0 * np.pi / m))

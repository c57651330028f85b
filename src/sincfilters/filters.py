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

A variant is only its data: the half-widths a_1..a_N of its stages, the
multiplier m_k = prod_n sinc(k a_n) on the k-th harmonic, and its envelope
|m_k| <= prod_n min(1, 1/(k a_n)), whose integral is the one tail rule (_cutoff).
The kernel of every variant is

    1/(2*pi) + (1/pi) * sum_k m_k cos(k dtheta),

in closed form for N = 1 (a box) and N = 2 (two boxes convolved).  For
scaled, m_k is the running product over the stages, never the algebraically
equal 2^(N(N+1)/2)/(k eps)^N prefactor form, which overflows already for
moderate N.
"""

from __future__ import annotations

import math
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

    It has no compact support, so only the series path (_series_kernel) applies.
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


def stage_range(spec: KernelSpec) -> float:
    """Range of each first-order pass making up the order-N filter."""
    if spec.order == 0:
        return 0.0
    if spec.variant == "naive":
        return spec.range_param
    if spec.variant == "fixed":
        return spec.range_param / spec.order
    if spec.variant == "gaussian":
        return spec.range_param / math.sqrt(spec.order)
    # scaled: the stages differ; the widest is eps/2
    return spec.range_param / 2.0


def _stages(spec: KernelSpec) -> list[float]:
    """Half-widths a_1..a_N of the first-order passes composing the filter."""
    if spec.variant == "scaled":
        return [spec.range_param / 2.0**n for n in range(1, spec.order + 1)]
    return [stage_range(spec)] * spec.order


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
    """Eigenvalue of the order-N filter on the k-th harmonic.

    naive: sinc(k eps)^N; fixed: sinc(k eps/N)^N; gaussian: sinc(k eps/sqrt N)^N;
    scaled: prod_{n=1..N} sinc(k eps / 2^n) as a running product in stage order.
    With k ascending, each stage's arguments k a_n ascend too, so sinc's
    Taylor and sin(x)/x branches are two slices; the factors below them
    (k a_n < _NEGLIGIBLE_ARG) are exactly 1.0 and are skipped, and as the
    stages shrink the product stops at the first stage with none left.
    N = 0 is the identity (1).
    """
    karr = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(karr)):
        raise ValueError("harmonic index k must be finite")
    if np.any(karr < 1):
        raise ValueError("harmonic index k must be >= 1")
    if spec.variant != "scaled":
        out = sinc(karr * stage_range(spec)) ** spec.order
        return float(out) if karr.ndim == 0 else out
    flat = karr.ravel()
    order = None if np.all(flat[1:] >= flat[:-1]) else np.argsort(flat)
    if order is not None:
        flat = flat[order]
    out = np.ones_like(flat)
    lo = 0  # flat[:lo] has no factor left that differs from 1.0
    for a in _stages(spec):
        arg = flat[lo:] * a
        if arg.size and not np.isfinite(arg[-1]):
            raise ValueError("sinc argument must be finite")
        skip, cut = np.searchsorted(arg, (_NEGLIGIBLE_ARG, _SINC_TAYLOR_CUT))
        if skip == arg.size:
            break
        out[lo + skip : lo + cut] *= _sinc_taylor(arg[skip:cut])
        out[lo + cut :] *= np.sin(arg[cut:]) / arg[cut:]
        lo += skip
    if order is not None:
        out[order] = out.copy()  # back to the caller's order of k
    return float(out[0]) if karr.ndim == 0 else out.reshape(karr.shape)


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


def _envelope_cutoff(spec: KernelSpec, deriv: int, tol: float) -> float:
    """Smallest K >= the (deriv+2)-th breakpoint with (1/pi) int_K^inf x^deriv e(x) dx <= tol.

    e(x) = prod_n min(1, 1/(x a_n)) bounds |m_k|, as |sinc(x)| <= min(1, 1/x).  Between
    breakpoints 1/a_n the integrand is c x^-(p+1), p = (stages past their breakpoint) - deriv - 1,
    so with p >= 1 on [K, inf) it decreases and its integral bounds the sum over k > K.  The
    breakpoints are walked down from infinity in logs and the crossing segment is solved in
    closed form.  Equal stages are one breakpoint of multiplicity N; scaled stages past the
    60th are dropped, which only raises e.  inf when fewer than deriv + 2 stages exist.
    """
    n = min(spec.order, 60) if spec.variant == "scaled" else spec.order
    if n < deriv + 2:
        return math.inf
    if spec.variant == "scaled":
        log_eps = math.log(spec.range_param)
        groups = [(j * math.log(2.0) - log_eps, 1) for j in range(1, n + 1)]
    else:
        groups = [(-math.log(stage_range(spec)), n)]
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
        k_geo = math.ceil(math.log(math.pi * tol * (1.0 - radius)) / math.log(radius))
        k_need = min(k_need, max(k_geo, 1))
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
    k = np.arange(1, _cutoff(spec, deriv, opts.tail_tol, opts.k_max, radius) + 1, dtype=float)
    weights = filter_multiplier(k, spec)
    if deriv:
        weights = (1.0, -1.0, -1.0, 1.0)[deriv % 4] * k**deriv * weights
    return (1.0 / (2.0 * np.pi) if deriv == 0 else 0.0), PARITIES[deriv % 2], weights


def _series_kernel(
    spec: KernelSpec, d: np.ndarray, opts: EvalOptions, deriv: int = 0
) -> np.ndarray:
    """The kernel's (deriv-th derivative's) Fourier series at angles d, summed directly."""
    const, parity, weights = _kernel_series(spec, deriv, opts)
    return const + _point_values(weights, d, parity) / np.pi


def kernel_eval(spec: KernelSpec, dtheta, opts: EvalOptions | None = None):
    """Kernel value at separation dtheta (scalar or array).

    N = 1 and N = 2 use the exact closed forms (box of the first stage;
    convolution of the first two stages' boxes); N >= 3 sums the Fourier
    series, truncated where the rigorous tail bound drops below
    opts.tail_tol.  Order 0 is the identity's singular kernel and is not
    evaluable pointwise.
    """
    opts = opts or DEFAULT_OPTIONS
    if spec.order < 1:
        raise ValueError("kernel_eval requires order >= 1 (order 0 is the delta kernel)")
    d = _fold(dtheta)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    if spec.order == 1:
        out = _box_kernel(d, *_stages(spec))
    elif spec.order == 2:
        out = _two_box_kernel(d, *_stages(spec))
    else:
        out = _series_kernel(spec, d, opts)
    return float(out[0]) if scalar else out


def kernel_grid(
    spec: KernelSpec, resolution: int, opts: EvalOptions | None = None, deriv: int = 0
) -> np.ndarray:
    """The kernel (deriv = 0) or its deriv-th derivative on theta_j = -pi + 2*pi*j/M.

    At deriv 0, N = 1 and N = 2 use kernel_eval's exact closed forms on
    j <= M/2, mirrored to the rest so the kernel is exactly even; every
    other case sums the Fourier series cut by the rigorous tail rule with one
    FFT, so the cost is O(K + M log M) for any K, and the values satisfy
    v[M-j] == v[j] exactly (kernels, even derivatives) or v[M-j] == -v[j]
    (odd derivatives).  A spec whose total range exceeds pi
    (filters._Periodised) always takes the series.
    """
    opts = opts or DEFAULT_OPTIONS
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if deriv < 0:
        raise ValueError("derivative order must be >= 0")
    if deriv == 0 and spec.order < 1:
        raise ValueError("kernel_grid requires order >= 1 (order 0 is the delta kernel)")
    if deriv == 0 and spec.order <= 2 and not isinstance(spec, _Periodised):
        half = theta_grid(resolution)[: resolution // 2 + 1]
        return _mirror(kernel_eval(spec, half, opts), resolution)
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
    mult = filter_multiplier(np.arange(1, min(opts.k_max, m - 1) + 1), spec)
    values = 1.0 / (2.0 * np.pi) + _grid_values(mult, m, "cosine") / np.pi
    return float(values.sum() * (2.0 * np.pi / m))

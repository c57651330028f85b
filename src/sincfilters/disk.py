"""Inner analytic functions on the unit disk and the filter's disk realization.

An inner analytic function is determined by real Taylor coefficients a_k,
k >= 1 (no constant term, w(0) = 0): w(z) = sum a_k z^k.  On a circle of
radius rho its real and imaginary parts are the cosine and sine series with
amplitudes a_k rho^k, so the first-order filter acts here as the average of
w over the arc of angular half-length eps at constant rho: a_k -> sinc(k eps) a_k.
Every order is that map in coefficient space, with the multipliers m_k of the
filters' table, so the disk filter is the Taylor sum of a_k m_k.  The paper's
realization through logarithmic primitives at rotated points is the same
function, but its sum cancels at small eps or high order, and only the tests
compute it.

Every value is one Taylor sum sum_k a_k exp(k x) by the power sum that also sums
both real sides off the grid: at x = log rho + i theta on a circle, so at rho = 1
it is eval_series' cosine + i sine bit for bit, and at x = log z on a segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import KernelSpec, _filtered, _plan
from .series import (
    DEFAULT_OPTIONS,
    EvalOptions,
    _finite,
    _finite_vector,
    _load_json,
    _power_sum,
    _save_json,
)

__all__ = [
    "InnerAnalytic",
    "DiskPoint",
    "eval_inner",
    "log_derivative",
    "log_primitive",
    "complex_filter_coeffs",
    "complex_filter_eval",
    "complex_filter_order_n",
    "complex_kernel_eval",
    "segment_filter",
    "save_inner",
    "load_inner",
]


@dataclass(frozen=True)
class InnerAnalytic:
    """Real Taylor coefficients a_k, k >= 1; the k=0 slot is absent (w(0)=0)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _finite_vector(self.coeffs))

    def __len__(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class DiskPoint:
    """Polar point rho * exp(i theta) as two floats; rho < 1 strictly for interior evaluation."""

    rho: float
    theta: float

    def __post_init__(self) -> None:
        message = "rho and theta must be finite"
        object.__setattr__(self, "theta", float(_finite(self.theta, message)))
        object.__setattr__(self, "rho", float(_finite(self.rho, message)))
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")


def _taylor_sum(coeffs: np.ndarray, z: np.ndarray, k_max: int) -> np.ndarray:
    """sum_k a_k z^k, k <= k_max, at an array of complex points, as exp(k log z) with 0^k = 0."""
    zero = z == 0
    log_z = np.log(np.where(zero, 1.0, z))
    return np.where(zero, 0.0, _power_sum(coeffs[:k_max], log_z))


def _on_circle(coeffs: np.ndarray, p: DiskPoint, opts: EvalOptions | None) -> complex:
    """sum_k a_k z^k at z = rho exp(i theta), rho <= 1, by x = log z, whose imaginary part
    theta + 0.0 is never -0.0."""
    if p.rho > 1.0:
        raise ValueError(f"radius out of range: rho = {p.rho} > 1")
    if p.rho == 0.0:  # w(0) = 0
        return 0j
    x = np.array([complex(math.log(p.rho), p.theta + 0.0)])
    return complex(_power_sum(coeffs[: (opts or DEFAULT_OPTIONS).k_max], x)[0])


def eval_inner(w: InnerAnalytic, p: DiskPoint, opts: EvalOptions | None = None) -> complex:
    """w at rho*exp(i theta): real part is the cosine side, imag the sine side.

    Stored coefficient sequences are finite, hence trigonometric polynomials;
    rho = 1 is therefore always evaluable here.  Whether a rho = 1 value is
    meaningful for a truncation of a non-absolutely-convergent series is the
    caller's concern.  rho > 1 is outside the function's domain.
    """
    return _on_circle(w.coeffs, p, opts)


def log_derivative(w: InnerAnalytic) -> InnerAnalytic:
    """z d/dz in coefficient space: a_k -> k a_k."""
    k = np.arange(1, len(w) + 1, dtype=float)
    return InnerAnalytic(w.coeffs * k)


def log_primitive(w: InnerAnalytic) -> InnerAnalytic:
    """Integral of w(z')/z' from 0 to z in coefficient space: a_k -> a_k / k."""
    k = np.arange(1, len(w) + 1, dtype=float)
    return InnerAnalytic(w.coeffs / k)


def complex_filter_coeffs(w: InnerAnalytic, eps: float) -> InnerAnalytic:
    """First-order filtered coefficients a_k -> sinc(k eps) a_k, eps in (0, pi], as m_k of
    KernelSpec(1, eps, "naive") from the multiplier table that apply_filter_coeffs reads."""
    return InnerAnalytic(_filtered(w.coeffs, KernelSpec(1, eps, "naive")))


def complex_filter_eval(
    w: InnerAnalytic, eps: float, p: DiskPoint, opts: EvalOptions | None = None
) -> complex:
    """First-order filter at p: the series of complex_filter_coeffs(w, eps) summed at p, so it
    is eval_inner(complex_filter_coeffs(w, eps), p, opts) bit for bit.  The paper writes it
    through the logarithmic primitive W as -(i/2eps) [W(z e^{i eps}) - W(z e^{-i eps})]."""
    return _on_circle(_filtered(w.coeffs, KernelSpec(1, eps, "naive")), p, opts)


def complex_filter_order_n(
    w: InnerAnalytic, eps: float, order: int, p: DiskPoint, opts: EvalOptions | None = None
) -> complex:
    """Order-N filter with range eps at p: a_k sinc(k eps/N)^N, the multipliers of
    KernelSpec(N, eps, "fixed") from the multiplier table, summed at p as eval_inner sums.

    The spec checks (N, eps); N = 0 is eval_inner.  The paper writes the filter as the
    binomial superposition of N-th logarithmic primitives at the N+1 rotated points
    z e^{i(1-2n/N)eps}, scaled by (N/2eps)^N; that sum cancels as the prefactor grows, so
    it is a test of this function, not its engine.
    """
    return _on_circle(_filtered(w.coeffs, KernelSpec(order, eps, "fixed")), p, opts)


def complex_kernel_eval(
    spec: KernelSpec,
    p: DiskPoint,
    rho1: float,
    theta1: float,
    opts: EvalOptions | None = None,
) -> complex:
    """Complex kernel 1/(2pi) + (1/pi) sum_k m_k (z/z1)^k for rho < rho1 <= 1.

    Its real part converges to the real kernel at separation theta - theta1
    as rho -> rho1; at z = 0 the value is exactly 1/(2pi).  It is the inner
    function with coefficients m_k at z/z1, K cut by the tail rule at rho/rho1.
    """
    opts = opts or DEFAULT_OPTIONS
    rho1 = float(_finite(rho1, "rho1 must lie in (0, 1]"))
    if not (0.0 < rho1 <= 1.0):
        raise ValueError("rho1 must lie in (0, 1]")
    message = "rho and theta must be finite"
    theta1 = float(_finite(theta1, message))
    if p.rho >= rho1:
        raise ValueError(f"radius ordering violated: need rho < rho1, got {p.rho} >= {rho1}")
    r = p.rho / rho1
    if r == 0.0:
        return complex(1.0 / (2.0 * np.pi))
    plan = _plan(spec, 0, opts, "complex_kernel_eval", radius=r)
    angle = _finite(p.theta - theta1, message)  # two finite angles can be 3.4e308 apart
    x = np.array([complex(math.log(r), angle + 0.0)])  # + 0.0 sums -0.0 as _on_circle does
    return plan.const + complex(_power_sum(plan.weights, x)[0]) / np.pi


def segment_filter(
    w: InnerAnalytic,
    z_center: complex,
    half_length: float,
    alpha: float,
    opts: EvalOptions | None = None,
) -> complex:
    """Average of w along the straight segment z_center + lambda e^{i alpha},
    |lambda| <= half_length, as the exact primitive difference
    (P(z_+) - P(z_-)) / (z_+ - z_-), P(z) = sum_k a_k z^(k+1)/(k+1), k <= k_max.

    The whole segment must lie inside the open unit disk; a segment's maximum
    modulus is attained at an endpoint.  The difference cancels on short
    segments: its rounding error, from P and from rounding the endpoints,
    is about 2^-52 * sum_k |a_k| R^(k+1) / half_length, with R the larger
    endpoint modulus.
    """
    opts = opts or DEFAULT_OPTIONS
    message = "z_center, half_length and alpha must be finite"
    z_center = _finite(z_center, message, complex)
    half_length, alpha = float(_finite(half_length, message)), float(_finite(alpha, message))
    if half_length <= 0.0:
        raise ValueError("half_length must be positive")
    direction = np.exp(1j * alpha)
    ends = np.array([z_center + half_length * direction, z_center - half_length * direction])
    if np.abs(ends).max() >= 1.0:
        raise ValueError("segment escapes the open unit disk")
    k = np.arange(1, len(w) + 1, dtype=float)
    prim = ends * _taylor_sum(w.coeffs / (k + 1.0), ends, opts.k_max)
    return complex((prim[0] - prim[1]) / (2.0 * half_length * direction))


def save_inner(w: InnerAnalytic, path) -> None:
    """Write {"coeffs": [...]} JSON."""
    _save_json(path, {"coeffs": w.coeffs.tolist()})


def load_inner(path) -> InnerAnalytic:
    return InnerAnalytic(*_load_json(path, "coeffs"))

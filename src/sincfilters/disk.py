"""Inner analytic functions on the unit disk and the filter's disk realization.

An inner analytic function is determined by real Taylor coefficients a_k,
k >= 1 (no constant term, w(0) = 0): w(z) = sum a_k z^k.  On a circle of
radius rho its real and imaginary parts are the cosine and sine series with
amplitudes a_k rho^k, so the first-order filter acts here as the average of
w over the arc of angular half-length eps at constant rho, realized through
the logarithmic primitive (coefficients a_k / k) evaluated at the rotated
points z*exp(+i eps) and z*exp(-i eps).

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
    _coefficient_array,
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

_MAX_EXACT_BINOMIAL_ORDER = 20


@dataclass(frozen=True)
class InnerAnalytic:
    """Real Taylor coefficients a_k, k >= 1; the k=0 slot is absent (w(0)=0)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _coefficient_array(self.coeffs))

    def __len__(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class DiskPoint:
    """Polar point rho * exp(i theta); rho < 1 strictly for interior evaluation."""

    rho: float
    theta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.rho) and np.isfinite(self.theta)):
            raise ValueError("rho and theta must be finite")
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")


def _taylor_sum(coeffs: np.ndarray, z: np.ndarray, k_max: int) -> np.ndarray:
    """sum_k a_k z^k, k <= k_max, at an array of complex points, as exp(k log z) with 0^k = 0."""
    zero = z == 0
    log_z = np.log(np.where(zero, 1.0, z))
    return np.where(zero, 0.0, _power_sum(coeffs[:k_max], log_z))


def _on_circle(coeffs: np.ndarray, p: DiskPoint, angles, opts: EvalOptions | None) -> np.ndarray:
    """sum_k a_k z^k at z = rho exp(i (theta + angle)) for each angle, rho <= 1, by x = log z."""
    if p.rho > 1.0:
        raise ValueError(f"radius out of range: rho = {p.rho} > 1")
    if p.rho == 0.0:  # w(0) = 0
        return np.zeros(np.shape(angles), dtype=complex)
    x = math.log(p.rho) + 1j * (p.theta + np.asarray(angles, dtype=float))
    return _power_sum(coeffs[: (opts or DEFAULT_OPTIONS).k_max], x)


def eval_inner(w: InnerAnalytic, p: DiskPoint, opts: EvalOptions | None = None) -> complex:
    """w at rho*exp(i theta): real part is the cosine side, imag the sine side.

    Stored coefficient sequences are finite, hence trigonometric polynomials;
    rho = 1 is therefore always evaluable here.  Whether a rho = 1 value is
    meaningful for a truncation of a non-absolutely-convergent series is the
    caller's concern.  rho > 1 is outside the function's domain.
    """
    return complex(_on_circle(w.coeffs, p, [0.0], opts)[0])


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
    """First-order filter through the logarithmic primitive.

    -(i/2eps) [W(z e^{i eps}) - W(z e^{-i eps})] with W the log primitive;
    equals eval_inner(complex_filter_coeffs(w, eps), p).
    """
    return complex_filter_order_n(w, eps, 1, p, opts)


def complex_filter_order_n(
    w: InnerAnalytic, eps: float, order: int, p: DiskPoint, opts: EvalOptions | None = None
) -> complex:
    """Order-N filter with range eps as the binomial superposition of N-th
    logarithmic primitives at the N+1 rotated points z e^{i(1-2n/N)eps}.

    It is the disk realization of KernelSpec(N, eps, "fixed"), whose
    multipliers sinc(k eps/N)^N it applies, and that spec checks (N, eps).
    Exact integer binomials; refused beyond N = 20 where the (N/2eps)^N
    prefactor makes the superposition numerically meaningless (the
    coefficient-space path is authoritative there).
    """
    spec = KernelSpec(order, eps, "fixed")
    order, eps = spec.order, spec.range_param
    if order > _MAX_EXACT_BINOMIAL_ORDER:
        raise ValueError(
            f"binomial superposition is ill-conditioned beyond N={_MAX_EXACT_BINOMIAL_ORDER}; "
            f"use complex_filter_coeffs / filter_multiplier instead"
        )
    if order == 0:
        return eval_inner(w, p, opts)
    k = np.arange(1, len(w) + 1, dtype=float)
    n = np.arange(order + 1)
    values = _on_circle(w.coeffs / k**order, p, (1.0 - 2.0 * n / order) * eps, opts)
    binomials = np.array([(-1) ** j * math.comb(order, j) for j in n], dtype=float)
    return (-1j * order / (2.0 * eps)) ** order * complex(binomials @ values)


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
    rho1 = float(rho1)
    if not (0.0 < rho1 <= 1.0):
        raise ValueError("rho1 must lie in (0, 1]")
    if p.rho >= rho1:
        raise ValueError(f"radius ordering violated: need rho < rho1, got {p.rho} >= {rho1}")
    r = p.rho / rho1
    if r == 0.0:
        return complex(1.0 / (2.0 * np.pi))
    plan = _plan(spec, 0, opts, "complex_kernel_eval", radius=r)
    value = _on_circle(plan.weights, DiskPoint(r, p.theta - theta1), [0.0], opts)[0]
    return plan.const + complex(value) / np.pi


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
    half_length, alpha = float(half_length), float(alpha)
    if not np.isfinite([z_center, half_length, alpha]).all():
        raise ValueError("z_center, half_length and alpha must be finite")
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

"""Inner analytic functions on the unit disk and the filter's disk realization.

An inner analytic function is determined by real Taylor coefficients a_k,
k >= 1 (no constant term, w(0) = 0): w(z) = sum a_k z^k.  On a circle of
radius rho its real and imaginary parts are the cosine and sine series with
amplitudes a_k rho^k, so the first-order filter acts here as the average of
w over the arc of angular half-length eps at constant rho, realized through
the logarithmic primitive (coefficients a_k / k) evaluated at the rotated
points z*exp(+i eps) and z*exp(-i eps).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .filters import KernelSpec, _cutoff, filter_multiplier, sinc
from .series import DEFAULT_OPTIONS, EvalOptions, _chunk_sums

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
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1:
            raise ValueError("coeffs must be a one-dimensional real sequence")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must all be finite")
        object.__setattr__(self, "coeffs", arr)

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
    """sum_k a_k z^k, k <= k_max, for an array of complex points."""
    return sum(_chunk_sums(coeffs[:k_max], z, np.power.outer), np.zeros(z.shape, dtype=complex))


def eval_inner(w: InnerAnalytic, p: DiskPoint, opts: EvalOptions | None = None) -> complex:
    """w at rho*exp(i theta): real part is the cosine side, imag the sine side.

    Stored coefficient sequences are finite, hence trigonometric polynomials;
    rho = 1 is therefore always evaluable here.  Whether a rho = 1 value is
    meaningful for a truncation of a non-absolutely-convergent series is the
    caller's concern.  rho > 1 is outside the function's domain.
    """
    opts = opts or DEFAULT_OPTIONS
    if p.rho > 1.0:
        raise ValueError(f"radius out of range: rho = {p.rho} > 1")
    z = np.asarray(p.rho * np.exp(1j * p.theta))
    return complex(_taylor_sum(w.coeffs, z.reshape(1), opts.k_max)[0])


def log_derivative(w: InnerAnalytic) -> InnerAnalytic:
    """z d/dz in coefficient space: a_k -> k a_k."""
    k = np.arange(1, len(w) + 1, dtype=float)
    return InnerAnalytic(w.coeffs * k)


def log_primitive(w: InnerAnalytic) -> InnerAnalytic:
    """Integral of w(z')/z' from 0 to z in coefficient space: a_k -> a_k / k."""
    k = np.arange(1, len(w) + 1, dtype=float)
    return InnerAnalytic(w.coeffs / k)


def complex_filter_coeffs(w: InnerAnalytic, eps: float) -> InnerAnalytic:
    """First-order filtered coefficients a_k -> sinc(k eps) a_k."""
    eps = float(eps)
    if not (0.0 < eps <= np.pi):
        raise ValueError("eps must lie in (0, pi]")
    if len(w) == 0:
        return w
    k = np.arange(1, len(w) + 1, dtype=float)
    return InnerAnalytic(w.coeffs * sinc(k * eps))


def complex_filter_eval(
    w: InnerAnalytic, eps: float, p: DiskPoint, opts: EvalOptions | None = None
) -> complex:
    """First-order filter through the logarithmic primitive.

    -(i/2eps) [W(z e^{i eps}) - W(z e^{-i eps})] with W the log primitive;
    equals eval_inner(complex_filter_coeffs(w, eps), p).
    """
    eps = float(eps)
    if not (0.0 < eps <= np.pi):
        raise ValueError("eps must lie in (0, pi]")
    prim = log_primitive(w)
    plus = eval_inner(prim, DiskPoint(p.rho, p.theta + eps), opts)
    minus = eval_inner(prim, DiskPoint(p.rho, p.theta - eps), opts)
    return -1j / (2.0 * eps) * (plus - minus)


def complex_filter_order_n(
    w: InnerAnalytic, eps: float, order: int, p: DiskPoint, opts: EvalOptions | None = None
) -> complex:
    """Order-N filter with range eps as the binomial superposition of N-th
    logarithmic primitives at the N+1 rotated points z e^{i(1-2n/N)eps}.

    Exact integer binomials; refused beyond N = 20 where the (N/2eps)^N
    prefactor makes the superposition numerically meaningless (the
    coefficient-space path is authoritative there).
    """
    eps = float(eps)
    if not (0.0 < eps <= np.pi):
        raise ValueError("eps must lie in (0, pi]")
    if int(order) != order or order < 0:
        raise ValueError("order must be a non-negative integer")
    if order > _MAX_EXACT_BINOMIAL_ORDER:
        raise ValueError(
            f"binomial superposition is ill-conditioned beyond N={_MAX_EXACT_BINOMIAL_ORDER}; "
            f"use complex_filter_coeffs / filter_multiplier instead"
        )
    if order == 0:
        return eval_inner(w, p, opts)
    k = np.arange(1, len(w) + 1, dtype=float)
    prim = InnerAnalytic(w.coeffs / k**order)
    total = 0.0 + 0.0j
    for n in range(order + 1):
        point = DiskPoint(p.rho, p.theta + (1.0 - 2.0 * n / order) * eps)
        total += (-1) ** n * math.comb(order, n) * eval_inner(prim, point, opts)
    return (-1j * order / (2.0 * eps)) ** order * total


def complex_kernel_eval(
    spec: KernelSpec,
    p: DiskPoint,
    rho1: float,
    theta1: float,
    opts: EvalOptions | None = None,
) -> complex:
    """Complex kernel 1/(2pi) + (1/pi) sum_k m_k (z/z1)^k for rho < rho1 <= 1.

    Its real part converges to the real kernel at separation theta - theta1
    as rho -> rho1; at z = 0 the value is exactly 1/(2pi).
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
    # |m_k| <= 1 gives the geometric tail r^(K+1)/(1-r); the multiplier decay
    # bound (independent of r < 1) can be far smaller near the boundary.
    k_need = int(math.ceil(math.log(math.pi * opts.tail_tol * (1.0 - r)) / math.log(r)))
    if spec.order >= (3 if spec.variant == "scaled" else 2):
        try:
            k_need = min(k_need, _cutoff(spec, 0, opts.tail_tol, 2**62))
        except NonConvergenceError:
            pass
    if k_need > opts.k_max:
        raise NonConvergenceError(
            f"complex kernel needs {k_need} terms at radius ratio {r}; k_max={opts.k_max}"
        )
    k = np.arange(1, max(k_need, 1) + 1)
    mult = filter_multiplier(k, spec)
    ratio = r * np.exp(1j * (p.theta - theta1))
    return complex(1.0 / (2.0 * np.pi) + (mult @ ratio**k) / np.pi)


def segment_filter(
    w: InnerAnalytic,
    z_center: complex,
    half_length: float,
    alpha: float,
    opts: EvalOptions | None = None,
) -> complex:
    """Average of w along the straight segment z_center + lambda e^{i alpha},
    |lambda| <= half_length, by composite trapezoid over lambda.

    The whole segment must lie inside the open unit disk; a segment's maximum
    modulus is attained at an endpoint.
    """
    opts = opts or DEFAULT_OPTIONS
    half_length = float(half_length)
    if half_length <= 0.0:
        raise ValueError("half_length must be positive")
    direction = np.exp(1j * float(alpha))
    ends = (z_center + half_length * direction, z_center - half_length * direction)
    if max(abs(ends[0]), abs(ends[1])) >= 1.0:
        raise ValueError("segment escapes the open unit disk")
    n = opts.quad_resolution
    lam = np.linspace(-half_length, half_length, n + 1)
    values = _taylor_sum(w.coeffs, z_center + lam * direction, opts.k_max)
    weights = np.full(n + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    h = 2.0 * half_length / n
    return complex((weights @ values) * h / (2.0 * half_length))


def save_inner(w: InnerAnalytic, path) -> None:
    """Write {"coeffs": [...]} JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"coeffs": w.coeffs.tolist()}, fh)
        fh.write("\n")


def load_inner(path) -> InnerAnalytic:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return InnerAnalytic(np.asarray(obj["coeffs"], dtype=float))

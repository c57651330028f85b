"""The infinite-order scaled kernel and its finite-step construction.

The scaled filter composes first-order passes with ranges eps/2, eps/4, ...,
eps/2^N, so the stages' supports never overlap at a point and the pointwise
limit N -> infinity is a compactly supported C-infinity bump.  The kernel
itself is KernelSpec(N, eps, "scaled") of the filters module; this module
keeps the construction's derivative and special points, plus the scaled-
kernel names of the general functions.  "Infinite order" is operationalized
as N = 100 by default throughout the CLI and tests.
"""

from __future__ import annotations

from .filters import KernelSpec, apply_filter_coeffs, filter_multiplier, kernel_eval, total_range
from .series import EvalOptions

__all__ = [
    "ScaledKernelParams",
    "scaled_coefficient",
    "effective_range",
    "scaled_kernel_eval",
    "apply_scaled_filter",
    "scaled_kernel_derivative",
    "invariant_points",
    "zero_derivative_points",
]

scaled_coefficient = filter_multiplier
effective_range = total_range
scaled_kernel_eval = kernel_eval
apply_scaled_filter = apply_filter_coeffs


def ScaledKernelParams(eps: float, steps: int) -> KernelSpec:  # noqa: N802 (public name in use)
    """The scaled kernel with final range eps in (0, pi) after steps >= 0 stages."""
    return KernelSpec(steps, eps, "scaled")


def scaled_kernel_derivative(
    params: KernelSpec, order: int, dtheta, opts: EvalOptions | None = None
):
    """kernel_eval(params, dtheta, opts, order), with its arguments in the scaled order:
    the term-wise order-th derivative of the Fourier series of the kernel params.

    Requires steps >= order + 2 so the differentiated series is absolutely
    convergent.  For the scaled kernel it satisfies the half-scale identity
    d/dtheta K(eps, N) = (1/eps) [K(eps/2, N-1)(theta + eps/2)
                                  - K(eps/2, N-1)(theta - eps/2)].
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    return kernel_eval(params, dtheta, opts, order)


def invariant_points(eps: float) -> list[tuple[float, float]]:
    """The five (theta, value) pairs fixed by every construction stage, eps in (0, pi)."""
    eps = ScaledKernelParams(eps, 0).range_param
    return [
        (-eps, 0.0),
        (-eps / 2.0, 1.0 / (2.0 * eps)),
        (0.0, 1.0 / eps),
        (eps / 2.0, 1.0 / (2.0 * eps)),
        (eps, 0.0),
    ]


def zero_derivative_points(eps: float, n: int) -> list[float]:
    """Points where every derivative of order >= n vanishes: 2^n + 1 of them.

    n = 0 gives the two support ends; n >= 1 gives the regular grid
    m * eps / 2^(n-1), m = -2^(n-1) .. 2^(n-1), for eps in (0, pi).
    """
    params = ScaledKernelParams(eps, n)  # eps in (0, pi), n a non-negative integer
    eps, n = params.range_param, params.order
    if n == 0:
        return [-eps, eps]
    half = 2 ** (n - 1)
    return [m * eps / half for m in range(-half, half + 1)]

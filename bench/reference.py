"""Independent references for the benchmark's output verifier.

Nothing here calls into sincfilters.  Multipliers are rebuilt from their
definitions with numpy's sin, series are summed with math.fsum, and the
number of harmonics a reference needs comes from this module's own
envelope bounds.  Every reference returns (value, tolerance); the tolerance
is the requested tail bound plus the reference's own tail bound plus a
stated rounding allowance:

    allowance = 2^-52 * (8 * factors + 4 * sqrt(K) + 8) * sum_k |w_k|,

where factors is the number of sinc factors in one multiplier, K the number
of terms summed and w_k the terms' magnitudes (weights times |z|^k, with an
extra (1 + k) where a complex power is formed).
"""

from __future__ import annotations

import math

import numpy as np

EPS = 2.0**-52


def stage(variant: str, order: int, eps: float) -> float:
    """Range of each first-order pass, from the package README's variant table."""
    if variant == "naive":
        return eps
    if variant == "fixed":
        return eps / order
    if variant == "gaussian":
        return eps / math.sqrt(order)
    raise ValueError(f"no common stage range for variant {variant!r}")


def _sinc(x: np.ndarray) -> np.ndarray:
    # x is never 0 here (k >= 1, eps > 0); sin(x)/x is exact enough down to 1e-300
    return np.sin(x) / x


def multipliers(variant: str, order: int, eps: float, k: np.ndarray) -> np.ndarray:
    """m_k for k >= 1: sinc(k s)^N, or prod_{n=1..N} sinc(k eps / 2^n) for scaled."""
    k = np.asarray(k, dtype=float)
    if order == 0:
        return np.ones_like(k)
    if variant == "scaled":
        out = np.ones_like(k)
        for n in range(1, order + 1):
            out *= _sinc(k * (eps / 2.0**n))
        return out
    return _sinc(k * stage(variant, order, eps)) ** order


def harmonics_needed(variant: str, order: int, eps: float, deriv: int, tol: float):
    """(K, p): sum_{k>cK} k^deriv |m_k| / pi <= tol * c^-p for every c >= 1.

    Power variants: |sinc(x)|^N <= |x|^-N once |x| >= 1, and the tail sum is
    bounded by the integral of the decreasing envelope.  Scaled: the first M
    factors alone give |m_k| <= 2^(M(M+1)/2) / (k eps)^M once k eps >= 2^M;
    the M with the smallest K is taken.
    """
    if variant == "scaled":
        best = None
        for m in range(deriv + 2, min(order, 60) + 1):
            p = m - deriv - 1
            log_k = (m * (m + 1) / 2.0 * math.log(2.0) - m * math.log(eps)
                     - math.log(p * math.pi * tol)) / p
            k = max(math.ceil(math.exp(min(log_k, 700.0))), math.ceil(2.0**m / eps))
            if best is None or k < best[0]:
                best = (k, p)
        if best is None:
            raise ValueError("scaled series needs order >= deriv + 2")
        return best
    s = stage(variant, order, eps)
    p = order - deriv - 1
    if p < 1:
        raise ValueError("power series needs order >= deriv + 2")
    log_k = (-order * math.log(s) - math.log(p * math.pi * tol)) / p
    return max(math.ceil(math.exp(min(log_k, 700.0))), math.ceil(1.0 / s) + 1), p


def allowance(abs_sum: float, factors: int, terms: int) -> float:
    return EPS * (8 * factors + 4 * math.sqrt(terms) + 8) * abs_sum


def _fsum(a: np.ndarray) -> float:
    return math.fsum(a.tolist())


def _trig_deriv(x: np.ndarray, deriv: int, parity: str) -> np.ndarray:
    """d^deriv/dtheta^deriv of cos or sin, at k*theta, without the k^deriv."""
    shift = deriv + (3 if parity == "sine" else 0)  # sin(x) = cos(x - pi/2)
    return (np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin)[shift % 4](x)


def fold(theta: float) -> float:
    d = abs(theta) % (2.0 * math.pi)
    return 2.0 * math.pi - d if d > math.pi else d


def box_widths(variant: str, order: int, eps: float) -> tuple[float, ...]:
    """Half-widths of the first-order boxes whose convolution is the N <= 2 kernel."""
    if variant == "scaled":
        return (eps / 2.0, eps / 4.0)[:order]
    s = stage(variant, order, eps)
    return (s,) * order


def closed_form_kernel(widths: tuple[float, ...], theta: float):
    """Box (one width) or trapezoid (two widths a >= b) kernel at theta."""
    d = fold(theta)
    if len(widths) == 1:
        a = widths[0]
        if abs(d - a) <= 1e-12 * (1.0 + a):  # at the jump any lateral value is right
            return 1.0 / (4.0 * a), 1.0 / (4.0 * a)
        return (1.0 / (2.0 * a) if d < a else 0.0), 8 * EPS / a
    a, b = max(widths), min(widths)
    if d <= a - b:
        value = 1.0 / (2.0 * a)
    elif d < a + b:
        value = (a + b - d) / (4.0 * a * b)
    else:
        value = 0.0
    return value, 64 * EPS * (a + b) / (a * b)


def kernel_value(variant: str, order: int, eps: float, tol: float, theta: float, deriv: int = 0):
    """Kernel (deriv 0) or its deriv-th derivative at theta, with its tolerance."""
    if deriv == 0 and order <= 2:
        return closed_form_kernel(box_widths(variant, order, eps), theta)
    big_k, p = harmonics_needed(variant, order, eps, deriv, tol)
    k = np.arange(1, 4 * big_k + 1, dtype=float)
    w = multipliers(variant, order, eps, k) * k**deriv / math.pi
    const = 1.0 / (2.0 * math.pi) if deriv == 0 else 0.0
    value = const + _fsum(w * _trig_deriv(k * theta, deriv, "cosine"))
    abs_sum = const + float(np.abs(w).sum())
    return value, tol + tol * 4.0**-p + allowance(abs_sum, order, k.size)


def waveform_coefficients(kind: str, k: np.ndarray) -> tuple[str, np.ndarray]:
    odd = (k.astype(np.int64) % 2) == 1
    if kind == "square":
        return "sine", np.where(odd, 4.0 / (math.pi * k), 0.0)
    if kind == "sawtooth":
        return "sine", np.where(~odd, -4.0 / (math.pi * k), 0.0)
    if kind == "triangle":
        return "cosine", np.where(odd, -8.0 / (math.pi**2 * k**2), 0.0)
    raise ValueError(kind)


def waveform_value(kind: str, order: int, eps: float, tol: float, theta: float):
    """Scaled-filtered unit waveform at theta.

    |a_k| <= 4/(pi k), so beyond the kernel's cutoff the waveform's tail is
    smaller than the kernel's by a factor of at least 4/K.
    """
    big_k, p = harmonics_needed("scaled", order, eps, 0, tol)
    k = np.arange(1, 4 * big_k + 1, dtype=float)
    parity, a = waveform_coefficients(kind, k)
    w = a * multipliers("scaled", order, eps, k)
    value = _fsum(w * _trig_deriv(k * theta, 0, parity))
    return value, tol + tol * 4.0**-p + allowance(float(np.abs(w).sum()), order, k.size)


def filtered_coefficients(variant: str, order: int, eps: float, coeffs: np.ndarray):
    """(a_k m_k, elementwise tolerance)."""
    k = np.arange(1, coeffs.size + 1, dtype=float)
    expected = coeffs * multipliers(variant, order, eps, k)
    return expected, EPS * (8 * max(order, 1) + 8) * np.abs(coeffs)


def complex_kernel_value(variant, order, eps, tol, rho, theta, rho1, theta1):
    """1/(2pi) + (1/pi) sum_k m_k (z/z1)^k.

    |m_k| <= 1 gives the geometric bound; the envelope bound applies too
    where the multipliers decay fast enough.
    """
    r = rho / rho1
    k_geo = math.ceil(math.log(math.pi * tol * (1.0 - r)) / math.log(r))
    tail = r ** (4 * k_geo + 1) / (1.0 - r) / math.pi
    big_k = k_geo
    if order >= (3 if variant == "scaled" else 2):
        k_env, p = harmonics_needed(variant, order, eps, 0, tol)
        if k_env < k_geo:
            big_k, tail = k_env, tol * 4.0**-p
    k = np.arange(1, 4 * big_k + 1, dtype=float)
    mag = multipliers(variant, order, eps, k) * r**k / math.pi
    phase = k * (theta - theta1)
    value = complex(1.0 / (2.0 * math.pi) + _fsum(mag * np.cos(phase)), _fsum(mag * np.sin(phase)))
    abs_sum = 1.0 / (2.0 * math.pi) + float(np.abs(mag * (1.0 + k)).sum())
    return value, tol + tail + allowance(abs_sum, order, k.size)


def _taylor(coeffs: np.ndarray, rho: float, theta: float):
    """sum_k c_k (rho e^{i theta})^k and sum_k |c_k| rho^k (1 + k)."""
    k = np.arange(1, coeffs.size + 1, dtype=float)
    mag = coeffs * rho**k
    value = complex(_fsum(mag * np.cos(k * theta)), _fsum(mag * np.sin(k * theta)))
    return value, float(np.abs(mag * (1.0 + k)).sum())


def inner_value(coeffs: np.ndarray, rho: float, theta: float):
    value, abs_sum = _taylor(coeffs, rho, theta)
    return value, allowance(abs_sum, 0, coeffs.size)


def disk_filter_value(coeffs: np.ndarray, eps: float, order: int, rho: float, theta: float):
    """Order-N disk filter as a_k -> a_k sinc(k eps/N)^N.

    The package forms it from N+1 evaluations of the N-th logarithmic
    primitive (coefficients a_k/k^N) scaled by (N/2eps)^N, so its rounding
    grows by (N/eps)^N over the primitive's.
    """
    k = np.arange(1, coeffs.size + 1, dtype=float)
    value, abs_sum = _taylor(coeffs * multipliers("fixed", order, eps, k), rho, theta)
    _, prim_sum = _taylor(np.abs(coeffs) / k**order, rho, 0.0)
    rounding = allowance(abs_sum, order, coeffs.size)
    rounding += (order / eps) ** order * allowance(prim_sum, 0, coeffs.size)
    return value, rounding


def segment_value(coeffs: np.ndarray, center: complex, half_length: float, alpha: float,
                  quad_resolution: int):
    """(P(z+L d) - P(z-L d)) / (2 L d) with P = sum_k a_k z^(k+1)/(k+1), d = e^{i alpha}.

    The tolerance is the composite trapezoid error h^2/12 * max|w''| on the
    segment, with |w''| <= sum_k k(k-1)|a_k| R^(k-2) and R the larger
    endpoint modulus, plus the rounding allowance.
    """
    k = np.arange(1, coeffs.size + 1, dtype=float)
    d = complex(math.cos(alpha), math.sin(alpha))
    ends = (center + half_length * d, center - half_length * d)
    prim = [_taylor(np.concatenate(([0.0], coeffs / (k + 1.0))), abs(z), math.atan2(z.imag, z.real))
            for z in ends]
    value = (prim[0][0] - prim[1][0]) / (2.0 * half_length * d)
    radius = max(abs(z) for z in ends)
    curvature = float((k * (k - 1.0) * np.abs(coeffs) * radius ** np.maximum(k - 2.0, 0.0)).sum())
    h = 2.0 * half_length / quad_resolution
    rounding = allowance(prim[0][1] + prim[1][1], 0, coeffs.size) / (2.0 * half_length)
    rounding += allowance(float(np.abs(coeffs).sum()), 0, quad_resolution)
    return value, h * h / 12.0 * curvature + rounding


def moving_average_value(cos_c: np.ndarray, sin_c: np.ndarray, eps: float, resolution: int,
                         thetas: np.ndarray):
    """Exact moving average of a band-limited signal and filter_direct's error bound.

    The window integral of the grid's linear interpolant differs from the
    exact one by at most h^2/8 max|f''|; the endpoint-slope correction adds
    at most h^2/12 * 2 max|f'| / (2 eps), and clipping to the sample range
    moves a value by no more than the interpolation error.
    """
    k = np.arange(1, cos_c.size + 1, dtype=float)
    m = multipliers("naive", 1, eps, k)
    x = np.multiply.outer(thetas, k)
    exact = np.cos(x) @ (cos_c * m) + np.sin(x) @ (sin_c * m)
    amp = np.abs(cos_c) + np.abs(sin_c)
    h = 2.0 * math.pi / resolution
    bound = h * h * (float((k * k * amp).sum()) / 4.0 + float((k * amp).sum()) / (6.0 * eps))
    return exact, bound + allowance(float(amp.sum()), 1, k.size)

"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; a pytest failure is the FAIL line for that criterion.
"""

import time

import numpy as np
import pytest

from sincfilters import (
    DiskPoint,
    EvalOptions,
    InnerAnalytic,
    KernelSpec,
    SampledSignal,
    ScaledKernelParams,
    apply_scaled_filter,
    complex_filter_coeffs,
    complex_filter_eval,
    effective_range,
    eval_inner,
    eval_series,
    filter_direct,
    filter_multiplier,
    invariant_points,
    kernel_eval,
    kernel_integral,
    make_waveform,
    oracle_iterated_filter,
    scaled_kernel_derivative,
    scaled_kernel_eval,
    segment_filter,
    sinc,
    theta_grid,
    zero_derivative_points,
)
from sincfilters.oracle import OracleConfig

EPS = 0.5


def report(number: int, name: str, t0: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {number:2d} ({name}): PASS in {elapsed:.2f}s")


def test_c01_eigenfunction_law():
    t0 = time.perf_counter()
    m = 2**14
    grid = theta_grid(m)
    worst = 0.0
    for eps in (0.1, 0.5, 1.0):
        for k in range(1, 65):
            harmonic = np.sin(k * grid)
            out = filter_direct(SampledSignal(harmonic), eps)
            err = np.abs(out.values - sinc(k * eps) * harmonic).max()
            worst = max(worst, err)
    assert worst <= 1e-6, worst
    report(1, "eigenfunction law", t0, limit=10.0)


def test_c02_unit_integrals():
    t0 = time.perf_counter()
    specs = [
        KernelSpec(1, EPS, "naive"),
        KernelSpec(2, EPS, "fixed"),
        KernelSpec(4, EPS, "fixed"),
        KernelSpec(8, EPS, "fixed"),
    ]
    specs += [KernelSpec(n, EPS, "scaled") for n in list(range(1, 11)) + [100]]
    for spec in specs:
        value = kernel_integral(spec)
        assert abs(value - 1.0) <= 1e-8, (spec, value)
    report(2, "unit integral", t0, limit=30.0)


def test_c03_invariant_points():
    t0 = time.perf_counter()
    params = ScaledKernelParams(EPS, 100)
    for theta, expected in invariant_points(EPS):
        got = scaled_kernel_eval(params, theta)
        assert abs(got - expected) <= 1e-6, (theta, got, expected)
    report(3, "invariant points", t0, limit=5.0)


def test_c04_effective_range_exact():
    t0 = time.perf_counter()
    for eps in (0.5, 0.25, 0.125, 0.75, 1.0):
        for n in range(61):
            got = effective_range(ScaledKernelParams(eps, n))
            assert got == eps * (1.0 - 0.5**n)  # bit-level
    report(4, "effective range", t0)


def test_c05_delta_regime_sqrt_growth():
    t0 = time.perf_counter()
    peak = {
        n: kernel_eval(KernelSpec(n, EPS, "fixed"), 0.0, EvalOptions(tail_tol=1e-10))
        for n in (64, 256)
    }
    ratio = peak[256] / peak[64]
    assert 1.8 <= ratio <= 2.2, ratio
    report(5, "sqrt(N) peak growth", t0, limit=60.0)


def test_c06_coefficient_limits():
    t0 = time.perf_counter()
    # fixed range, N -> infinity: multipliers tend to 1
    spec = KernelSpec(10**6, EPS, "fixed")
    mult = filter_multiplier(np.arange(1, 11), spec)
    assert np.all(mult >= 1 - 1e-4) and np.all(mult <= 1.0)
    # growing range N*eps: multipliers tend to 0 (raw formula; the total
    # range exceeds the period so no KernelSpec exists for it)
    k = np.arange(1, 100_001)
    naive = np.abs(sinc(k * EPS)) ** 8192
    assert naive.max() <= 1e-12
    # gaussian range: multipliers tend to exp(-k^2 eps^2 / 6)
    n = 1024
    k = np.arange(1, 21)
    gauss = sinc(k * EPS / np.sqrt(n)) ** n
    assert np.abs(gauss - np.exp(-(k**2) * EPS**2 / 6)).max() <= 0.01
    report(6, "coefficient limits", t0)


def test_c07_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = OracleConfig(resolution=1000)

    def coefficient_path(k, stages, theta):
        value = np.cos(k * theta)
        for r in stages:
            value *= sinc(k * r)
        return value

    cases = [
        (1, [EPS], 0.7),
        (2, [EPS], -0.4),
        (5, [EPS], 0.7),
        (1, [EPS / 2, EPS / 2], 0.3),
        (3, [EPS / 2, EPS / 2], -1.1),
        (3, [EPS / 2, EPS / 4, EPS / 8], 0.35),  # scaled stages, depth 3
    ]
    for k, stages, theta in cases:
        oracle = oracle_iterated_filter(lambda t, k=k: np.cos(k * t), theta, stages, cfg)
        assert abs(oracle - coefficient_path(k, stages, theta)) <= 1e-6, (k, stages)
    report(7, "oracle equivalence", t0, limit=5.0)


def test_c08_derivative_self_similarity_and_fd():
    t0 = time.perf_counter()
    grid = np.linspace(-EPS, EPS, 512)
    lhs = scaled_kernel_derivative(ScaledKernelParams(EPS, 100), 1, grid)
    half = ScaledKernelParams(EPS / 2, 99)
    rhs = (
        scaled_kernel_eval(half, grid + EPS / 2) - scaled_kernel_eval(half, grid - EPS / 2)
    ) / EPS
    assert np.abs(lhs - rhs).max() <= 1e-6

    # central finite differences at step 1e-4 (eps = 1.0; the criterion does
    # not pin eps, and the order-2 difference needs the milder curvature)
    eps, h = 1.0, 1e-4
    params = ScaledKernelParams(eps, 100)
    opts = EvalOptions(tail_tol=1e-15)
    pts = np.linspace(-eps, eps, 81)
    k0 = scaled_kernel_eval(params, pts, opts)
    kp = scaled_kernel_eval(params, pts + h, opts)
    km = scaled_kernel_eval(params, pts - h, opts)
    d1 = scaled_kernel_derivative(params, 1, pts, opts)
    d2 = scaled_kernel_derivative(params, 2, pts, opts)
    assert np.abs((kp - km) / (2 * h) - d1).max() <= 1e-5
    assert np.abs((kp - 2 * k0 + km) / h**2 - d2).max() <= 1e-5
    report(8, "derivative self-similarity", t0)


def test_c09_zero_derivative_table():
    t0 = time.perf_counter()
    params = ScaledKernelParams(EPS, 100)
    for n in (1, 2, 3):
        pts = zero_derivative_points(EPS, n)
        assert len(pts) == 2**n + 1
        values = scaled_kernel_derivative(params, n, np.array(pts))
        assert np.abs(values).max() <= 1e-5, (n, values)
    report(9, "zero-derivative table", t0)


def test_c10_square_wave_locality_and_monotonicity():
    t0 = time.perf_counter()
    coeffs = apply_scaled_filter(make_waveform("square", 2**15), ScaledKernelParams(EPS, 100))
    plateau_pos = np.linspace(EPS + 1e-6, np.pi - EPS - 1e-6, 300)
    plateau_neg = -plateau_pos
    assert np.abs(eval_series(coeffs, plateau_pos) - 1.0).max() <= 1e-6
    assert np.abs(eval_series(coeffs, plateau_neg) + 1.0).max() <= 1e-6
    ramp = np.linspace(-EPS, EPS, 514)[1:-1]
    values = eval_series(coeffs, ramp)
    assert np.diff(values).min() >= -1e-12
    report(10, "square-wave locality", t0)


def test_c11_complex_plane_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    w = InnerAnalytic(rng.uniform(-1, 1, size=32))
    for _ in range(100):
        p = DiskPoint(rng.uniform(0.0, 0.95), rng.uniform(-np.pi, np.pi))
        eps = rng.uniform(0.05, np.pi)
        a = complex_filter_eval(w, eps, p)
        b = eval_inner(complex_filter_coeffs(w, eps), p)
        assert a == b
    w2 = InnerAnalytic([0.0, 1.0])
    for alpha in (0.0, np.pi / 2, 1.1):
        got = segment_filter(w2, 0j, 0.5, alpha)
        expected = 0.5**2 * np.exp(2j * alpha) / 3
        assert abs(got - expected) <= 1e-9, alpha
    report(11, "complex-plane consistency", t0)


def test_c12_monotone_convergence_in_n():
    t0 = time.perf_counter()
    outer = np.linspace(EPS / 2, EPS, 66)[1:-1]
    inner = np.linspace(0.0, EPS / 2, 66)[1:-1]

    def values(steps):
        tol = 1e-9 if steps == 3 else 1e-13
        opts = EvalOptions(tail_tol=tol, k_max=2**21)
        return (
            scaled_kernel_eval(ScaledKernelParams(EPS, steps), outer, opts),
            scaled_kernel_eval(ScaledKernelParams(EPS, steps), inner, opts),
        )

    prev_out, prev_in = values(3)
    for steps in range(4, 21):
        cur_out, cur_in = values(steps)
        # slack absorbs truncation residuals and rounding at invariant points
        assert (cur_out - prev_out).min() >= -5e-12, steps
        assert (cur_in - prev_in).max() <= 5e-12, steps
        prev_out, prev_in = cur_out, cur_in
    report(12, "monotone convergence", t0)

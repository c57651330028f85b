import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincfilters import (
    EvalOptions,
    HarmonicCoefficients,
    InsufficientOrderError,
    KernelSpec,
    ScaledKernelParams,
    apply_scaled_filter,
    effective_range,
    invariant_points,
    kernel_integral,
    make_waveform,
    oracle_moving_average,
    scaled_coefficient,
    scaled_kernel_derivative,
    scaled_kernel_eval,
    sinc,
    zero_derivative_points,
)
from sincfilters.oracle import OracleConfig

SINC_QUARTER = 0.98961583701809172  # mpmath, frozen

N_INF = 100  # operational stand-in for the N -> infinity kernel


def test_params_validation():
    with pytest.raises(ValueError):
        ScaledKernelParams(np.pi, 3)
    with pytest.raises(ValueError):
        ScaledKernelParams(0.0, 3)
    with pytest.raises(ValueError):
        ScaledKernelParams(0.5, -1)


def test_coefficient_empty_product():
    assert scaled_coefficient(5, ScaledKernelParams(0.4, 0)) == 1.0


def test_coefficient_single_stage():
    assert scaled_coefficient(1, ScaledKernelParams(0.5, 1)) == pytest.approx(
        SINC_QUARTER, abs=1e-15
    )


def test_coefficient_tail_stabilizes():
    a = scaled_coefficient(1, ScaledKernelParams(0.5, 50))
    b = scaled_coefficient(1, ScaledKernelParams(0.5, 60))
    assert abs(a - b) < 1e-15


def test_coefficient_matches_explicit_product():
    params = ScaledKernelParams(0.5, 12)
    for k in (1, 5, 40, 333):
        expected = 1.0
        for n in range(1, 13):
            expected *= sinc(k * 0.5 / 2**n)
        assert scaled_coefficient(k, params) == pytest.approx(expected, rel=1e-14)


def test_effective_range_values():
    assert effective_range(ScaledKernelParams(0.5, 3)) == 0.4375
    assert effective_range(ScaledKernelParams(0.5, 0)) == 0.0
    assert abs(effective_range(ScaledKernelParams(0.5, 60)) - 0.5) < 1e-15


def test_scaled_kernel_box_at_one_stage():
    params = ScaledKernelParams(0.5, 1)
    assert scaled_kernel_eval(params, 0.0) == 2.0  # 1/eps
    assert scaled_kernel_eval(params, 0.2) == 2.0
    assert scaled_kernel_eval(params, 0.25) == 1.0  # midpoint at the jump
    assert scaled_kernel_eval(params, 0.3) == 0.0


def test_scaled_kernel_two_stages_against_oracle():
    params = ScaledKernelParams(0.5, 2)
    box = lambda t: np.where(np.abs(t) < 0.25, 2.0, np.where(np.abs(t) == 0.25, 1.0, 0.0))
    for x in (0.0, 0.1, 0.2, 0.3, 0.374, 0.5):
        ref = oracle_moving_average(box, x, 0.125, OracleConfig(resolution=100_000))
        assert scaled_kernel_eval(params, x) == pytest.approx(ref, abs=1e-4)


def test_scaled_kernel_series_matches_depth_two_oracle():
    # N=4: average the exact N=2 closed form (stages eps/2, eps/4) through
    # the remaining stages eps/8 then eps/16
    eps = 0.5
    params = ScaledKernelParams(eps, 4)
    two = lambda t: scaled_kernel_eval(ScaledKernelParams(eps, 2), t)
    cfg = OracleConfig(resolution=3000)
    opts = EvalOptions(tail_tol=1e-10)
    for x in (0.0, 0.11, 0.25, 0.36, 0.44):
        ref = oracle_moving_average(
            lambda u: oracle_moving_average(two, u, eps / 16, cfg), x, eps / 8, cfg
        )
        assert scaled_kernel_eval(params, x, opts) == pytest.approx(ref, abs=1e-6)


def test_invariant_points_listing():
    pts = invariant_points(0.5)
    assert pts == [(-0.5, 0.0), (-0.25, 1.0), (0.0, 2.0), (0.25, 1.0), (0.5, 0.0)]
    centre = dict(invariant_points(np.pi / 2))[0.0]
    assert centre == pytest.approx(2 / np.pi, abs=1e-16)
    thetas = [p[0] for p in pts]
    assert thetas == [-t for t in reversed(thetas)]
    for eps in (0.0, np.pi, 4.0, np.nan):
        with pytest.raises(ValueError):
            invariant_points(eps)


def test_invariance_under_construction():
    # values at the five points drift <= 1e-9 across N >= 3
    eps = 0.5
    pts = invariant_points(eps)
    opts = EvalOptions(tail_tol=1e-11, k_max=2**22)
    for steps in (3, 4, 7, 15, 40):
        params = ScaledKernelParams(eps, steps)
        for theta, expected in pts:
            assert scaled_kernel_eval(params, theta, opts) == pytest.approx(
                expected, abs=1e-9
            )


def test_scaled_kernel_bounds_on_dense_grid():
    params = ScaledKernelParams(0.5, N_INF)
    grid = np.linspace(-np.pi, np.pi, 2001)
    vals = scaled_kernel_eval(params, grid)
    assert vals.min() >= -1e-6
    assert vals.max() <= 1 / 0.5 + 1e-6


def test_scaled_kernel_compact_support_all_orders():
    eps = 0.5
    outside = np.linspace(eps, np.pi, 40)
    opts = EvalOptions(tail_tol=1e-9)
    for steps in (1, 2, 3, 5, 10, N_INF):
        vals = np.atleast_1d(scaled_kernel_eval(ScaledKernelParams(eps, steps), outside, opts))
        assert np.abs(vals).max() <= 1e-6


def test_scaled_unit_integrals():
    for steps in list(range(1, 11)) + [N_INF]:
        integral = kernel_integral(KernelSpec(steps, 0.5, "scaled"))
        assert integral == pytest.approx(1.0, abs=1e-8)


def test_apply_scaled_filter_identity_and_ratio():
    coeffs = make_waveform("square", 64)
    params = ScaledKernelParams(0.5, N_INF)
    unchanged = apply_scaled_filter(coeffs, ScaledKernelParams(0.5, 0))
    np.testing.assert_array_equal(unchanged.coeffs, coeffs.coeffs)
    out = apply_scaled_filter(coeffs, params)
    assert out.parity == coeffs.parity
    k = np.arange(1, 65)
    odd = k % 2 == 1
    np.testing.assert_allclose(
        out.coeffs[odd] / coeffs.coeffs[odd], scaled_coefficient(k[odd], params), rtol=1e-13
    )


def test_scaled_filter_raises_concave_up_point():
    # triangle wave has its minimum (concave-up) at 0; averaging lifts it
    from sincfilters import eval_series

    coeffs = apply_scaled_filter(make_waveform("triangle", 2**13), ScaledKernelParams(0.5, N_INF))
    assert eval_series(coeffs, 0.0) > -1.0


def test_derivative_requires_enough_stages():
    with pytest.raises(InsufficientOrderError):
        scaled_kernel_derivative(ScaledKernelParams(0.5, 2), 1, 0.1)
    with pytest.raises(ValueError):
        scaled_kernel_derivative(ScaledKernelParams(0.5, 10), 0, 0.1)


def test_derivative_zero_at_centre_and_rising_flank():
    params = ScaledKernelParams(0.5, N_INF)
    assert scaled_kernel_derivative(params, 1, 0.0) == 0.0
    flank = scaled_kernel_derivative(params, 1, -0.25 + 0.03)
    assert flank > 0.1  # kernel increasing on (-eps, -eps/2)


def test_second_derivative_zero_at_inflections():
    params = ScaledKernelParams(0.5, N_INF)
    for theta in (-0.25, 0.25):
        assert abs(scaled_kernel_derivative(params, 2, theta)) < 1e-6


def test_derivative_self_similarity_identity():
    eps = 0.5
    grid = np.linspace(-eps, eps, 129)
    lhs = scaled_kernel_derivative(ScaledKernelParams(eps, 60), 1, grid)
    half = ScaledKernelParams(eps / 2, 59)
    rhs = (scaled_kernel_eval(half, grid + eps / 2) - scaled_kernel_eval(half, grid - eps / 2)) / eps
    assert np.abs(lhs - rhs).max() < 1e-9


def test_zero_derivative_point_sets():
    eps = 0.5
    assert zero_derivative_points(eps, 0) == [-eps, eps]
    for n, count in ((1, 3), (2, 5), (3, 9), (4, 17)):
        pts = zero_derivative_points(eps, n)
        assert len(pts) == count == 2**n + 1
        assert pts == sorted(pts)
        assert pts[0] == -eps and pts[-1] == eps
    np.testing.assert_allclose(
        zero_derivative_points(eps, 2), [-0.5, -0.25, 0.0, 0.25, 0.5], atol=0
    )
    for bad in (0.0, np.pi, 4.0, np.nan):
        with pytest.raises(ValueError):
            zero_derivative_points(bad, 1)
    for bad in (-1, 1.5, np.inf):  # int(inf) would raise OverflowError
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            zero_derivative_points(eps, bad)


@settings(max_examples=30, deadline=None)
@given(d=st.floats(-3, 3))
def test_scaled_kernel_evenness_exact(d):
    params = ScaledKernelParams(0.8, 6)
    opts = EvalOptions(tail_tol=1e-8)
    assert scaled_kernel_eval(params, d, opts) == scaled_kernel_eval(params, -d, opts)


def test_prefactor_form_would_overflow():
    # the 2^(N(N+1)/2) prefactor at N=100 exceeds float range; the running
    # product must stay finite and bounded by 1
    params = ScaledKernelParams(0.5, 100)
    k = np.arange(1, 5000)
    m = scaled_coefficient(k, params)
    assert np.all(np.isfinite(m))
    assert np.abs(m).max() <= 1.0

import functools
import math

import numpy as np
import pytest

from sincfilters import (
    OracleConfig,
    oracle_iterated_filter,
    oracle_moving_average,
    oracle_series_value,
    sinc,
)


def test_constant_average():
    assert oracle_moving_average(lambda t: np.ones_like(t), 0.3, 0.5) == pytest.approx(1.0)


def test_harmonic_eigenvalue():
    cfg = OracleConfig(resolution=10_000)
    for k in (1, 4, 9):
        got = oracle_moving_average(lambda t: np.cos(k * t), 0.7, 0.5, cfg)
        assert got == pytest.approx(sinc(k * 0.5) * math.cos(k * 0.7), abs=1e-10)


def test_step_function_half_value():
    got = oracle_moving_average(lambda t: np.sign(t), 0.25, 0.5, OracleConfig(resolution=200_000))
    assert got == pytest.approx(0.5, abs=1e-6)


def test_iterated_depth_zero_is_identity():
    f = lambda t: np.sin(2 * t) + 1.0
    assert oracle_iterated_filter(f, 0.4, []) == pytest.approx(f(np.float64(0.4)))


def test_iterated_depth_two_eigenvalue():
    cfg = OracleConfig(resolution=800)
    k, eps = 2, 0.5
    got = oracle_iterated_filter(lambda t: np.cos(k * t), 0.3, [eps / 2, eps / 2], cfg)
    assert got == pytest.approx(sinc(k * eps / 2) ** 2 * math.cos(k * 0.3), abs=1e-8)


def test_iterated_scaled_stage_product():
    cfg = OracleConfig(resolution=600)
    eps = 0.5
    got = oracle_iterated_filter(
        lambda t: np.cos(t), -0.2, [eps / 2, eps / 4, eps / 8], cfg
    )
    expected = math.cos(-0.2)
    for n in range(1, 4):
        expected *= sinc(eps / 2**n)
    assert got == pytest.approx(expected, abs=1e-8)


def test_one_rule_matches_nested_composition():
    def nested(f, stages, cfg):
        for eps in reversed(stages):  # innermost stage last
            f = functools.partial(oracle_moving_average, f, eps=eps, cfg=cfg)
        return f

    f = lambda t: np.exp(np.sin(t)) + np.cos(3 * t)
    for stages in ([0.1] * 3, [0.25, 0.125, 0.0625]):
        for depth in (2, 3):
            for resolution in (40, 41):
                cfg = OracleConfig(resolution=resolution)
                for theta in (0.3, np.linspace(-1.0, 1.0, 5)):
                    got = oracle_iterated_filter(f, theta, stages[:depth], cfg)
                    want = nested(f, stages[:depth], cfg)(theta)
                    assert np.ndim(got) == np.ndim(theta)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    for stages in ([0.5, 0.3], [0.5, 0.5 / 2**7], [0.1, 0.0], [4.0, 0.1]):
        with pytest.raises(ValueError):
            oracle_iterated_filter(f, 0.3, stages)


def test_depth_cap():
    with pytest.raises(ValueError):
        oracle_iterated_filter(lambda t: t, 0.0, [0.1] * 7)


def test_vectorized_theta():
    thetas = np.linspace(-1, 1, 7)
    got = oracle_moving_average(lambda t: np.cos(3 * t), thetas, 0.4)
    np.testing.assert_allclose(got, sinc(1.2) * np.cos(3 * thetas), atol=1e-9)


def test_series_value_plain_sum():
    coeffs = [1.0, 0.5, 0.25]
    theta = 0.9
    expected = math.fsum(c * math.sin((i + 1) * theta) for i, c in enumerate(coeffs))
    assert oracle_series_value("sine", coeffs, theta) == expected
    with pytest.raises(ValueError):
        oracle_series_value("odd", coeffs, theta)
    with pytest.raises(ValueError):
        oracle_series_value("sine", coeffs, theta, k_cap=2.5)
    first_two = math.fsum(c * math.sin((i + 1) * theta) for i, c in enumerate(coeffs[:2]))
    assert oracle_series_value("sine", coeffs, theta, k_cap=np.int64(2)) == first_two


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, [0.1, math.nan]])
def test_non_finite_angles_raise(theta):
    with pytest.raises(ValueError):
        oracle_moving_average(np.cos, theta, 0.3)
    with pytest.raises(ValueError):
        oracle_iterated_filter(np.cos, theta, [0.3, 0.15])
    if np.ndim(theta) == 0:
        with pytest.raises(ValueError):
            oracle_series_value("cosine", [1.0, 0.5], theta)

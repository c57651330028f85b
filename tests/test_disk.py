import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sincfilters import (
    DiskPoint,
    EvalOptions,
    HarmonicCoefficients,
    InnerAnalytic,
    KernelSpec,
    NonConvergenceError,
    complex_filter_coeffs,
    complex_filter_eval,
    complex_filter_order_n,
    complex_kernel_eval,
    eval_inner,
    eval_series,
    filter_multiplier,
    load_inner,
    log_derivative,
    log_primitive,
    make_waveform,
    save_inner,
    segment_filter,
    sinc,
)

SINC_HALF = 0.958851077208406
Z2_FILTERED_AT_HALF = 0.21036774620197413  # sinc(1) * 0.25, mpmath
U = 2.0**-53


def test_eval_inner_basic_points():
    w = InnerAnalytic([1.0])
    assert eval_inner(w, DiskPoint(0.5, 0.0)) == 0.5 + 0j
    assert eval_inner(InnerAnalytic([3.0, -2.0, 1.0]), DiskPoint(0.0, 1.234)) == 0.0
    z2 = eval_inner(InnerAnalytic([0.0, 1.0]), DiskPoint(0.5, np.pi / 2))
    assert z2 == pytest.approx(-0.25 + 0j, abs=1e-15)


def test_eval_inner_radius_guard():
    with pytest.raises(ValueError):
        eval_inner(InnerAnalytic([1.0]), DiskPoint(1.5, 0.0))
    # rho = 1 on a finite (polynomial) sequence is fine
    assert eval_inner(InnerAnalytic([1.0]), DiskPoint(1.0, 0.0)) == pytest.approx(1.0 + 0j)


def test_zero_point_is_exact_without_warnings():
    w = InnerAnalytic([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_inner(w, DiskPoint(0.0, 0.7)) == 0j
        # the segment [0, 0.5] of z^2 averages to 0.5^2 / 3
        assert segment_filter(w, 0.25 + 0j, 0.25, 0.0) == pytest.approx(1 / 12, abs=1e-16)


@pytest.mark.parametrize(
    "K, k_max", [(K, K) for K in (1, 2, 3, 15, 16, 17, 255, 256, 257, 4096)] + [(300, 257)]
)
def test_taylor_sum_rounding_contract(K, k_max):
    # 2^-53 * sum_k |a_k| rho^k (1 + k) bounds the sum's rounding and the phase error of
    # fl(k log z), in either summation order; K straddles the squares where isqrt(K + 1) steps
    import mpmath as mp

    from sincfilters.disk import _taylor_sum

    rng = np.random.default_rng(K)
    a = rng.normal(size=K)
    k = np.arange(1, k_max + 1)
    for rho in (0.5, 0.999, 1.0):
        z = rho * np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        got = _taylor_sum(a, z, k_max)
        for zj, gj in zip(z, got):
            scale = np.sum(np.abs(a[:k_max]) * abs(zj) ** k * (1 + k))
            with mp.workdps(40):
                exact = mp.polyval([float(c) for c in a[k_max - 1 :: -1]] + [0], mp.mpc(zj))
                assert abs(mp.mpc(gj) - exact) <= 2 * 2.0**-53 * scale
    # both real sides off the grid take the same power sum, at x = i theta
    thetas = rng.uniform(-np.pi, np.pi, size=2)
    scale = np.sum(np.abs(a[:k_max]) * (1 + k))
    opts = EvalOptions(k_max=k_max)
    cos_side, sin_side = (eval_series(HarmonicCoefficients(parity, a), thetas, opts)
                          for parity in ("cosine", "sine"))
    for th, cj, sj in zip(thetas, cos_side, sin_side):
        with mp.workdps(40):
            exact = mp.polyval([float(c) for c in a[k_max - 1 :: -1]] + [0], mp.expj(th))
            assert abs(cj - exact.real) <= 2 * 2.0**-53 * scale
            assert abs(sj - exact.imag) <= 2 * 2.0**-53 * scale


def test_taylor_sum_zero_point_and_empty_series():
    from sincfilters.disk import _taylor_sum

    a = np.random.default_rng(1).normal(size=100)
    got = _taylor_sum(a, np.array([0j, 0.5 + 0.1j]), 100)
    assert got[0] == 0 and got[1] != 0
    assert eval_inner(InnerAnalytic([]), DiskPoint(0.7, 0.3)) == 0


def test_taylor_sum_allocates_one_harmonic_array():
    import tracemalloc

    from sincfilters.disk import _taylor_sum

    K = 2**16
    coeffs = np.random.default_rng(3).normal(size=K)
    z = np.array([0.999 * np.exp(0.7j)])
    tracemalloc.start()
    try:
        _taylor_sum(coeffs, z, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * K  # one zero-padded copy of the weights, plus O(sqrt(K)) powers


def test_log_derivative_and_primitive_examples():
    np.testing.assert_array_equal(log_derivative(InnerAnalytic([1.0])).coeffs, [1.0])
    np.testing.assert_array_equal(log_derivative(InnerAnalytic([0.0, 1.0])).coeffs, [0.0, 2.0])
    np.testing.assert_array_equal(
        log_derivative(InnerAnalytic([1.0, 1.0, 1.0])).coeffs, [1.0, 2.0, 3.0]
    )
    np.testing.assert_array_equal(log_primitive(InnerAnalytic([1.0])).coeffs, [1.0])
    np.testing.assert_array_equal(log_primitive(InnerAnalytic([0.0, 1.0])).coeffs, [0.0, 0.5])


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-100, 100, allow_subnormal=False), min_size=1, max_size=12)
)
@example(coeffs=[0.0] * 9 + [2.2250738585072014e-308])
@example(coeffs=[0.0, 2.0**-1022 + 2.0**-1074])  # a_2 / 2 is subnormal and rounds
def test_log_operations_are_inverses(coeffs):
    w = InnerAnalytic(coeffs)
    # one rounding each way for the divide/multiply pair: 1 ulp; a quotient
    # a_k / k in the subnormals rounds by up to 2^-1075 absolute, so the
    # product misses a_k by up to k * 2^-1075 <= 12 * 2^-1075 (2^-1075 itself
    # underflows to 0, hence 6 * 2^-1074)
    back = log_derivative(log_primitive(w)).coeffs
    np.testing.assert_allclose(back, w.coeffs, rtol=5e-16, atol=6 * 2.0**-1074)
    # k = 1 round-trips bit-exactly, and so does k = 2 wherever halving a_2 is
    # exact: always, unless a_2 / 2 falls below the smallest normal and a_2
    # has its last bit, 2^-1074, set
    assert back[0] == w.coeffs[0]
    if len(w) >= 2:
        a2 = w.coeffs[1]
        if abs(a2) >= 2.0 * sys.float_info.min or math.ldexp(a2, 1074) % 2 == 0:
            assert back[1] == a2


def test_complex_filter_coeffs_examples():
    out = complex_filter_coeffs(InnerAnalytic([1.0, 1.0]), np.pi)
    assert np.abs(out.coeffs).max() < 1e-15
    out = complex_filter_coeffs(InnerAnalytic([1.0]), 0.5)
    assert out.coeffs[0] == pytest.approx(SINC_HALF, abs=1e-15)


def test_complex_filter_coeffs_bit_identical_to_sinc():
    # the naive N = 1 multiplier skips factors below 1e-8, which sinc rounds to 1.0 anyway
    a = np.random.default_rng(5).standard_normal(3000)
    k = np.arange(1, a.size + 1, dtype=float)
    for eps in (1e-12, 1e-9, 3e-8, 1e-5, 0.5, np.pi):
        want = (a * sinc(k * eps)).view(np.int64)
        for _ in ("cold", "from the multiplier table"):
            got = complex_filter_coeffs(InnerAnalytic(a), eps).coeffs
            np.testing.assert_array_equal(got.view(np.int64), want)
    assert len(complex_filter_coeffs(InnerAnalytic([]), 0.5)) == 0
    with pytest.raises(ValueError):
        complex_filter_coeffs(InnerAnalytic([1.0]), 4.0)


def test_complex_filter_eval_closed_forms():
    w = InnerAnalytic([1.0])  # w(z) = z
    p = DiskPoint(0.7, 0.9)
    z = 0.7 * np.exp(0.9j)
    assert complex_filter_eval(w, 0.5, p) == pytest.approx(sinc(0.5) * z, abs=1e-15)
    assert abs(complex_filter_eval(w, np.pi, p)) < 1e-15
    w2 = InnerAnalytic([0.0, 1.0])
    val = complex_filter_eval(w2, 0.5, DiskPoint(0.5, 0.0))
    assert val == pytest.approx(Z2_FILTERED_AT_HALF + 0j, abs=1e-15)


def test_complex_filter_identity_limit():
    # the gap 1 - sinc(k eps) <= (k eps)^2 / 6, u for the multiplier and its product with a_k,
    # and the power sum's contract 2u (1 + k) on each side
    rng = np.random.default_rng(3)
    w = InnerAnalytic(rng.normal(size=24))
    p = DiskPoint(0.6, -1.1)
    k = np.arange(1, 25)
    direct = eval_inner(w, p)
    for eps in (1e-6, 1e-9, 1e-12):
        gap = (k * eps) ** 2 / 6 + 2 * U + 4 * U * (1 + k)
        bound = np.sum(np.abs(w.coeffs) * p.rho**k * gap)
        assert abs(complex_filter_eval(w, eps, p) - direct) <= bound, eps


def test_complex_filter_eval_matches_coefficient_path():
    rng = np.random.default_rng(11)
    w = InnerAnalytic(rng.uniform(-1, 1, size=32))
    for _ in range(100):
        p = DiskPoint(rng.uniform(0, 0.95), rng.uniform(-np.pi, np.pi))
        eps = rng.uniform(0.05, np.pi)
        via_eval = complex_filter_eval(w, eps, p)
        via_coeffs = eval_inner(complex_filter_coeffs(w, eps), p)
        assert via_eval == via_coeffs


@pytest.mark.parametrize("order", [None, 1, 4], ids=["first-order", "order-1", "order-4"])
def test_disk_filters_filter_only_the_harmonics_they_sum(order):
    # m_k depends only on k, so filtering a_1..a_kmax gives the bits of filtering all of w and
    # summing k <= k_max; 1024 multipliers are kept in the table, where 2^17 would not be
    from sincfilters import apply_filter_coeffs, filters

    k = np.arange(1, 2**17 + 1)
    w = InnerAnalytic(np.random.default_rng(31).standard_normal(k.size) / k**1.5)
    p, eps, opts = DiskPoint(0.99, 0.7), 0.3, EvalOptions(k_max=1024)
    if order is None:
        spec, got = KernelSpec(1, eps, "naive"), complex_filter_eval(w, eps, p, opts)
    else:
        spec = KernelSpec(order, eps, "fixed")
        got = complex_filter_order_n(w, eps, order, p, opts)
    assert filters._MULTIPLIERS[spec].size == 1024
    every = apply_filter_coeffs(HarmonicCoefficients("cosine", w.coeffs), spec).coeffs
    assert got == eval_inner(InnerAnalytic(every), p, opts)


def test_inner_analyticity_preserved():
    out = complex_filter_coeffs(InnerAnalytic(make_waveform("square", 100).coeffs), 0.4)
    assert out.coeffs.dtype == float
    assert len(out) == 100  # no constant slot exists anywhere


def test_softening_by_one_degree_decay():
    # square-wave coefficients decay like 1/k; filtered ones like 1/k^2
    n = 10**4
    a = 4.0 / (np.pi * np.arange(1, n + 1))
    a[1::2] = 0.0
    out = complex_filter_coeffs(InnerAnalytic(a), 0.5)
    k = np.arange(1, n + 1)
    assert (np.abs(out.coeffs) * k**2).max() <= 4 / (np.pi * 0.5) + 1e-9


def _filtered_sum_contract(a, eps, order, rho):
    """The package's rounding contract for sum_k a_k m_k z^k, m_k = sinc(k eps/N)^N, |z| = rho:
    the power sum's 2u sum_k |a_k m_k| rho^k (1 + k), plus |a_k| rho^k e_k for the multipliers.
    One factor sinc(x) is off by at most 16u: its argument k fl(eps/N) is off by 2u x, which
    moves sinc by 4u as |x sinc'(x)| <= 2; sin adds up to 4 ulp (8u) and the division u.  Its
    N-th power is then off by at most N (s_k + 16u)^(N-1) 16u, s_k = min(1, N/(k eps)) >= |sinc|,
    and the power and the product with a_k add 2u."""
    k = np.arange(1, a.size + 1, dtype=float)
    m = filter_multiplier(k, KernelSpec(order, eps, "fixed"))
    s = np.minimum(1.0, order / (k * eps))
    e = 16 * U * order * (s + 16 * U) ** (order - 1) + 2 * U
    return float(np.sum(np.abs(a) * rho**k * (2 * U * np.abs(m) * (1 + k) + e)))


def _assert_within_contract(w, eps, order, p):
    import mpmath as mp

    with mp.workdps(40):
        x = [k * mp.mpf(eps) / order for k in range(1, len(w) + 1)]
        c = [mp.mpf(float(ak)) * (mp.sin(xk) / xk) ** order for ak, xk in zip(w.coeffs, x)]
        exact = mp.polyval(c[::-1] + [0], mp.mpf(p.rho) * mp.expj(p.theta))
        error = abs(mp.mpc(complex_filter_order_n(w, eps, order, p)) - exact)
    assert error <= _filtered_sum_contract(w.coeffs, eps, order, p.rho), (eps, order)


def test_order_n_is_within_the_power_sum_contract_of_the_filtered_series():
    rng = np.random.default_rng(5)
    w = InnerAnalytic(rng.standard_normal(256) / np.arange(1, 257) ** 1.5)
    for eps in (0.1, 0.5):
        for order in (1, 2, 4, 8, 12, 16, 20):
            _assert_within_contract(
                w, eps, order, DiskPoint(rng.uniform(0.5, 0.95), rng.uniform(-np.pi, np.pi)))


def test_paper_binomial_sum_agrees_within_its_own_rounding_bound():
    # the paper's order-N filter (-i N/(2 eps))^N sum_j (-1)^j C(N, j) W(z e^{i(1 - 2j/N) eps}),
    # W the N-th logarithmic primitive (a_k / k^N), summed here in floats term by term
    rng = np.random.default_rng(19)
    a = rng.standard_normal(256) / np.arange(1, 257) ** 1.5
    k = np.arange(1, a.size + 1, dtype=float)
    for eps in (0.1, 0.5):
        for order in (1, 2, 4, 8, 12, 16, 20):
            p = DiskPoint(rng.uniform(0.5, 0.95), rng.uniform(-np.pi, np.pi))
            primitive = a / k**order
            x = math.log(p.rho) + 1j * (p.theta + (1.0 - 2.0 * np.arange(order + 1) / order) * eps)
            values = (primitive * np.exp(np.outer(x, k))).sum(axis=1)
            signs = np.array([(-1) ** j * math.comb(order, j) for j in range(order + 1)], float)
            paper = (-1j * order / (2.0 * eps)) ** order * complex(signs @ values)
            # each W value: fl(k x) and the angles are off by 5u k X, X >= |x|, so the complex
            # exp by 8u k X; exp itself, the primitive and the products add 9u and the pairwise
            # sum of 256 terms 21u; the combination adds (N + 2) u of
            # sum_j C(N, j) |W_j| <= 2^N max |W|; the prefactor's 2(N + 1) u is relative to
            # the filtered value
            big_x = abs(math.log(p.rho)) + abs(p.theta) + eps
            scale = np.sum(np.abs(primitive) * p.rho**k * (32 + order + 8 * k * big_x))
            bound = (order / (2.0 * eps)) ** order * 2.0**order * U * scale
            bound += 2 * (order + 1) * U * np.sum(np.abs(a) * p.rho**k)
            bound += _filtered_sum_contract(a, eps, order, p.rho)
            package = complex_filter_order_n(InnerAnalytic(a), eps, order, p)
            assert abs(paper - package) <= bound, (eps, order)


def test_order_n_argument_checks_and_orders_past_twenty():
    w = InnerAnalytic([1.0])
    p = DiskPoint(0.5, 0.0)
    assert complex_filter_order_n(w, 0.5, 0, p) == eval_inner(w, p)
    for eps, order in ((0.0, 1), (4.0, 1), (np.nan, 1), (0.5, -1), (0.5, 1.5)):
        with pytest.raises(ValueError):  # the checks of KernelSpec(order, eps, "fixed")
            complex_filter_order_n(w, eps, order, p)
    rng = np.random.default_rng(21)
    w = InnerAnalytic(rng.standard_normal(128) / np.arange(1, 129) ** 1.5)
    for order in (21, 64, 1000):
        _assert_within_contract(w, 0.5, order, DiskPoint(0.9, rng.uniform(-np.pi, np.pi)))


def test_order_one_is_the_first_order_filter():
    rng = np.random.default_rng(23)
    w = InnerAnalytic(rng.normal(size=12))
    p = DiskPoint(0.7, 2.1)
    a = complex_filter_order_n(w, 0.4, 1, p)
    b = complex_filter_eval(w, 0.4, p)
    assert a == b


def test_complex_kernel_at_origin():
    spec = KernelSpec(3, 0.5, "fixed")
    val = complex_kernel_eval(spec, DiskPoint(0.0, 0.3), 1.0, 0.2)
    assert val == pytest.approx(1 / (2 * np.pi) + 0j, abs=0)


@pytest.mark.parametrize("variant", ["naive", "fixed", "gaussian", "scaled"])
def test_complex_kernel_order_zero_is_the_geometric_sum(variant):
    # m_k = 1: 1/(2 pi) + (1/pi) w (1 - w^K) / (1 - w), w = z/z1, K from the geometric rule
    p, rho1, theta1 = DiskPoint(0.873, 0.2), 0.97, 0.1
    w = (p.rho / rho1) * complex(math.cos(p.theta - theta1), math.sin(p.theta - theta1))
    k = math.ceil(math.log(math.pi * 1e-12 * (1 - p.rho / rho1)) / math.log(p.rho / rho1))
    want = 1 / (2 * math.pi) + w * (1 - w**k) / (1 - w) / math.pi
    got = complex_kernel_eval(KernelSpec(0, 0.5, variant), p, rho1, theta1)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_complex_kernel_radius_ordering():
    with pytest.raises(ValueError, match="radius ordering violated"):
        complex_kernel_eval(KernelSpec(2, 0.5), DiskPoint(0.9, 0.0), 0.8, 0.0)
    for rho1 in (0.0, -0.5, 1.5, np.nan, 10**400):
        with pytest.raises(ValueError, match=r"rho1 must lie in \(0, 1\]"):
            complex_kernel_eval(KernelSpec(2, 0.5), DiskPoint(0.0, 0.0), rho1, 0.0)
    for theta1 in (np.nan, np.inf, 10**400):
        for rho in (0.0, 0.5):  # at z = 0 too, where the value does not depend on theta1
            with pytest.raises(ValueError, match="rho and theta must be finite"):
                complex_kernel_eval(KernelSpec(2, 0.5), DiskPoint(rho, 0.0), 0.9, theta1)
    with pytest.raises(ValueError, match="rho and theta must be finite"):  # theta - theta1 = inf
        complex_kernel_eval(KernelSpec(2, 0.5), DiskPoint(0.5, 1.7e308), 0.9, -1.7e308)


def test_disk_point_rejects_a_non_finite_coordinate_or_a_negative_rho():
    for rho, theta in ((np.nan, 0.0), (np.inf, 0.0), (0.5, np.nan), (0.5, -np.inf),
                       (10**400, 0.0), (0.5, -10**400)):
        with pytest.raises(ValueError, match="rho and theta must be finite"):
            DiskPoint(rho, theta)
    with pytest.raises(ValueError, match="rho must be non-negative"):
        DiskPoint(-0.5, 0.0)


def test_disk_point_keeps_floats_and_theta1_is_taken_as_a_float():
    for rho, theta in (("0.5", "0.1"), (1, 0), (np.float32(0.5), np.float32(0.1))):
        p = DiskPoint(rho, theta)
        assert (type(p.rho), type(p.theta)) == (float, float)
        assert p == DiskPoint(float(rho), float(theta))
    w = InnerAnalytic([1.0, -0.5])
    assert eval_inner(w, DiskPoint("0.5", "0.1")) == eval_inner(w, DiskPoint(0.5, 0.1))
    # float32 inputs compute in float64: the bits of their float64 twins
    spec = KernelSpec(4, 0.5)
    rho32, theta32 = np.float32(0.5), np.float32(0.2)
    assert (complex_kernel_eval(spec, DiskPoint(rho32, 0.1), 0.95, 0.2)
            == complex_kernel_eval(spec, DiskPoint(float(rho32), 0.1), 0.95, 0.2))
    assert (complex_kernel_eval(spec, DiskPoint(0.5, 0.1), 0.95, theta32)
            == complex_kernel_eval(spec, DiskPoint(0.5, 0.1), 0.95, float(theta32)))


def test_complex_kernel_quadratures():
    # real part integrates to 1 and imaginary part to 0 over theta
    spec = KernelSpec(2, 0.5, "fixed")
    rho1, theta1 = 0.9, 0.4
    m = 2**12
    thetas = -np.pi + 2 * np.pi * np.arange(m) / m
    vals = np.array(
        [complex_kernel_eval(spec, DiskPoint(0.999 * rho1, t), rho1, theta1) for t in thetas]
    )
    h = 2 * np.pi / m
    assert (vals.real.sum() * h) == pytest.approx(1.0, abs=1e-6)
    assert (vals.imag.sum() * h) == pytest.approx(0.0, abs=1e-6)


def test_complex_kernel_nonconvergence_names_radius_ratio():
    opts = EvalOptions(k_max=1000)
    with pytest.raises(NonConvergenceError, match="radius ratio"):
        complex_kernel_eval(KernelSpec(1, 0.5, "naive"), DiskPoint(0.999, 0.0), 1.0, 0.0, opts)


def test_complex_kernel_at_tolerances_beyond_the_float_range():
    # pi tol (1 - r) overflows at tol 1e308 (K = 1) and underflows at 5e-324 (typed error)
    spec, p = KernelSpec(4, 0.5), DiskPoint(0.5, 0.1)
    got = complex_kernel_eval(spec, p, 1.0, 0.0, EvalOptions(tail_tol=1e308))
    want = 1 / (2 * np.pi) + filter_multiplier(1, spec) * 0.5 * np.exp(0.1j) / np.pi
    assert got == pytest.approx(want, rel=1e-15)
    with pytest.raises(NonConvergenceError):
        complex_kernel_eval(spec, DiskPoint(0.999999999, 0.1), 1.0, 0.0,
                            EvalOptions(tail_tol=5e-324))


def test_complex_kernel_approaches_real_kernel():
    from sincfilters import kernel_eval

    spec = KernelSpec(4, 0.5, "fixed")
    dtheta = 0.2
    val = complex_kernel_eval(spec, DiskPoint(0.999999, 0.3 + dtheta), 1.0, 0.3)
    real = kernel_eval(spec, dtheta, EvalOptions(tail_tol=1e-10))
    assert val.real == pytest.approx(real, abs=1e-4)


def test_segment_filter_linear_and_quadratic():
    w1 = InnerAnalytic([1.0])
    centre = 0.2 + 0.1j
    assert segment_filter(w1, centre, 0.3, 0.7) == pytest.approx(centre, abs=1e-14)
    w2 = InnerAnalytic([0.0, 1.0])
    expected = 0.25 / 3
    assert segment_filter(w2, 0j, 0.5, 0.0) == pytest.approx(expected, abs=1e-15)
    rotated = segment_filter(w2, 0j, 0.5, np.pi / 2)
    assert rotated == pytest.approx(-expected + 0j, abs=1e-15)
    # a short segment cancels in the primitive difference: within the
    # docstring's rounding bound 2^-52 * sum |a_k| R^(k+1) / L
    half, direction = 1e-6, np.exp(0.3j)
    short = segment_filter(w2, centre, half, 0.3)
    exact = centre**2 + (half * direction) ** 2 / 3
    radius = abs(centre) + half
    assert abs(short - exact) <= 2.0**-52 * radius**3 / half


def test_segment_filter_disk_guard():
    w = InnerAnalytic([1.0])
    with pytest.raises(ValueError):
        segment_filter(w, 0.8 + 0j, 0.3, 0.0)
    nan, inf = np.nan, np.inf
    for centre, half, alpha in ((complex(nan, 0), 0.1, 0.0), (complex(0, inf), 0.1, 0.0),
                                (0j, nan, 0.0), (0j, inf, 0.0), (0j, 0.1, nan), (0j, 0.1, inf),
                                (10**400, 0.1, 0.0), (0j, 10**400, 0.0), (0j, 0.1, 10**400)):
        with pytest.raises(ValueError, match="z_center, half_length and alpha must be finite"):
            segment_filter(w, centre, half, alpha)
    for half in (0.0, -0.1):
        with pytest.raises(ValueError, match="half_length must be positive"):
            segment_filter(w, 0j, half, 0.0)


def test_cauchy_riemann_residual():
    rng = np.random.default_rng(17)
    w = complex_filter_coeffs(InnerAnalytic(rng.uniform(-1, 1, size=32)), 0.5)
    h = 1e-5
    for _ in range(50):
        rho = rng.uniform(0.1, 0.8)
        theta = rng.uniform(-np.pi, np.pi)

        def f(r, t):
            return eval_inner(w, DiskPoint(r, t))

        d_rho = (f(rho + h, theta) - f(rho - h, theta)) / (2 * h)
        d_theta = (f(rho, theta + h) - f(rho, theta - h)) / (2 * h)
        r1 = d_rho.real - d_theta.imag / rho
        r2 = d_theta.real / rho + d_rho.imag
        assert abs(r1) <= 1e-6 and abs(r2) <= 1e-6


def test_boundary_consistency_with_series():
    coeffs = make_waveform("triangle", 1000)
    w = InnerAnalytic(coeffs.coeffs)
    for theta in (0.3, -2.2, 1.9):
        inner = eval_inner(w, DiskPoint(1 - 1e-8, theta))
        assert inner.real == pytest.approx(eval_series(coeffs, theta), abs=1e-6)
        sine_side = HarmonicCoefficients("sine", coeffs.coeffs)
        assert inner.imag == pytest.approx(eval_series(sine_side, theta), abs=1e-6)
        # on the circle both sides and the disk are one power sum at x = i theta
        inner = eval_inner(w, DiskPoint(1.0, theta))
        assert inner.real == eval_series(coeffs, theta)
        assert inner.imag == eval_series(sine_side, theta)


def test_inner_json_roundtrip(tmp_path):
    w = InnerAnalytic([0.5, -0.25, 0.125])
    path = tmp_path / "inner.json"
    save_inner(w, path)
    np.testing.assert_array_equal(load_inner(path).coeffs, w.coeffs)


def test_save_inner_matches_json_dump(tmp_path):
    rng = np.random.default_rng(4)
    values = np.concatenate([[-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1],
                             rng.normal(size=3000)])
    path = tmp_path / "inner.json"
    save_inner(InnerAnalytic(values), path)
    with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
        json.dump({"coeffs": values.tolist()}, fh)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_disk_scalars_are_python_complex_whatever_their_type():
    w = InnerAnalytic(np.random.default_rng(30).standard_normal(300) / np.arange(1, 301) ** 1.5)
    spec = KernelSpec(4, 0.5)
    calls = {
        "eval_inner": lambda t: eval_inner(w, DiskPoint(0.9, t)),
        "complex_kernel_eval": lambda t: complex_kernel_eval(spec, DiskPoint(0.9, t), 1.0, 0.3),
        "complex_kernel_eval theta1": lambda t: complex_kernel_eval(
            spec, DiskPoint(0.5, 0.3), 0.95, t),
        "complex_filter_eval": lambda t: complex_filter_eval(w, 0.4, DiskPoint(0.99, t)),
        "complex_filter_order_n": lambda t: complex_filter_order_n(w, 0.4, 3, DiskPoint(1.0, t)),
        "complex_filter_order_n eps": lambda t: complex_filter_order_n(
            w, abs(t) + 0.1, 2, DiskPoint(0.7, 1.0)),
    }
    for name, evaluate in calls.items():
        for theta in (-2.5, -0.0, 0.0, 0.7):
            want = evaluate(theta)
            assert type(want) is complex, name
            for scalar in (np.float64(theta), np.array(theta)):
                got = evaluate(scalar)
                assert type(got) is complex, name
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), name
    for bad in (np.nan, np.inf, np.float64(-np.inf), np.array(np.nan)):
        with pytest.raises(ValueError, match="rho and theta must be finite"):
            calls["eval_inner"](bad)
        with pytest.raises(ValueError, match="rho and theta must be finite"):
            calls["complex_kernel_eval theta1"](bad)


def test_memoised_power_steps_are_read_only():
    from sincfilters.series import _steps

    w = InnerAnalytic(1.0 / np.arange(1.0, 2049.0) ** 2)
    complex_filter_order_n(w, 0.4, 3, DiskPoint(0.9, 0.2))
    memo = _steps(math.isqrt(2049))
    assert not memo.flags.writeable
    with pytest.raises(ValueError):
        memo[0] = 1.0

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincfilters import (
    EvalOptions,
    FilterRangeError,
    HarmonicCoefficients,
    InsufficientOrderError,
    KernelSpec,
    NonConvergenceError,
    SampledSignal,
    apply_filter_coeffs,
    eval_series,
    filter_direct,
    filter_multiplier,
    kernel_eval,
    kernel_grid,
    kernel_integral,
    make_waveform,
    oracle_moving_average,
    render_signal,
    scaled_kernel_derivative,
    sinc,
    stage_range,
    theta_grid,
    total_range,
)
from sincfilters.cli import SWEEP_LISTS
from sincfilters.filters import _Periodised
from sincfilters.oracle import OracleConfig

# mpmath (30 digits) oracles, frozen
SINC_HALF = 0.958851077208406
SINC_HALF_SQ = 0.91939538826372057
A1_FILTERED_SQUARE = 1.2208471090136512  # (4/pi) * sinc(0.5)


def test_sinc_basic_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(np.pi)) < 1e-15
    assert sinc(0.5) == pytest.approx(SINC_HALF, abs=1e-15)
    assert sinc(-0.5) == sinc(0.5)


def test_sinc_taylor_branch_matches_mpmath():
    mp.mp.dps = 30
    for x in (1e-5, 5e-5, 9.9e-5, -3e-5):
        exact = float(mp.sin(mp.mpf(x)) / mp.mpf(x))
        assert sinc(x) == pytest.approx(exact, abs=1e-17)


def test_sinc_rejects_non_finite():
    with pytest.raises(ValueError):
        sinc(np.inf)


def test_multiplier_identity_at_order_zero():
    for variant in ("naive", "fixed", "gaussian", "scaled"):
        spec = KernelSpec(0, 0.7, variant)
        assert filter_multiplier(13, spec) == 1.0


def test_multiplier_vanishes_at_pi():
    assert filter_multiplier(1, KernelSpec(1, np.pi, "fixed")) == pytest.approx(0.0, abs=1e-15)


def test_multiplier_fixed_second_order():
    assert filter_multiplier(2, KernelSpec(2, 0.5, "fixed")) == pytest.approx(
        SINC_HALF_SQ, abs=1e-15
    )


def test_multiplier_scaled_is_stage_product():
    spec = KernelSpec(4, 0.5, "scaled")
    k = 7
    expected = 1.0
    for n in range(1, 5):
        expected *= sinc(k * 0.5 / 2**n)
    assert filter_multiplier(k, spec) == pytest.approx(expected, rel=1e-15)


def _stage_product(k, spec):
    """prod_n sinc(k a_n) over every stage, factors of exactly 1.0 included."""
    out = np.ones_like(np.asarray(k, dtype=float))
    for n in range(1, spec.order + 1):
        out = out * sinc(k * (spec.range_param / 2.0**n))
    return out


def test_sinc_branches_match_the_both_branch_form():
    # each branch on its own subset gives the bits of evaluating both everywhere
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 64, 1000):
        x = rng.normal(size=size) * rng.choice([1e-9, 1e-5, 9.9e-5, 1e-4, 0.3, 40.0], size=size)
        small = np.abs(x) < 1e-4
        safe = np.where(small, 1.0, x)
        t = np.where(small, x, 0.0)
        both = np.where(small, 1.0 - t * t / 6.0 + t**4 / 120.0, np.sin(safe) / safe)
        np.testing.assert_array_equal(sinc(x).view(np.int64), both.view(np.int64))


@pytest.mark.parametrize("eps", [0.5, 1e-3, 3.0])
@pytest.mark.parametrize("order", [1, 30, 100])
def test_scaled_multiplier_bit_identical_to_full_product(order, eps):
    spec = KernelSpec(order, eps, "scaled")
    stages = eps / 2.0 ** np.arange(1, order + 1)
    # k straddling each stage's exact-1 threshold 1e-8/a_n and Taylor cut 1e-4/a_n
    edges = np.concatenate([1e-8 / stages, 1e-4 / stages])
    near = np.concatenate([edges * (1 - 1e-12), edges, edges * (1 + 1e-12),
                           np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    k = np.concatenate([near[(near >= 1) & (near < 1e15)], np.arange(1.0, 5000.0)])
    k = np.random.default_rng(order).permutation(k)  # unsorted
    want = _stage_product(k, spec)
    np.testing.assert_array_equal(filter_multiplier(k, spec).view(np.int64), want.view(np.int64))
    grid = k[:12].reshape(3, 4)
    np.testing.assert_array_equal(filter_multiplier(grid, spec), want[:12].reshape(3, 4))
    for scalar in (1, 7.0, float(k[0]), float(k[-1])):
        got = filter_multiplier(scalar, spec)
        assert isinstance(got, float)
        assert got == float(_stage_product(np.float64(scalar), spec))


@pytest.mark.parametrize(
    "variant, order",
    [("naive", 1), ("naive", 2), ("naive", 6), ("fixed", 3), ("fixed", 16), ("fixed", 8192),
     ("gaussian", 5), ("gaussian", 39)],
)
def test_equal_stage_multiplier_bit_identical_to_sinc_power(variant, order):
    # the reference is the equal-stage form sinc(k a)^N with every factor evaluated
    from sincfilters.filters import stage_range

    spec = KernelSpec(order, 0.5, variant)
    a = stage_range(spec)
    edges = np.array([1e-8, 1e-4]) / a  # the exact-1 threshold and the Taylor cut
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    k = np.sort(np.concatenate([near[near >= 1], np.arange(1.0, 5000.0)]))
    unsorted = np.random.default_rng(order).permutation(k)
    for ks in (k, unsorted, unsorted[:12].reshape(3, 4), k[:12].reshape(4, 3)):
        want = sinc(ks * a) ** order
        np.testing.assert_array_equal(filter_multiplier(ks, spec).view(np.int64),
                                      want.view(np.int64))


@pytest.mark.parametrize("variant", ["naive", "fixed", "gaussian", "scaled"])
def test_scalar_multiplier_is_the_array_element(variant):
    # Python's float pow and numpy's may differ by an ulp (naive N=16 at k=3 did)
    for order in (0, 1, 2, 3, 16):
        spec = KernelSpec(order, 0.1, variant)
        for k in (1, 3.0, 17.5, 1234.0, 1e6):
            got = filter_multiplier(k, spec)
            assert isinstance(got, float)
            assert got == filter_multiplier(np.array([k]), spec)[0], (order, k)


@pytest.mark.parametrize("order", [1100, 10**5])
def test_scaled_orders_past_sixty_stages_give_the_n100_kernel(order):
    # stages past the 60th leave the tail rule, and here every multiplier bit, unchanged
    want = kernel_grid(KernelSpec(100, 0.5, "scaled"), 256)
    np.testing.assert_array_equal(kernel_grid(KernelSpec(order, 0.5, "scaled"), 256), want)


def test_zero_width_stages_leave_the_tail_rule():
    # eps/3 and eps/2^j past the subnormals round to 0: identity factors, no breakpoint
    from sincfilters.filters import _cutoff

    for spec in (KernelSpec(3, 5e-324), KernelSpec(100, 1e-310, "scaled")):
        assert np.all(filter_multiplier(np.arange(1.0, 9.0), spec) == 1.0)
        with pytest.raises(NonConvergenceError):
            _cutoff(spec, 0, 1e-12, 2**20)


def test_geometric_rule_beyond_the_float_range():
    # pi tol (1 - r) overflows: every K reaches tol; it underflows: the same bound in logs
    from sincfilters.filters import _cutoff

    spec = KernelSpec(4, 0.5)
    assert _cutoff(spec, 0, 1e308, 2**20, 0.5) == 1
    r = 0.999999999
    with mp.workdps(40):
        want = mp.log(mp.pi * mp.mpf(5e-324) * (1 - mp.mpf(r))) / mp.log(mp.mpf(r))
    assert abs(_cutoff(spec, 0, 5e-324, 2**40, r) - int(mp.ceil(want))) <= 1
    with pytest.raises(NonConvergenceError, match="radius ratio"):
        _cutoff(spec, 0, 5e-324, 2**20, r)


@pytest.mark.parametrize("variant", ["naive", "fixed", "gaussian", "scaled"])
def test_multiplier_rejects_non_finite_harmonics(variant):
    spec = KernelSpec(3, 0.5, variant)
    for bad in (np.inf, np.nan, [1.0, np.inf], [np.nan, 2.0]):
        with pytest.raises(ValueError):
            filter_multiplier(bad, spec)


@pytest.mark.parametrize(
    "spec",
    [KernelSpec(3, 0.5, "naive"), KernelSpec(5, 0.5, "fixed"), KernelSpec(5, 0.5, "gaussian"),
     KernelSpec(100, 0.5, "scaled")],
    ids=lambda s: s.variant,
)
def test_multiplier_table_is_the_one_shot_product(spec):
    from sincfilters.filters import _MULTIPLIERS, _Periodised, _multipliers

    # hit, prefix, growth, shrink, and growth past a quarter of the table (not kept)
    for K, kept in ((10, 10), (5, 10), (1000, 1000), (999, 1000), (70000, 1000)):
        want = filter_multiplier(np.arange(1, K + 1.0), spec)
        np.testing.assert_array_equal(_multipliers(spec, K).view(np.int64), want.view(np.int64))
        assert _MULTIPLIERS[spec].size == kept
    periodised = _Periodised(spec.order, spec.range_param, spec.variant)
    _multipliers(periodised, 10)
    assert list(_MULTIPLIERS) == [spec, periodised]  # equal fields, its own entry


def test_multiplier_table_is_read_only():
    from sincfilters.filters import _multipliers, _plan

    spec = KernelSpec(11, 0.5, "scaled")  # past the exact tables: its plan holds the weights
    for m in (_multipliers(spec, 100), _plan(spec, 0, EvalOptions(), "kernel_eval").weights):
        with pytest.raises(ValueError):
            m[0] = 1.0


def test_multiplier_table_stays_within_its_budget():
    from sincfilters.filters import _CACHE_BYTES, _MULTIPLIERS, _multipliers

    quarter = _CACHE_BYTES // 8 // 4
    specs = [KernelSpec(6, eps, "scaled") for eps in (0.1, 0.2, 0.3, 0.4, 0.5)]
    for spec in specs[:4]:
        _multipliers(spec, quarter)
    assert list(_MULTIPLIERS) == specs[:4]
    _multipliers(specs[0], quarter)  # a hit makes specs[0] the most recently used
    _multipliers(specs[4], quarter)  # so specs[1] goes
    assert list(_MULTIPLIERS) == [specs[2], specs[3], specs[0], specs[4]]
    assert sum(m.nbytes for m in _MULTIPLIERS.values()) == _CACHE_BYTES
    for big in (quarter + 1, _CACHE_BYTES // 8 + 1):  # past one spec's share, past the table
        got = _multipliers(specs[2], big)
        want = filter_multiplier(np.arange(1, big + 1.0), specs[2])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert _MULTIPLIERS[specs[2]].size == quarter
    assert sum(m.nbytes for m in _MULTIPLIERS.values()) == _CACHE_BYTES


def test_nonconvergence_leaves_the_multiplier_table_unchanged():
    from sincfilters.filters import _MULTIPLIERS

    kernel_eval(KernelSpec(8, 0.5), 0.1)
    before = dict(_MULTIPLIERS)
    with pytest.raises(NonConvergenceError):
        kernel_eval(KernelSpec(3, 0.5, "naive"), 0.1)  # needs 4,460,311 > 2^20 harmonics
    assert list(_MULTIPLIERS) == list(before)
    assert all(_MULTIPLIERS[s] is m for s, m in before.items())


@pytest.mark.parametrize(
    "spec",
    [KernelSpec(8, 0.3, "naive"), KernelSpec(12, 0.5, "fixed"), KernelSpec(12, 0.5, "gaussian"),
     KernelSpec(100, 0.5, "scaled")],
    ids=lambda s: s.variant,
)
def test_kernel_values_same_bits_cold_and_warm(spec):
    from sincfilters import DiskPoint, complex_kernel_eval, filters

    thetas = np.linspace(-3.5, 3.5, 41)
    calls = [
        lambda: kernel_eval(spec, thetas),
        lambda: kernel_grid(spec, 1023),
        lambda: scaled_kernel_derivative(spec, 1, thetas),
        lambda: scaled_kernel_derivative(spec, 2, thetas),
        lambda: np.array([complex_kernel_eval(spec, DiskPoint(r, 0.3), 1.0, -0.2)
                          for r in (0.5, 0.99, 0.999)]),
    ]
    cold = []
    for call in calls:
        filters._MULTIPLIERS.clear()
        filters._envelope_cutoff.cache_clear()
        cold.append(call())
    kernel_grid(spec, 8, EvalOptions(tail_tol=1e-14), 2)  # a longer entry; the calls read a prefix
    for call, want in zip(calls, cold):
        np.testing.assert_array_equal(call().view(np.int64), want.view(np.int64))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(1, 0.0)
    with pytest.raises(ValueError):
        KernelSpec(1, 3.3)
    with pytest.raises(ValueError):
        KernelSpec(4, 1.0, "naive")  # total range 4 > pi
    with pytest.raises(ValueError):
        KernelSpec(16, 1.0, "gaussian")  # sqrt(16)*1 > pi
    with pytest.raises(ValueError):
        KernelSpec(-1, 0.5)
    with pytest.raises(ValueError):
        KernelSpec(1, 0.5, "boxcar")
    with pytest.raises(ValueError):
        KernelSpec(3, np.pi, "scaled")  # the scaled construction needs eps < pi
    for order in (np.inf, -np.inf):  # int(inf) would raise OverflowError
        with pytest.raises(ValueError, match="order must be a non-negative integer"):
            KernelSpec(order, 0.5)
    with pytest.raises(ValueError):
        KernelSpec(np.nan, 0.5)
    for variant in ("naive", "fixed", "gaussian", "scaled"):  # past the float range
        with pytest.raises(ValueError, match="order must be a non-negative integer"):
            KernelSpec(10**400, 0.5, variant)


def test_apply_filter_identity_and_zero():
    coeffs = HarmonicCoefficients("sine", [1.0, 1.0])
    out = apply_filter_coeffs(coeffs, KernelSpec(0, 0.5, "naive"))
    np.testing.assert_array_equal(out.coeffs, [1.0, 1.0])
    out = apply_filter_coeffs(
        HarmonicCoefficients("sine", [1.0]), KernelSpec(1, np.pi, "naive")
    )
    assert abs(out.coeffs[0]) < 1e-15


def test_apply_filter_square_wave_first_harmonic():
    coeffs = make_waveform("square", 8)
    out = apply_filter_coeffs(coeffs, KernelSpec(1, 0.5, "naive"))
    assert out.parity == "sine"
    assert len(out) == len(coeffs)
    assert out.coeffs[0] == pytest.approx(A1_FILTERED_SQUARE, abs=1e-14)


def test_apply_filter_reads_the_table_with_the_one_shot_bits():
    from sincfilters.filters import _MULTIPLIERS

    spec = KernelSpec(100, 0.5, "scaled")
    coeffs = make_waveform("square", 5000)
    want = coeffs.coeffs * filter_multiplier(np.arange(1, 5001.0), spec)
    for K in (5000, 3000, 5000):  # cold, a prefix of the entry, a hit
        out = apply_filter_coeffs(HarmonicCoefficients("sine", coeffs.coeffs[:K]), spec)
        np.testing.assert_array_equal(out.coeffs.view(np.int64), want[:K].view(np.int64))
        out.coeffs[0] = 0.0  # the caller's array, not the table's
    assert _MULTIPLIERS[spec].size == 5000 and _MULTIPLIERS[spec][0] != 0.0


# ---------------------------------------------------------------- direct filter


def test_filter_direct_constant_is_identity():
    sig = SampledSignal(np.full(256, 3.25))
    out = filter_direct(sig, 0.8)
    np.testing.assert_allclose(out.values, 3.25, rtol=0, atol=1e-14)


def test_filter_direct_square_wave_ramp_value():
    m = 2**12
    sig = render_signal(make_waveform("square", 2**14), m)
    out = filter_direct(sig, 0.5)
    grid = theta_grid(m)
    j = np.argmin(np.abs(grid - 0.25))
    # exact moving average of the step is theta/eps on the ramp
    assert abs(out.values[j] - grid[j] / 0.5) < 2.0 / m


def test_filter_direct_eigenfunction_cosine():
    m = 2**13
    grid = theta_grid(m)
    sig = SampledSignal(np.cos(grid))
    out = filter_direct(sig, 0.5)
    np.testing.assert_allclose(out.values, sinc(0.5) * np.cos(grid), atol=1e-8)


def test_filter_direct_range_guard():
    with pytest.raises(FilterRangeError):
        filter_direct(SampledSignal(np.zeros(16)), 0.5)
    for eps in (0.0, 4.0, np.nan):
        with pytest.raises(ValueError):
            filter_direct(SampledSignal(np.zeros(1024)), eps)
    assert np.array_equal(filter_direct(SampledSignal(np.ones(64)), np.pi).values, np.ones(64))


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.floats(-100, 100), min_size=64, max_size=64),
    eps=st.floats(0.45, 3.1),
)
def test_filter_direct_bound_preservation(values, eps):
    sig = SampledSignal(values)
    out = filter_direct(sig, eps)
    assert out.values.min() >= sig.values.min()
    assert out.values.max() <= sig.values.max()


def test_filter_direct_monotonicity_preservation():
    m = 2**12
    grid = theta_grid(m)
    sig = SampledSignal(np.tanh(3 * grid))
    out = filter_direct(sig, 0.3)
    window = (grid >= -1.0) & (grid <= 1.0)  # eps-neighbourhood stays monotone
    assert np.all(np.diff(out.values[window]) >= 0.0)


def test_filter_direct_first_derivative_law():
    m = 2**12
    h = 2 * np.pi / m
    eps = 0.5
    grid = theta_grid(m)
    f = np.exp(np.sin(grid))
    out = filter_direct(SampledSignal(f), eps).values
    central = (np.roll(out, -1) - np.roll(out, 1)) / (2 * h)
    expected = (np.exp(np.sin(grid + eps)) - np.exp(np.sin(grid - eps))) / (2 * eps)
    assert np.abs(central - expected).max() < 1e-4


def test_filter_direct_matches_simpson_oracle():
    m = 2**12
    grid = theta_grid(m)
    sig = SampledSignal(np.sin(2 * grid) + 0.3 * np.cos(5 * grid))
    out = filter_direct(sig, 0.7)
    f = lambda t: np.sin(2 * t) + 0.3 * np.cos(5 * t)
    for j in (0, 401, 2048, 3000):
        ref = oracle_moving_average(f, float(grid[j]), 0.7, OracleConfig(resolution=4000))
        assert out.values[j] == pytest.approx(ref, abs=1e-8)


# ---------------------------------------------------------------- kernels


def test_kernel_requires_positive_order():
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec(0, 0.5, "naive"), 0.1)


@pytest.mark.parametrize(
    "spec", [KernelSpec(1, 0.5, "naive"), KernelSpec(2, 0.5), KernelSpec(8, 0.5, "gaussian")]
)
def test_kernel_eval_angles(spec):
    # closed forms (N = 1, 2) and the series alike: finite angles only, scalar in, float out
    opts = EvalOptions(tail_tol=1e-9)
    for bad in (np.nan, np.inf, -np.inf, [0.1, np.nan]):
        with pytest.raises(ValueError, match="theta must be finite"):
            kernel_eval(spec, bad, opts)
    assert type(kernel_eval(spec, 0.1, opts)) is float
    assert type(kernel_eval(spec, np.float64(0.1), opts)) is float
    grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    values = kernel_eval(spec, grid, opts)
    assert values.shape == (3, 4)
    assert np.array_equal(values.ravel(), kernel_eval(spec, grid.ravel(), opts))


def test_box_kernel_values():
    spec = KernelSpec(1, 0.5, "naive")
    assert kernel_eval(spec, 0.0) == 1.0
    assert kernel_eval(spec, 0.3) == 1.0
    assert kernel_eval(spec, 0.6) == 0.0
    assert kernel_eval(spec, 0.5) == 0.5  # lateral-limit average at the jump
    assert kernel_eval(spec, 2 * np.pi) == 1.0  # periodic


@pytest.mark.parametrize("variant", ["naive", "fixed"])
def test_box_of_full_range_is_the_constant(variant):
    # half-width pi averages the whole circle; at theta = +-pi the edge meets its image
    spec = KernelSpec(1, np.pi, variant)
    for theta in (-np.pi, 0.0, np.pi):
        assert kernel_eval(spec, theta) == 1 / (2 * np.pi)
    for resolution in (63, 64):
        assert np.all(kernel_grid(spec, resolution) == 1 / (2 * np.pi))


@pytest.mark.parametrize("spec", [_Periodised(2, 2.0, "naive"), _Periodised(2, 2.5, "gaussian")])
def test_wrapped_closed_form_matches_its_series(spec):
    # total range 4 and 3.5 > pi: the closed form on the period against its series at 1e-7
    from sincfilters.filters import _cutoff, _multipliers, _Plan

    tol = 1e-7
    series = _Plan(1 / (2 * np.pi), "cosine", _multipliers(spec, _cutoff(spec, 0, tol, 2**21)))
    np.testing.assert_allclose(kernel_grid(spec, 1024), series.grid(1024), rtol=0, atol=tol)
    theta = np.linspace(-7.0, 7.0, 29)
    np.testing.assert_allclose(kernel_eval(spec, theta), series.at(theta), rtol=0, atol=tol)


@pytest.mark.parametrize("variant", ["naive", "fixed", "gaussian", "scaled"])
def test_periodised_grid_is_the_in_range_spec_bit_for_bit(variant):
    # the sweep's orders up to 4 at its default --tol 1e-12, and N = 3, whose series converges
    # only at a looser tol for the equal-stage variants
    cases = [(n, EvalOptions()) for n in SWEEP_LISTS[variant] if n <= 4]
    for order, opts in cases + [(3, EvalOptions(tail_tol=1e-9))]:
        for eps in (0.3, 0.5):
            want = kernel_grid(KernelSpec(order, eps, variant), 1024, opts)
            got = kernel_grid(_Periodised(order, eps, variant), 1024, opts)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (order, eps, opts)


# ---------------------------------------------------------------- exact kernels: box-spline tables

TABLE_SPECS = [KernelSpec(n, eps, "scaled") for n in range(3, 11) for eps in (0.05, 0.5, 3.0)]


def _on_the_period(n, eps, variant):
    """The spec, or its _Periodised twin where the total range passes pi."""
    try:
        return KernelSpec(n, eps, variant)
    except ValueError:
        return _Periodised(n, eps, variant)


# N = 1 and 2 of every variant; naive N = 2 from eps 2.0 and gaussian N = 2 at 2.5 pass pi
BOX_SPECS = [_on_the_period(n, eps, v) for v in ("naive", "fixed", "gaussian", "scaled")
             for n in (1, 2) for eps in (0.05, 0.5, 2.0, 2.5)]
# the width tuples of every table: scaled N = 1..10 (N = 1 is also the equal-stage box), and the
# equal-stage N = 2
TABLE_WIDTHS = [(1, 1)] + [tuple(2**j for j in range(n)) for n in range(1, 11)]


def _spec_id(spec):
    return ("" if spec.variant == "scaled" else f"{spec.variant}-") + (
        f"N{spec.order}-eps{spec.range_param}")


def _widths_id(widths):
    return "-".join(map(str, widths)) if widths == (1, 1) else str(len(widths))


def _unit_widths(spec):
    """The narrowest stage h as a Fraction and the stages' half-widths in units of h."""
    if spec.variant == "scaled":
        return Fraction(spec.range_param) / 2**spec.order, [2**j for j in range(spec.order)]
    return Fraction(stage_range(spec)), [1] * spec.order


def _signed_shifts(widths):
    """{s.w: sum of prod s} over the sign vectors s, one sign per width."""
    signed = {}
    for signs in itertools.product((1, -1), repeat=len(widths)):
        shift = sum(s * w for s, w in zip(signs, widths))
        signed[shift] = signed.get(shift, 0) + math.prod(signs)
    return signed


def _exact_kernel(spec, theta):
    """The kernel at theta in exact rationals, independently of the package's recurrence.

    In u = theta / h it is the density of a sum of uniforms on [-w, w], one per stage:
    sum_s (prod s) (u + s.w)_+^(N-1) / ((N-1)! prod(2w)) over the sign vectors s, with
    x_+^0 = 1/2 at x = 0, the mean of the box's one-sided limits at its edge.  On the period
    it sums the images theta + 2 pi j (2 pi as its float) inside the support, which for N <= 2
    and scaled is at most 2 pi wide, so j = -2..2 holds them.
    """
    h, widths = _unit_widths(spec)
    n, signed = len(widths), _signed_shifts(widths)
    norm = math.factorial(n - 1) * math.prod(2 * w for w in widths)
    total = Fraction(0)
    for j in range(-2, 3):
        u = (Fraction(theta) + j * Fraction(2 * math.pi)) / h
        if abs(u) > sum(widths):
            continue
        p, q = u.numerator, u.denominator  # x = u + shift = (p + shift q) / q
        num = sum(c * (p + shift * q) ** (n - 1) for shift, c in signed.items() if p + shift * q > 0)
        if n == 1:
            num += sum(Fraction(c, 2) for shift, c in signed.items() if p + shift * q == 0)
        total += Fraction(num, q ** (n - 1))
    return total / norm / h


@pytest.mark.parametrize("spec", BOX_SPECS + TABLE_SPECS, ids=_spec_id)
def test_scaled_table_is_the_exact_kernel(spec):
    # within 2 ulp of the kernel's maximum (its value at 0) at seeded points of the support,
    # its edges (for N = 1 the jump, read as the mean of its limits) and pi
    rng = np.random.default_rng([spec.order, int(spec.range_param * 100)])
    edge = min(total_range(spec), np.pi)
    thetas = np.concatenate([[0.0, edge, -edge, np.pi], rng.uniform(-1.0, 1.0, 16) * edge])
    ulp = math.ulp(float(_exact_kernel(spec, 0.0)))
    for theta, value in zip(thetas, kernel_eval(spec, thetas)):
        assert abs(Fraction(value) - _exact_kernel(spec, theta)) <= 2 * ulp, theta


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=_spec_id)
def test_scaled_table_matches_its_series(spec):
    from sincfilters.filters import _cutoff, _multipliers, _Plan

    tol = 1e-12 if spec.order > 3 else 1e-9
    if spec.order == 3 and spec.range_param == 0.05:
        tol = 1e-7  # at 1e-9 this series needs 9.0e6 harmonics
    weights = _multipliers(spec, _cutoff(spec, 0, tol, 2**21 if spec.order == 3 else 2**22))
    series = _Plan(1 / (2 * np.pi), "cosine", weights)
    bound = tol + 64 * np.finfo(float).eps / spec.range_param  # tail plus rounding at the peak
    assert np.abs(kernel_grid(spec, 1024) - series.grid(1024)).max() <= bound
    theta = np.random.default_rng(spec.order).uniform(-np.pi, np.pi, 9)
    assert np.abs(kernel_eval(spec, theta) - series.at(theta)).max() <= bound


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=_spec_id)
def test_scaled_table_is_even_and_zero_past_its_support(spec):
    edge = total_range(spec)  # eps (1 - 2^-N)
    for resolution in (1023, 1024):
        v = kernel_grid(spec, resolution)
        assert np.array_equal(v[1:], v[1:][::-1])
        assert np.all(v[np.abs(theta_grid(resolution)) > edge] == 0.0)
    d = np.random.default_rng(spec.order).uniform(-4.0, 4.0, 64)
    assert np.array_equal(kernel_eval(spec, d), kernel_eval(spec, -d))
    past = np.linspace(edge, np.pi, 9)[1:]  # and their images 2 pi - theta, folded with rounding
    outside = np.concatenate([[np.nextafter(edge, 4.0)], past, -past, 2 * np.pi - past])
    assert np.all(kernel_eval(spec, outside) == 0.0)


@pytest.mark.parametrize("widths", TABLE_WIDTHS, ids=_widths_id)
def test_scaled_table_mass_is_one(widths):
    # the float coefficients' exact rational integral is 1 within one ulp (their rounding)
    from sincfilters.filters import _box_table

    order = len(widths)
    rows = zip(_box_table(widths), range(order, 0, -1))  # t^(k-1) integrates to 1/k on a cell
    mass = 2 * sum(Fraction(c) / k for row, k in rows for c in row.tolist())
    assert abs(mass - 1) <= Fraction(2**-52)
    # and _exact_kernel's density integrates to exactly 1: its primitive at u = R is
    # sum_s (prod s) (R + s.w)^N / (N! prod(2w))
    top = sum(widths)
    primitive = sum(c * (top + shift) ** order for shift, c in _signed_shifts(widths).items())
    assert primitive == math.factorial(order) * math.prod(2 * w for w in widths)


def test_scaled_tables_take_only_their_specs():
    # N <= 2 of every variant and scaled N = 3..10 at deriv 0 with their narrowest stage a normal
    # float read one of the TABLE_WIDTHS tables; equal-stage N >= 3, scaled N >= 11 and every
    # derivative keep the series
    from sincfilters.filters import _box_table, _plan

    opts = EvalOptions()
    tables = [_box_table(widths) for widths in TABLE_WIDTHS]
    for spec in BOX_SPECS + TABLE_SPECS + [KernelSpec(10, 2.0**-1012, "scaled"),
                                           _Periodised(3, 0.5, "scaled")]:
        plan = _plan(spec, 0, opts, "kernel_eval")
        assert plan.closed is not None and plan.weights.size == 0
        assert any(plan.closed.args[0] is table for table in tables), spec
    series = [(KernelSpec(3, 0.5, v), 0) for v in ("naive", "fixed", "gaussian")]
    series += [(KernelSpec(11, 0.5, "scaled"), 0), (KernelSpec(6, 0.5, "fixed"), 0),
               (KernelSpec(8, 0.5, "gaussian"), 0), (KernelSpec(4, 0.5, "naive"), 0)]
    series += [(KernelSpec(n, 0.3, v), deriv) for v in ("naive", "fixed", "gaussian", "scaled")
               for n, deriv in ((4, 1), (6, 2), (10, 1), (10, 2))]
    for spec, deriv in series:  # at a tol that N = 3 reaches
        assert _plan(spec, deriv, EvalOptions(tail_tol=1e-6), "kernel_eval").closed is None, (spec, deriv)


@pytest.mark.parametrize("eps", [1e-310, 5e-324])
def test_scaled_kernel_at_a_subnormal_stage_width_does_not_converge(eps):
    # the narrowest stage (eps / 2^3 for scaled N = 3, and N = 1 and 2 of every variant) is
    # subnormal or 0: the series' NonConvergenceError, never inf, nan or a warning
    specs = [KernelSpec(3, eps, "scaled")]
    specs += [KernelSpec(n, eps, v) for v in ("naive", "fixed", "gaussian", "scaled") for n in (1, 2)]
    for spec in specs:
        for evaluate in (lambda: kernel_eval(spec, [0.0, 1e-320, 0.1]),
                         lambda: kernel_grid(spec, 64)):
            with pytest.raises(NonConvergenceError):
                evaluate()


def test_scaled_table_at_the_smallest_normal_stage_width():
    # h = 2^-1022: u = theta / h reaches 1.4e308, and the peak stays finite (scaled: 1/eps)
    h = 2.0**-1022
    specs = [KernelSpec(order, 2.0**order * h, "scaled") for order in (1, 2, 3, 10)]
    specs += [KernelSpec(n, scale * h, v) for n in (1, 2)
              for v, scale in (("naive", 1), ("fixed", n), ("gaussian", math.sqrt(n)))]
    for spec in specs:
        assert kernel_eval(spec, 0.0) == pytest.approx(float(_exact_kernel(spec, 0.0)), rel=1e-15)
        assert kernel_eval(spec, [np.pi, 1e-300, 3 * spec.range_param]).tolist() == [0.0] * 3
        v = kernel_grid(spec, 1023)
        assert v[0] == 0.0 and np.all(np.isfinite(v))
    for order in (3, 10):
        assert kernel_eval(KernelSpec(order, 2.0**order * h, "scaled"), 0.0) == pytest.approx(
            2.0**-order / h, rel=1e-15)


def test_hat_kernel_closed_form_and_oracle():
    spec = KernelSpec(2, 0.5, "fixed")
    assert kernel_eval(spec, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert kernel_eval(spec, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert kernel_eval(spec, 0.5) == 0.0
    # brute quadrature oracle: average the first box over the second window
    s = 0.25
    box = lambda t: np.where(np.abs(t) < s, 1 / (2 * s), np.where(np.abs(t) == s, 1 / (4 * s), 0.0))
    for x in (0.0, 0.1, 0.2, 0.3, 0.45):
        ref = oracle_moving_average(box, x, s, OracleConfig(resolution=100_000))
        assert kernel_eval(spec, x) == pytest.approx(ref, abs=1e-4)


def test_series_kernel_matches_iterated_box_oracle():
    # N=4 fixed at eps=0.5: series path vs Simpson averages of the exact hat
    spec = KernelSpec(4, 0.5, "fixed")
    opts = EvalOptions(tail_tol=1e-10)
    s = 0.125
    hat2 = lambda t: np.clip(np.minimum(t + s, s) - np.maximum(t - s, -s), 0, None) / (4 * s * s)
    cfg = OracleConfig(resolution=2000)
    for x in (0.0, 0.07, 0.2, 0.33, 0.49):
        ref = oracle_moving_average(
            lambda u: oracle_moving_average(hat2, u, s, cfg), x, s, cfg
        )
        assert kernel_eval(spec, x, opts) == pytest.approx(ref, abs=1e-6)


def test_kernel_series_n3_matches_triple_box_closed_form():
    # order-3 naive kernel is the triple box convolution; peak is 3/(8s)
    spec = KernelSpec(3, 0.5, "naive")
    opts = EvalOptions(tail_tol=1e-8, k_max=2**21)
    assert kernel_eval(spec, 0.0, opts) == pytest.approx(3 / (8 * 0.5), abs=1e-7)


def test_closed_forms_match_truncated_series():
    # the N=1 and N=2 closed forms agree with long partial sums of their
    # own Fourier series (slow pointwise convergence bounds the tolerance)
    def _series_values(multipliers, d):
        cosines = HarmonicCoefficients("cosine", multipliers)
        return 1 / (2 * np.pi) + eval_series(cosines, d) / np.pi

    k = np.arange(1, 200_001)
    eps = 0.5
    box_series = _series_values(sinc(k * eps), np.array([0.0, 0.2, 0.31, 0.8, 2.0]))
    box_exact = [1.0, 1.0, 1.0, 0.0, 0.0]
    np.testing.assert_allclose(box_series, box_exact, atol=2e-2)
    hat_series = _series_values(sinc(k * eps / 2) ** 2, np.array([0.0, 0.2, 0.31, 0.8]))
    spec = KernelSpec(2, eps, "fixed")
    hat_exact = [kernel_eval(spec, d) for d in (0.0, 0.2, 0.31, 0.8)]
    np.testing.assert_allclose(hat_series, hat_exact, atol=1e-4)


def test_gaussian_variant_kernel_shape():
    # with per-stage range eps/sqrt(N) the order-N kernel approaches the
    # normalized Gaussian of variance N * (stage^2 / 3) = eps^2 / 3
    eps, order = 0.3, 64
    spec = KernelSpec(order, eps, "gaussian")
    opts = EvalOptions(tail_tol=1e-10)
    sigma2 = eps**2 / 3
    pts = np.linspace(-1.2, 1.2, 25)
    expected = np.exp(-(pts**2) / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)
    got = kernel_eval(spec, pts, opts)
    np.testing.assert_allclose(got, expected, atol=2e-2 * expected.max())


@settings(max_examples=40, deadline=None)
@given(d=st.floats(-10, 10))
def test_kernel_evenness_exact(d):
    spec = KernelSpec(2, 0.5, "fixed")
    assert kernel_eval(spec, d) == kernel_eval(spec, -d)


def test_kernel_compact_support():
    opts = EvalOptions(tail_tol=1e-9)
    for spec in (KernelSpec(1, 0.4, "naive"), KernelSpec(2, 0.8, "fixed"), KernelSpec(5, 0.5, "fixed")):
        r = total_range(spec)
        for d in np.linspace(r * 1.001, np.pi, 7):
            assert abs(kernel_eval(spec, d, opts)) <= 1e-9


def test_kernel_integral_examples():
    assert kernel_integral(KernelSpec(1, 0.5, "naive")) == pytest.approx(1.0, abs=1e-8)
    assert kernel_integral(KernelSpec(4, 0.5, "fixed")) == pytest.approx(1.0, abs=1e-10)
    assert kernel_integral(KernelSpec(2, np.pi, "fixed")) == pytest.approx(1.0, abs=1e-10)


def test_tail_rule_bounds_the_computed_tail():
    # (1/pi) sum_{K<k<=4K} |m_k| k^d r^k stays below tol at the K the rule picks
    from sincfilters.filters import _cutoff

    cases = [
        ("naive", 3, 0.5, 0, 1e-4), ("naive", 4, 0.6, 0, 1e-6),
        ("fixed", 3, 0.5, 0, 1e-5), ("fixed", 4, 0.5, 0, 1e-6), ("fixed", 16, 0.5, 0, 1e-9),
        ("gaussian", 6, 0.5, 0, 1e-7), ("gaussian", 16, 0.7, 0, 1e-9),
        ("scaled", 3, 0.5, 0, 1e-4), ("scaled", 4, 0.5, 0, 1e-6), ("scaled", 10, 0.5, 0, 1e-9),
        ("scaled", 100, 0.5, 0, 1e-12), ("scaled", 4, 0.5, 1, 1e-3), ("scaled", 8, 0.5, 1, 1e-6),
        ("scaled", 100, 0.5, 1, 1e-9), ("scaled", 5, 0.5, 2, 1e-3), ("scaled", 10, 0.5, 2, 1e-6),
        ("scaled", 100, 0.5, 2, 1e-9), ("scaled", 100, 0.5, 3, 1e-9), ("scaled", 100, 0.1, 0, 1e-6),
        ("scaled", 100, 0.5, 1, 1e-12), ("scaled", 100, 3.0, 3, 1e-3), ("scaled", 12, 0.5, 3, 1e-6),
        ("scaled", 7, 0.5, 3, 1e-3),
    ]
    radius_cases = [
        ("naive", 1, 0.5, 0, 1e-12, 0.9), ("fixed", 2, 0.5, 0, 1e-12, 0.999),
        ("scaled", 2, 0.5, 0, 1e-12, 0.99), ("fixed", 4, 0.5, 0, 1e-9, 0.999),
    ]
    for variant, order, eps, deriv, tol, radius in [c + (1.0,) for c in cases] + radius_cases:
        spec = KernelSpec(order, eps, variant)
        k_cut = _cutoff(spec, deriv, tol, 2**16, radius)
        k = np.arange(k_cut + 1, 4 * k_cut + 1, dtype=float)
        tail = np.sum(np.abs(filter_multiplier(k, spec)) * k**deriv * radius**k) / np.pi
        assert tail <= tol, (variant, order, deriv, radius, k_cut, tail / tol)


# K of the tail rules the envelope rule replaced (a dyadic block rule for scaled,
# power laws for every variant), recorded with them: (variant, N, eps, deriv, tol, K).
RETIRED_RULE_K = [
    ("naive", 2, 0.5, 0, 0.001, 1274),
    ("naive", 3, 0.5, 0, 0.001, 36),
    ("naive", 3, 1.0, 0, 1e-06, 399),
    ("naive", 4, 0.6, 0, 1e-06, 94),
    ("naive", 5, 0.3, 1, 1e-09, 3522),
    ("naive", 8, 0.1, 2, 1e-12, 5765),
    ("naive", 16, 0.1, 3, 1e-09, 90),
    ("naive", 30, 0.1, 0, 1e-12, 25),
    ("fixed", 3, 0.5, 0, 1e-12, 5863231),
    ("fixed", 3, 0.5, 0, 1e-09, 185412),
    ("fixed", 4, 0.5, 0, 1e-06, 758),
    ("fixed", 6, 0.5, 0, 1e-09, 718),
    ("fixed", 16, 0.5, 0, 1e-09, 125),
    ("fixed", 6, 1.0, 1, 1e-06, 247),
    ("fixed", 10, 0.5, 2, 1e-09, 897),
    ("fixed", 30, 3.0, 3, 1e-12, 35),
    ("fixed", 100, 0.5, 0, 1e-12, 264),
    ("fixed", 500, 0.1, 3, 0.001, 5351),
    ("fixed", 8192, 0.5, 0, 1e-09, 16425),
    ("gaussian", 3, 0.5, 0, 0.001, 82),
    ("gaussian", 6, 0.5, 0, 1e-06, 62),
    ("gaussian", 16, 0.7, 0, 1e-09, 20),
    ("gaussian", 5, 1.0, 1, 1e-06, 182),
    ("gaussian", 8, 0.5, 2, 1e-09, 582),
    ("gaussian", 10, 0.5, 3, 1e-12, 1326),
    ("gaussian", 100, 0.3, 0, 1e-12, 44),
    ("gaussian", 30, 0.1, 1, 0.001, 80),
    ("scaled", 2, 0.5, 0, 0.001, 10186),
    ("scaled", 3, 0.5, 0, 0.0001, 903),
    ("scaled", 3, 0.5, 0, 1e-09, 285460),
    ("scaled", 4, 0.5, 0, 1e-06, 1203),
    ("scaled", 5, 0.5, 0, 1e-09, 3023),
    ("scaled", 8, 0.5, 0, 1e-09, 969),
    ("scaled", 9, 0.5, 0, 1e-09, 1024),
    ("scaled", 10, 0.5, 0, 1e-09, 2048),
    ("scaled", 30, 1.0, 0, 1e-12, 2048),
    ("scaled", 60, 3.0, 0, 1e-12, 683),
    ("scaled", 100, 0.5, 0, 1e-12, 4096),
    ("scaled", 100, 0.1, 0, 1e-06, 5120),
    ("scaled", 4, 0.5, 1, 0.001, 1615),
    ("scaled", 8, 0.5, 1, 1e-06, 989),
    ("scaled", 100, 0.5, 1, 1e-09, 4096),
    ("scaled", 61, 1.0, 1, 1e-12, 4096),
    ("scaled", 5, 0.5, 2, 0.001, 12919),
    ("scaled", 10, 0.5, 2, 1e-06, 2889),
    ("scaled", 100, 0.5, 2, 1e-09, 16384),
    ("scaled", 100, 0.5, 2, 1e-12, 32768),
    ("scaled", 6, 0.5, 3, 0.001, 146156),
    ("scaled", 12, 0.5, 3, 1e-06, 9153),
    ("scaled", 100, 0.5, 3, 1e-09, 65536),
    ("scaled", 500, 3.0, 3, 0.001, 683),
]


@pytest.mark.parametrize("variant, order, eps, deriv, tol, k_old", RETIRED_RULE_K)
def test_envelope_rule_never_needs_more_harmonics(variant, order, eps, deriv, tol, k_old):
    from sincfilters.filters import _cutoff

    k_new = _cutoff(KernelSpec(order, eps, variant), deriv, tol, 2**40)
    if variant == "scaled":
        assert k_new <= k_old
    else:  # one breakpoint of multiplicity N: the envelope integral is the old power law
        assert k_new == k_old


def _envelope_tail(spec, deriv, x):
    """(1/pi) int_x^inf t^deriv prod_n min(1, 1/(t a_n)) dt, segment by segment in 40 digits.

    Scaled stages past the 60th are left out, as the rule leaves them out.
    """
    from sincfilters.filters import stage_range

    with mp.workdps(40):
        if spec.variant == "scaled":
            stages = [mp.mpf(spec.range_param) / 2**n for n in range(1, min(spec.order, 60) + 1)]
        else:
            stages = [mp.mpf(stage_range(spec))] * spec.order
        lo = mp.mpf(x)
        total = mp.mpf(0)
        for hi in sorted({1 / a for a in stages if 1 / a > lo}) + [mp.inf]:
            active = [a for a in stages if 1 / a <= lo]  # the integrand is t^deriv / prod (t a)
            q = deriv + 1 - len(active)
            total += (hi**q - lo**q) / (q * mp.fprod(active))
            lo = hi
        return total / mp.pi


@pytest.mark.parametrize(
    "variant, order, eps, deriv, tol",
    [("naive", 3, 0.5, 0, 1e-3), ("fixed", 3, 0.5, 0, 1e-12), ("fixed", 40, 2.0, 2, 1e-6),
     ("gaussian", 9, 0.8, 1, 1e-9), ("scaled", 3, 0.5, 0, 1e-9), ("scaled", 6, 0.5, 3, 1e-3),
     ("scaled", 10, 0.5, 0, 1e-9), ("scaled", 61, 1.0, 1, 1e-12), ("scaled", 100, 0.5, 0, 1e-12),
     ("scaled", 100, 0.5, 2, 1e-9), ("scaled", 100, 0.5, 3, 1e-9), ("scaled", 100, 1e-3, 0, 1e-6),
     ("scaled", 10, 0.5, 0, 10.0), ("fixed", 5, 0.5, 1, 1e3)],
)
def test_envelope_rule_is_the_smallest_k(variant, order, eps, deriv, tol):
    # K reaches tol and K - 1 does not, unless K is the (deriv+2)-th breakpoint (the last two cases)
    from sincfilters.filters import _envelope_cutoff, _stages

    spec = KernelSpec(order, eps, variant)
    k = _envelope_cutoff(spec, deriv, tol)
    floor = sorted(1.0 / a for a in _stages(spec))[deriv + 1]
    assert k >= floor and _envelope_tail(spec, deriv, k) <= tol
    assert k - 1 < floor or _envelope_tail(spec, deriv, k - 1) > tol
    assert (k == math.ceil(floor)) == (tol > 1.0)


@pytest.mark.parametrize("variant", ["naive", "fixed", "gaussian", "scaled"])
def test_stageless_specs_take_the_geometric_rule(variant):
    # N = 0 and 1 have fewer than deriv + 2 stages: no envelope K, so r < 1 needs the geometric K
    from sincfilters.filters import _cutoff, _envelope_cutoff

    for order in (0, 1):
        spec = KernelSpec(order, 0.5, variant)
        for deriv in range(4):
            assert _envelope_cutoff(spec, deriv, 1e-9) == math.inf
        for tol, r in ((1e-12, 0.9), (1e-9, 0.999), (1e-3, 0.5)):
            want = math.ceil(math.log(math.pi * tol * (1 - r)) / math.log(r))
            assert _cutoff(spec, 0, tol, 2**20, r) == want
        with pytest.raises(NonConvergenceError):
            _cutoff(spec, 0, 1e-9, 2**20)


# ---------------------------------------------------------------- kernels on the grid


def test_kernel_grid_closed_forms_are_kernel_eval():
    # kernel_eval on theta_j for j <= M/2, and v[M-j] = v[j] for the rest
    for spec in (KernelSpec(1, 0.5, "naive"), KernelSpec(2, 0.5), KernelSpec(2, 0.4, "scaled")):
        for m in (1000, 1023):
            got = kernel_grid(spec, m)
            half = kernel_eval(spec, theta_grid(m)[: m // 2 + 1])
            assert np.array_equal(got[: m // 2 + 1], half)
            assert np.array_equal(got[m // 2 + 1 :], half[1 : m - m // 2][::-1])


@pytest.mark.parametrize("resolution", [1000, 1023, 1024])
@pytest.mark.parametrize("variant", ["naive", "fixed", "gaussian", "scaled"])
def test_kernel_grid_closed_forms_exactly_even(variant, resolution):
    for order in (1, 2):
        for eps in (0.3, 0.5, 1.0):
            v = kernel_grid(KernelSpec(order, eps, variant), resolution)
            assert np.array_equal(v[1:], v[1:][::-1]), (order, eps)


@pytest.mark.parametrize(
    "spec, tol, resolution",
    [
        (KernelSpec(6, 0.5, "fixed"), 1e-9, 1024),  # K = 718 < M
        (KernelSpec(100, 0.5, "scaled"), 1e-12, 8192),  # K = 2219 < M
        (KernelSpec(8192, 0.5, "fixed"), 1e-9, 1024),  # K = 16425 > M
        (KernelSpec(3, 0.5, "scaled"), 1e-9, 1024),  # the exact table on the grid and at angles
        (_Periodised(2, 2.0, "naive"), 1e-6, 1024),  # range 4 > pi: closed form plus its image
        (KernelSpec(3, 0.5, "fixed"), 1e-9, 1024),  # K = 185412 >> M
    ],
)
def test_kernel_grid_matches_direct_sum(spec, tol, resolution):
    opts = EvalOptions(tail_tol=tol)
    rows = np.arange(0, resolution, 37)
    got = kernel_grid(spec, resolution, opts)
    direct = kernel_eval(spec, theta_grid(resolution)[rows], opts)
    assert np.abs(got[rows] - direct).max() <= 1e-12 * np.abs(got).max()


@pytest.mark.parametrize("deriv", [1.5, -1])
def test_derivative_order_must_be_a_non_negative_integer(deriv):
    spec = KernelSpec(100, 0.5, "scaled")
    with pytest.raises(ValueError):
        kernel_grid(spec, 64, deriv=deriv)
    with pytest.raises(ValueError):
        scaled_kernel_derivative(spec, deriv, 0.1)
    with pytest.raises(ValueError):
        kernel_eval(spec, 0.1, deriv=deriv)


@pytest.mark.parametrize("order", [1, 2, 100])
def test_grid_resolution_must_be_an_integer(order):
    spec = KernelSpec(order, 0.5, "scaled")
    coeffs = HarmonicCoefficients("sine", [1.0, 0.5])
    for resolution in (8.5, 1024.0, np.float64(64.0)):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            theta_grid(resolution)
        with pytest.raises(ValueError, match="resolution must be an integer"):
            kernel_grid(spec, resolution)
        with pytest.raises(ValueError, match="resolution must be an integer"):
            render_signal(coeffs, resolution)
    m = np.int64(16)
    assert np.array_equal(theta_grid(m), theta_grid(16))
    assert np.array_equal(kernel_grid(spec, m), kernel_grid(spec, 16))
    assert np.array_equal(render_signal(coeffs, m).values, render_signal(coeffs, 16).values)


@pytest.mark.parametrize("deriv", [1, 2, 3])
def test_kernel_grid_derivatives_match_direct_sum(deriv):
    spec = KernelSpec(100, 0.5, "scaled")
    rows = np.arange(0, 1024, 37)
    got = kernel_grid(spec, 1024, deriv=deriv)
    direct = scaled_kernel_derivative(spec, deriv, theta_grid(1024)[rows])
    assert np.abs(got[rows] - direct).max() <= 1e-12 * np.abs(got).max()
    assert np.array_equal(direct, kernel_eval(spec, theta_grid(1024)[rows], deriv=deriv))
    fixed = KernelSpec(8, 0.5, "fixed")
    got = kernel_grid(fixed, 1024, deriv=deriv)
    direct = kernel_eval(fixed, theta_grid(1024)[rows], deriv=deriv)
    assert np.abs(got[rows] - direct).max() <= 1e-12 * np.abs(got).max()
    for bad in (np.nan, np.inf, [0.1, np.nan]):
        with pytest.raises(ValueError, match="theta must be finite"):
            scaled_kernel_derivative(spec, deriv, bad)


@pytest.mark.parametrize("resolution", [1024, 1023])
def test_kernel_grid_exactly_symmetric(resolution):
    opts = EvalOptions(tail_tol=1e-9)
    cases = [(KernelSpec(1, 0.5, "naive"), 0), (KernelSpec(5, 0.5, "gaussian"), 0),
             (KernelSpec(100, 0.5, "scaled"), 0)]
    cases += [(KernelSpec(100, 0.5, "scaled"), d) for d in (1, 2, 3)]
    for spec, deriv in cases:
        v = kernel_grid(spec, resolution, opts, deriv)
        mirror = v[1:][::-1]  # theta_{M-j} = -theta_j (mod 2 pi)
        if deriv % 2 == 0:
            assert np.array_equal(v[1:], mirror), (spec, deriv)
        else:
            assert np.array_equal(v[1:], -mirror), (spec, deriv)
            assert v[0] == 0.0
            if resolution % 2 == 0:
                assert v[resolution // 2] == 0.0


def test_kernel_grid_rejects_invalid_requests():
    # one contract for both off-circle consumers: kernel_eval at angles, kernel_grid on the grid
    for evaluate, points, bad_points in ((kernel_eval, 0.3, np.inf), (kernel_grid, 64, 0)):
        with pytest.raises(ValueError):
            evaluate(KernelSpec(0, 0.5), points)  # the delta kernel
        with pytest.raises(ValueError):
            evaluate(KernelSpec(4, 0.5), bad_points)
        for deriv in (-1, 1.5):
            with pytest.raises(ValueError):
                evaluate(KernelSpec(4, 0.5), points, deriv=deriv)
        with pytest.raises(InsufficientOrderError):
            evaluate(KernelSpec(3, 0.5, "scaled"), points, deriv=2)
        spec = KernelSpec(100, 0.5, "scaled")
        want = evaluate(spec, points, deriv=2)
        np.testing.assert_array_equal(evaluate(spec, points, deriv=np.int64(2)), want)


def test_kernel_nonconvergence_at_default_tolerance():
    with pytest.raises(NonConvergenceError):
        kernel_eval(KernelSpec(3, 0.5, "fixed"), 0.1)


def test_multiplier_monotone_identity_limit():
    # for fixed k, sinc(k*eps) -> 1 monotonically as eps -> 0
    k = 3
    values = [filter_multiplier(k, KernelSpec(1, e, "naive")) for e in (0.8, 0.4, 0.2, 0.1, 0.05)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_oracle_equivalence_coefficient_vs_direct():
    # render(apply_filter_coeffs) vs N-fold direct composition, L_inf <= 1e-3
    m = 2**12
    rng = np.random.default_rng(7)
    smooth = HarmonicCoefficients("cosine", rng.normal(size=16) / np.arange(1, 17) ** 2)
    cases = [
        (make_waveform("triangle", 2**14), 1, "naive"),
        (make_waveform("triangle", 2**14), 2, "fixed"),
        (make_waveform("triangle", 2**14), 4, "fixed"),
        (smooth, 1, "naive"),
        (smooth, 2, "fixed"),
        (smooth, 4, "gaussian"),
        (make_waveform("square", 2**14), 1, "naive"),
    ]
    for coeffs, order, variant in cases:
        spec = KernelSpec(order, 0.5, variant)
        expected = render_signal(apply_filter_coeffs(coeffs, spec), m)
        from sincfilters import stage_range

        stage = stage_range(spec)
        out = render_signal(coeffs, m)
        for _ in range(order):
            out = filter_direct(out, stage)
        err = np.abs(out.values - expected.values).max()
        assert err <= 1e-3, (order, variant, err)

    # scaled variant: stages eps/2, eps/4, ... rather than equal ranges
    spec = KernelSpec(4, 0.5, "scaled")
    expected = render_signal(apply_filter_coeffs(smooth, spec), m)
    out = render_signal(smooth, m)
    for n in range(1, 5):
        out = filter_direct(out, 0.5 / 2**n)
    assert np.abs(out.values - expected.values).max() <= 1e-3

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincfilters import (
    EvalOptions,
    HarmonicCoefficients,
    OracleConfig,
    SampledSignal,
    eval_series,
    load_coefficients,
    load_inner,
    load_signal,
    make_waveform,
    oracle_moving_average,
    oracle_series_value,
    render_signal,
    save_coefficients,
    save_signal,
    theta_grid,
)
from sincfilters.series import _mirror, _mirrored_cells, _write_rows

# Brute partial sums at k_max = 1e5, frozen from a 30-digit mpmath run.
TRIANGLE_AT_ZERO_1E5 = -0.99999594715265444
SQUARE_AT_HALF_PI_1E5 = 0.99999363380227696


def test_waveform_square_first_coeffs():
    w = make_waveform("square", 3)
    assert w.parity == "sine"
    np.testing.assert_allclose(w.coeffs, [4 / np.pi, 0.0, 4 / (3 * np.pi)], rtol=0, atol=0)


def test_waveform_triangle_first_coeff():
    w = make_waveform("triangle", 1)
    assert w.parity == "cosine"
    np.testing.assert_allclose(w.coeffs, [-8 / np.pi**2])


def test_waveform_sawtooth_first_coeffs():
    w = make_waveform("sawtooth", 2)
    assert w.parity == "sine"
    np.testing.assert_allclose(w.coeffs, [0.0, -2 / np.pi])


def test_waveform_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_waveform("sine", 4)


def test_triangle_partial_sum_matches_brute_oracle():
    w = make_waveform("triangle", 10**5)
    value = eval_series(w, 0.0)
    oracle = oracle_series_value("cosine", w.coeffs, 0.0)
    assert abs(oracle - TRIANGLE_AT_ZERO_1E5) < 1e-14
    assert abs(value - oracle) < 1e-9
    # the truncation itself sits ~4e-6 from the limit -1
    assert abs(value - (-1.0)) < 5e-6


def test_square_partial_sum_at_half_pi():
    w = make_waveform("square", 10**5)
    value = eval_series(w, np.pi / 2)
    assert abs(value - SQUARE_AT_HALF_PI_1E5) < 1e-9
    assert abs(value - 1.0) < 1e-4


def test_sine_series_vanishes_at_origin():
    w = HarmonicCoefficients("sine", np.random.default_rng(0).normal(size=50))
    assert eval_series(w, 0.0) == 0.0


def test_k_max_truncation():
    w = HarmonicCoefficients("cosine", [1.0, 1.0, 1.0])
    assert eval_series(w, 0.0, EvalOptions(k_max=2)) == 2.0
    assert type(eval_series(w, np.float64(0.0))) is float
    grid = np.zeros((2, 3))
    np.testing.assert_array_equal(eval_series(w, grid, EvalOptions(k_max=2)), np.full((2, 3), 2.0))


def test_sizes_must_be_integers():
    # a float size is refused at once; later it fails as a slice or count, or rounds K up
    for make, field in ((lambda v: EvalOptions(k_max=v), "k_max"),
                        (lambda v: make_waveform("square", v), "k_max"),
                        (lambda v: EvalOptions(quad_resolution=v), "quad_resolution"),
                        (lambda v: OracleConfig(resolution=v), "resolution")):
        for bad in (5.5, 64.5, 10.5, 64.0):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                make(bad)
        make(np.int64(64))
    w = HarmonicCoefficients("cosine", [1.0, 1.0, 1.0])
    assert eval_series(w, 0.0, EvalOptions(k_max=np.int64(2))) == 2.0
    assert oracle_moving_average(np.cos, 0.0, 0.5, OracleConfig(np.int64(10))) > 0.0
    np.testing.assert_array_equal(make_waveform("square", np.int64(9)).coeffs,
                                  make_waveform("square", 9).coeffs)


@settings(max_examples=60, deadline=None)
@given(
    parity=st.sampled_from(["cosine", "sine"]),
    coeffs=st.lists(st.floats(-10, 10), min_size=0, max_size=8),
    theta=st.floats(-1e6, 1e6),
)
def test_parity_symmetry_exact(parity, coeffs, theta):
    w = HarmonicCoefficients(parity, coeffs)
    plus = eval_series(w, theta)
    minus = eval_series(w, -theta)
    assert minus == (plus if parity == "cosine" else -plus)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    theta=st.floats(-50, 50),
)
def test_periodicity(coeffs, theta):
    w = HarmonicCoefficients("sine", coeffs)
    assert eval_series(w, theta + 2 * np.pi) == pytest.approx(eval_series(w, theta), abs=1e-10)


def test_zero_mean_quadrature():
    opts = EvalOptions()
    for kind in ("square", "sawtooth", "triangle"):
        sig = render_signal(make_waveform(kind, 512), 1024, opts)
        total = sig.values.sum() * (2 * np.pi / sig.resolution)
        assert abs(total) <= opts.tail_tol * sig.resolution


def test_render_single_harmonic_m4():
    sig = render_signal(HarmonicCoefficients("sine", [1.0]), 4)
    np.testing.assert_allclose(sig.values, [0.0, -1.0, 0.0, 1.0], atol=1e-15)


def test_render_empty_coeffs():
    sig = render_signal(HarmonicCoefficients("sine", []), 8)
    assert sig.resolution == 8
    assert np.all(sig.values == 0.0)


def test_render_square_jump_midpoints():
    sig = render_signal(make_waveform("square", 10**5), 4)
    # theta grid {-pi, -pi/2, 0, pi/2}: jumps at -pi and 0 give midpoint 0
    np.testing.assert_allclose(sig.values, [0.0, -1.0, 0.0, 1.0], atol=1e-4)


def test_grid_convention_contains_zero_and_minus_pi():
    g = theta_grid(8)
    assert g[0] == -np.pi
    assert g[4] == 0.0
    assert g.size == 8


def test_signal_wrapping_lookup():
    sig = SampledSignal([1.0, 2.0, 3.0])
    assert sig.value_at(4) == 2.0
    assert sig.value_at(-1) == 3.0


def test_invalid_inputs_rejected(tmp_path):
    with pytest.raises(ValueError):
        HarmonicCoefficients("cos", [1.0])
    with pytest.raises(ValueError):
        HarmonicCoefficients("cosine", [np.nan])
    for bad in (np.inf, np.nan, [0.1, np.nan]):
        with pytest.raises(ValueError, match="theta must be finite"):
            eval_series(HarmonicCoefficients("cosine", [1.0]), bad)
    with pytest.raises(ValueError):
        render_signal(HarmonicCoefficients("cosine", [1.0]), 1)
    one_cell = tmp_path / "one_cell.csv"
    one_cell.write_text("theta,value\n-3.141592653589793,1.0\n0.0\n")
    with pytest.raises(ValueError):
        load_signal(one_cell)
    off_grid = tmp_path / "off_grid.csv"
    off_grid.write_text("theta,value\n9,1.0\n7,2.0\n")  # the M=2 grid is -pi, 0
    with pytest.raises(ValueError):
        load_signal(off_grid)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("theta,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected without a warning first
        with pytest.raises(ValueError):
            load_signal(header_only)


def test_loaders_reject_an_integer_past_the_float_range(tmp_path):
    # np.asarray would raise OverflowError converting 10**400 to a float
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"parity": "cosine", "coeffs": [1.5, 10**400]}))
    for load in (load_coefficients, load_inner):
        with pytest.raises(ValueError, match="finite"):
            load(path)


def test_coefficient_json_roundtrip(tmp_path):
    w = make_waveform("triangle", 7)
    path = tmp_path / "coeffs.json"
    save_coefficients(w, path)
    back = load_coefficients(path)
    assert back.parity == w.parity
    np.testing.assert_array_equal(back.coeffs, w.coeffs)
    obj = json.loads(path.read_text())
    assert set(obj) == {"parity", "coeffs"}


def test_signal_csv_roundtrip(tmp_path):
    sig = render_signal(make_waveform("square", 64), 32)
    path = tmp_path / "signal.csv"
    save_signal(sig, path)
    assert path.read_text().splitlines()[0] == "theta,value"
    assert b"\r" not in path.read_bytes()  # LF line ends
    back = load_signal(path)
    np.testing.assert_array_equal(back.values, sig.values)


def _per_row_rows(path, header, xs, ys):
    """The writer's reference: one f-string per row, every value at .17g."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        fh.writelines(f"{x:.17g},{y:.17g}\n" for x, y in zip(xs, ys))


SPECIAL_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, -1e-5, 2.0**53 + 2]


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 16384])
def test_write_rows_matches_per_row_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    floats = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    floats[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:rows]
    k = np.arange(1, rows + 1, dtype=np.int64) * (2**20 // rows)
    k[-1] = 2**20
    cases = {
        "k_float": (("k", "coefficient"), k, floats),
        "float_float": (("theta", "value"), theta_grid(rows), floats),
        "lists": (("theta", "value"), floats.tolist(), [float(v) for v in k]),
        "int_list": (("k", "value"), k.tolist(), floats.tolist()),
    }
    for name, (header, xs, ys) in cases.items():
        _write_rows(tmp_path / f"{name}.csv", header, xs, ys)
        _per_row_rows(tmp_path / f"{name}_ref.csv", header, xs, ys)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes(), name
    assert (tmp_path / "k_float.csv").read_text().splitlines()[-1].startswith("1048576,")
    # the grid as a resolution (memoised row templates) and as a theta array, cold then warm,
    # with two resolutions interleaved
    grids = {m: np.resize(floats, m) for m in (rows, rows + 1)}
    for m, ys in grids.items():
        _per_row_rows(tmp_path / f"grid{m}_ref.csv", ("theta", "value"), theta_grid(m), ys)
    for warmth in ("cold", "warm"):
        for m, ys in grids.items():
            for xs in (m, theta_grid(m)):
                _write_rows(tmp_path / "grid.csv", ("theta", "value"), xs, ys)
                want = (tmp_path / f"grid{m}_ref.csv").read_bytes()
                assert (tmp_path / "grid.csv").read_bytes() == want, (warmth, m, type(xs))


def _mirrored_grids(m):
    """Grids of m values by name: mirrored as cosine and sine grids are, one a bit off its
    mirror, and one mirrored but with a NaN."""
    rng = np.random.default_rng(m)
    half = rng.normal(size=m // 2 + 1) * 10.0 ** rng.integers(-300, 300, size=m // 2 + 1)
    half[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[: half.size]
    grids = {"cosine": _mirror(half, m), "sine": _mirror(half, m, -1.0)}
    # +0.0 and -0.0 tail cells, each once equal to its mirror cell and once its negation
    zeros = [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)]
    for j, (head, tail) in zip(range(1, (m - 1) // 2 + 1), zeros):
        grids["sine"][j], grids["sine"][m - j] = head, tail
    if m >= 3:
        off = grids["cosine"].copy()
        off.view(np.uint64)[-1] ^= np.uint64(1)  # row M-1 misses row 1 by its last bit
        grids["one bit off"] = off
    grids["nan"] = grids["cosine"].copy()
    grids["nan"][0] = np.nan  # mirrored, but '%.17g' % -nan is 'nan'
    return grids


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 4095, 4096, 4097, 8193])
def test_grid_writer_formats_the_distinct_half(tmp_path, m):
    grids = _mirrored_grids(m)
    for name, ys in grids.items():
        _per_row_rows(tmp_path / f"{name}_ref.csv", ("theta", "value"), theta_grid(m), ys)
        # the mirrored grids take the half path; the others fall back to the template path
        assert (_mirrored_cells(ys) is None) == (name in ("one bit off", "nan")), name
    for warmth in ("cold", "warm"):
        for name, ys in grids.items():
            _write_rows(tmp_path / "grid.csv", ("theta", "value"), m, ys)
            want = (tmp_path / f"{name}_ref.csv").read_bytes()
            assert (tmp_path / "grid.csv").read_bytes() == want, (warmth, name)


def test_save_coefficients_matches_json_dump(tmp_path):
    rng = np.random.default_rng(2)
    values = np.concatenate([SPECIAL_FLOATS, rng.normal(size=5000) * 1e-200])
    for parity in ("cosine", "sine"):
        path = tmp_path / f"{parity}.json"
        save_coefficients(HarmonicCoefficients(parity, values), path)
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
            json.dump({"parity": parity, "coeffs": values.tolist()}, fh)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_load_signal_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_bytes(b"theta,value\r\n\r\n-3.141592653589793,1.5\r\n \t\r\n0,2.5\r\n  \r\n")
    np.testing.assert_array_equal(load_signal(path).values, [1.5, 2.5])
    path.write_bytes(b"theta,value\n \n-3.141592653589793,1.5\n0,2.5\n")  # blank, then a row
    np.testing.assert_array_equal(load_signal(path).values, [1.5, 2.5])
    path.write_bytes(b"theta,value\n \n\t\n\n  \r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one"):
            load_signal(path)
    signal = SampledSignal(np.arange(5000) / 7.0)
    save_signal(signal, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line + (" \n" if j % 997 == 3 else "") for j, line in enumerate(lines)))
    np.testing.assert_array_equal(load_signal(path).values, signal.values)


def test_oracle_series_agrees_with_eval():
    w = make_waveform("sawtooth", 300)
    for theta in (0.3, -1.2, 2.9):
        assert eval_series(w, theta) == pytest.approx(
            oracle_series_value("sine", w.coeffs, theta), abs=1e-12
        )
    assert oracle_series_value("sine", w.coeffs, 0.5, k_cap=10) == pytest.approx(
        math.fsum(w.coeffs[k - 1] * math.sin(k * 0.5) for k in range(1, 11)), abs=0
    )


# ---------------------------------------------------------------- grid engine


@pytest.mark.parametrize("resolution", [64, 65])
def test_grid_engine_matches_direct_sum_below_nyquist(resolution):
    rng = np.random.default_rng(3)
    grid = theta_grid(resolution)
    for parity in ("cosine", "sine"):
        w = HarmonicCoefficients(parity, rng.normal(size=resolution - 5))
        got = render_signal(w, resolution).values
        scale = np.abs(w.coeffs).sum()  # bounds |f|; both sums round relative to it
        np.testing.assert_allclose(got, eval_series(w, grid), rtol=0, atol=1e-13 * scale)


def test_grid_engine_aliasing_matches_direct_sum():
    # K = 2^16 harmonics on M = 4096 points: harmonic k folds into bin k mod M.
    # The direct sum sees the double nearest -pi, where this partial sum is
    # steep (about 4e4 per radian); the engine returns the exact grid value 0.
    w = make_waveform("square", 2**16)
    got = render_signal(w, 4096).values
    rows = np.union1d(np.arange(0, 4096, 5), [2048])  # theta = -pi, 0 and a stride prime to M
    direct = eval_series(w, theta_grid(4096)[rows])
    assert got[0] == 0.0
    np.testing.assert_allclose(got[rows], direct, rtol=0, atol=1e-11)


def test_grid_values_allocates_two_harmonic_arrays():
    import tracemalloc

    from sincfilters.series import _grid_values

    K = 2**18
    weights = np.random.default_rng(3).normal(size=K)
    tracemalloc.start()
    try:
        _grid_values(weights, 1024, "cosine")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * K  # the signed weights and the bin indices, plus O(M)


def test_point_values_keep_power_tables_within_chunk_bound():
    import tracemalloc

    from sincfilters.series import _CHUNK_BYTES

    K = P = 2**14
    w = HarmonicCoefficients("cosine", np.random.default_rng(3).normal(size=K))
    thetas = np.random.default_rng(4).uniform(-np.pi, np.pi, size=P)
    tracemalloc.start()
    try:
        eval_series(w, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * _CHUNK_BYTES  # blocks of points; the unblocked tables take over 4x


@pytest.mark.parametrize("resolution", [4096, 4095])
def test_grid_values_exactly_symmetric(resolution):
    for kind in ("square", "sawtooth", "triangle"):
        v = render_signal(make_waveform(kind, 3 * resolution + 7), resolution).values
        mirror = v[1:][::-1]  # theta_{M-j} = -theta_j (mod 2 pi)
        if kind == "triangle":
            assert np.array_equal(v[1:], mirror)
        else:
            assert np.array_equal(v[1:], -mirror)
            assert v[0] == 0.0  # theta = -pi
            if resolution % 2 == 0:
                assert v[resolution // 2] == 0.0  # theta = 0

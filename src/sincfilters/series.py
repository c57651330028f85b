"""Definite-parity Fourier series and sampled periodic signals.

A series here is a pure cosine or pure sine series with no constant term,

    f(theta) = sum_{k>=1} a_k cos(k theta)   or   sum_{k>=1} a_k sin(k theta),

on the periodic interval [-pi, pi).  Signals live on the uniform grid
theta_j = -pi + 2*pi*j/M, chosen so that theta = 0 and theta = -pi are grid
points (the standard waveforms' singular points sit on the grid).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PARITIES",
    "EvalOptions",
    "DEFAULT_OPTIONS",
    "HarmonicCoefficients",
    "SampledSignal",
    "theta_grid",
    "eval_series",
    "make_waveform",
    "render_signal",
    "save_coefficients",
    "load_coefficients",
    "save_signal",
    "load_signal",
]

PARITIES = ("cosine", "sine")

WAVEFORMS = ("square", "sawtooth", "triangle")

# The power sum keeps the baby and giant power tables of each block of points below 32 MB.
_CHUNK_BYTES = 2**25

# load_signal accepts a theta within this fraction of the grid step of theta_j.
_THETA_SLACK = 1e-3

# _write_rows formats this many rows with one % operation; _grid_rows keeps this many blocks.
_ROW_BLOCK = 4096
_GRID_BLOCKS = 4


def _resolution(resolution, least: int = 1, name: str = "resolution") -> int:
    """A size, such as the grid resolution M, as an int; ValueError unless an integer >= least."""
    try:
        m = operator.index(resolution)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {resolution!r}") from None
    if m < least:
        raise ValueError(f"{name} must be >= {least}")
    return m


@dataclass(frozen=True)
class EvalOptions:
    """Truncation and quadrature controls shared by the evaluation routines.

    k_max caps every series summation; tail_tol is the absolute bound the
    rigorous truncation rules must reach; quad_resolution is the number of
    quadrature points per period of kernel_integral, its only user.
    """

    k_max: int = 2**20
    tail_tol: float = 1e-12
    quad_resolution: int = 2**14

    def __post_init__(self) -> None:
        _resolution(self.k_max, 1, "k_max")
        if not (self.tail_tol > 0.0 and np.isfinite(self.tail_tol)):
            raise ValueError("tail_tol must be a positive finite real")
        _resolution(self.quad_resolution, 2, "quad_resolution")


DEFAULT_OPTIONS = EvalOptions()


def _coefficient_array(coeffs) -> np.ndarray:
    """a_1..a_K of either side of the pair as floats; ValueError unless 1-D and finite."""
    try:
        arr = np.asarray(coeffs, dtype=float)
    except OverflowError:  # an integer past the float range
        raise ValueError("coefficients must all be finite") from None
    if arr.ndim != 1:
        raise ValueError("coeffs must be a one-dimensional sequence")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must all be finite")
    return arr


@dataclass(frozen=True)
class HarmonicCoefficients:
    """One side of a conjugate pair: amplitudes a_k, k >= 1, plus a parity tag.

    There is no constant term; the k=0 slot does not exist by construction.
    """

    parity: str
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}, got {self.parity!r}")
        object.__setattr__(self, "coeffs", _coefficient_array(self.coeffs))

    def __len__(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class SampledSignal:
    """Real values on the uniform periodic grid theta_j = -pi + 2*pi*j/M."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal values must all be finite")
        object.__setattr__(self, "values", arr)

    @property
    def resolution(self) -> int:
        return int(self.values.size)

    def thetas(self) -> np.ndarray:
        return theta_grid(self.resolution)

    def value_at(self, j: int) -> float:
        """Grid value with periodic (modulo M) index wrapping."""
        return float(self.values[j % self.resolution])


def theta_grid(resolution: int) -> np.ndarray:
    """Uniform periodic grid theta_j = -pi + 2*pi*j/M, j = 0..M-1."""
    m = _resolution(resolution)
    return _thetas(np.arange(m), m)


def _thetas(j: np.ndarray, resolution: int) -> np.ndarray:
    """theta_j at the indices j alone: elementwise the bits of theta_grid(resolution)[j]."""
    return -np.pi + 2.0 * np.pi * j / resolution


def _power_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k weights[k-1] * exp(k x), k = 1..K, at every complex point x, by baby and giant steps.

    With B = isqrt(K + 1) and k = B q + r, 0 <= r < B, the sum is
    sum_q exp(B q x) * sum_r w_(Bq+r) exp(r x) (Paterson and Stockmeyer,
    SIAM J. Comput. 2, 1973): about 2 sqrt(K) exponentials per point and one
    real matrix product of the zero-padded weights, as rows x B, with the
    baby powers viewed as real and imaginary columns.  Each power is one
    exp of one rounded product, as in exp(k x).  Blocks of points keep the
    power tables of the baby and giant steps below _CHUNK_BYTES.
    """
    flat = x.ravel()
    b = math.isqrt(weights.size + 1)
    rows = -(-(weights.size + 1) // b)
    padded = np.zeros((rows, b))
    padded.ravel()[1 : weights.size + 1] = weights

    def block_sum(block):  # its tables are freed before the next block's are made
        baby = np.multiply.outer(np.arange(b, dtype=float), block)
        giant = np.multiply.outer(np.arange(0, rows * b, b, dtype=float), block)
        inner = (padded @ np.exp(baby, out=baby).view(float)).view(complex)
        inner *= np.exp(giant, out=giant)
        return inner.sum(axis=0)

    total = np.empty(flat.shape, dtype=complex)
    step = max(1, _CHUNK_BYTES // (total.itemsize * (b + rows)))
    for lo in range(0, flat.size, step):
        total[lo : lo + step] = block_sum(flat[lo : lo + step])
    return total.reshape(x.shape)


def _point_values(weights: np.ndarray, thetas: np.ndarray, parity: str) -> np.ndarray:
    """sum_k weights[k-1] * cos(k theta) (or sin) at any angles: Re (or Im) of the power sum."""
    values = _power_sum(weights, 1j * thetas)
    return values.real if parity == "cosine" else values.imag


def _mirror(half: np.ndarray, resolution: int, sign: float = 1.0) -> np.ndarray:
    """Extend values at j = 0..M//2 to j = 0..M-1 by v[M-j] = sign * v[j]."""
    return np.concatenate([half, sign * half[1 : resolution - half.size + 1][::-1]])


def _grid_values(weights: np.ndarray, resolution: int, parity: str) -> np.ndarray:
    """sum_k weights[k-1] * cos(k theta_j) (or sin) on theta_j = -pi + 2*pi*j/M, by one FFT.

    On this grid cos(k theta_j) = (-1)^k cos(2*pi*jk/M) and likewise for sin,
    and harmonic k takes the same values as harmonic k mod M, so folding the
    signed weights into M bins is exact for any K.  One real FFT of the bins
    gives the values for j <= M/2; the rest follow from theta_{M-j} = -theta_j
    (mod 2*pi), so v[M-j] = v[j] for cosine and -v[j] for sine exactly, and a
    sine series is exactly 0 at theta = -pi and theta = 0.  Work and memory
    are O(K + M log M), with two K-sized temporaries.
    """
    m = resolution
    signed = -weights
    signed[1::2] = weights[1::2]  # (-1)^k w_k, k = 1, 2, ...
    idx = np.arange(1, weights.size + 1)
    bins = np.bincount(np.remainder(idx, m, out=idx), weights=signed, minlength=m)
    half = np.fft.rfft(bins)  # sum_b bins[b] * exp(-2*pi*i*jb/M), j = 0..M//2
    if parity == "cosine":
        v, sign = half.real, 1.0
    else:
        v, sign = -half.imag, -1.0
        v[0] = 0.0
        if m % 2 == 0:
            v[-1] = 0.0  # j = M/2
    return _mirror(v, m, sign)


def _pointwise(theta, evaluate):
    """evaluate on theta as a float array of >= 1 dimension: a float for a scalar theta, else
    theta's shape.  The one angle check off the grid: ValueError unless every angle is finite."""
    th = np.asarray(theta, dtype=float)
    if not np.isfinite(th).all():
        raise ValueError("theta must be finite")
    vals = evaluate(np.atleast_1d(th))
    return float(vals[0]) if th.ndim == 0 else vals.reshape(th.shape)


def eval_series(coeffs: HarmonicCoefficients, theta: float, opts: EvalOptions | None = None):
    """Evaluate the series at theta, truncated at min(len(coeffs), opts.k_max).

    theta may be a scalar (returns float) or an array (returns an array).
    """
    weights = coeffs.coeffs[: (opts or DEFAULT_OPTIONS).k_max]
    return _pointwise(theta, lambda th: _point_values(weights, th, coeffs.parity))


def make_waveform(kind: str, k_max: int) -> HarmonicCoefficients:
    """Coefficients of the unit-amplitude square, sawtooth, or triangle wave.

    square:   sine series,   a_k =  4/(pi k)     for odd k, else 0
    sawtooth: sine series,   a_k = -4/(pi k)     for even k, else 0
    triangle: cosine series, a_k = -8/(pi^2 k^2) for odd k, else 0
    """
    k_max = _resolution(k_max, 1, "k_max")
    k = np.arange(1, k_max + 1, dtype=float)
    odd = (np.arange(1, k_max + 1) % 2) == 1
    if kind == "square":
        return HarmonicCoefficients("sine", np.where(odd, 4.0 / (np.pi * k), 0.0))
    if kind == "sawtooth":
        return HarmonicCoefficients("sine", np.where(~odd, -4.0 / (np.pi * k), 0.0))
    if kind == "triangle":
        return HarmonicCoefficients("cosine", np.where(odd, -8.0 / (np.pi**2 * k**2), 0.0))
    raise ValueError(f"unknown waveform kind {kind!r}, expected one of {WAVEFORMS}")


def render_signal(
    coeffs: HarmonicCoefficients, resolution: int, opts: EvalOptions | None = None
) -> SampledSignal:
    """Sample the series on the standard grid of the given resolution (one FFT, any K)."""
    resolution = _resolution(resolution, 2)
    opts = opts or DEFAULT_OPTIONS
    return SampledSignal(_grid_values(coeffs.coeffs[: opts.k_max], resolution, coeffs.parity))


def save_coefficients(coeffs: HarmonicCoefficients, path) -> None:
    """Write {"parity": ..., "coeffs": [...]} JSON."""
    _save_json(path, {"parity": coeffs.parity, "coeffs": coeffs.coeffs.tolist()})


def _save_json(path, obj: dict) -> None:
    """obj as one line of JSON in path: the one coefficient-file writer."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")


def _load_json(path, *keys) -> list:
    """The values at keys, in order, of the JSON object in path: the one coefficient-file reader.
    ValueError unless "coeffs" is a list of JSON numbers (not strings, booleans or null)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    values = [obj[key] for key in keys]
    if not (isinstance(obj["coeffs"], list) and {*map(type, obj["coeffs"])} <= {int, float}):
        raise ValueError('"coeffs" must be a list of JSON numbers')
    return values


def load_coefficients(path) -> HarmonicCoefficients:
    return HarmonicCoefficients(*_load_json(path, "parity", "coeffs"))


def _rows(x_cell: str, xs: list) -> str:
    """Row template: each x formatted by x_cell, then a %.17g slot for its y."""
    return ((x_cell + ",%%.17g\n") * len(xs)) % tuple(xs)


@functools.lru_cache(maxsize=_GRID_BLOCKS)
def _grid_rows(resolution: int, lo: int) -> str:
    """_rows of theta_j, j = lo..lo+_ROW_BLOCK-1 (below M), at 17 significant digits."""
    j = np.arange(lo, min(lo + _ROW_BLOCK, resolution))
    return _rows("%.17g", _thetas(j, resolution).tolist())


@functools.lru_cache(maxsize=_GRID_BLOCKS)
def _grid_cells(resolution: int, lo: int) -> tuple[str, ...]:
    """The "theta_j," cell of each row of _grid_rows(resolution, lo)."""
    return tuple(_grid_rows(resolution, lo).split("%.17g\n")[:-1])


_SIGNS = np.array(["", "-"], dtype=object)
_MAGNITUDE = np.uint64(2**63 - 1)


def _mirrored_cells(ys: np.ndarray) -> Callable[[int], tuple[list, list]] | None:
    """The cells of a grid whose values mirror, formatting only the rows j <= M/2, or None.

    None unless the M values are finite floats that mirror as |v[M-j]| == |v[j]|
    bit for bit, as every definite-parity grid does (_grid_values).  Else a
    function of lo that gives, for rows lo..lo+_ROW_BLOCK-1, each row's sign
    ("" or "-") and its magnitude's %.17g cell: a row j > M/2 takes the cell
    of row M-j.  As '%.17g' % -x == '-' + '%.17g' % x for every finite x,
    -0.0 included, sign and cell make the row's %.17g.  The magnitudes are
    kept as one text per block of rows, about a quarter of the file's size.
    """
    if ys.ndim != 1 or ys.dtype != float or not np.isfinite(ys).all():
        return None
    m, bits = ys.size, ys.view(np.uint64)
    magnitudes = bits & _MAGNITUDE
    half = m // 2 + 1
    if not np.array_equal(magnitudes[half:], magnitudes[(m - 1) // 2 : 0 : -1]):
        return None
    heads = np.abs(ys[:half])
    texts = []
    for lo in range(0, half, _ROW_BLOCK):
        values = heads[lo : lo + _ROW_BLOCK].tolist()
        texts.append(("%.17g\n" * len(values)) % tuple(values))
    split = functools.lru_cache(maxsize=2)(lambda k: texts[k].splitlines(True))

    def head(a: int, b: int) -> list:  # the magnitude cells of rows a..b-1, all <= M/2
        k = a // _ROW_BLOCK
        cells = split(k) if b <= (k + 1) * _ROW_BLOCK else split(k) + split(k + 1)
        return cells[a - k * _ROW_BLOCK : b - k * _ROW_BLOCK]

    def block(lo: int) -> tuple[list, list]:
        hi = min(lo + _ROW_BLOCK, m)
        cells = head(lo, min(hi, half)) if lo < half else []
        if hi > half:
            cells += head(m - hi + 1, m + 1 - max(lo, half))[::-1]
        return _SIGNS[bits[lo:hi] >> np.uint64(63)].tolist(), cells

    return block


def _write_rows(path, header: tuple[str, str], xs, ys) -> None:
    """Two-column CSV with LF line ends: integers as integers, floats at 17 significant digits.

    xs is the x column, or the resolution M of the grid theta_j, whose block
    templates and x cells are memoised (_grid_rows, _grid_cells).  Each block
    of _ROW_BLOCK rows is a template that holds its x cells and a %.17g slot
    per y, filled by one % over Python scalars: the bytes of formatting every
    value with .17g, as %d equals .17g for |k| < 10^17.  A grid of M values
    that mirrors (_mirrored_cells) formats only its distinct half and joins
    each row from its x cell, its sign and its magnitude's cell instead.
    """
    ys = np.asarray(ys)
    if isinstance(xs, (int, np.integer)):
        m = int(xs)
        mirrored = _mirrored_cells(ys) if ys.shape == (m,) else None

        def block(lo: int) -> str:
            if mirrored is None:
                return _grid_rows(m, lo) % tuple(ys[lo : lo + _ROW_BLOCK].tolist())
            x_cells = _grid_cells(m, lo)
            row = [None] * (3 * len(x_cells))
            row[::3] = x_cells
            row[1::3], row[2::3] = mirrored(lo)
            return "".join(row)
    else:
        xs = np.asarray(xs)
        x_cell = "%d" if xs.dtype.kind in "iu" else "%.17g"

        def block(lo: int) -> str:
            template = _rows(x_cell, xs[lo : lo + _ROW_BLOCK].tolist())
            return template % tuple(ys[lo : lo + _ROW_BLOCK].tolist())

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        for lo in range(0, ys.size, _ROW_BLOCK):
            fh.write(block(lo))


def save_signal(signal: SampledSignal, path) -> None:
    """Write CSV with header theta,value at 17 significant digits and LF line ends."""
    _write_rows(path, ("theta", "value"), signal.resolution, signal.values)


def load_signal(path) -> SampledSignal:
    """Read a theta,value CSV (LF or CRLF line ends) on the grid theta_j = -pi + 2*pi*j/M.

    Raises ValueError for a wrong header, no rows, a row without exactly two
    cells, a value that is not a finite number, or a theta farther than
    _THETA_SLACK grid steps from its theta_j.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "theta,value":
            raise ValueError("expected a theta,value CSV header")
        # drop blank and whitespace-only lines, which np.loadtxt reads as one-cell rows
        rows = itertools.filterfalse(str.isspace, fh)
        first = next(rows, None)
        if first is None:  # np.loadtxt would warn
            raise ValueError("expected at least one theta,value row")
        data = np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("expected theta,value rows of exactly two cells")
    signal = SampledSignal(data[:, 1])
    slack = _THETA_SLACK * 2.0 * np.pi / signal.resolution
    if not np.all(np.abs(data[:, 0] - signal.thetas()) <= slack):
        raise ValueError(f"thetas are off the grid theta_j = -pi + 2*pi*j/{signal.resolution}")
    return signal

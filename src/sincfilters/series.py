"""Definite-parity Fourier series and sampled periodic signals.

A series here is a pure cosine or pure sine series with no constant term,

    f(theta) = sum_{k>=1} a_k cos(k theta)   or   sum_{k>=1} a_k sin(k theta),

on the periodic interval [-pi, pi).  Signals live on the uniform grid
theta_j = -pi + 2*pi*j/M, chosen so that theta = 0 and theta = -pi are grid
points (the standard waveforms' singular points sit on the grid).
"""

from __future__ import annotations

import itertools
import json
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

# Keep the temporary term matrices of a direct summation below 32 MB.
_CHUNK_BYTES = 2**25

# load_signal accepts a theta within this fraction of the grid step of theta_j.
_THETA_SLACK = 1e-3

# _write_rows formats this many rows with one % operation.
_ROW_BLOCK = 4096


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
        if self.k_max < 1:
            raise ValueError("k_max must be a positive integer")
        if not (self.tail_tol > 0.0 and np.isfinite(self.tail_tol)):
            raise ValueError("tail_tol must be a positive finite real")
        if self.quad_resolution < 2:
            raise ValueError("quad_resolution must be >= 2")


DEFAULT_OPTIONS = EvalOptions()


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
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1:
            raise ValueError("coeffs must be a one-dimensional sequence")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must all be finite")
        object.__setattr__(self, "coeffs", arr)

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
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return -np.pi + 2.0 * np.pi * np.arange(resolution) / resolution


def _phases(points: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The points-by-k products; for one point they overwrite k, which has the points' dtype."""
    if points.size == 1:
        return np.multiply(points.ravel(), k, out=k).reshape(points.shape + k.shape)
    return np.multiply.outer(points, k)


def _direct_sum(weights: np.ndarray, points: np.ndarray, term) -> np.ndarray:
    """sum_k weights[k-1] * term(k x) at every point x, for term np.cos, np.sin or np.exp.

    Blocks of k keep the points-by-k matrix below _CHUNK_BYTES; their sums are added in order.
    """
    total = np.zeros(points.shape, dtype=points.dtype)
    step = max(1, _CHUNK_BYTES // (points.itemsize * max(points.size, 1)))
    for lo in range(0, weights.size, step):
        k = np.arange(lo + 1, min(lo + step, weights.size) + 1, dtype=points.dtype)
        x = _phases(points, k)
        total += term(x, out=x) @ weights[lo : lo + k.size]
    return total


def _point_values(weights: np.ndarray, thetas: np.ndarray, parity: str) -> np.ndarray:
    """sum_k weights[k-1] * cos(k theta) (or sin) at arbitrary angles, summed directly."""
    return _direct_sum(weights, thetas, np.cos if parity == "cosine" else np.sin)


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


def eval_series(coeffs: HarmonicCoefficients, theta: float, opts: EvalOptions | None = None):
    """Evaluate the series at theta, truncated at min(len(coeffs), opts.k_max).

    theta may be a scalar (returns float) or an array (returns an array).
    """
    opts = opts or DEFAULT_OPTIONS
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("theta must be finite")
    vals = _point_values(coeffs.coeffs[: opts.k_max], np.atleast_1d(th), coeffs.parity)
    return float(vals[0]) if th.ndim == 0 else vals.reshape(th.shape)


def make_waveform(kind: str, k_max: int) -> HarmonicCoefficients:
    """Coefficients of the unit-amplitude square, sawtooth, or triangle wave.

    square:   sine series,   a_k =  4/(pi k)     for odd k, else 0
    sawtooth: sine series,   a_k = -4/(pi k)     for even k, else 0
    triangle: cosine series, a_k = -8/(pi^2 k^2) for odd k, else 0
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
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
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    opts = opts or DEFAULT_OPTIONS
    return SampledSignal(_grid_values(coeffs.coeffs[: opts.k_max], resolution, coeffs.parity))


def save_coefficients(coeffs: HarmonicCoefficients, path) -> None:
    """Write {"parity": ..., "coeffs": [...]} JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"parity": coeffs.parity, "coeffs": coeffs.coeffs.tolist()}) + "\n")


def load_coefficients(path) -> HarmonicCoefficients:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return HarmonicCoefficients(obj["parity"], np.asarray(obj["coeffs"], dtype=float))


def _write_rows(path, header: tuple[str, str], xs, ys) -> None:
    """Two-column CSV with LF line ends: integers as integers, floats at 17 significant digits.

    Each block of _ROW_BLOCK rows is one % over Python scalars, the same bytes
    as formatting every value with .17g; %d equals .17g for |k| < 10^17.
    """
    cols = (np.asarray(xs), np.asarray(ys))
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        for lo in range(0, cols[0].size, _ROW_BLOCK):
            x, y = (c[lo : lo + _ROW_BLOCK].tolist() for c in cols)
            cells = tuple(itertools.chain.from_iterable(zip(x, y)))
            fh.write((row * (len(cells) // 2)) % cells)


def save_signal(signal: SampledSignal, path) -> None:
    """Write CSV with header theta,value at 17 significant digits and LF line ends."""
    _write_rows(path, ("theta", "value"), signal.thetas(), signal.values)


def load_signal(path) -> SampledSignal:
    """Read a theta,value CSV (LF or CRLF line ends) on the grid theta_j = -pi + 2*pi*j/M.

    Raises ValueError for a wrong header, no rows, a row without exactly two
    cells, a value that is not a finite number, or a theta farther than
    _THETA_SLACK grid steps from its theta_j.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "theta,value":
            raise ValueError("expected a theta,value CSV header")
        body = fh.tell()
        if not any(row.strip() for row in iter(fh.readline, "")):  # np.loadtxt would warn
            raise ValueError("expected at least one theta,value row")
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # np.loadtxt reads a whitespace-only line as a one-cell row
            fh.seek(body)
            rows = (row for row in fh if row.strip())
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("expected theta,value rows of exactly two cells")
    signal = SampledSignal(data[:, 1])
    slack = _THETA_SLACK * 2.0 * np.pi / signal.resolution
    if not np.all(np.abs(data[:, 0] - signal.thetas()) <= slack):
        raise ValueError(f"thetas are off the grid theta_j = -pi + 2*pi*j/{signal.resolution}")
    return signal

"""Brute-force reference implementations used by the test suite.

Deliberately independent of the main modules: Simpson quadrature instead of
trapezoid and function handles instead of grids.  `oracle_series_value` sums
with math.fsum instead of numpy reductions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OracleConfig",
    "oracle_moving_average",
    "oracle_iterated_filter",
    "oracle_series_value",
]

_MAX_DEPTH = 6
# Chunk bound keeps the (theta, node) arrays below ~32 MB.
_CHUNK_ELEMENTS = 4_000_000


def _integer(name: str, value, least: int):
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


@dataclass(frozen=True)
class OracleConfig:
    """resolution: quadrature points per 2*eps window.

    Acceptance runs use resolution >= 10^3.
    """

    resolution: int = 2000

    def __post_init__(self) -> None:
        _integer("resolution", self.resolution, 2)


DEFAULT_ORACLE = OracleConfig()


def oracle_iterated_filter(f, theta, stage_ranges, cfg: OracleConfig | None = None):
    """Nested moving averages, innermost stage last, as one composite rule.

    Stage s's Simpson step 2*eps_s/n must be an integer multiple m_s <= 64
    of the finest step h (equal and dyadic stages are), else ValueError.
    The stage weights, zero-stuffed to step m_s*h, are convolved into one
    rule on the lattice of step h over [-sum eps_s, sum eps_s]: f runs once
    per node, so its evaluations grow as n*sum(m_s), not n^depth.  Depth is
    capped at 6.
    """
    cfg = cfg or DEFAULT_ORACLE
    stages = [float(eps) for eps in stage_ranges]
    if len(stages) > _MAX_DEPTH or not all(0.0 < eps <= math.pi for eps in stages):
        raise ValueError(f"need at most {_MAX_DEPTH} stages, each eps in (0, pi]: {stages}")
    n = cfg.resolution + (cfg.resolution % 2)
    simpson = np.r_[1.0, np.tile([4.0, 2.0], n // 2)[:-1], 1.0]  # 1, 4, 2, ..., 2, 4, 1
    weights = np.ones(1)
    for eps in stages:
        m, rest = divmod(eps, min(stages))
        if rest or m > 2**_MAX_DEPTH:  # at most 6 * 64 * n + 1 lattice nodes
            raise ValueError(f"step 2*{eps!r}/n is not an integer multiple <= 64 of the finest step")
        stage = np.zeros(n * int(m) + 1)
        stage[:: int(m)] = simpson * ((2.0 * eps / n) / 3.0)
        weights = np.convolve(weights, stage)
    offsets = np.linspace(-sum(stages), sum(stages), weights.size)
    scale = math.prod(2.0 * eps for eps in stages)
    try:
        th = np.asarray(theta, dtype=float)
    except OverflowError:  # an integer past the float range
        raise ValueError("theta must be finite") from None
    if not np.isfinite(th).all():
        raise ValueError("theta must be finite")
    flat, out = th.reshape(-1), np.empty(th.size)
    chunk = max(1, _CHUNK_ELEMENTS // offsets.size)
    for lo in range(0, flat.size, chunk):
        out[lo : lo + chunk] = (f(flat[lo : lo + chunk, None] + offsets) @ weights) / scale
    return float(out[0]) if th.ndim == 0 else out.reshape(th.shape)


def oracle_moving_average(f, theta, eps: float, cfg: OracleConfig | None = None):
    """(1/2eps) * Simpson integral of f over [theta - eps, theta + eps].

    f must accept numpy arrays; theta may be a scalar or an array.
    """
    return oracle_iterated_filter(f, theta, [eps], cfg)


def oracle_series_value(parity: str, coeffs, theta: float, k_cap: int | None = None) -> float:
    """Plain partial sum with math.fsum; no numpy, no shared evaluation code."""
    if parity not in ("cosine", "sine"):
        raise ValueError("parity must be 'cosine' or 'sine'")
    if not abs(theta) <= sys.float_info.max:  # NaN, +-inf or an integer past the float range
        raise ValueError("theta must be finite")
    trig = math.cos if parity == "cosine" else math.sin
    n = len(coeffs) if k_cap is None else min(len(coeffs), _integer("k_cap", k_cap, 0))
    return math.fsum(coeffs[k - 1] * trig(k * theta) for k in range(1, n + 1))

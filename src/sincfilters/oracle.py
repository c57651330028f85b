"""Brute-force reference implementations used by the test suite.

Deliberately independent of the main modules: Simpson quadrature instead of
trapezoid, function handles instead of grids, math.fsum instead of numpy
reductions.  Slow is fine here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OracleConfig",
    "oracle_moving_average",
    "oracle_iterated_filter",
    "oracle_series_value",
]

_MAX_DEPTH = 6
# Chunk bound keeps node arrays in the nested quadratures below ~32 MB.
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class OracleConfig:
    """resolution: quadrature points per 2*eps window.

    Acceptance runs use resolution >= 10^3.
    """

    resolution: int = 2000

    def __post_init__(self) -> None:
        if not isinstance(self.resolution, (int, np.integer)) or self.resolution < 2:
            raise ValueError(f"resolution must be an integer >= 2, got {self.resolution!r}")


DEFAULT_ORACLE = OracleConfig()


def _simpson_nodes(eps: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    n = resolution + (resolution % 2)
    offsets = np.linspace(-eps, eps, n + 1)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (2.0 * eps / n) / 3.0
    return offsets, weights


def oracle_moving_average(f, theta, eps: float, cfg: OracleConfig | None = None):
    """(1/2eps) * Simpson integral of f over [theta - eps, theta + eps].

    f must accept numpy arrays; theta may be a scalar or an array.
    """
    cfg = cfg or DEFAULT_ORACLE
    eps = float(eps)
    if not (0.0 < eps <= math.pi):
        raise ValueError("eps must lie in (0, pi]")
    offsets, weights = _simpson_nodes(eps, cfg.resolution)
    th = np.asarray(theta, dtype=float)
    if th.ndim == 0:
        return float((weights @ f(th + offsets)) / (2.0 * eps))
    flat = th.reshape(-1)
    out = np.empty(flat.shape)
    chunk = max(1, _CHUNK_ELEMENTS // offsets.size)
    for lo in range(0, flat.size, chunk):
        t = flat[lo : lo + chunk]
        out[lo : lo + chunk] = (f(t[:, None] + offsets[None, :]) @ weights) / (2.0 * eps)
    return out.reshape(th.shape)


def oracle_iterated_filter(f, theta, stage_ranges, cfg: OracleConfig | None = None):
    """Nested moving averages, innermost stage last in stage_ranges.

    Cost grows as resolution^depth; depth is capped at 6.
    """
    cfg = cfg or DEFAULT_ORACLE
    stages = list(stage_ranges)
    if len(stages) > _MAX_DEPTH:
        raise ValueError(f"recursion depth cap exceeded: {len(stages)} > {_MAX_DEPTH}")
    if not stages:
        th = np.asarray(theta, dtype=float)
        return float(f(th)) if th.ndim == 0 else f(th)

    def inner(t):
        return oracle_iterated_filter(f, t, stages[1:], cfg)

    return oracle_moving_average(inner, theta, stages[0], cfg)


def oracle_series_value(parity: str, coeffs, theta: float, k_cap: int | None = None) -> float:
    """Plain partial sum with math.fsum; no numpy, no shared evaluation code."""
    if parity not in ("cosine", "sine"):
        raise ValueError("parity must be 'cosine' or 'sine'")
    trig = math.cos if parity == "cosine" else math.sin
    n = len(coeffs) if k_cap is None else min(len(coeffs), k_cap)
    return math.fsum(coeffs[k - 1] * trig(k * theta) for k in range(1, n + 1))

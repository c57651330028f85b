"""Command-line surface: kernel/waveform data files and batch filtering.

Every command writes plain CSV (theta,value or k,coefficient; floats at 17
significant digits, k as an integer) or JSON (floats in Python's shortest
round-trip form), so identical invocations produce byte-identical files.
Exit codes: 0 success, 1 usage or precondition error, 2 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import NonConvergenceError
from .filters import (
    VARIANTS,
    KernelSpec,
    _cutoff,
    _Periodised,
    apply_filter_coeffs,
    filter_multiplier,
    kernel_eval,
    kernel_grid,
    kernel_integral,
    sinc,
)
from .oracle import OracleConfig, oracle_iterated_filter, oracle_moving_average
from .scaled import invariant_points
from .series import (
    WAVEFORMS,
    EvalOptions,
    SampledSignal,
    _write_rows,
    load_coefficients,
    make_waveform,
    render_signal,
    save_coefficients,
    save_signal,
)

__all__ = ["main", "console_main"]

# Figure-style sweeps: exponentially growing N per variant, linear for scaled.
SWEEP_LISTS = {
    "naive": [2**i for i in range(8)],
    "fixed": [2**i for i in range(14)],
    "gaussian": [2**i for i in range(11)],
    "scaled": list(range(1, 11)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _options(ns: argparse.Namespace) -> EvalOptions:
    return EvalOptions(k_max=ns.k_max, tail_tol=ns.tail_tol)


def _cmd_kernel(ns: argparse.Namespace) -> int:
    """kernel, scaled-kernel and derivative (the one with a deriv_order, which must be >= 1)."""
    if ns.deriv_order is not None and ns.deriv_order < 1:
        raise ValueError("derivative order must be >= 1")
    spec = KernelSpec(ns.order, ns.eps, ns.variant)
    values = kernel_grid(spec, ns.points, _options(ns), ns.deriv_order or 0)
    save_signal(SampledSignal(values), ns.out)
    return 0


def _cmd_waveform(ns: argparse.Namespace) -> int:
    spec = KernelSpec(ns.order, ns.eps, "scaled")  # N = 0: every multiplier is exactly 1
    k_max = _cutoff(spec, 0, ns.tail_tol, ns.k_max) if ns.order >= 3 else ns.k_max
    coeffs = apply_filter_coeffs(make_waveform(ns.kind, k_max), spec)
    save_signal(render_signal(coeffs, ns.points, _options(ns)), ns.out)
    return 0


def _cmd_filter(ns: argparse.Namespace) -> int:
    coeffs = load_coefficients(ns.infile)
    filtered = apply_filter_coeffs(coeffs, KernelSpec(ns.order, ns.eps, ns.variant))
    if ns.out.endswith(".json"):
        save_coefficients(filtered, ns.out)
    else:
        _write_rows(ns.out, ("k", "coefficient"), np.arange(1, len(filtered) + 1), filtered.coeffs)
    return 0


def _cmd_invariants(ns: argparse.Namespace) -> int:
    pts = invariant_points(ns.eps)
    _write_rows(ns.out, ("theta", "value"), [p[0] for p in pts], [p[1] for p in pts])
    return 0


def _cmd_sweep(ns: argparse.Namespace) -> int:
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    opts = _options(ns)
    for n in SWEEP_LISTS[ns.variant]:
        values = kernel_grid(_Periodised(n, ns.eps, ns.variant), ns.points, opts)
        save_signal(SampledSignal(values), out_dir / f"kernel_{ns.variant}_N{n}.csv")
    return 0


def _cmd_selfcheck(ns: argparse.Namespace) -> int:
    checks: list[tuple[str, float, float]] = []  # (name, error, tolerance)
    eps = 0.5
    ocfg = OracleConfig(resolution=2000)

    harmonic = oracle_moving_average(lambda t: np.cos(3 * t), 0.7, eps, ocfg)
    checks.append(("harmonic eigenvalue", abs(harmonic - sinc(3 * eps) * np.cos(2.1)), 1e-9))

    depth2 = oracle_iterated_filter(
        lambda t: np.cos(2 * t), 0.3, [eps / 2, eps / 2], OracleConfig(resolution=600)
    )
    checks.append(("two-stage eigenvalue", abs(depth2 - sinc(eps) ** 2 * np.cos(0.6)), 1e-8))

    for spec in (KernelSpec(1, eps, "naive"), KernelSpec(2, eps), KernelSpec(4, eps)):
        checks.append(
            (f"unit integral N={spec.order} ({spec.variant})",
             abs(kernel_integral(spec) - 1.0), 1e-10)
        )

    spec = KernelSpec(50, eps, "scaled")
    for theta, expected in invariant_points(eps):
        checks.append(
            (f"invariant point theta={theta:+.3g}",
             abs(kernel_eval(spec, theta) - expected), 1e-9)
        )

    k = np.arange(1, 200)
    stages = filter_multiplier(k, KernelSpec(30, eps, "scaled"))
    direct = np.ones_like(stages)
    for n in range(1, 31):
        direct = direct * sinc(k * eps / 2**n)
    checks.append(("scaled coefficient product", float(np.abs(stages - direct).max()), 1e-15))

    failed = 0
    for name, err, tol in checks:
        ok = err <= tol
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: error {err:.3g} (tol {tol:g})")
    print(f"selfcheck: {len(checks) - failed}/{len(checks)} passed")
    return 0 if failed == 0 else 2


# Each flag once, as option -> argparse keywords; a command declares only the flags it reads.
_FLAGS = {
    "--eps": dict(type=float, default=0.5, help="range parameter in radians"),
    "--N": dict(dest="order", type=int, default=100, help="filter order / construction steps"),
    "--variant": dict(choices=VARIANTS, default="fixed"),
    "--kind": dict(choices=WAVEFORMS, default="square"),
    "--order": dict(dest="deriv_order", type=int, default=1, help="derivative order"),
    "--points": dict(type=int, default=1024, help="output grid resolution"),
    "--kmax": dict(dest="k_max", type=int, default=2**20),
    "--tol": dict(dest="tail_tol", type=float, default=1e-12, help="absolute series tail bound"),
    "--in": dict(dest="infile", required=True, help="input coefficient JSON"),
    "--out": dict(required=True, help="output file (or directory for sweep)"),
}

_GRID = ("--points", "--kmax", "--tol", "--out")

# name: (handler, help, the flags the handler reads, parser defaults overriding _FLAGS')
_COMMANDS = {
    "kernel": (_cmd_kernel, "order-N kernel over one period as theta,value CSV",
               ("--eps", "--N", "--variant", *_GRID), {"order": 1, "deriv_order": None}),
    "scaled-kernel": (_cmd_kernel, "scaled kernel over one period as theta,value CSV",
                      ("--eps", "--N", *_GRID), {"variant": "scaled", "deriv_order": None}),
    "derivative": (_cmd_kernel, "term-wise scaled-kernel derivative as theta,value CSV",
                   ("--eps", "--N", "--order", *_GRID), {"variant": "scaled"}),
    "filter": (_cmd_filter, "apply a filter to a coefficient JSON file",
               ("--eps", "--N", "--variant", "--in", "--out"), {"order": 1}),
    "waveform": (_cmd_waveform, "scaled-filtered square/sawtooth/triangle wave as CSV",
                 ("--eps", "--N", "--kind", *_GRID), {}),
    "invariants": (_cmd_invariants, "the five invariant points of the scaled kernel as CSV",
                   ("--eps", "--out"), {}),
    "sweep": (_cmd_sweep, "one kernel CSV per N in the figure lists",
              ("--eps", "--variant", *_GRID), {}),
    "selfcheck": (_cmd_selfcheck, "run the built-in oracle-agreement checks", (), {}),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The flat parser of `command` alone, or of every command when `command` names none.

    Built afresh on every call: a parser cached across calls raised the
    coeff_io benchmark's peak RSS from 70.3 to 100.6 MB (ROADMAP item 1a).
    """
    if command in _COMMANDS:
        return _with_flags(_Parser(prog=f"sincfilters {command}"), command)
    parser = _Parser(prog="sincfilters", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        _with_flags(sub.add_parser(name, help=help_text), name)
    return parser


def _with_flags(parser: _Parser, command: str) -> _Parser:
    """parser with the flags and defaults of `command`, which it records as ns.command."""
    _, _, flags, defaults = _COMMANDS[command]
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])
    parser.set_defaults(command=command, **defaults)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command first parses the rest flat; anything else keeps the parser of every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _build_parser(command)
    try:
        ns = parser.parse_args(argv[1:] if command else argv)
        return _COMMANDS[ns.command][0](ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

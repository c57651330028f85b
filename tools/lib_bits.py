"""Compare the values of the library's numeric entry points between two source trees.

    python3 tools/lib_bits.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `sincfilters` package
(for example `src` of two checkouts).  In one subprocess per tree, this
script evaluates a fixed seeded sample of every numeric public entry point
(`sample` below): the kernel on each of its paths (the closed forms of
N <= 2, the scaled tables of N = 3..10, the series, derivatives 1 and 2,
odd and even grids), the disk functions, the series and signal functions,
the multipliers, the quadratures, the oracles and the scaled names.  Every
off-grid entry point is also called at one angle given as a Python float, a
numpy float and a 0-d array.  A call that raises gives its exception's type
and message in place of values.
It prints one line per entry point, `same` or `differs`, with the number of
values compared, and for `differs` the number that differ bit for bit and
the largest |difference| between two finite values.  Exits 1 if any entry
point differs, else 0.  The comparison uses the standard library only; the
trees need numpy.  The CLI's counterpart is tools/cli_bytes.py.

    python3 tools/lib_bits.py --sample

prints the sample of the `sincfilters` on the import path as JSON: one
entry point's values, in order, as float.hex strings (a complex value as
its real then its imaginary part), or an error as "!Type: message".
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SEED = 29


def sample() -> dict[str, list[str]]:
    """name -> the float.hex of every value of its sampled calls, or its first error."""
    import numpy as np

    import sincfilters as sf

    rng = np.random.default_rng(SEED)
    angles = np.concatenate([[-np.pi, 0.0, 0.25, np.pi], rng.uniform(-4.0, 4.0, 12)])
    opts = sf.EvalOptions(tail_tol=1e-9)
    kernels = [sf.KernelSpec(*args) for args in (
        (1, 0.5, "naive"), (1, np.pi, "naive"), (2, 0.3, "fixed"), (2, 2.0, "gaussian"),
        (3, 3.0, "scaled"), (5, 0.5, "scaled"), (10, 0.05, "scaled"),  # the scaled tables
        (4, 0.5, "fixed"), (8, 0.5, "gaussian"), (3, 0.3, "naive"), (100, 0.5, "scaled"))]
    derivatives = [(sf.KernelSpec(100, 0.5, "scaled"), 1), (sf.KernelSpec(100, 0.5, "scaled"), 2),
                   (sf.KernelSpec(8, 0.5, "gaussian"), 1), (sf.KernelSpec(6, 0.5, "fixed"), 2)]
    w = sf.InnerAnalytic(rng.standard_normal(200) / np.arange(1, 201) ** 1.5)
    short = sf.EvalOptions(k_max=50)  # a disk filter sums, and filters, only a_1..a_50 of w
    points = [sf.DiskPoint(rho, theta) for rho, theta in zip(
        [0.0, 0.3, 0.9, 0.999, 1.0], rng.uniform(-np.pi, np.pi, 5))]
    cosine = sf.HarmonicCoefficients("cosine", rng.standard_normal(300) / np.arange(1, 301))
    sine = sf.make_waveform("square", 4096)
    harmonics = np.concatenate([np.arange(1.0, 64.0), rng.uniform(1.0, 1e6, 16)])
    # one angle as a Python float, a numpy float and a 0-d array: the scalar path, compared
    # across trees only, as a batch of angles may round apart from it
    scalars = [kind(a) for a in (-2.5, -0.0, 0.1, 3.0) for kind in (float, np.float64, np.array)]
    calls = {
        "kernel_eval": [lambda s=s: sf.kernel_eval(s, angles, opts) for s in kernels]
        + [lambda s=s: sf.kernel_eval(s, 0.1) for s in kernels[:7]]
        + [lambda s=s, d=d: sf.kernel_eval(s, angles, opts, d) for s, d in derivatives]
        + [lambda s=s, a=a: sf.kernel_eval(s, a, opts) for s in kernels for a in scalars]
        + [lambda s=s, d=d, a=a: sf.kernel_eval(s, a, opts, d) for s, d in derivatives
           for a in scalars],
        "kernel_grid": [lambda s=s, m=m: sf.kernel_grid(s, m, opts)
                        for s in kernels for m in (255, 256)]
        + [lambda s=s, d=d, m=m: sf.kernel_grid(s, m, opts, d)
           for s, d in derivatives for m in (255, 256)],
        "kernel_integral": [lambda s=s: sf.kernel_integral(s) for s in kernels[::2]],
        "complex_kernel_eval": [
            lambda s=s, p=p: sf.complex_kernel_eval(s, p, 1.0, 0.3, opts)
            for s in kernels[::3] + [sf.KernelSpec(0, 0.5)] for p in points[:4]]
        + [lambda: sf.complex_kernel_eval(kernels[7], points[2], 0.95, -2.0)]
        + [lambda s=s, a=a, b=b: sf.complex_kernel_eval(s, sf.DiskPoint(0.9, a), 1.0, b)
           for s in kernels[::3] for a, b in zip(scalars, reversed(scalars))],
        "eval_inner": [lambda p=p: sf.eval_inner(w, p) for p in points]
        + [lambda r=r, a=a: sf.eval_inner(w, sf.DiskPoint(r, a)) for r in (0.9, 1.0)
           for a in scalars],
        "complex_filter_eval": [lambda p=p: sf.complex_filter_eval(w, 0.4, p) for p in points]
        + [lambda a=a: sf.complex_filter_eval(w, abs(a) / 4 + 0.1, sf.DiskPoint(0.99, a))
           for a in scalars]
        + [lambda p=p: sf.complex_filter_eval(w, 0.4, p, short) for p in points],
        "complex_filter_order_n": [lambda p=p, n=n: sf.complex_filter_order_n(w, 0.4, n, p)
                                   for p in points for n in (0, 2, 5)]
        + [lambda a=a, n=n: sf.complex_filter_order_n(w, abs(a) / 4 + 0.1, n,
                                                      sf.DiskPoint(0.99, a))
           for a in scalars for n in (1, 4)]
        + [lambda e=e, n=n, p=p: sf.complex_filter_order_n(w, e, n, p)
           for e in (0.1, 0.5) for n in (8, 12, 20) for p in points[1:4]]
        + [lambda p=p, n=n: sf.complex_filter_order_n(w, 0.4, n, p, short)
           for p in points for n in (1, 4)],
        "complex_filter_coeffs": [lambda: sf.complex_filter_coeffs(w, 0.4).coeffs],
        "log_derivative": [lambda: sf.log_derivative(w).coeffs],
        "log_primitive": [lambda: sf.log_primitive(w).coeffs],
        "segment_filter": [lambda z=z, a=a: sf.segment_filter(w, z, 0.05, a)
                           for z in (0.0, 0.3 + 0.2j, -0.6j) for a in (0.0, 1.1)],
        "eval_series": [lambda c=c: sf.eval_series(c, angles, opts) for c in (cosine, sine)]
        + [lambda: sf.eval_series(cosine, 0.7)]
        + [lambda c=c, a=a: sf.eval_series(c, a) for c in (cosine, sine) for a in scalars],
        "render_signal": [lambda c=c, m=m: sf.render_signal(c, m).values
                          for c in (cosine, sine) for m in (255, 256)],
        "theta_grid": [lambda m=m: sf.theta_grid(m) for m in (1, 255, 256)],
        "make_waveform": [lambda k=k: sf.make_waveform(k, 64).coeffs
                          for k in ("square", "sawtooth", "triangle")],
        "filter_multiplier": [lambda s=s: sf.filter_multiplier(harmonics, s) for s in kernels]
        + [lambda: sf.filter_multiplier(3.0, kernels[0])],
        "sinc": [lambda: sf.sinc(np.concatenate([angles, [1e-9, -3e-5, 1e-4]])),
                 lambda: sf.sinc(0.3)],
        "filter_direct": [lambda e=e: sf.filter_direct(sf.render_signal(sine, 512), e).values
                          for e in (0.3, 1.0)],
        "apply_filter_coeffs": [lambda s=s: sf.apply_filter_coeffs(cosine, s).coeffs
                                for s in kernels],
        "stage_range": [lambda s=s: sf.stage_range(s) for s in kernels],
        "total_range": [lambda s=s: sf.total_range(s) for s in kernels],
        "scaled_coefficient": [lambda: sf.scaled_coefficient(harmonics, kernels[-1])],
        "effective_range": [lambda: sf.effective_range(kernels[-1])],
        "scaled_kernel_eval": [lambda: sf.scaled_kernel_eval(kernels[5], angles)],
        "apply_scaled_filter": [lambda: sf.apply_scaled_filter(sine, kernels[-1]).coeffs],
        "scaled_kernel_derivative": [
            lambda n=n: sf.scaled_kernel_derivative(sf.ScaledKernelParams(0.5, 100), n, angles)
            for n in (1, 2)],
        "invariant_points": [lambda: sf.invariant_points(0.5)],
        "zero_derivative_points": [lambda n=n: sf.zero_derivative_points(0.5, n) for n in (0, 3)],
        "oracle_moving_average": [lambda: sf.oracle_moving_average(
            lambda t: np.cos(3 * t), 0.7, 0.5, sf.OracleConfig(resolution=200))],
        "oracle_iterated_filter": [lambda: sf.oracle_iterated_filter(
            lambda t: np.cos(2 * t), 0.3, [0.25, 0.25], sf.OracleConfig(resolution=100))],
        "oracle_series_value": [lambda: sf.oracle_series_value("sine", sine.coeffs, 0.4)],
    }
    values = {}
    for name, thunks in calls.items():
        try:
            flat = np.concatenate([np.ravel(np.asarray(f(), dtype=complex)) for f in thunks])
            values[name] = [float(x).hex() for x in np.column_stack([flat.real, flat.imag]).ravel()]
        except Exception as exc:  # the error is what is compared
            values[name] = [f"!{type(exc).__name__}: {exc}"]
    return values


def run(src: Path) -> dict[str, list[str]]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--sample"], env=env,
                          capture_output=True, timeout=600)
    if proc.returncode:
        sys.exit(f"the sample against {src} failed:\n{proc.stderr.decode()}")
    return json.loads(proc.stdout)


def compare(old: list[str], new: list[str]) -> tuple[int, float | None]:
    """The count of values that differ (a length mismatch counts each missing value) and the
    largest |difference| between two finite values that differ, or None if no such pair."""
    differ, largest = abs(len(old) - len(new)), None
    for a, b in zip(old, new):
        if a == b:
            continue
        differ += 1
        if not (a.startswith("!") or b.startswith("!")):
            x, y = float.fromhex(a), float.fromhex(b)
            if math.isfinite(x) and math.isfinite(y):
                largest = max(largest or 0.0, abs(x - y))
    return differ, largest


def main(argv: list[str]) -> int:
    if argv == ["--sample"]:
        print(json.dumps(sample()))
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "sincfilters" / "__init__.py").is_file():
            print(f"no sincfilters package under {tree}", file=sys.stderr)
            return 2
    old, new = map(run, trees)
    differing = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, []), new.get(name, [])
        differ, largest = compare(a, b)
        differing += differ > 0
        line = f"{'differs' if differ else 'same   '}  {name:<26} {max(len(a), len(b))} values"
        if differ:
            line += f", {differ} differ" + (f", largest |difference| {largest:.3g}"
                                            if largest is not None else "")
        print(line)
        for side, values in (("old", a), ("new", b)):
            if differ and values and values[0].startswith("!"):
                print(f"           {side}: {values[0][:200]}")
    print(f"lib_bits: {len(old.keys() | new.keys())} entry points, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's workloads: seeded inputs and the operations of one pass.

A pass is a fixed list of operations generated from the seed, and the timed
phase repeats it.  An operation is one CLI invocation (sincfilters.cli.main)
or one public library call.  Each operation looks its function up on the
module when it runs, so the tracer's wrappers are used while installed.

Sizes and costs are drawn stratified (one draw per equal slice of the
range) and the order of a pass is the same on every seed, so a pass costs
about the same, and allocates in the same order, on every seed while its
inputs differ.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from sincfilters import cli, disk, filters, scaled, series

# The figure sweeps' N values per variant (README); scaled is linear.
SWEEP_N = {
    "naive": [2**i for i in range(8)],
    "fixed": [2**i for i in range(14)],
    "gaussian": [2**i for i in range(11)],
    "scaled": list(range(1, 11)),
}
SWEEP_TOL = 1e-9
DEFAULT_TOL = 1e-12
DEFAULT_ORDER = 100
DEFAULT_EPS = 0.5
WAVE_KINDS = ("square", "sawtooth", "triangle")


@dataclass
class Op:
    """One operation: a zero-argument call plus what a correct outcome is.

    expect is the CLI exit code, an exception class the call must raise, or
    None for a library call that returns.  check gets the call's result and
    returns None when the output is right, else the reason it is not.
    output is the file or directory a CLI call writes; its bytes are
    digested after every call so each pass can be compared with the
    verified one.
    """

    label: str
    call: Callable[[], Any]
    expect: Any = None
    check: Callable[[Any], str | None] | None = None
    output: Path | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]


def _cli(label: str, argv: list[str], expect: int = 0, check=None, output=None) -> Op:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    return Op(label, call, expect, check, output)


def _lib(label: str, module, name: str, *args, expect=None, check=None) -> Op:
    return Op(label, lambda: getattr(module, name)(*args), expect, check)


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """One draw near the middle of each of n equal slices of [0, 1), in slice order.

    Each draw stays within the middle quarter of its slice, so the seed moves
    the cost of a pass by a few per cent at most.
    """
    return (np.arange(n) + 0.5 + 0.25 * (rng.uniform(size=n) - 0.5)) / n


def _mismatch(what: str, got, want, tol) -> str | None:
    if abs(got - want) <= tol:
        return None
    got, want = (x.item() if isinstance(x, np.generic) else x for x in (got, want))
    return f"{what}: got {got!r}, reference {want!r}, |diff| {abs(got - want):.3g} > {tol:.3g}"


def _read_csv(path: Path, header: str) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]!r}, expected {header!r}")
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).reshape(-1, 2)


def _grid_file(path: Path, points: int, value_at, rows) -> str | None:
    """Row count, the theta grid, and value_at(theta) -> (ref, tol) at the given rows."""
    data = _read_csv(path, "theta,value")
    if data.shape[0] != points:
        return f"{path.name}: {data.shape[0]} rows, expected {points}"
    grid = -math.pi + 2.0 * math.pi * np.arange(points) / points
    if np.abs(data[:, 0] - grid).max() > 8 * ref.EPS * math.pi:
        return f"{path.name}: theta column is not the uniform grid"
    for j in (range(points) if rows is None else rows):
        theta, value = data[j]
        want, tol = value_at(float(theta))
        bad = _mismatch(f"{path.name} theta={theta.item()!r}", value, want, tol)
        if bad:
            return bad
    return None


def _kernel_check(path, points, variant, order, eps, tol, rows, deriv=0):
    closed = deriv == 0 and order <= 2  # cheap: check every row

    def check(_result):
        return _grid_file(
            path, points,
            lambda t: ref.kernel_value(variant, order, eps, tol, t, deriv),
            None if closed else rows)
    return check


# ---------------------------------------------------------------- cli_figures

def _cli_pass(rng: np.random.Generator, out: Path, points: int, sample_rows: int) -> list[Op]:
    out.mkdir(parents=True, exist_ok=True)
    pts = str(points)

    def rows():
        return sorted(rng.choice(points, size=min(sample_rows, points), replace=False).tolist())

    def kernel_cmd(label, argv, variant, order, eps, tol, deriv=0):
        path = out / f"{label}.csv"
        return _cli(label, argv + ["--points", pts, "--out", str(path)],
                    check=_kernel_check(path, points, variant, order, eps, tol, rows(), deriv),
                    output=path)

    e, n, t = DEFAULT_EPS, DEFAULT_ORDER, DEFAULT_TOL
    ops = [
        kernel_cmd("kernel", ["kernel"], "fixed", 1, e, t),
        kernel_cmd("scaled-kernel", ["scaled-kernel"], "scaled", n, e, t),
        kernel_cmd("derivative-1", ["derivative", "--order", "1"], "scaled", n, e, t, 1),
        kernel_cmd("derivative-2", ["derivative", "--order", "2"], "scaled", n, e, t, 2),
    ]
    for kind in WAVE_KINDS:
        path = out / f"waveform-{kind}.csv"
        wave_rows = rows()
        ops.append(_cli(
            f"waveform-{kind}", ["waveform", "--kind", kind, "--points", pts, "--out", str(path)],
            check=lambda _r, p=path, k=kind, r=wave_rows: _grid_file(
                p, points, lambda th: ref.waveform_value(k, n, e, t, th), r),
            output=path))
    inv = out / "invariants.csv"
    ops.append(_cli("invariants", ["invariants", "--out", str(inv)],
                    check=lambda _r: _invariants_check(inv, e), output=inv))
    sweep_dir = out / "sweep"
    sweep_rows = {m: rows() for m in SWEEP_N["scaled"]}
    ops.append(_cli("sweep-scaled",
                    ["sweep", "--variant", "scaled", "--points", pts, "--out", str(sweep_dir)],
                    check=lambda _r: _sweep_check(sweep_dir, points, e, sweep_rows),
                    output=sweep_dir))
    ops.append(_cli("selfcheck", ["selfcheck"], check=_selfcheck_check))
    # README: kernel --N 3 at the default --tol cannot converge and exits 2
    ops.append(_cli("kernel-N3-nonconvergent",
                    ["kernel", "--N", "3", "--points", pts, "--out", str(out / "n3.csv")],
                    expect=2))

    for variant, orders in SWEEP_N.items():
        for order in orders:
            if variant == "scaled" and order == 3:
                continue  # 6 s at 1e-9 on its own; the scaled sweep already runs it
            cap = {"naive": min(0.5, math.pi / order),
                   "gaussian": min(0.5, math.pi / math.sqrt(order))}.get(variant, 0.5)
            eps = cap * float(rng.uniform(0.9, 1.0))
            ops.append(kernel_cmd(
                f"kernel-{variant}-N{order}",
                ["kernel", "--variant", variant, "--N", str(order), "--eps", repr(eps),
                 "--tol", repr(SWEEP_TOL)],
                variant, order, eps, SWEEP_TOL))
    return ops


def _invariants_check(path: Path, eps: float) -> str | None:
    data = _read_csv(path, "theta,value")
    want = [(-eps, 0.0), (-eps / 2, 1 / (2 * eps)), (0.0, 1 / eps), (eps / 2, 1 / (2 * eps)),
            (eps, 0.0)]
    if data.tolist() != [list(p) for p in want]:
        return f"invariants: {data.tolist()!r}, expected {want!r}"
    return None


def _sweep_check(out: Path, points: int, eps: float, rows: dict) -> str | None:
    names = sorted(p.name for p in out.iterdir())
    want = sorted(f"kernel_scaled_N{m}.csv" for m in SWEEP_N["scaled"])
    if names != want:
        return f"sweep wrote {names}, expected {want}"
    for m in SWEEP_N["scaled"]:
        bad = _kernel_check(out / f"kernel_scaled_N{m}.csv", points, "scaled", m, eps,
                            SWEEP_TOL, rows[m])(None)
        if bad:
            return bad
    return None


def _selfcheck_check(result) -> str | None:
    lines = result[1].splitlines()
    if not lines or any(not line.startswith("PASS") for line in lines[:-1]):
        return f"selfcheck printed a line that is not PASS: {lines!r}"
    done, total = lines[-1].split()[1].split("/")
    if done != total:
        return f"selfcheck summary {lines[-1]!r}"
    return None


def cli_figures(seed: int, work: Path, tiny: bool) -> Workload:
    """The README's default CLI commands plus one kernel per (variant, N) of the sweeps."""
    rng = np.random.default_rng([seed, 1])
    points = 64 if tiny else 1024
    ops = _cli_pass(rng, work / "out", points, 2 if tiny else 3)
    warmup = _cli_pass(np.random.default_rng([seed, 2]), work / "warm", 16, 1)
    return Workload(ops, warmup)


# --------------------------------------------------------------- offgrid_disk

def _scalar_check(value_at):
    def check(result):
        want, tol = value_at()
        return _mismatch("value", result, want, tol)
    return check


def offgrid_disk(seed: int, work: Path, tiny: bool) -> Workload:
    """One public scalar call per seeded scattered point; no uniform grid, no files."""
    rng = np.random.default_rng([seed, 3])
    per = 2 if tiny else 1  # tiny runs keep one call in `per` of each stratum list
    t = DEFAULT_TOL
    kw = 256 if tiny else 4096
    k = np.arange(1, kw + 1)
    w = disk.InnerAnalytic(rng.standard_normal(kw) / k**1.5)
    ks = 128 if tiny else 1024
    w_seg = disk.InnerAnalytic(rng.standard_normal(ks) / np.arange(1, ks + 1) ** 1.5)
    quad = 2**6 if tiny else 2**10
    angle = lambda: float(rng.uniform(-math.pi, math.pi))  # noqa: E731
    ops: list[Op] = []

    for variant, order, eps in (("fixed", 4, 0.5), ("scaled", 100, 0.5),
                                ("gaussian", 16, 0.5), ("naive", 3, 0.9)):
        spec = filters.KernelSpec(order, eps, variant)
        for u in _strata(rng, 10)[::per]:
            r = 1.0 - 10.0 ** (-1.0 - 2.0 * u)  # radius ratio from 0.9 up to 0.999
            rho1 = float(rng.uniform(0.95, 1.0))
            rho, th, th1 = r * rho1, angle(), angle()
            ops.append(_lib(
                f"complex_kernel_eval-{variant}", disk, "complex_kernel_eval",
                spec, disk.DiskPoint(rho, th), rho1, th1,
                check=_scalar_check(lambda v=variant, o=order, e=eps, a=(rho, th, rho1, th1):
                                    ref.complex_kernel_value(v, o, e, t, *a))))

    for variant, order, eps in (("fixed", 4, 0.5), ("gaussian", 8, 0.5), ("naive", 5, 0.6),
                                ("fixed", 16, 0.5), ("fixed", 64, 0.5), ("gaussian", 32, 0.5)):
        spec = filters.KernelSpec(order, eps, variant)
        for u in _strata(rng, 4)[::per]:
            d = -math.pi + 2.0 * math.pi * float(u)
            ops.append(_lib(
                f"kernel_eval-{variant}", filters, "kernel_eval", spec, d,
                check=_scalar_check(lambda v=variant, o=order, e=eps, d=d:
                                    ref.kernel_value(v, o, e, t, d))))

    scaled_orders = [DEFAULT_ORDER] * 16 + [5, 6, 7, 8, 9, 10, 20, 50]
    for order, u in zip(scaled_orders[::per], _strata(rng, len(scaled_orders))[::per]):
        d = -math.pi + 2.0 * math.pi * float(u)
        params = scaled.ScaledKernelParams(DEFAULT_EPS, order)
        ops.append(_lib(
            "scaled_kernel_eval", scaled, "scaled_kernel_eval", params, d,
            check=_scalar_check(lambda o=order, d=d:
                                ref.kernel_value("scaled", o, DEFAULT_EPS, t, d))))

    for deriv in (1, 2):
        params = scaled.ScaledKernelParams(DEFAULT_EPS, DEFAULT_ORDER)
        for u in _strata(rng, 6)[::per]:
            d = -math.pi + 2.0 * math.pi * float(u)
            ops.append(_lib(
                f"scaled_kernel_derivative-{deriv}", scaled, "scaled_kernel_derivative",
                params, deriv, d,
                check=_scalar_check(lambda o=deriv, d=d: ref.kernel_value(
                    "scaled", DEFAULT_ORDER, DEFAULT_EPS, t, d, o))))

    for u in _strata(rng, 24)[::per]:
        rho, th = 1.0 - 10.0 ** (-3.0 * u), angle()  # up to 0.999
        ops.append(_lib("eval_inner", disk, "eval_inner", w, disk.DiskPoint(rho, th),
                        check=_scalar_check(lambda r=rho, a=th: ref.inner_value(w.coeffs, r, a))))

    for u in _strata(rng, 12)[::per]:
        rho, th, eps = 1.0 - 10.0 ** (-3.0 * u), angle(), float(rng.uniform(0.1, 1.0))
        ops.append(_lib(
            "complex_filter_eval", disk, "complex_filter_eval", w, eps, disk.DiskPoint(rho, th),
            check=_scalar_check(lambda r=rho, a=th, e=eps:
                                ref.disk_filter_value(w.coeffs, e, 1, r, a))))

    for order, u in zip([2, 3, 4, 5] * 2, _strata(rng, 8)):
        if tiny and order > 3:
            continue
        rho, th, eps = 1.0 - 10.0 ** (-2.0 * u), angle(), float(rng.uniform(0.3, 1.0))
        ops.append(_lib(
            f"complex_filter_order_n-{order}", disk, "complex_filter_order_n",
            w, eps, order, disk.DiskPoint(rho, th),
            check=_scalar_check(lambda r=rho, a=th, e=eps, o=order:
                                ref.disk_filter_value(w.coeffs, e, o, r, a))))

    opts = series.EvalOptions(quad_resolution=quad)
    for _ in range(2):
        phi = angle()
        center = 0.3 * complex(math.cos(phi), math.sin(phi))
        half, alpha = float(rng.uniform(0.2, 0.4)), angle()
        ops.append(_lib(
            "segment_filter", disk, "segment_filter", w_seg, center, half, alpha, opts,
            check=_scalar_check(lambda c=center, h=half, a=alpha:
                                ref.segment_value(w_seg.coeffs, c, h, a, quad))))

    first_of_kind = {op.label: op for op in reversed(ops)}
    return Workload(ops, list(first_of_kind.values()))


# ------------------------------------------------------------------- coeff_io

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _filter_check(path: Path, parity: str, coeffs: np.ndarray, variant, order, eps):
    def check(_result):
        want, tol = ref.filtered_coefficients(variant, order, eps, coeffs)
        if path.suffix == ".json":
            obj = json.loads(path.read_text(encoding="utf-8"))
            if obj.get("parity") != parity:
                return f"{path.name}: parity {obj.get('parity')!r}, expected {parity!r}"
            got = np.asarray(obj["coeffs"], dtype=float)
        else:
            data = _read_csv(path, "k,coefficient")
            if not np.array_equal(data[:, 0], np.arange(1, data.shape[0] + 1)):
                return f"{path.name}: k column is not 1..K"
            got = data[:, 1]
        if got.shape != want.shape:
            return f"{path.name}: {got.size} coefficients, expected {want.size}"
        worst = int(np.argmax(np.abs(got - want) - tol))
        return _mismatch(f"{path.name} k={worst + 1}", got[worst], want[worst], tol[worst])
    return check


def _signal_file_check(path: Path, values: np.ndarray):
    def check(_result):
        data = _read_csv(path, "theta,value")
        if not np.array_equal(data[:, 1], values):
            return f"{path.name}: values do not round-trip exactly"
        return None
    return check


def _equal_check(attr: str, values: np.ndarray):
    def check(result):
        if not np.array_equal(getattr(result, attr), values):
            return f"loaded {attr} differ from the saved ones"
        return None
    return check


def _inner_file_check(path: Path, coeffs: np.ndarray):
    def check(_result):
        got = np.asarray(json.loads(path.read_text(encoding="utf-8"))["coeffs"], dtype=float)
        return None if np.array_equal(got, coeffs) else f"{path.name}: coefficients differ"
    return check


def _direct_check(cos_c, sin_c, eps, resolution):
    def check(result):
        thetas = -math.pi + 2.0 * math.pi * np.arange(resolution) / resolution
        want, tol = ref.moving_average_value(cos_c, sin_c, eps, resolution, thetas)
        worst = int(np.argmax(np.abs(result.values - want)))
        return _mismatch(f"filter_direct theta={thetas[worst].item()!r}", result.values[worst],
                         want[worst], tol)
    return check


def _filter_params(rng: np.random.Generator, variant: str) -> tuple[int, float]:
    if variant == "scaled":
        return DEFAULT_ORDER, float(rng.uniform(0.3, 1.0))
    order = int(rng.integers(1, 5 if variant == "naive" else 17))
    top = {"naive": math.pi / order, "gaussian": math.pi / math.sqrt(order)}.get(variant, 1.0)
    return order, float(rng.uniform(0.2, min(1.0, top)))


def _coeff_pass(rng: np.random.Generator, work: Path, tag: str, filters_n: int, k_lo: float,
                k_hi: float, signals_n: int, m_lo: float, m_hi: float, inners_n: int,
                malformed: bool) -> list[Op]:
    inp, out = work / f"in-{tag}", work / f"out-{tag}"
    inp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    for i, u in enumerate(_strata(rng, filters_n)):
        size = round(2.0 ** (k_lo + (k_hi - k_lo) * u))
        variant = filters.VARIANTS[i % len(filters.VARIANTS)]  # scaled gets the largest K
        order, eps = _filter_params(rng, variant)
        parity = str(rng.choice(series.PARITIES))
        coeffs = rng.standard_normal(size) / np.arange(1, size + 1)
        src = inp / f"coeffs-{i}.json"
        _write_json(src, {"parity": parity, "coeffs": coeffs.tolist()})
        dst = out / f"filtered-{i}.{'json' if i % 2 == 0 else 'csv'}"
        ops.append(_cli(
            f"filter-{variant}", ["filter", "--in", str(src), "--variant", variant, "--N",
                                  str(order), "--eps", repr(eps), "--out", str(dst)],
            check=_filter_check(dst, parity, coeffs, variant, order, eps), output=dst))

    for i, u in enumerate(_strata(rng, signals_n)):
        size = round(2.0 ** (m_lo + (m_hi - m_lo) * u))
        cos_c, sin_c = (rng.standard_normal(8) / np.arange(1, 9) for _ in range(2))
        x = np.multiply.outer(-math.pi + 2.0 * math.pi * np.arange(size) / size, np.arange(1, 9))
        sig = series.SampledSignal(np.cos(x) @ cos_c + np.sin(x) @ sin_c)
        path = out / f"signal-{i}.csv"
        # filter_direct needs the window 2*eps to span 8 grid cells (the tiny sizes reach that)
        eps = float(rng.uniform(max(0.2, 1.01 * 8.0 * math.pi / size), 1.0))
        ops += [
            _lib("save_signal", series, "save_signal", sig, path,
                 check=_signal_file_check(path, sig.values)),
            _lib("load_signal", series, "load_signal", path,
                 check=_equal_check("values", sig.values)),
            _lib("filter_direct", filters, "filter_direct", sig, eps,
                 check=_direct_check(cos_c, sin_c, eps, size)),
        ]

    for i, u in enumerate(_strata(rng, inners_n)):
        size = round(2.0 ** (m_lo + 1 + (m_hi - m_lo - 1) * u))
        w = disk.InnerAnalytic(rng.standard_normal(size) / np.arange(1, size + 1) ** 1.2)
        path = out / f"inner-{i}.json"
        ops += [
            _lib("save_inner", disk, "save_inner", w, path, check=_inner_file_check(path, w.coeffs)),
            _lib("load_inner", disk, "load_inner", path, check=_equal_check("coeffs", w.coeffs)),
        ]

    if malformed:
        # README: usage or precondition errors exit 1; the library raises ValueError
        for i in range(2):
            coeffs = (rng.standard_normal(1024) / np.arange(1, 1025)).tolist()
            no_parity, two_d = inp / f"no-parity-{i}.json", inp / f"two-d-{i}.json"
            _write_json(no_parity, {"coeffs": coeffs})
            _write_json(two_d, {"parity": "sine", "coeffs": [coeffs[:512], coeffs[512:]]})
            bad_header = inp / f"bad-header-{i}.csv"
            bad_header.write_text("t,v\n" + "".join(f"{c!r},{c!r}\n" for c in coeffs[:64]),
                                  encoding="utf-8")
            for label, src in (("filter-missing-parity", no_parity), ("filter-2d-coeffs", two_d)):
                ops.append(_cli(label, ["filter", "--in", str(src), "--out",
                                        str(out / f"{label}-{i}.json")], expect=1))
            ops.append(_lib("load_signal-bad-header", series, "load_signal", bad_header,
                            expect=ValueError))

    return ops


def coeff_io(seed: int, work: Path, tiny: bool) -> Workload:
    """CLI filter on coefficient files, signal and inner-function files, malformed inputs."""
    rng = np.random.default_rng([seed, 4])
    if tiny:
        ops = _coeff_pass(rng, work, "run", 4, 6, 10, 2, 6, 8, 2, True)
    else:
        ops = _coeff_pass(rng, work, "run", 12, 12, 17, 7, 10, 16, 6, True)
    warmup = _coeff_pass(np.random.default_rng([seed, 5]), work, "warm", 4, 6, 7, 1, 6, 7, 1,
                         False)
    return Workload(ops, warmup)


WORKLOADS = {"cli_figures": cli_figures, "offgrid_disk": offgrid_disk, "coeff_io": coeff_io}

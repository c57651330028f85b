"""Benchmark of the sincfilters package, run from the root of a source checkout.

    python3 bench/run.py --workload cli_figures --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with one client: each
operation starts when the previous one returns.  The seed makes the inputs;
set-up (package import, input generation, input files, warm-up) is done
three times and its median reported.  The timed phase repeats the
workload's pass, a fixed list of operations, until --seconds is used up
(at least twice and at least 100 operations); then every operation is
checked against the references in reference.py, outside the timed phase.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of traced passes interleaved with untraced ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The run
also writes .bench_results/<workload>-seed<seed>-trace<t>.json with the
environment, the failures, every pass wall time and operation latency and
every metric, and with --trace 1 the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
SETUP_REPEATS = 3
MMAP_THRESHOLD = str(16 * 2**20)

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use; before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), n)) if cur.isdigit() and int(cur) > 0 else str(n)
    return n


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    reasons: list[str | None] = field(default_factory=list)
    digests: list[int] = field(default_factory=list)
    spans: list = field(default_factory=list)
    start: float = 0.0


def _digest(op, result) -> int:
    if op.output is not None:
        files = sorted(op.output.iterdir()) if op.output.is_dir() else [op.output]
        crc = 0
        for f in files:
            if f.is_file():
                crc = zlib.crc32(f.name.encode() + f.read_bytes(), crc)
        return zlib.crc32(repr(result).encode(), crc)
    for attr in ("values", "coeffs"):
        if hasattr(result, attr):
            return zlib.crc32(getattr(result, attr).tobytes())
    return zlib.crc32(repr(result).encode())


def _outcome(op, result, error) -> str | None:
    """Why the call's outcome is wrong (exit code or exception), or None."""
    if error is not None:
        if isinstance(op.expect, type) and isinstance(error, op.expect):
            return None
        return f"raised {type(error).__name__}: {error}"
    if isinstance(op.expect, int):
        return None if result[0] == op.expect else f"exit code {result[0]}, expected {op.expect}"
    if isinstance(op.expect, type):
        return f"returned, expected {op.expect.__name__}"
    return None


def run_pass(ops, tracer=None) -> tuple[Pass, list]:
    p = Pass(traced=tracer is not None)
    results = []
    if tracer:
        tracer.install()
    p.start = perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # an operation that raises is an outcome to verify
            result, error = None, exc
        p.latencies.append(perf_counter() - t0)
        p.reasons.append(_outcome(op, result, error))
        p.digests.append(_digest(op, result))
        results.append(result)
    p.wall = perf_counter() - p.start
    if tracer:
        tracer.uninstall()
        p.spans = tracer.take()
    return p, results


def timed_phase(ops, seconds: float, min_passes: int, tracer=None):
    """Repeat the pass until the budget is spent; with a tracer, alternate untraced and traced."""
    passes, results = [], None
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        p, results = run_pass(ops, tracer if traced else None)
        passes.append(p)
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + p.wall > seconds:
            return passes, results


def verify(ops, passes, results):
    """Count failed operations over all passes; returns (failed, wrong_outputs, reasons)."""
    failed, wrong, reasons = 0, 0, {}
    last = passes[-1]
    for i, op in enumerate(ops):
        check_reason = None
        if last.reasons[i] is None and op.check is not None:
            try:
                check_reason = op.check(results[i])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                check_reason = f"output unreadable: {type(exc).__name__}: {exc}"
        for p in passes:
            reason = p.reasons[i] or check_reason
            if reason is None and p.digests[i] != last.digests[i]:
                reason = "output differs from the verified pass"
            if reason is not None:
                failed += 1
                wrong += reason is check_reason or reason.startswith("output differs")
                key = f"{op.label}: {reason[:300]}"
                reasons[key] = reasons.get(key, 0) + 1
    return failed, wrong, reasons


def environment(args, blas_threads_cap: int) -> dict:
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            threads = fn()
        except (OSError, AttributeError):
            pass
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    llc = ""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        top = max(caches, key=lambda c: int((c / "level").read_text()))
        llc = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_cap": blas_threads_cap, "nproc": os.cpu_count(),
        "cpu_model": cpu, "last_level_cache": llc,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (smoke test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sincfilters" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'sincfilters'}", file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    if os.environ.get("MALLOC_MMAP_THRESHOLD_") != MMAP_THRESHOLD:
        # glibc raises its mmap threshold as large blocks are freed, so whether a
        # 32 MiB temporary lands on the heap, and peak RSS with it, depends on
        # allocation history.  A fixed threshold (read at start-up, hence the
        # exec) makes peak RSS follow the program's live memory.
        os.environ["MALLOC_MMAP_THRESHOLD_"] = MMAP_THRESHOLD
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])

    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (its import is part of set-up)
    import sincfilters
    import_s = perf_counter() - t0
    if Path(sincfilters.__file__).resolve().parent != (src / "sincfilters").resolve():
        print(f"error: imported {sincfilters.__file__}, not the checkout's", file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results_dir = ROOT / ".bench_results"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = perf_counter()
            wl = build(args.seed, work, args.tiny)
            for op in wl.warmup:
                try:
                    op.call()
                except Exception:  # warm-up outcomes are not measured; the timed pass checks them
                    pass
            setups.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        ops = wl.ops
        min_passes = 2 if args.tiny else max(2, math.ceil(MIN_OPS / len(ops)))
        tracer = tracing.Tracer() if args.trace else None
        passes, results = timed_phase(ops, args.seconds, min_passes, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, wrong, reasons = verify(ops, passes, results)
        attempted = len(ops) * len(passes)
        untraced = [p for p in passes if not p.traced]
        latencies_ms = [t * 1e3 for p in untraced for t in p.latencies]
        deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
        e2e = {
            # the mean, not the median: on a shared machine whose speed switches
            # between regimes, a median of passes jumps with the regime mix
            "wall_s": statistics.fmean(p.wall for p in untraced),
            "op_p50_ms": deciles[4],
            "op_p90_ms": deciles[8],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        extra = {"error_rate": (failed / attempted, "ratio"),
                 "op_samples": (len(latencies_ms), "count"),
                 "passes": (len(untraced), "count"),
                 "ops_per_pass": (len(ops), "count")}
        if args.trace:
            metrics = tracing.layer_metrics([p for p in passes if p.traced], untraced)
            tracing.write_spans(results_dir / f"spans-{args.workload}-seed{args.seed}.tsv",
                                [(p.start, p.spans) for p in passes if p.traced])
        else:
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        env = environment(args, blas_cap)
        record = {"env": env, "correct": wrong == 0, "attempted": attempted, "failed": failed,
                  "failures": reasons,
                  "pass_walls_s": [p.wall for p in passes],
                  "import_s": import_s, "setup_repeats_s": setups,
                  "latencies_ms": latencies_ms,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()}}
        results_dir.mkdir(exist_ok=True)
        (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:24s} {value:.6g} {unit}")
    for reason, count in reasons.items():
        print(f"FAILED x{count}  {reason}")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

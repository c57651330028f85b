"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Checks that every workload prints every metric named in BENCHMARK.json
with its unit, in both modes; that the traced run's self times and loop
time add up to its wall time; that the verifier marks an operation failed
when its output is perturbed; and that the benchmark fails without a
result when the package source is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".bench_work" / "smoke"


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_printed_metrics() -> None:
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name, unit in want.items():
                assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in lines[:-1]), f"{name} not printed with {unit}"
            record = json.loads((ROOT / ".bench_results" /
                                 f"{w['name']}-seed0-trace{trace}.json").read_text())
            if w["name"] == "coeff_io":
                # the package crashes with KeyError on a coefficient file without "parity"
                assert result["failed"] > 0
                assert all(r.startswith("filter-missing-parity: raised KeyError")
                           for r in record["failures"]), record["failures"]
            else:
                assert result["failed"] == 0, record["failures"]
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                accounted = sum(m[f"{layer}.self_s"] for layer in
                                ("series", "filters", "scaled", "disk", "oracle", "cli"))
                accounted += m["trace.loop_s"]
                assert math.isclose(accounted, m["trace.wall_s"], rel_tol=1e-6), (accounted, m)
            print(f"ok  {w['name']} trace={trace}: {len(want)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def check_gate_is_live() -> None:
    """A pass verifies clean; perturbing one output of each kind makes it fail."""
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import numpy as np

    import run
    import workloads

    def first(ops, label):
        return next(i for i, op in enumerate(ops) if op.label == label)

    # (workload, operation, what to perturb, by how much)
    for name, label, perturb, delta in (
        ("cli_figures", "scaled-kernel", "file", 1e-6),
        ("cli_figures", "sweep-scaled", "dir", 1e-6),
        ("offgrid_disk", "complex_kernel_eval-scaled", "value", 1e-9),
        ("offgrid_disk", "segment_filter", "value", 1e-3),  # tiny quadrature: loose bound
        ("coeff_io", "filter-scaled", "file", 1e-6),
        ("coeff_io", "load_signal", "signal", 0.0),  # one ulp
    ):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        wl = workloads.WORKLOADS[name](0, SCRATCH, True)
        p, results = run.run_pass(wl.ops)
        failed, wrong, reasons = run.verify(wl.ops, [p], results)
        assert wrong == 0, reasons
        i = first(wl.ops, label)
        op = wl.ops[i]
        if perturb in ("file", "dir"):
            path = sorted(op.output.iterdir())[-1] if perturb == "dir" else op.output
            lines = path.read_text().splitlines()
            cells = [line.split(",") for line in lines[1:]]
            for row in cells:
                row[1] = repr(float(row[1]) * (1 + delta) + delta)
            path.write_text("\n".join([lines[0]] + [",".join(r) for r in cells]) + "\n")
        elif perturb == "value":
            results[i] = results[i] + delta
        else:
            values = results[i].values.copy()
            values[len(values) // 2] = np.nextafter(values[len(values) // 2], np.inf)
            results[i] = type(results[i])(values)
        failed2, wrong2, reasons2 = run.verify(wl.ops, [p], results)
        assert wrong2 == wrong + 1 and failed2 == failed + 1, (label, reasons2)
        print(f"ok  perturbed {name} {label}: {next(r for r in reasons2 if r.startswith(label))}")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def check_fails_without_source() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable] + SPEC["command"][1:] +
                          ["--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without the package source: exit {proc.returncode}, {proc.stderr.strip()}")
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    check_printed_metrics()
    check_gate_is_live()
    check_fails_without_source()
    print("smoke test passed")

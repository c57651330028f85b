"""Spans around the package's public functions, installed from outside.

Every function in a module's __all__ (cli.main included) is wrapped, and
the wrapper replaces the function under every name that refers to it in
the package's modules, so re-imported names such as cli.scaled_kernel_eval
or scaled.sinc are traced too.  Private helpers are not wrapped: their time
is the self time of the public function that called them.

A span records name, start, end, parent span, operation id and whether it
raised.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("series", "filters", "scaled", "disk", "oracle", "cli")

MULTIPLIERS = ("filters.filter_multiplier", "scaled.scaled_coefficient")
# Evaluators whose self time is the series summation (and the private tail cutoff).
SUMMATION = ("filters.kernel_eval", "filters.kernel_integral", "scaled.scaled_kernel_eval",
             "scaled.scaled_kernel_derivative", "series.render_signal", "series.eval_series",
             "disk.complex_kernel_eval", "disk.eval_inner", "disk.segment_filter")
FILE_IO = ("series.save_coefficients", "series.load_coefficients", "series.save_signal",
           "series.load_signal", "disk.save_inner", "disk.load_inner")

NAME, LAYER, START, END, PARENT, OP, ERROR, INFO = range(8)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _opts(series, o):
    return o if o is not None else series.DEFAULT_OPTIONS


def _file_bytes(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.iterdir() if f.is_file())
    return p.stat().st_size if p.is_file() else 0


def _extractors(series):
    """Per-span work counts, computed from the call's arguments."""
    size = np.size

    def points(i, name):
        return lambda a, kw: {"points": int(size(_arg(a, kw, i, name)))}

    def k_and_points(opts_at, points_of):
        def get(a, kw):
            opts = _opts(series, _arg(a, kw, opts_at, "opts"))
            return {"K": min(len(a[0]), opts.k_max), "points": points_of(a, kw, opts)}
        return get

    def io(i, name):
        return lambda a, kw: {"bytes": _file_bytes(_arg(a, kw, i, name))}

    def cli_out(a, kw):
        argv = list(_arg(a, kw, 0, "argv") or [])
        return {"bytes": _file_bytes(argv[argv.index("--out") + 1]) if "--out" in argv[:-1] else 0}

    return {
        "filters.filter_multiplier": lambda a, kw: {"k": int(size(_arg(a, kw, 0, "k")))},
        "scaled.scaled_coefficient": lambda a, kw: {"k": int(size(_arg(a, kw, 0, "k")))},
        "filters.kernel_eval": points(1, "dtheta"),
        "filters.kernel_integral": lambda a, kw: {
            "points": _opts(series, _arg(a, kw, 1, "opts")).quad_resolution},
        "scaled.scaled_kernel_eval": points(1, "dtheta"),
        "scaled.scaled_kernel_derivative": points(2, "dtheta"),
        "disk.complex_kernel_eval": lambda a, kw: {"points": 1},
        "series.eval_series": k_and_points(2, lambda a, kw, o: int(size(_arg(a, kw, 1, "theta")))),
        "series.render_signal": k_and_points(2, lambda a, kw, o: int(_arg(a, kw, 1, "resolution"))),
        "disk.eval_inner": k_and_points(2, lambda a, kw, o: 1),
        "disk.segment_filter": k_and_points(4, lambda a, kw, o: o.quad_resolution + 1),
        "series.save_coefficients": io(1, "path"),
        "series.load_coefficients": io(0, "path"),
        "series.save_signal": io(1, "path"),
        "series.load_signal": io(0, "path"),
        "disk.save_inner": io(1, "path"),
        "disk.load_inner": io(0, "path"),
        "cli.main": cli_out,
    }


class Tracer:
    """Installs and removes span wrappers; collects spans of the current pass."""

    def __init__(self):
        self.modules = [importlib.import_module("sincfilters")]
        self.modules += [importlib.import_module(f"sincfilters.{m}") for m in LAYERS]
        series = self.modules[1 + LAYERS.index("series")]
        extract = _extractors(series)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.wrappers: dict[int, tuple] = {}
        for layer, module in zip(LAYERS, self.modules[1:]):
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    qual = f"{layer}.{name}"
                    self.wrappers[id(fn)] = (fn, self._wrap(fn, qual, layer, extract.get(qual)))
        self.patched: list[tuple] = []

    def _wrap(self, fn, qual, layer, extract):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [qual, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if extract is not None:
                    try:
                        rec[INFO] = extract(args, kwargs)
                    except (OSError, TypeError, ValueError, IndexError):
                        rec[INFO] = {}
        return span

    def install(self) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                hit = self.wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self.patched:
            setattr(module, attr, value)
        self.patched.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last call; the tracer starts a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass: self time, calls, errors, work and stages."""
    out: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    child_k = [0] * len(spans)
    for rec in spans:
        p = rec[PARENT]
        if p >= 0:
            child_time[p] += rec[END] - rec[START]
            if rec[NAME] in MULTIPLIERS:
                child_k[p] += (rec[INFO] or {}).get("k", 0)
    for layer in LAYERS:
        for key in ("self_s", "calls", "errors"):
            out[f"{layer}.{key}"] = 0.0
    for key in ("filters.harmonics", "scaled.harmonics", "filters.terms", "scaled.terms",
                "series.terms", "disk.terms", "series.io_bytes", "disk.io_bytes",
                "cli.bytes_out", "stage.multiplier_s", "stage.summation_s", "stage.io_s"):
        out[key] = 0.0
    for i, rec in enumerate(spans):
        name, layer, info = rec[NAME], rec[LAYER], rec[INFO] or {}
        self_s = rec[END] - rec[START] - child_time[i]
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        out[f"{layer}.errors"] += rec[ERROR]
        if name in MULTIPLIERS:
            out[f"{layer}.harmonics"] += info.get("k", 0)
            parent = rec[PARENT]
            if parent < 0 or spans[parent][NAME] not in MULTIPLIERS:
                out["stage.multiplier_s"] += rec[END] - rec[START]  # sinc children included
        if name in SUMMATION:
            out["stage.summation_s"] += self_s
            out[f"{layer}.terms"] += info.get("K", child_k[i]) * info.get("points", 0)
        if name in FILE_IO:
            out["stage.io_s"] += self_s
            out[f"{layer}.io_bytes"] += info.get("bytes", 0)
        if layer == "cli":
            out["stage.io_s"] += self_s
            if name == "cli.main":
                out["cli.bytes_out"] += info.get("bytes", 0)
    return dict(out)


def _root_time(spans: list[list]) -> float:
    return sum(rec[END] - rec[START] for rec in spans if rec[PARENT] < 0)


def layer_metrics(traced, untraced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics averaged over traced passes, with the tracing overhead and loop time.

    A pass here has .wall and .spans; the untraced passes give the overhead's base.
    """
    sums: dict[str, float] = defaultdict(float)
    for p in traced:
        for k, v in summarize(p.spans).items():
            sums[k] += v
    out = {}
    for k, v in sums.items():
        unit = "s" if k.endswith("_s") else "bytes" if "bytes" in k else "count"
        out[k] = (v / len(traced), unit)
    wall = statistics.fmean(p.wall for p in traced)
    loop = statistics.fmean(p.wall - _root_time(p.spans) for p in traced)
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - statistics.fmean(p.wall for p in untraced), "s")
    out["trace.loop_s"] = (loop, "s")
    out["trace.loop_share"] = (loop / wall, "ratio")
    return out


def write_spans(path: Path, passes: list[tuple[float, list[list]]]) -> None:
    """One line per span: pass, name, start and end relative to the pass, parent, op, error."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for p, (t0, spans) in enumerate(passes):
            for i, rec in enumerate(spans):
                fh.write(f"{p}\t{i}\t{rec[NAME]}\t{rec[START] - t0:.9f}\t{rec[END] - t0:.9f}\t"
                         f"{rec[PARENT]}\t{rec[OP]}\t{int(rec[ERROR])}\n")

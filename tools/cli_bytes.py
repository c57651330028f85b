"""Compare the CLI's output bytes between two source trees.

    python3 tools/cli_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `sincfilters` package
(for example `src` of two checkouts).  Every invocation in INVOCATIONS runs
once against each tree, as `python -m sincfilters.cli`, in its own empty
directory under one temporary directory.  For each invocation the script
prints one line per compared item, `same` or `differs`: the exit code,
stdout, stderr and every file the run wrote.  Tree paths are replaced by
`<src>` before stdout and stderr are compared, so a traceback reads the same
from either tree.  Under each text item that differs (stdout, stderr, a CSV
or JSON file) it prints the first SHOWN differing lines by line number: the
old tree's, or the fresh run's, after `-`, then the new tree's, or the
replay's, after `+`.

Then each tree replays the whole list in one process, through `cli.main`,
each invocation again in its own directory, and every item is compared with
that tree's fresh-process run (lines marked `replay`).  State that one call
leaves behind for the next, such as a stale in-process cache, shows there
and nowhere else.  Exits 1 if any item differs, else 0.  Standard library
only; the trees need numpy.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COEFFS = {"coeffs.json": {"parity": "cosine", "coeffs": [1.0 / k for k in range(1, 257)]},
          "sine.json": {"parity": "sine", "coeffs": [(-1.0) ** k / k**2 for k in range(1, 65)]}}

SHOWN = 5  # differing lines printed per text item
SMALL = "--points 256"
INVOCATIONS = [
    # the README's CLI lines
    "kernel --N 1 --eps 0.5 --variant naive --points 1024 --out box.csv",
    "scaled-kernel --eps 0.5 --N 100 --points 1024 --out bump.csv",
    "derivative --eps 0.5 --N 100 --order 2 --points 1024 --out d2.csv",
    "waveform --kind square --eps 0.5 --N 100 --points 4096 --out sq.csv",
    "filter --in coeffs.json --N 4 --eps 0.5 --variant fixed --out filtered.json",
    "invariants --eps 0.5 --out points.csv",
    "sweep --variant scaled --eps 0.5 --points 1024 --out sweep_dir/",
    "selfcheck",
    # derivative orders and grids
    "derivative --order 1 --out d1.csv",
    "derivative --order 3 --out d3.csv",
    "derivative --order 1 --N 3 --tol 1e-6 --points 1023 --out d1n3.csv",
    # kernel for every variant at N = 1, 2, 4
    *(f"kernel --N {n} --variant {v} {SMALL} --tol 1e-9 --out k.csv"
      for v in ("naive", "fixed", "gaussian", "scaled") for n in (1, 2, 4)),
    "kernel --N 2 --eps 0.3 --points 1023 --out k.csv",
    # half-width pi: at theta = -pi the box's edge meets its image
    "kernel --N 1 --eps 3.141592653589793 --points 8 --out k.csv",
    "scaled-kernel --N 10 --tol 1e-9 --points 1023 --out s.csv",
    # scaled N = 3..10 take the exact table: the widest support on an odd grid, and N = 10
    "kernel --variant scaled --N 3 --eps 3.0 --points 1023 --out k.csv",
    "kernel --variant scaled --N 10 --eps 0.05 --points 4096 --out k.csv",
    # grid files written from their distinct half: odd M, one to three rows, and mirrors
    # that cross the 4096-row block
    "derivative --order 1 --points 1023 --out d1.csv",
    *(f"waveform --kind {kind} --points 8193 --out w.csv" for kind in ("sawtooth", "triangle")),
    *(f"kernel --points {m} --out k.csv" for m in (1, 2, 3)),
    *(f"waveform --kind {kind} --points 1 --out w.csv" for kind in ("square", "triangle")),
    # waveform kinds at N = 0, 1, 2, 100
    *(f"waveform --kind {kind} --N {n} {SMALL} --kmax 65536 --out w.csv"
      for kind in ("square", "sawtooth", "triangle") for n in (0, 1, 2, 100)),
    # sweeps of the other variants
    *(f"sweep --variant {v} {SMALL} --out sweep/" for v in ("naive", "fixed", "gaussian")),
    # N = 1 and N = 2 (total range 4 > pi) take the closed form on the period
    "sweep --variant naive --eps 2.0 --tol 1e-6 --points 256 --out sweep/",
    "sweep --variant gaussian --eps 2.5 --points 64 --out sweep/",
    # filter in both formats
    *(f"filter --in {f} --N 3 --variant {v} --out {out}"
      for f, v, out in (("coeffs.json", "naive", "f.csv"), ("sine.json", "gaussian", "f.json"),
                        ("sine.json", "scaled", "f.csv"))),
    # exit 0 through SystemExit, exit 1 and 2
    "kernel --help",
    "sweep -h",
    "kernel --N 3 --points 64 --out x.csv",
    "kernel --N 3 --eps 5e-324 --points 64 --out x.csv",
    # tiny ranges: a normal narrowest stage reads its table, a subnormal one exits 2
    "kernel --N 2 --variant gaussian --eps 1e-300 --points 8 --out k.csv",
    "kernel --N 1 --eps 1e-310 --points 8 --out k.csv",
    # a waveform reads no table: its error does not name one
    "waveform --N 3 --eps 5e-324 --points 64 --out w.csv",
    "kernel --N 0 --points 64 --out x.csv",
    "kernel --N 8 --eps 1.0 --variant naive --points 64 --out x.csv",
    "kernel --N 5 --tol 1e-9 --points 0 --out x.csv",
    "sweep --variant scaled --points 0 --out sweep/",
    "derivative --order 0 --points 64 --out x.csv",
    "derivative --N 2 --order 1 --points 64 --out x.csv",
    "scaled-kernel --variant naive --out x.csv",
    "kernel --N 1",
    "filter --in missing.json --out x.json",
    "waveform --N -2 --points 64 --out x.csv",
    "waveform --N 0 --eps 4 --points 64 --out x.csv",
    "invariants --eps 4 --out p.csv",
    "invariants --eps 3.141592653589793 --out p.csv",
    "kernel --N 3 --tol 1e-30 --kmax 100000000000000000 --points 64 --out o.csv",
    # no command first: the parser of every command
    "",
    "--help",
    "bogus",
    "-h kernel",
    "--eps 0.5 kernel",
]


# Run on stdin's [[argv, cwd], ...] in one process; print [exit code, stdout, stderr] per call.
REPLAY = """
import contextlib, io, json, os, sys, traceback
from sincfilters import cli
for argv, cwd in json.load(sys.stdin):
    os.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # to an exit code, as the interpreter maps it
            code = exc.code
            if code is None:
                code = 0
            elif not isinstance(code, int):
                print(code, file=sys.stderr)
                code = 1
        except Exception:
            traceback.print_exc()
            code = 1
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def prepare(cwd: Path) -> None:
    cwd.mkdir(parents=True)
    for name, obj in COEFFS.items():
        (cwd / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def outcome(src: Path, cwd: Path, code: int, stdout: bytes, stderr: bytes) -> dict:
    def scrub(data: bytes) -> bytes:
        return data.replace(str(src).encode(), b"<src>").replace(str(cwd).encode(), b"<cwd>")

    items = {"exit code": str(code).encode(), "stdout": scrub(stdout), "stderr": scrub(stderr)}
    for path in sorted(cwd.rglob("*")):
        if path.is_file() and path.name not in COEFFS:
            items[f"file {path.relative_to(cwd)}"] = path.read_bytes()
    return items


def run(src: Path, argv: str, cwd: Path) -> dict:
    prepare(cwd)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "sincfilters.cli", *argv.split()],
                          cwd=cwd, env=env, capture_output=True, timeout=600)
    return outcome(src, cwd, proc.returncode, proc.stdout, proc.stderr)


def replay(src: Path, cwds: list[Path]) -> list[dict]:
    """Every invocation through cli.main in one process, the i-th in cwds[i]."""
    for cwd in cwds:
        prepare(cwd)
    calls = json.dumps([[argv.split(), str(cwd)] for argv, cwd in zip(INVOCATIONS, cwds)])
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", REPLAY], input=calls.encode(), env=env,
                          capture_output=True, timeout=1800)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != len(cwds):
        sys.exit(f"the replay against {src} failed after {len(lines)} of {len(cwds)} calls:\n"
                 f"{proc.stderr.decode()}")
    return [outcome(src, cwd, code, out.encode(), err.encode())
            for cwd, (code, out, err) in zip(cwds, map(json.loads, lines), strict=True)]


def show_lines(old: bytes | None, new: bytes | None) -> None:
    """The first SHOWN lines at which two texts differ; a missing line or item reads <none>."""
    sides = ((data or b"").decode("utf-8", "replace").splitlines() for data in (old, new))
    pairs = itertools.zip_longest(*sides, fillvalue="<none>")
    differing = ((n, a, b) for n, (a, b) in enumerate(pairs, 1) if a != b)
    for n, a, b in itertools.islice(differing, SHOWN):
        print(f"           line {n}\n             - {a[:200]}\n             + {b[:200]}")


def compare(i: int, label: str, old: dict, new: dict) -> int:
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        same = old.get(key) == new.get(key)
        differ += not same
        print(f"{'same   ' if same else 'differs'}  [{i:2d}] {label + key:<35} {INVOCATIONS[i]}")
        if not same and (key in ("stdout", "stderr") or key.endswith((".csv", ".json"))):
            show_lines(old.get(key), new.get(key))
    return differ


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "sincfilters" / "cli.py").is_file():
            print(f"no sincfilters package under {tree}", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {side: [] for side in ("old", "new")}
        for i, invocation in enumerate(INVOCATIONS):
            for tree, side in zip(trees, fresh):
                fresh[side].append(run(tree, invocation, Path(tmp, side, str(i))))
            differ += compare(i, "", fresh["old"][i], fresh["new"][i])
        for tree, side in zip(trees, fresh):
            cwds = [Path(tmp, f"{side}-replay", str(i)) for i in range(len(INVOCATIONS))]
            for i, items in enumerate(replay(tree, cwds)):
                differ += compare(i, f"{side} replay ", fresh[side][i], items)
    print(f"cli_bytes: {len(INVOCATIONS)} invocations, fresh and replayed, {differ} item(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

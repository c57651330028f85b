"""Compare the CLI's output bytes between two source trees.

    python3 tools/cli_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `sincfilters` package
(for example `src` of two checkouts).  Every invocation in INVOCATIONS runs
once against each tree, as `python -m sincfilters.cli`, in its own empty
directory under one temporary directory.  For each invocation the script
prints one line per compared item, `same` or `differs`: the exit code,
stdout, stderr and every file the run wrote.  Tree paths are replaced by
`<src>` before stdout and stderr are compared, so a traceback reads the same
from either tree.  Exits 1 if any item differs, else 0.  Standard library
only; the trees need numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COEFFS = {"coeffs.json": {"parity": "cosine", "coeffs": [1.0 / k for k in range(1, 257)]},
          "sine.json": {"parity": "sine", "coeffs": [(-1.0) ** k / k**2 for k in range(1, 65)]}}

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
    "scaled-kernel --N 10 --tol 1e-9 --points 1023 --out s.csv",
    # waveform kinds at N = 0, 1, 2, 100
    *(f"waveform --kind {kind} --N {n} {SMALL} --kmax 65536 --out w.csv"
      for kind in ("square", "sawtooth", "triangle") for n in (0, 1, 2, 100)),
    # sweeps of the other variants
    *(f"sweep --variant {v} {SMALL} --out sweep/" for v in ("naive", "fixed", "gaussian")),
    # filter in both formats
    *(f"filter --in {f} --N 3 --variant {v} --out {out}"
      for f, v, out in (("coeffs.json", "naive", "f.csv"), ("sine.json", "gaussian", "f.json"),
                        ("sine.json", "scaled", "f.csv"))),
    # exit 1 and 2
    "kernel --N 3 --points 64 --out x.csv",
    "kernel --N 3 --eps 5e-324 --points 64 --out x.csv",
    "kernel --N 0 --points 64 --out x.csv",
    "kernel --N 8 --eps 1.0 --variant naive --points 64 --out x.csv",
    "kernel --N 5 --tol 1e-9 --points 0 --out x.csv",
    "derivative --order 0 --points 64 --out x.csv",
    "derivative --N 2 --order 1 --points 64 --out x.csv",
    "scaled-kernel --variant naive --out x.csv",
    "kernel --N 1",
    "filter --in missing.json --out x.json",
    "waveform --N -2 --points 64 --out x.csv",
    "waveform --N 0 --eps 4 --points 64 --out x.csv",
    "kernel --N 3 --tol 1e-30 --kmax 100000000000000000 --points 64 --out o.csv",
]


def run(src: Path, argv: str, cwd: Path) -> dict:
    cwd.mkdir(parents=True)
    for name, obj in COEFFS.items():
        (cwd / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "sincfilters.cli", *argv.split()],
                          cwd=cwd, env=env, capture_output=True, timeout=600)

    def scrub(data: bytes) -> bytes:
        return data.replace(str(src).encode(), b"<src>").replace(str(cwd).encode(), b"<cwd>")

    items = {"exit code": str(proc.returncode).encode(), "stdout": scrub(proc.stdout),
             "stderr": scrub(proc.stderr)}
    for path in sorted(cwd.rglob("*")):
        if path.is_file() and path.name not in COEFFS:
            items[f"file {path.relative_to(cwd)}"] = path.read_bytes()
    return items


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
        for i, invocation in enumerate(INVOCATIONS):
            old, new = (run(tree, invocation, Path(tmp, side, str(i)))
                        for tree, side in zip(trees, ("old", "new")))
            for key in sorted(old.keys() | new.keys()):
                same = old.get(key) == new.get(key)
                differ += not same
                print(f"{'same   ' if same else 'differs'}  [{i:2d}] {key:<28} {invocation}")
    print(f"cli_bytes: {len(INVOCATIONS)} invocations, {differ} item(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

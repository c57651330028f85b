import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from sincfilters import cli
from sincfilters.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, np.array([[float(x) for x in row] for row in body])


def test_kernel_command_box(tmp_path):
    out = tmp_path / "box.csv"
    rc = main(["kernel", "--N", "1", "--eps", "0.5", "--variant", "naive",
               "--points", "1024", "--out", str(out)])
    assert rc == 0
    header, data = read_csv(out)
    assert header == ["theta", "value"]
    assert data.shape == (1024, 2)
    at_zero = data[np.argmin(np.abs(data[:, 0])), 1]
    assert at_zero == 1.0  # 1/(2 eps)


def test_scaled_kernel_command_peak(tmp_path):
    out = tmp_path / "bump.csv"
    rc = main(["scaled-kernel", "--eps", "0.5", "--N", "100",
               "--points", "1024", "--out", str(out)])
    assert rc == 0
    _, data = read_csv(out)
    assert abs(data[:, 1].max() - 2.0) <= 1e-6
    assert data[np.argmax(data[:, 1]), 0] == 0.0


def test_waveform_command_locality(tmp_path):
    out = tmp_path / "square.csv"
    rc = main(["waveform", "--kind", "square", "--eps", "0.5", "--N", "100",
               "--points", "4096", "--out", str(out)])
    assert rc == 0
    _, data = read_csv(out)
    row = data[np.argmin(np.abs(data[:, 0] - 1.0))]
    assert abs(row[1] - 1.0) <= 1e-6


def test_derivative_command(tmp_path):
    out = tmp_path / "d1.csv"
    rc = main(["derivative", "--eps", "0.5", "--N", "100", "--order", "1",
               "--points", "512", "--out", str(out)])
    assert rc == 0
    _, data = read_csv(out)
    at_zero = data[np.argmin(np.abs(data[:, 0])), 1]
    assert abs(at_zero) < 1e-9


def test_filter_command_roundtrip(tmp_path):
    coeffs_path = tmp_path / "in.json"
    coeffs_path.write_text(json.dumps({"parity": "sine", "coeffs": [1.0, 1.0, 1.0]}))
    out = tmp_path / "out.json"
    rc = main(["filter", "--in", str(coeffs_path), "--N", "0", "--eps", "0.5",
               "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["coeffs"] == [1.0, 1.0, 1.0]
    out_csv = tmp_path / "out.csv"
    rc = main(["filter", "--in", str(coeffs_path), "--N", "2", "--eps", "0.5",
               "--variant", "fixed", "--out", str(out_csv)])
    assert rc == 0
    header, data = read_csv(out_csv)
    assert header == ["k", "coefficient"]
    assert data[0, 1] == pytest.approx(0.98961583701809172**2, abs=1e-14)


@pytest.mark.parametrize("content", [[1, 2, 3],
                                     {"parity": "cosine", "coeffs": ["1", True]},
                                     {"parity": "cosine", "coeffs": [1.5, True]},
                                     {"parity": "cosine", "coeffs": [1.5, 10**400]}])
def test_filter_malformed_coefficient_file(content, tmp_path, capsys):
    # a non-object, entries that are not JSON numbers, and an integer past the float range:
    # one error line rather than a traceback, or a boolean or string read as 1.0
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    assert main(["filter", "--in", str(path), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out.json").exists()


def test_invariants_command(tmp_path):
    out = tmp_path / "pts.csv"
    assert main(["invariants", "--eps", "0.5", "--out", str(out)]) == 0
    _, data = read_csv(out)
    np.testing.assert_allclose(data[:, 1], [0.0, 1.0, 2.0, 1.0, 0.0], atol=0)


def test_sweep_command_scaled(tmp_path):
    out_dir = tmp_path / "sweep"
    rc = main(["sweep", "--variant", "scaled", "--eps", "0.5", "--points", "256",
               "--out", str(out_dir)])
    assert rc == 0
    files = sorted(out_dir.glob("kernel_scaled_N*.csv"))
    assert len(files) == 10
    _, data = read_csv(out_dir / "kernel_scaled_N10.csv")
    assert abs(data[:, 1].max() - 2.0) < 1e-3


def test_sweep_command_naive_beyond_period(tmp_path):
    # N=128 at eps=0.5 has total range >> pi; the sweep must still emit it
    out_dir = tmp_path / "sweepn"
    rc = main(["sweep", "--variant", "naive", "--eps", "0.5", "--points", "128",
               "--out", str(out_dir)])
    assert rc == 0
    _, data = read_csv(out_dir / "kernel_naive_N128.csv")
    # kernel flattens towards 1/(2 pi) over the whole period
    assert np.abs(data[:, 1] - 1 / (2 * np.pi)).max() < 0.02


@pytest.mark.parametrize("variant, eps", [("naive", "2.0"), ("gaussian", "2.5")])
def test_sweep_past_the_period_at_the_default_tol(tmp_path, variant, eps):
    # N = 2 has total range 4 or 3.5 > pi: the closed form on the period, not a long series
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--variant", variant, "--eps", eps, "--points", "64", "--out", str(out_dir)]
    assert main(argv) == 0
    names = {f"kernel_{variant}_N{n}.csv" for n in cli.SWEEP_LISTS[variant]}
    assert {path.name for path in out_dir.iterdir()} == names


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scaled-kernel", "--eps", "0.5", "--N", "40", "--points", "512"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_grid_files_after_other_grids_in_one_process(tmp_path):
    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    assert main(["kernel", "--points", "1024", "--out", str(first)]) == 0
    assert main(["kernel", "--points", "1023", "--out", str(tmp_path / "odd.csv")]) == 0
    assert main(["sweep", "--variant", "scaled", "--out", str(tmp_path / "sweep")]) == 0
    assert main(["kernel", "--points", "1024", "--out", str(last)]) == 0
    assert last.read_bytes() == first.read_bytes()


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["kernel", "--variant", "boxcar", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["kernel", "--N", "1"]) == 1  # missing --out
    assert main(["filter", "--out", str(tmp_path / "y.json")]) == 1  # missing --in


def test_precondition_error_exit_code(tmp_path, capsys):
    rc = main(["kernel", "--N", "8", "--eps", "1.0", "--variant", "naive",
               "--points", "64", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "pi/N" in capsys.readouterr().err


def test_nonconvergence_exit_code(tmp_path, capsys):
    rc = main(["kernel", "--N", "3", "--eps", "0.5", "--variant", "fixed",
               "--points", "64", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-convergence" in err


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_grid_path_exit_codes(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "x.csv")
    # a first derivative needs N >= 3 (InsufficientOrderError)
    assert main(["derivative", "--N", "2", "--order", "1", "--points", "64", "--out", out]) == 1
    assert main(["derivative", "--N", "100", "--order", "0", "--points", "64", "--out", out]) == 1
    assert main(["kernel", "--N", "5", "--tol", "1e-9", "--points", "0", "--out", out]) == 1
    assert main(["waveform", "--N", "-2", "--points", "64", "--out", out]) == 1
    # 5.9e15 harmonics: numpy refuses the 41.7 PiB array at once, without allocating it
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = "kernel --N 3 --tol 1e-30 --kmax 100000000000000000 --points 64 --out o.csv"
    assert main(argv.split()) == 1
    assert capsys.readouterr().err.startswith("error: ")


GRID_COMMANDS = [
    "kernel --N 1 --variant naive",  # the box
    "kernel --N 2 --eps 0.3",  # two boxes convolved
    "kernel --N 5 --variant scaled",  # the exact table
    "kernel --N 4",  # series
    "scaled-kernel",  # series
    "derivative --order 1",
    "derivative --order 2",
    "waveform --kind square",
    "waveform --kind sawtooth",
    "waveform --kind triangle",
    "sweep --variant scaled",
    "sweep --variant gaussian",
]


@pytest.mark.parametrize("points", [1023, 1024])
def test_every_grid_command_writes_its_distinct_half(tmp_path, monkeypatch, points):
    # every grid file mirrors bit for bit, so the writer formats only rows j <= M/2
    from sincfilters import series

    seen, mirrored_cells = [], series._mirrored_cells

    def spy(ys):
        seen.append(mirrored_cells(ys))
        return seen[-1]

    monkeypatch.setattr(series, "_mirrored_cells", spy)
    for i, command in enumerate(GRID_COMMANDS):
        argv = command.split() + ["--points", str(points), "--out", str(tmp_path / str(i))]
        calls = len(seen)
        assert main(argv) == 0, command
        assert len(seen) > calls and all(cells is not None for cells in seen[calls:]), command


def test_sweep_periodised_matches_direct_series(tmp_path):
    from sincfilters.filters import _Periodised, kernel_eval
    from sincfilters.series import theta_grid

    out_dir = tmp_path / "sweep"
    rc = main(["sweep", "--variant", "naive", "--eps", "0.5", "--points", "1024",
               "--out", str(out_dir)])
    assert rc == 0
    grid = theta_grid(1024)
    for n in (8, 16, 32, 64, 128):  # total range n * 0.5 > pi
        _, data = read_csv(out_dir / f"kernel_naive_N{n}.csv")
        direct = kernel_eval(_Periodised(n, 0.5, "naive"), grid)  # at the sweep's --tol 1e-12
        assert np.abs(data[:, 1] - direct).max() <= 1e-12


def test_exit_codes_at_extreme_stage_widths(tmp_path, capsys):
    # eps/3 rounds to 0: an identity stage with no breakpoint, so no K reaches tol
    out = str(tmp_path / "z.csv")
    assert main(["kernel", "--N", "3", "--eps", "5e-324", "--points", "64", "--out", out]) == 2
    assert "non-convergence" in capsys.readouterr().err
    # scaled widths eps/2^n once overflowed at n = 1024; past the 60th stage no byte changes
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scaled-kernel", "--N", "1100", "--points", "128", "--out", str(a)]) == 0
    assert main(["scaled-kernel", "--N", "100", "--points", "128", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# a valid value for every flag, and the flags each command's handler reads
FLAG_VALUES = {"--eps": "0.5", "--N": "4", "--variant": "fixed", "--kind": "square",
               "--order": "2", "--points": "64", "--kmax": "1024", "--tol": "1e-9",
               "--in": "coeffs.json", "--out": "x.csv"}
READS = {
    "kernel": "--eps --N --variant --points --kmax --tol --out",
    "scaled-kernel": "--eps --N --points --kmax --tol --out",
    "derivative": "--eps --N --order --points --kmax --tol --out",
    "filter": "--eps --N --variant --in --out",
    "waveform": "--eps --N --kind --points --kmax --tol --out",
    "invariants": "--eps --out",
    "sweep": "--eps --variant --points --kmax --tol --out",
    "selfcheck": "",
}
UNREAD = [(c, f) for c, reads in READS.items() for f in FLAG_VALUES if f not in reads.split()]


@pytest.mark.parametrize("command, flag", UNREAD)
def test_flag_a_command_does_not_read_is_a_usage_error(command, flag, tmp_path, capsys):
    argv = [command]
    for f in [f for f in ("--in", "--out") if f in READS[command].split()] + [flag]:
        argv += [f, str(tmp_path / FLAG_VALUES[f]) if f in ("--in", "--out") else FLAG_VALUES[f]]
    assert main(argv) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _parsed(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except cli._UsageError as exc:
        return f"usage error: {exc}"


def test_one_command_parser_parses_as_the_full_parser(tmp_path, monkeypatch, capsys):
    full = cli._build_parser()
    for command, reads in READS.items():
        # flat: the command's own flags and no subcommand; its usage and help are the full
        # parser's `<command> --help`
        one = cli._build_parser(command)
        with pytest.raises(SystemExit):
            full.parse_args([command, "--help"])
        help_text = capsys.readouterr().out
        assert help_text.startswith(one.format_usage())
        assert one.format_usage().startswith(f"usage: sincfilters {command} [-h]")
        assert one.format_help() == help_text
        required = [f for f in ("--in", "--out") if f in reads.split()]
        for flags in ([], required, reads.split()):
            argv = [x for f in flags for x in (f, FLAG_VALUES[f])]
            assert _parsed(one, argv) == _parsed(full, [command] + argv), argv
    # no command, or none that exists: the full table, and its usage errors
    assert main([]) == 1
    assert "required: command" in capsys.readouterr().err
    assert main(["bogus"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(repr(command) in err for command in cli._COMMANDS)
    # main(None) reads the process's own arguments
    monkeypatch.setattr("sys.argv", ["sincfilters", "invariants", "--out", str(tmp_path / "p.csv")])
    assert main() == 0
    assert (tmp_path / "p.csv").is_file()


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("sincfilters ")]
    assert len(lines) == len(READS)
    (tmp_path / "coeffs.json").write_text('{"parity": "cosine", "coeffs": [1.0, 0.5, 0.25]}')
    monkeypatch.chdir(tmp_path)  # every --out and --in path is relative
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)

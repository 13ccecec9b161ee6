import dataclasses
import json
import os
from itertools import chain

import pytest

from weakgordon import cli
from weakgordon import gordon as go
from weakgordon import measure as me
from weakgordon import measure_io as mio
from weakgordon.errors import ToleranceError, ValidationError

from walk_oracle import write_csv_rows


DIRAC = """{"window": [-1, 1],
 "atoms": [{"x": 0.0, "re": 1.0, "im": 0.0}],
 "segments": []}
"""

COMB = """{"window": [0, 1],
 "atoms": [{"x": 0.0, "re": 1.0, "im": 0.0}],
 "segments": [],
 "periodic": {"period": 1.0}}
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "dirac.json").write_text(DIRAC)
    (tmp_path / "comb.json").write_text(COMB)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSeminormCommand:
    def test_dirac_line(self, workdir, capsys):
        rc = cli.run(["seminorm", "--measure", "dirac.json", "--interval", "-1,1"])
        out = capsys.readouterr().out.strip().split()
        assert rc == 0
        assert out[0] == "1" and out[1] == "1"
        assert (workdir / "meta.json").exists()

    def test_csv_dump(self, workdir):
        rc = cli.run(
            ["seminorm", "--measure", "dirac.json", "--interval", "-1,1",
             "--csv", "scan.csv"]
        )
        assert rc == 0
        lines = (workdir / "scan.csv").read_text().splitlines()
        assert lines[0] == "a,N_lower,N_upper"

    def test_csv_row_adds_no_work_on_a_short_interval(self, workdir):
        # the one row of an interval of length <= 2 is the result itself
        mio.dump_measure(me.make_measure([(0.3, 1.0 - 0.5j)],
                                         ((-0.8, 0.6, (0.5 + 0.2j, -1.0 + 0.7j)),), (-1, 1)),
                         workdir / "complex.json")
        stats = []
        for extra in ([], ["--csv", "scan.csv"]):
            assert cli.run(["seminorm", "--measure", "complex.json", "--interval", "-1,1",
                            *extra]) == 0
            stats.append(json.loads((workdir / "meta.json").read_text())["stats"])
        assert stats[0] == stats[1] and stats[0]["l1_evaluations"] > 0

    def test_empty_interval_is_the_zero_window(self, workdir, capsys):
        # [1, 1] holds no piece of phi: value 0, c = 0, witness centre 1
        assert cli.run(["seminorm", "--measure", "dirac.json", "--interval", "1,1"]) == 0
        assert capsys.readouterr() == ("0 0 0 0 1\n", "")

    def test_missing_file_exit_2(self, workdir):
        assert cli.run(["seminorm", "--measure", "nope.json", "--interval", "-1,1"]) == 2

    def test_tol_must_be_positive_exit_2(self, workdir, capsys):
        for tol in ("0", "-1e-8", "nan"):
            args = ["seminorm", "--measure", "dirac.json", "--interval", "-1,1", "--tol", tol]
            assert cli.run(args) == 2
            assert "tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["1,-1", "2,-2"])
    def test_reversed_interval_exit_2(self, workdir, capsys, interval):
        # the atom at 0 once gave a seminorm of 0 over the reversed span
        mio.dump_measure(me.make_measure([(0.0, 0.45)], (), (-2, 2)), workdir / "wide.json")
        assert cli.run(["seminorm", "--measure", "wide.json", "--interval", interval]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not inside window" in err
        assert not (workdir / "meta.json").exists()

    @pytest.mark.parametrize("csv", [[], ["--csv", "scan.csv"]], ids=["line", "csv"])
    @pytest.mark.parametrize("interval", ["1,-1", "5,9"])
    def test_window_at_checks_the_interval(self, workdir, capsys, interval, csv):
        # --window-at evaluates one window, but the interval must still be a
        # span inside the measure's window
        mio.dump_measure(me.make_measure([(0.0, 0.45)], (), (-2, 2)), workdir / "wide.json")
        assert cli.run(["seminorm", "--measure", "wide.json", "--interval", interval,
                        "--window-at", "0", *csv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not inside window" in err
        assert not (workdir / "meta.json").exists() and not (workdir / "scan.csv").exists()


class TestPropagateCommand:
    def test_trace_columns(self, workdir):
        rc = cli.run(
            ["propagate", "--measure", "dirac.json", "--z", "0,0", "--from", "0",
             "--init", "1,0,0,0", "--grid", "-0.5:0.5:0.25", "--out", "trace.csv"]
        )
        assert rc == 0
        lines = (workdir / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,u_re,u_im,du_re,du_im"
        assert len(lines) == 6

    def test_meta_stats(self, workdir):
        # the walks' factor counts go to meta.json, as on the trace
        from weakgordon import propagator as pr

        args = ["propagate", "--measure", "dirac.json", "--z", "0,0", "--from", "0",
                "--init", "1,0,0,0", "--grid", "-0.5:0.5:0.25", "--out", "trace.csv"]
        assert cli.run(args) == 0
        meta = json.loads((workdir / "meta.json").read_text())
        tr = pr.propagate(mio.load_measure("dirac.json"), 0j, 0.0, (1, 0),
                          [-0.5, -0.25, 0.0, 0.25, 0.5])
        assert meta["stats"] == {"atoms": 1, "constant": 4, "magnus": 0, "runs": 0}
        assert tr.stats == pr.WalkStats(**meta["stats"])

    def test_tol_must_be_positive_exit_2(self, workdir, capsys):
        for tol in ("0", "-1e-8", "nan"):
            args = ["propagate", "--measure", "dirac.json", "--z", "0,0", "--from", "0",
                    "--init", "1,0,0,0", "--grid", "-0.5:0.5:0.25", "--tol", tol,
                    "--out", "trace.csv"]
            assert cli.run(args) == 2
            assert "tol must be positive" in capsys.readouterr().err

    def test_bad_grid_exit_2(self, workdir):
        rc = cli.run(
            ["propagate", "--measure", "dirac.json", "--z", "0,0", "--from", "0",
             "--init", "1,0,0,0", "--grid", "1:0:0.1", "--out", "t.csv"]
        )
        assert rc == 2


class TestGordonScanCommand:
    def test_periodic_scan(self, workdir):
        rc = cli.run(
            ["gordon-scan", "--measure", "comb.json", "--periods", "1,2",
             "--r-grid", "1,2", "--out", "scan.csv"]
        )
        assert rc == 0
        text = (workdir / "scan.csv").read_text()
        assert text.startswith("p,defect_lo,defect_hi,ratio,log_rate")
        assert "C_mu,inf" in text and "E_mu,inf" in text

    def test_byte_identical_reruns(self, workdir):
        args = ["gordon-scan", "--measure", "comb.json", "--periods", "1,2",
                "--r-grid", "1,2", "--out", "scan.csv"]
        cli.run(args)
        first = (workdir / "scan.csv").read_bytes()
        cli.run(args)
        assert (workdir / "scan.csv").read_bytes() == first


    def test_segment_narrower_than_the_shift_spacing(self, workdir):
        # exit 0, not 2: translate carries the collapsing segment as an atom
        mio.dump_measure(me.make_measure([], [(0.0, 1e-17, (1.0,)), (0.2, 0.9, (1.0,))],
                                         (-1.5, 3)), workdir / "tiny.json")
        assert cli.run(["gordon-scan", "--measure", "tiny.json", "--periods", "0.5",
                        "--r-grid", "1", "--out", "scan.csv"]) == 0
        row = (workdir / "scan.csv").read_text().splitlines()[1].split(",")
        assert [float(v) for v in row[:3]] == [0.5, 0.18, 0.18]


class TestSharpnessCommand:
    def test_report_and_plot(self, workdir):
        rc = cli.run(
            ["sharpness", "--m-max", "2", "--C", "0.5", "--out", "rep.csv",
             "--plot", "trace.csv"]
        )
        assert rc == 0
        lines = (workdir / "rep.csv").read_text().splitlines()
        assert lines[0].startswith("m,l,p,log_defect")
        assert len([l for l in lines if l[0].isdigit()]) == 2
        assert (workdir / "trace.csv").read_text().startswith("t,u")
        meta = json.loads((workdir / "meta.json").read_text())
        assert meta["subcommand"] == "sharpness"
        assert meta["certificates"]["eigen_residual"] <= 1e-8

    def test_budget_exit_4(self, workdir):
        assert cli.run(["sharpness", "--m-max", "9", "--out", "rep.csv"]) == 4

    def test_no_levels_exit_2(self, workdir, capsys):
        # below one level is outside the domain, not over the budget
        assert cli.run(["sharpness", "--m-max", "0", "--out", "rep.csv"]) == 2
        assert capsys.readouterr().err == "error: m_max must be at least 1, got 0\n"
        assert not (workdir / "rep.csv").exists()

    def test_one_level_exit_2(self, workdir, capsys):
        # the report reads level 1's interchange atoms, which one level lacks
        assert cli.run(["sharpness", "--m-max", "1", "--out", "rep.csv"]) == 2
        assert capsys.readouterr() == (
            "", "error: the sharpness report needs m_max >= 2, got 1\n")
        assert not (workdir / "rep.csv").exists()


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["sharpness", "--m-max", "2", "--out", "missing/rep.csv"],
        ["--meta", "missing/meta.json", "seminorm", "--measure", "dirac.json",
         "--interval", "-1,1"],
        ["seminorm", "--measure", ".", "--interval", "-1,1"],
    ], ids=["out", "meta", "directory-as-measure"])
    def test_file_error_exit_2(self, workdir, capsys, argv):
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("error, rc, message", [
        (ToleranceError("gap 1e-2 > tol 1e-9"), 3, "tolerance failure: gap 1e-2 > tol 1e-9\n"),
        (KeyboardInterrupt(), 2, "\n"),
    ], ids=["tolerance-exit-3", "interrupt-exit-2"])
    def test_failed_computation_writes_nothing(self, workdir, monkeypatch, capsys, error, rc,
                                               message):
        def fail(*_args):
            raise error

        monkeypatch.setattr(cli, "interval_seminorm", fail)
        assert cli.run(["seminorm", "--measure", "dirac.json", "--interval", "-1,1"]) == rc
        assert capsys.readouterr() == ("", message)
        assert not (workdir / "meta.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["seminorm", "--measure", "dirac.json", "--interval", "1"], "--interval expects a,b"),
        (["gordon-scan", "--measure", "comb.json", "--periods", ",", "--r-grid", "1",
          "--out", "scan.csv"], "--periods must be nonempty"),
        (["mollify", "--measure", "comb.json", "--n", "4", "--out", "m.json"],
         "comb.json is periodic; this operation needs a concrete window"),
    ], ids=["interval-shape", "empty-periods", "mollify-periodic"])
    def test_value_errors_exit_2(self, workdir, capsys, argv, message):
        assert cli.run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["comb.json", "dirac.json"]

    @pytest.mark.parametrize("extra, message", [
        # the step count overflows int64
        (["--tol", "1e-300"], "the walk needs 5e+74 Magnus steps, budget 1000000"),
        (["--tol", "1e-60"], "the walk needs 5e+14 Magnus steps, budget 1000000"),
        # a 2e15-point grid is a MemoryError where NumPy allocates it
        (["--grid", "-1:1:1e-15"], "Unable to allocate 14.2 PiB for an array with shape "
                                   "(2000000000000001,) and data type float64"),
        (["--measure", "fine.json"], "window (-1.0, 1.0) needs 2.5e+05 shifts of period 8e-06 "
                                     "with 1 atoms and segments each, budget 200000"),
    ], ids=["magnus-steps-past-int64", "magnus-steps", "grid-memory", "periodic-copies"])
    def test_resource_errors_exit_4(self, workdir, capsys, extra, message):
        # slope.json has a non-constant density, so the walk takes Magnus
        # steps; fine.json repeats one atom every 8e-6
        mio.dump_measure(me.make_measure((), [(-2.0, 2.0, (0.5, 0.25))], (-2, 2)),
                         workdir / "slope.json")
        mio.dump_measure(me.PeriodicMeasure(me.dirac(0.0, 1.0, (0.0, 8e-6)), 8e-6),
                         workdir / "fine.json")
        argv = ["propagate", "--measure", "slope.json", "--z", "0,0", "--from", "0", "--init",
                "1,0,0,0", "--grid", "-0.5:0.5:0.25", "--out", "trace.csv", *extra]
        assert cli.run(argv) == 4
        assert capsys.readouterr() == ("", f"resource budget exceeded: {message}\n")
        assert sorted(p.name for p in workdir.iterdir()) == [
            "comb.json", "dirac.json", "fine.json", "slope.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_outputs_to_dev_null(self, workdir):
        # a character device is written but not cut
        assert cli.run(["--meta", "/dev/null", "sharpness", "--m-max", "2",
                        "--out", "/dev/null"]) == 0


SEMINORM = ["seminorm", "--measure", "dirac.json", "--interval", "-1,1"]
QUASI = ["quasiperiodic", "--base1", "comb.json", "--base2", "comb.json", "--out", "q.csv"]
PROPAGATE = ["propagate", "--measure", "dirac.json", "--z", "0,0", "--from", "0", "--init",
             "1,0,0,0", "--grid", "-0.5:0.5:0.25", "--out", "trace.csv"]
USAGE_ERRORS = [
    ([], "command"),
    (["nope"], "'nope'"),
    (["seminorm", "--interval", "-1,1"], "'--measure'"),
    (SEMINORM + ["--tol", "x"], "'--tol'"),
    (QUASI + ["--m", "x"], "'--m'"),
    (["seminorm", "--meas", "dirac.json", "--interval", "-1,1"], "'--meas'"),
    (["seminorm", "--measure", "nope.json", "--interval", "-1,1"], "'--measure'"),
    (["quasiperiodic", "--base1", "nope.json", "--base2", "comb.json", "--out", "q.csv"],
     "'--base1'"),
    (SEMINORM + ["stray"], "stray"),
    (SEMINORM + ["--tol"], "'--tol'"),
    (SEMINORM + ["--meta", "m.json"], "'--meta'"),
]
USAGE_ERROR_IDS = ["no-command", "unknown-command", "missing-required", "bad-float", "bad-int",
                   "abbreviation", "missing-measure-file", "missing-base1-file",
                   "extra-positional", "missing-value", "meta-after-command"]


class TestCommandLine:
    """How argv is read: exit 0 for the runs, help and version below; exit 2
    for a malformed command line, with a message on stderr that names the
    option or command, nothing on stdout and no file written."""

    @pytest.mark.parametrize("argv, shown", [
        (["--help"], ["--meta", "--version", "seminorm", "propagate", "gordon-scan",
                      "quasiperiodic", "sharpness", "mollify"]),
        (["seminorm", "--help"], ["--measure", "--interval", "--tol", "1e-09", "--window-at",
                                  "--csv"]),
        (["quasiperiodic", "--help"], ["--alpha-levels", "4", "--base1", "--base2", "--m",
                                       "2", "--tol", "1e-09", "--out"]),
        (["--version"], ["0.1.0"]),
    ], ids=["group-help", "seminorm-help", "quasiperiodic-help", "version"])
    def test_help_and_version(self, workdir, capsys, argv, shown):
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert all(word in out for word in shown)
        assert not (workdir / "meta.json").exists()

    @pytest.mark.parametrize("argv", [
        ["seminorm", "--measure=dirac.json", "--interval=-1,1"],
        # the first --interval lies outside the measure's window
        ["seminorm", "--measure", "dirac.json", "--interval", "5,6", "--interval", "-1,1"],
    ], ids=["equals-form", "last-repeat-wins"])
    def test_seminorm_forms(self, workdir, capsys, argv):
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == "1 1 -1 0 0\n"
        meta = json.loads((workdir / "meta.json").read_text())
        assert meta["parameters"]["interval"] == [-1.0, 1.0]

    def test_values_may_start_with_a_dash(self, workdir):
        assert cli.run(["propagate", "--measure", "dirac.json", "--z", "-0.5,-0.25",
                        "--from", "-0.25", "--init", "-1,0,0.5,-1", "--grid", "-0.5:0.5:0.25",
                        "--out", "trace.csv"]) == 0
        params = json.loads((workdir / "meta.json").read_text())["parameters"]
        assert (params["z"], params["from"], params["init"]) == (
            [-0.5, -0.25], -0.25, [-1.0, 0.0, 0.5, -1.0])

    @pytest.mark.parametrize("argv, name", USAGE_ERRORS, ids=USAGE_ERROR_IDS)
    def test_usage_errors_exit_2(self, workdir, capsys, argv, name):
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and name.lower() in err.lower()
        assert not any(workdir.glob("m*.json")) and not (workdir / "q.csv").exists()

    @pytest.mark.parametrize("argv, name", USAGE_ERRORS, ids=USAGE_ERROR_IDS)
    def test_usage_error_is_one_line(self, workdir, capsys, argv, name):
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("Error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, option", [
        (SEMINORM + ["--interval", "-1,x"], "--interval"),
        (PROPAGATE + ["--z", "a,0"], "--z"),
        (PROPAGATE + ["--init", "1,0,0,"], "--init"),
        (PROPAGATE + ["--grid", "0:x:1"], "--grid"),
        (["gordon-scan", "--measure", "comb.json", "--periods", "1,y", "--r-grid", "1",
          "--out", "scan.csv"], "--periods"),
    ])
    def test_bad_number_in_a_list_exit_2(self, workdir, capsys, argv, option):
        # a list value's numbers are read by the command: exit 2 with an
        # `error:` line, as for its shape
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, option", [
        (PROPAGATE + ["--z", "nan,0"], "--z"),
        (PROPAGATE + ["--grid", "-1:inf:0.5"], "--grid"),
        (PROPAGATE + ["--from", "-inf"], "--from"),
        (["gordon-scan", "--measure", "comb.json", "--periods", "1", "--r-grid", "1",
          "--C", "nan", "--out", "scan.csv"], "--C"),
        (SEMINORM + ["--tol", "inf"], "--tol"),
        (SEMINORM + ["--window-at", "nan"], "--window-at"),
    ], ids=["z-nan", "grid-inf", "from-inf", "C-nan", "tol-inf", "window-at-nan"])
    def test_non_finite_number_exit_2(self, workdir, capsys, argv, option):
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and option in err and err.count("\n") == 1
        assert not any(workdir.glob("*.csv")) and not (workdir / "meta.json").exists()

    def test_help_is_built_from_the_table(self, capsys):
        for command, (fn, spec) in cli._COMMANDS.items():
            assert cli.run([command, "--help"]) == 0
            out = capsys.readouterr().out
            assert fn.__doc__.splitlines()[0] in out
            for name, (_dest, _convert, default, text) in spec.items():
                line = next(line for line in out.splitlines()
                            if line.startswith(f"  {name} "))
                assert text in line
                assert ("[required]" in line) == (default is cli._REQUIRED)
                assert (f"[default: {default}]" in line) == (
                    default not in (None, cli._REQUIRED))

    @pytest.mark.parametrize("code, rc, out", [
        ("import weakgordon.cli, sys; assert 'click' not in sys.modules", 0, ""),
        (None, 0, "weakgordon, version 0.1.0\n"),
    ], ids=["no-click-import", "module-version"])
    def test_in_a_fresh_process(self, code, rc, out):
        # the second runs `python -m weakgordon.cli --version`, so run(None)
        # reads sys.argv
        import subprocess
        import sys

        import weakgordon

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(weakgordon.__file__)))
        argv = ["-c", code] if code else ["-m", "weakgordon.cli", "--version"]
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, "")


# each command with every option given, and the parameters its sidecar holds
SIDECAR_RUNS = {
    "seminorm": ({"--measure": "dirac.json", "--interval": "-1,1", "--tol": "1e-8",
                  "--window-at": "0", "--csv": "scan.csv"},
                 {"measure": "dirac.json", "interval": [-1.0, 1.0], "tol": 1e-8,
                  "window_at": 0.0, "csv": "scan.csv"}),
    "propagate": ({"--measure": "dirac.json", "--z": "0.5,-0.25", "--from": "0",
                   "--init": "1,0,0,0", "--grid": "-0.5:0.5:0.25", "--tol": "1e-9",
                   "--out": "trace.csv"},
                  {"measure": "dirac.json", "z": [0.5, -0.25], "from": 0.0,
                   "init": [1.0, 0.0, 0.0, 0.0], "grid": [-0.5, 0.5, 0.25], "tol": 1e-9,
                   "out": "trace.csv"}),
    "gordon-scan": ({"--measure": "comb.json", "--periods": "1,,2", "--C": "0.5",
                     "--r-grid": "1,2", "--tol": "1e-8", "--out": "scan.csv"},
                    {"measure": "comb.json", "periods": [1.0, 2.0], "C": 0.5,
                     "r_grid": [1.0, 2.0], "tol": 1e-8, "out": "scan.csv"}),
    "quasiperiodic": ({"--alpha-levels": "3", "--base1": "comb.json", "--base2": "comb.json",
                       "--m": "2", "--tol": "1e-8", "--out": "q.csv"},
                      {"alpha_levels": 3, "base1": "comb.json", "base2": "comb.json",
                       "m": 2, "tol": 1e-8, "out": "q.csv"}),
    "sharpness": ({"--m-max": "2", "--C": "0.5", "--tol": "1e-8", "--out": "rep.csv",
                   "--plot": "trace.csv"},
                  {"m_max": 2, "C": 0.5, "tol": 1e-8, "out": "rep.csv", "plot": "trace.csv"}),
    "mollify": ({"--measure": "dirac.json", "--n": "4", "--out": "mol.json"},
                {"measure": "dirac.json", "n": 4, "out": "mol.json"}),
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_sidecar_parameters_are_the_table_options(workdir, command):
    # every option of the table, named without its dashes and with _ for -,
    # holds its parsed value: given, or its default when left out
    options, parsed = SIDECAR_RUNS[command]
    spec = cli._COMMANDS[command][1]
    assert set(options) == set(spec)
    key = {name: name[2:].replace("-", "_") for name in spec}
    assert cli.run([command, *chain.from_iterable(options.items())]) == 0
    assert json.loads((workdir / "meta.json").read_text())["parameters"] == parsed
    required = [name for name in spec if spec[name][2] is cli._REQUIRED]
    assert cli.run([command, *chain.from_iterable((n, options[n]) for n in required)]) == 0
    assert json.loads((workdir / "meta.json").read_text())["parameters"] == {
        key[name]: parsed[key[name]] if name in required else spec[name][2] for name in spec}


class TestRewrite:
    def test_shorter_outputs_equal_fresh_ones(self, workdir, monkeypatch):
        # a long CSV and a long meta.json, rewritten by a command with
        # shorter ones, hold the bytes that command writes to fresh paths
        assert cli.run(["sharpness", "--m-max", "2", "--out", "rep.csv",
                        "--plot", "trace.csv"]) == 0
        before = [(workdir / name).stat().st_size for name in ("trace.csv", "meta.json")]
        argv = ["propagate", "--measure", "dirac.json", "--z", "0,0", "--from", "0",
                "--init", "1,0,0,0", "--grid", "-0.5:0.5:0.25", "--out", "trace.csv"]
        assert cli.run(argv) == 0
        fresh = workdir / "fresh"
        fresh.mkdir()
        (fresh / "dirac.json").write_text(DIRAC)
        monkeypatch.chdir(fresh)
        assert cli.run(argv) == 0
        for name, size in zip(("trace.csv", "meta.json"), before):
            assert (workdir / name).read_bytes() == (fresh / name).read_bytes()
            assert (fresh / name).stat().st_size < size


class TestQuasiperiodicCommand:
    def test_report(self, workdir):
        rc = cli.run(
            ["quasiperiodic", "--alpha-levels", "4", "--base1", "comb.json",
             "--base2", "comb.json", "--m", "2", "--out", "q.csv"]
        )
        assert rc == 0
        text = (workdir / "q.csv").read_text()
        assert "dominates,1" in text

    @pytest.mark.parametrize("doubled, flag", [(False, "1"), (True, "0")])
    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_dominates_is_scale_free(self, workdir, monkeypatch, k, doubled, flag):
        # both bases' weights times 2^k scale the defect and the bound exactly;
        # a defect doubled above the bound by about 0.3 at unit scale stays
        # not dominated at 2^-40, where an absolute slack of 1e-12 covered it
        for name, base in (("base1.json", [(0.125, 0.5), (0.6, -0.3)]),
                           ("base2.json", [(0.25, -0.7), (0.8125, 0.4), (0.9, 0.15)])):
            atoms = [(x, w * 2.0 ** k) for x, w in base]
            mio.dump_measure(me.PeriodicMeasure(me.make_measure(atoms, (), (0.0, 1.0)), 1.0),
                             workdir / name)
        if doubled:
            defect = go.translation_defect
            monkeypatch.setattr(go, "translation_defect", lambda *args: dataclasses.replace(
                res := defect(*args), lower=2.0 * res.lower, upper=2.0 * res.upper))
        assert cli.run(["quasiperiodic", "--alpha-levels", "4", "--base1", "base1.json",
                        "--base2", "base2.json", "--m", "2", "--out", "q.csv"]) == 0
        assert (workdir / "q.csv").read_text().splitlines()[-1] == f"dominates,{flag}"

    @pytest.mark.parametrize("m", ["0", "-1", "5"])
    def test_level_outside_the_convergents_exit_2(self, workdir, capsys, m):
        # 4 alpha levels give 4 convergents; 0 and -1 once indexed from the end
        assert cli.run(QUASI + ["--alpha-levels", "4", "--m", m]) == 2
        assert capsys.readouterr().err == f"error: --m must be in [1, 4], got {m}\n"
        assert not (workdir / "q.csv").exists()

    def test_nonperiodic_base_exit_2(self, workdir):
        rc = cli.run(
            ["quasiperiodic", "--base1", "dirac.json", "--base2", "comb.json",
             "--out", "q.csv"]
        )
        assert rc == 2


class TestMollifyCommand:
    def test_round_trip(self, workdir):
        rc = cli.run(["mollify", "--measure", "dirac.json", "--n", "4", "--out", "mol.json"])
        assert rc == 0
        mol = mio.load_measure(workdir / "mol.json")
        assert not mol.atoms and len(mol.segments) > 50


class TestParser:
    def test_nan_rejected_with_line(self):
        with pytest.raises(ValidationError) as ei:
            mio.parse_measure('{"window": [0, 1],\n "atoms": [{"x": NaN, "re": 1}]}')
        assert "line 2" in str(ei.value)

    def test_overlap_rejected_with_line(self):
        text = (
            '{"window": [0, 3],\n'
            ' "segments": [{"a": 0, "b": 2, "coeffs": [[1, 0]]},\n'
            '              {"a": 1, "b": 3, "coeffs": [[1, 0]]}]}'
        )
        with pytest.raises(ValidationError) as ei:
            mio.parse_measure(text)
        assert "overlap" in str(ei.value) and "line 3" in str(ei.value)

    def test_slack_overlap_round_trip(self, tmp_path):
        # the reader allows the overlap that make_measure allows
        segs = [(0, 100.00000000000003, (1,)), (100, 200, (2,))]
        mu = me.make_measure([], segs, (0, 200))
        text = json.dumps({"window": [0, 200], "segments": [
            {"a": a, "b": b, "coeffs": [[c, 0] for c in cs]} for a, b, cs in segs]})
        assert mio.parse_measure(text) == mu
        path = tmp_path / "m.json"
        mio.dump_measure(mu, path)
        assert mio.load_measure(path) == mu

    def test_malformed_json_line(self):
        with pytest.raises(ValidationError) as ei:
            mio.parse_measure('{"window": [0, 1],\n "atoms": }')
        assert "line 2" in str(ei.value)

    def test_element_line_after_long_atoms_array(self):
        # the line of an element is located only once a check fails
        atoms = ",\n".join(
            '  {"x": %g,\n   "re": 0.5}' % (0.01 * k) for k in range(40)
        )
        segments = ",\n".join(
            '  {"a": %d, "b": %d, "coeffs": [[1, 0]]}' % (k, k + 1) for k in range(3)
        )
        text = (
            '{"window": [0, 9],\n "atoms": [\n' + atoms + '],\n "segments": [\n'
            + segments + ',\n  {"a": 5, "coeffs": [[1, 0]]}]}'
        )
        line = text.splitlines().index('  {"a": 5, "coeffs": [[1, 0]]}]}') + 1
        assert line == 87
        with pytest.raises(ValidationError) as ei:
            mio.parse_measure(text)
        assert str(ei.value) == f"line {line}: segments[3]: missing field 'b'"

    def test_round_trip(self, tmp_path):
        mu = mio.parse_measure(DIRAC)
        path = tmp_path / "m.json"
        mio.dump_measure(mu, path)
        again = mio.load_measure(path)
        assert again.atoms == mu.atoms
        assert again.window == mu.window

    def test_periodic_round_trip(self, tmp_path):
        P = mio.parse_measure(COMB)
        path = tmp_path / "p.json"
        mio.dump_measure(P, path)
        again = mio.load_measure(path)
        assert again.period == P.period
        assert again.base.atoms == P.base.atoms


def _cell_rows(columns):
    # the table as `_fmt` prints it cell by cell, row by row
    return "".join(",".join(map(cli._fmt, row)) + "\n" for row in zip(*columns))


def test_csv_rows_match_the_cell_formatter(tmp_path):
    # one %-format per table gives the bytes of `_fmt` per cell, and of the
    # row-wise writer: NumPy scalars and arrays (float, int and bool),
    # booleans, -0, inf and nan
    import numpy as np

    columns = [
        [1, 2.5, np.float64(-2.0) / 3.0],
        np.array([-0.0, float("inf"), float("nan")]),
        [np.float64(0.1), np.int64(7), True],
        np.array([3, -4, 0]),
        np.array([True, False, True]),
    ]
    path, oracle = tmp_path / "t.csv", tmp_path / "o.csv"
    cli._write_csv(path, ["h"], columns, ["k,1"])
    assert path.read_text() == "h\n" + _cell_rows(columns) + "k,1\n"
    write_csv_rows(oracle, ["h"], zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                       for c in columns)), ["k,1"])
    assert path.read_bytes() == oracle.read_bytes()


def test_csv_blocks_keep_mixed_rows(tmp_path):
    # float and int columns over rows that straddle the blocks
    n = 2 * cli._CSV_BLOCK + 5
    columns = [(k / 7.0 for k in range(n)), range(n)]
    columns = [list(c) for c in columns]
    path, oracle = tmp_path / "t.csv", tmp_path / "o.csv"
    cli._write_csv(path, ["h"], iter(columns), ["k,1"])
    assert path.read_text() == "h\n" + _cell_rows(columns) + "k,1\n"
    write_csv_rows(oracle, ["h"], zip(*columns), ["k,1"])
    assert path.read_bytes() == oracle.read_bytes()
    cli._write_csv(path, ["h"], [[], []])
    assert path.read_text() == "h\n"


# a real measure for the seminorm scans, a complex one for the trace
SPIKY = """{"window": [-3, 3],
 "atoms": [{"x": -1.0, "re": 0.5, "im": 0.0}, {"x": 0.5, "re": -0.25, "im": 0.0}],
 "segments": [{"a": -2.5, "b": -1.0, "coeffs": [[0.3, 0], [0.1, 0], [-0.2, 0]]},
              {"a": 0.0, "b": 1.25, "coeffs": [[0.7, 0]]}]}
"""
COMPLEX = """{"window": [-3, 3],
 "atoms": [{"x": -1.0, "re": 0.5, "im": 0.0}, {"x": 0.5, "re": -0.25, "im": 0.1}],
 "segments": [{"a": -2.5, "b": -1.0, "coeffs": [[0.3, 0], [0.1, 0.2], [-0.2, 0], [0.05, 0]]},
              {"a": 0.0, "b": 1.25, "coeffs": [[0.7, 0]]}]}
"""


@pytest.mark.parametrize("argv, outputs", [
    (["seminorm", "--measure", "spiky.json", "--interval", "-2,2", "--tol", "1e-6",
      "--csv", "scan.csv"], ["scan.csv"]),
    (["seminorm", "--measure", "spiky.json", "--interval", "-1,1", "--csv", "scan.csv"],
     ["scan.csv"]),
    (["propagate", "--measure", "complex.json", "--z", "0.5,0.25", "--from", "0.3",
      "--init", "1,0,0.5,-1", "--grid", "-2.5:2.5:0.05", "--out", "trace.csv"], ["trace.csv"]),
    (["gordon-scan", "--measure", "comb.json", "--periods", "1,2", "--r-grid", "1,2",
      "--out", "scan.csv"], ["scan.csv"]),
    (["quasiperiodic", "--alpha-levels", "4", "--base1", "comb.json", "--base2", "comb.json",
      "--m", "2", "--out", "q.csv"], ["q.csv"]),
    (["sharpness", "--m-max", "2", "--C", "0.5", "--out", "rep.csv", "--plot", "plot.csv"],
     ["rep.csv", "plot.csv"]),
])
def test_csv_bytes_match_the_row_writer(workdir, monkeypatch, argv, outputs):
    # every CSV a command writes, against the row-wise writer fed the same cells
    (workdir / "spiky.json").write_text(SPIKY)
    (workdir / "complex.json").write_text(COMPLEX)
    assert cli.run(argv) == 0
    got = [(workdir / name).read_bytes() for name in outputs]

    def row_writer(path, header, columns, footer_lines=()):
        columns = [c.tolist() if hasattr(c, "tolist") else list(c) for c in columns]
        write_csv_rows(path, header, zip(*columns), footer_lines)

    monkeypatch.setattr(cli, "_write_csv", row_writer)
    assert cli.run(argv) == 0
    assert got == [(workdir / name).read_bytes() for name in outputs]


# a 1001-point trace: cubic pieces (one ending where the next starts, both
# ends on grid points), a constant piece ending on a grid point, and atoms,
# one on the grid point next to 0 and one on a grid point inside a cubic
GRID = """{"window": [-6, 6],
 "atoms": [{"x": -4.5, "re": 0.2, "im": 0.0},
           {"x": -1.6300000000000718, "re": -0.3, "im": 0.1},
           {"x": -1.0658141036401503e-13, "re": 0.5, "im": 0.0},
           {"x": 2.3456789, "re": 0.4, "im": -0.2}],
 "segments": [{"a": -4.000000000000021, "b": -1.5000000000000746,
               "coeffs": [[0.3, 0], [0.1, 0.2], [-0.2, 0], [0.05, 0]]},
              {"a": -1.5000000000000746, "b": 0.75,
               "coeffs": [[0.2, 0], [-0.1, 0], [0.3, 0], [0.02, 0]]},
              {"a": 1.0, "b": 3.0999999999998273, "coeffs": [[0.7, 0]]},
              {"a": 3.3, "b": 4.8, "coeffs": [[-0.4, 0.1], [0.5, 0], [0.0, -0.3], [0.1, 0]]}]}
"""


@pytest.mark.parametrize("s, z, tol, digest, stats", [
    ("0", "0.5,0.25", "1e-8", "e3ba109bfa2bdcdbdad5ffda6d7a8f256e3f9fb30d2b20e86aa7d1fa8f4a1d39",
     {"atoms": 4, "constant": 379, "magnus": 628, "runs": 628}),
    ("0.123456789", "-1,0.1", "1e-8",
     "1560d2c026e05f039b7df8d146c7a0899f893a36cc706a7fa226353ea333939f",
     {"atoms": 4, "constant": 379, "magnus": 628, "runs": 628}),
    # tol^(1/4) = 1e-3: each cell of the cubics takes a run of about ten steps
    ("1.7", "2,-0.5", "1e-12", "6a08d99fcde7f74ebc71aeceeb18f654797e0833c2820aa6734a19a140c98429",
     {"atoms": 4, "constant": 380, "magnus": 6252, "runs": 627}),
])
def test_grid_trace_bytes_are_pinned(workdir, s, z, tol, digest, stats):
    # the CSV bytes and walk counts of the event walk these traces were
    # first written by, from s = 0 (next to an atom on a grid point) and
    # from points off the grid, so both walk directions are pinned
    import hashlib

    (workdir / "grid.json").write_text(GRID)
    argv = ["propagate", "--measure", "grid.json", "--z", z, "--from", s, "--init", "1,0,0.5,-1",
            "--grid", "-5:5:0.01", "--tol", tol, "--out", "trace.csv"]
    assert cli.run(argv) == 0
    data = (workdir / "trace.csv").read_bytes()
    assert data.count(b"\n") == 1002
    assert hashlib.sha256(data).hexdigest() == digest
    assert json.loads((workdir / "meta.json").read_text())["stats"] == stats


def _atom_files(workdir):
    """Atom-only inputs with their positions and weights in exact binary
    fractions: 61 atoms on [-6, 10], every fourth on a quarter grid (so
    atoms sit at a +- 1 on cell ends), and two periodic bases of period 1."""
    atoms = [(-6.0 + 16.0 * ((37 * k) % 101 + 0.5) / 101.0, ((53 * k) % 17 - 8) / 8.0)
             for k in range(45)]
    atoms += [(-5.0 + 0.25 * k, (-1.0) ** k * (k % 5 + 1) / 4.0) for k in range(0, 64, 4)]
    mio.dump_measure(me.make_measure(atoms, (), (-6, 10)), workdir / "atoms.json")
    for name, base in (("base1.json", [(0.125, 0.5), (0.6, -0.3)]),
                       ("base2.json", [(0.25, -0.7), (0.8125, 0.4), (0.9, 0.15)])):
        mio.dump_measure(me.PeriodicMeasure(me.make_measure(base, (), (0.0, 1.0)), 1.0),
                         workdir / name)


@pytest.mark.parametrize("argv, output, digest", [
    (["seminorm", "--measure", "atoms.json", "--interval", "-4.5,7.25", "--tol", "1e-6"],
     None, "52f7a50a561d84e4a924e7abb6b7bfcbd98efb57250290cf08ad522c9cf986be"),
    (["gordon-scan", "--measure", "atoms.json", "--periods", "1.5,2,3", "--r-grid", "1,2",
      "--tol", "1e-6", "--out", "scan.csv"], "scan.csv",
     "da9cdeeb3359fff3e6c6a5a8797aec469afe9e3380d319596c1c55527621af05"),
    (["quasiperiodic", "--alpha-levels", "4", "--base1", "base1.json", "--base2", "base2.json",
      "--m", "3", "--out", "q.csv"], "q.csv",
     "565cbb483f9996e2989838cf4065cf7fdce461f102997cc2578c2cdfe4bcf799"),
])
def test_atom_only_bytes_are_pinned(workdir, capsys, argv, output, digest):
    # the stdout and CSV bytes of the exact staircase cells and the sliding
    # atom sweep, as the per-cell walk and the per-candidate loop wrote them
    import hashlib

    _atom_files(workdir)
    capsys.readouterr()
    assert cli.run(argv) == 0
    data = capsys.readouterr().out.encode() if output is None else (workdir / output).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_atom_only_meta_counts_the_exact_cells(workdir):
    # the sidecar carries the interval result's counts; the stdout line is
    # pinned above
    from dataclasses import asdict

    from weakgordon import seminorm as sn

    _atom_files(workdir)
    assert cli.run(["seminorm", "--measure", "atoms.json", "--interval", "-4.5,7.25",
                    "--tol", "1e-6"]) == 0
    stats = json.loads((workdir / "meta.json").read_text())["stats"]
    res = sn.interval_seminorm(mio.load_measure(workdir / "atoms.json"), (-4.5, 7.25), 1e-6)
    assert stats == asdict(res.stats)
    assert stats["exact_cells"] > 0 and stats["envelope_vertices"] > 0
    assert stats["median_steps"] == stats["l1_evaluations"] == 0


def test_defect_scans_write_their_summed_stats(workdir):
    # gordon-scan and quasiperiodic sidecars hold the counts of their
    # translation defects, summed, as the library calls give them
    from dataclasses import asdict

    from weakgordon import constructions as cons
    from weakgordon import seminorm as sn

    _atom_files(workdir)
    assert cli.run(["gordon-scan", "--measure", "atoms.json", "--periods", "1.5,2,3",
                    "--r-grid", "1,2", "--tol", "1e-6", "--out", "scan.csv"]) == 0
    rep = go.exclusion_bound(mio.load_measure(workdir / "atoms.json"), [1.5, 2.0, 3.0],
                             [1.0, 2.0], tol=1e-6)
    scan = sum((r.defect.stats for r in rep.rows), sn.SeminormStats())
    assert json.loads((workdir / "meta.json").read_text())["stats"] == asdict(scan)

    assert cli.run(["quasiperiodic", "--alpha-levels", "4", "--base1", "base1.json",
                    "--base2", "base2.json", "--m", "3", "--out", "q.csv"]) == 0
    alpha = cons.liouville_alpha(4)
    p = float(alpha.convergents[2].numerator)
    q = cons.quasiperiodic_measure(mio.load_measure(workdir / "base1.json"),
                                   mio.load_measure(workdir / "base2.json"), alpha,
                                   (-p - 1.0, 2.0 * p + 1.0))
    defect = go.translation_defect(q.measure, p, 1e-9)
    assert json.loads((workdir / "meta.json").read_text())["stats"] == asdict(defect.stats)
    assert scan.exact_cells > 0 and defect.stats.exact_cells > 0

import dataclasses
import json
import os

import pytest

from weakgordon import cli
from weakgordon import gordon as go
from weakgordon import measure as me
from weakgordon import measure_io as mio
from weakgordon.errors import RepresentationError, ValidationError

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

    def test_missing_file_exit_2(self, workdir):
        assert cli.run(["seminorm", "--measure", "nope.json", "--interval", "-1,1"]) == 2

    def test_tol_must_be_positive_exit_2(self, workdir, capsys):
        for tol in ("0", "-1e-8", "nan"):
            args = ["seminorm", "--measure", "dirac.json", "--interval", "-1,1", "--tol", tol]
            assert cli.run(args) == 2
            assert "tol must be positive" in capsys.readouterr().err


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


class TestExitCodes:
    def test_representation_error_exit_4(self, workdir, monkeypatch, capsys):
        def over_budget(*_args):
            raise RepresentationError("degree reduction needs 20000 cells, budget 16384")

        monkeypatch.setattr(me, "mollify_with_error", over_budget)
        rc = cli.run(["mollify", "--measure", "dirac.json", "--n", "4", "--out", "m.json"])
        assert rc == 4
        assert "resource budget exceeded" in capsys.readouterr().err

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

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_outputs_to_dev_null(self, workdir):
        # a character device is written but not cut
        assert cli.run(["--meta", "/dev/null", "sharpness", "--m-max", "2",
                        "--out", "/dev/null"]) == 0


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
    return "".join(
        ",".join(cli._fmt(v) if not isinstance(v, str) else v for v in row) + "\n"
        for row in zip(*columns))


def test_csv_rows_match_the_cell_formatter(tmp_path):
    # one %-format per column gives the bytes of `_fmt` per cell, and of the
    # row-wise writer: text as is, complex as "re im", NumPy scalars and
    # arrays (float, complex, int, bool and text), booleans, -0, inf and nan
    import numpy as np

    columns = [
        [1, 2.5, np.float64(-2.0) / 3.0],
        (0.1 + 0.2j, np.complex128(-1e-300 + 3j), 5j),
        np.array([-0.0, float("inf"), float("nan")]),
        ["1", "x", "y"],
        [np.float64(0.1), np.int64(7), True],
        np.array([1e300, -1e-300j, 2.0 + 0j]),
        np.array([3, -4, 0]),
        np.array([True, False, True]),
        np.array(["a", "b", "c"]),
    ]
    path, oracle = tmp_path / "t.csv", tmp_path / "o.csv"
    cli._write_csv(path, ["h"], columns, ["k,1"])
    assert path.read_text() == "h\n" + _cell_rows(columns) + "k,1\n"
    write_csv_rows(oracle, ["h"], zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                       for c in columns)), ["k,1"])
    assert path.read_bytes() == oracle.read_bytes()


def test_csv_blocks_keep_mixed_rows(tmp_path):
    # text, complex and float columns over rows that straddle the blocks
    n = 2 * cli._CSV_BLOCK + 5
    columns = [["x%d" % k for k in range(n)], [complex(k, -k / 3.0) for k in range(n)],
               (k / 7.0 for k in range(n)), range(n)]
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

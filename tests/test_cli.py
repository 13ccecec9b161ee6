import json

import pytest

from weakgordon import cli
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

    def test_missing_file_exit_2(self, workdir):
        assert cli.run(["seminorm", "--measure", "nope.json", "--interval", "-1,1"]) == 2


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
        assert meta["stats"] == {"atoms": 1, "constant": 4, "magnus": 0}
        assert tr.stats == pr.WalkStats(**meta["stats"])

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


class TestQuasiperiodicCommand:
    def test_report(self, workdir):
        rc = cli.run(
            ["quasiperiodic", "--alpha-levels", "4", "--base1", "comb.json",
             "--base2", "comb.json", "--m", "2", "--out", "q.csv"]
        )
        assert rc == 0
        text = (workdir / "q.csv").read_text()
        assert "dominates,1" in text

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
    # arrays, booleans, -0, inf and nan
    import numpy as np

    columns = [
        [1, 2.5, np.float64(-2.0) / 3.0],
        (0.1 + 0.2j, np.complex128(-1e-300 + 3j), 5j),
        np.array([-0.0, float("inf"), float("nan")]),
        ["1", "x", "y"],
        [np.float64(0.1), np.int64(7), True],
        np.array([1e300, -1e-300j, 2.0 + 0j]),
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

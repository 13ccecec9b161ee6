import json

import pytest

from weakgordon import cli
from weakgordon import measure as me
from weakgordon import measure_io as mio
from weakgordon.errors import RepresentationError, ValidationError


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


def test_csv_rows_match_the_cell_formatter(tmp_path):
    # one %-format per row gives the bytes of `_fmt` per cell: text as is,
    # complex as "re im", NumPy scalars, booleans, -0, inf and nan
    import numpy as np

    rows = [
        (1, 2.5, -0.0, float("inf"), "1", np.float64(0.1), np.int64(7), True, float("nan")),
        (0.1 + 0.2j, np.complex128(-1e-300 + 3j), "x", 1e300),
        [np.float64(-2.0) / 3.0, 5],
    ]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["h"], rows, ["k,1"])
    expected = "h\n" + "".join(
        ",".join(cli._fmt(v) if not isinstance(v, str) else v for v in row) + "\n" for row in rows
    ) + "k,1\n"
    assert path.read_text() == expected


def test_csv_blocks_keep_mixed_rows(tmp_path):
    # rows of three kinds, in runs that straddle the block boundaries
    kinds = [lambda k: (k, k / 7.0), lambda k: ("x", complex(k, -k / 3.0)), lambda k: (float(k),)]
    n = 2 * cli._CSV_BLOCK + 5
    rows = [kinds[(k // 3) % 3](k) for k in range(n)]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["h"], iter(rows), ["k,1"])
    expected = "h\n" + "".join(
        ",".join(cli._fmt(v) if not isinstance(v, str) else v for v in row) + "\n" for row in rows
    ) + "k,1\n"
    assert path.read_text() == expected

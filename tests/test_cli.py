import csv
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import sparseqi
from sparseqi import analysis
from sparseqi.cli import _parse_number, _read_points, _write_number_csv, main
from sparseqi.laurent import LaurentPoly
from sparseqi.quasi_interp import HierCoeffs
from sparseqi.smolyak import enumerate_grid


def run(*argv):
    return main([str(a) for a in argv])


class TestDeriveScheme:
    def test_order2(self, tmp_path, capsys):
        assert run("derive-scheme", "--builtin", "faber", "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert "P_even_star   -1/2" in out
        blob = json.loads((tmp_path / "scheme.json").read_text())
        assert LaurentPoly.from_json(blob["p_even_star"]) == LaurentPoly(0, ["-1/2"])
        assert blob["norm_odd_star"] == "0"

    def test_order4_norms(self, tmp_path):
        assert run("derive-scheme", "--builtin", "cubic", "--out", tmp_path) == 0
        blob = json.loads((tmp_path / "scheme.json").read_text())
        assert blob["norm_even_star"] == "3/8"
        assert blob["norm_odd_star"] == "1/2"

    def test_custom_mask_file(self, tmp_path):
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"ell": 4, "mask": ["-1/6", "4/3", "-1/6"]}))
        assert run("derive-scheme", "--mask", mask, "--out", tmp_path) == 0

    def test_invalid_mask_exits_2_without_output(self, tmp_path):
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"ell": 4, "mask": ["1"]}))
        out = tmp_path / "result"
        assert run("derive-scheme", "--mask", mask, "--out", out) == 2
        assert not (out / "scheme.json").exists()

    def test_malformed_mask_file(self, tmp_path):
        mask = tmp_path / "mask.json"
        mask.write_text("{not json")
        assert run("derive-scheme", "--mask", mask, "--out", tmp_path) == 2


class TestUsage:
    def test_unknown_flag_exits_1(self):
        assert run("grid", "--bogus") == 1

    def test_missing_required_exits_1(self):
        assert run("grid") == 1

    @pytest.mark.parametrize("argv", [
        ("benchmark", "--d", 2, "--m-range", "5..3"),
        ("benchmark", "--d", 2, "--m-range", "x..3"),
        ("grid", "--d", 0, "--m", 2),
        ("grid", "--d", 2, "--m", -1),
        ("benchmark", "--d", 1, "--m-range", "2..5", "--K", -1),
        ("witness", "--kind", "g1", "--d", 1, "--m-range", "0..3", "--r", 0.75),
        ("recover", "--function", "sine", "--d", 1, "--m", 2, "--eval-grid", 0),
        ("witness", "--kind", "g1", "--d", 2, "--m-range", "1..4", "--r", 0.75, "--level-offset", -1),
        ("witness", "--kind", "g1", "--d", 1, "--m-range", "1..4", "--r", 0.75, "--level-offset", -3),
        ("witness", "--kind", "g2", "--d", 2, "--m-range", "1..4", "--r", 0.75, "--level-offset", -2),
        ("witness", "--kind", "g2", "--d", 1, "--m-range", "1..2", "--r", 1.25, "--p", 1),
        ("witness", "--kind", "g2", "--d", 1, "--m-range", "1..2", "--r", 1.25, "--p", "inf"),
        ("witness", "--kind", "g1", "--d", 1, "--m-range", "1..2", "--r", 0.75, "--q", 0.5),
        ("benchmark", "--d", 1, "--m-range", "2..5", "--r", 0),
        ("benchmark", "--d", 1, "--m-range", "2..5", "--r", -1),
        ("benchmark", "--d", 1, "--m-range", "2..5", "--seed", -1),
    ])
    def test_bad_dimension_or_level_exits_1(self, argv, tmp_path, capsys):
        assert run(*argv, "--out", tmp_path) == 1
        assert "usage error" in capsys.readouterr().err

    def test_oversized_quadrature_lattice_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 1000)
        assert run("witness", "--kind", "g1", "--builtin", "faber", "--d", 2, "--m-range", "1..2",
                   "--r", 0.75, "--resolution", 32, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "32**2 = 1024 points" in err
        assert not (tmp_path / "witness.csv").exists()

    def test_oversized_evaluation_grid_exits_1(self, tmp_path, capsys, monkeypatch, caches):
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 1000)
        argv = ("recover", "--function", "sine", "--d", 1, "--m", 2, "--out", tmp_path)
        assert run(*argv, "--eval-grid", 1001) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "1001**1 = 1001 points" in err
        assert list(tmp_path.iterdir()) == [] and caches == []
        assert run(*argv, "--eval-grid", 1000) == 0

    def test_oversized_fixture_box_exits_1(self, tmp_path, capsys, monkeypatch, caches):
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 1000)
        assert run("benchmark", "--d", 3, "--m-range", "1..4", "--K", 5, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "(2*5 + 1)**3 = 1331 coefficients" in err
        assert list(tmp_path.iterdir()) == [] and caches == []
        # the default K = ell * 2**max(m) is checked too
        assert run("benchmark", "--d", 1, "--m-range", "6..9", "--out", tmp_path) == 1
        assert "(2*2048 + 1)**1 = 4097 coefficients" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_lattice_refused_at_a_later_level_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # m = 1 and 2 fit under the cap, m = 3 does not
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 2**13)
        assert run("witness", "--kind", "g1", "--builtin", "faber", "--d", 2, "--m-range", "1..3",
                   "--r", 0.75, "--export-coeffs", "--out", tmp_path) == 1
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    src = str(Path(sparseqi.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + code],
                          capture_output=True, text=True, timeout=120)


def test_cli_and_high_dimensional_norm_need_no_scipy():
    blocked = _fresh_interpreter(
        'sys.modules["scipy"] = None  # any scipy import now fails\n'
        "import numpy as np, sparseqi.cli\n"
        "from sparseqi.analysis import lq_norm\n"
        "print(lq_norm(lambda P: np.prod(np.cos(2 * np.pi * P), axis=1), 2.0, 4, 1 << 12))\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    assert float(blocked.stdout) == pytest.approx(0.25, rel=1e-12)
    plain = _fresh_interpreter('import sparseqi.cli\nprint("scipy" in sys.modules)\n')
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout.strip() == "False"


class TestGrid:
    def test_csv_round_trip_exact(self, tmp_path, faber):
        assert run("grid", "--builtin", "faber", "--d", 2, "--m", 3, "--out", tmp_path) == 0
        grid = enumerate_grid(2, 3, faber)
        with open(tmp_path / "grid.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == grid.n
        parsed = {(F(row["x_1"]), F(row["x_2"])) for row in rows}
        assert parsed == set(grid.points)

    @pytest.mark.parametrize("d, m", [(1, 4), (3, 2)])
    def test_csv_matches_csv_writer(self, tmp_path, cubic, d, m):
        assert run("grid", "--builtin", "cubic", "--d", d, "--m", m, "--out", tmp_path) == 0
        grid = enumerate_grid(d, m, cubic)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{j + 1}" for j in range(d)] + [f"k_{j + 1}" for j in range(d)])
            writer.writerows(
                [repr(c) for c in pt] + prov
                for pt, prov in zip(grid.as_array().tolist(), grid.provenance.tolist())
            )
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_json_format(self, tmp_path):
        assert run("grid", "--builtin", "cubic", "--d", 1, "--m", 2,
                   "--format", "json", "--out", tmp_path) == 0
        blob = json.loads((tmp_path / "grid.json").read_text())
        assert blob["n"] == 16 and len(blob["points"]) == 16


class TestRecover:
    def test_builtin_function_residual_decreases(self, tmp_path):
        res = {}
        for m in (4, 5):
            out = tmp_path / f"m{m}"
            assert run("recover", "--builtin", "faber", "--d", 1, "--m", m,
                       "--function", "sine", "--eval-grid", 16, "--out", out) == 0
            res[m] = json.loads((out / "recover_report.json").read_text())["l2_residual"]
        assert res[5] < res[4]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_eval_grid_matches_scattered_evaluation(self, tmp_path, d):
        # the lattice is evaluated on the grid path, in 'ij' row order
        assert run("recover", "--builtin", "cubic", "--d", d, "--m", 3, "--function", "sine",
                   "--eval-grid", 9, "--out", tmp_path) == 0
        hc = HierCoeffs.from_json(json.loads((tmp_path / "coeffs.json").read_text()))
        table = np.loadtxt(tmp_path / "recovered.csv", delimiter=",", skiprows=1, ndmin=2)
        axes = [np.arange(9) / 9] * d
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        assert np.array_equal(table[:, :d], pts)
        tol = 1e-13 * sum(np.abs(C).sum() for _, C in hc.block_items())
        assert np.max(np.abs(table[:, d] - hc.eval_points(pts))) <= tol

    def test_round_trip_from_exported_samples(self, tmp_path, faber):
        # recover a spline combination from its own grid samples: the
        # recovered coefficients reproduce the source (interpolatory order)
        from sparseqi.quasi_interp import HierCoeffs, decompose
        from sparseqi.testfuncs import builtin_function

        f = builtin_function("sine", 2)
        hc = decompose(faber, f, 3, 2)
        grid = enumerate_grid(2, 3, faber)
        samples = tmp_path / "samples.csv"
        with open(samples, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_1", "x_2", "value"])
            for pt in grid.points:
                x = np.array([[float(c) for c in pt]])
                writer.writerow([str(pt[0]), str(pt[1]), repr(float(hc.eval_points(x)[0]))])
        out = tmp_path / "rec"
        assert run("recover", "--builtin", "faber", "--d", 2, "--m", 3,
                   "--samples", samples, "--out", out) == 0
        back = HierCoeffs.from_json(json.loads((out / "coeffs.json").read_text()))
        for k, C in hc.block_items():
            other = back.block(k)
            if other is None:
                assert np.max(np.abs(C)) < 1e-11
            else:
                assert np.max(np.abs(C - other)) < 1e-11

    def test_missing_samples_exit_3(self, tmp_path, faber):
        grid = enumerate_grid(1, 2, faber)
        samples = tmp_path / "samples.csv"
        with open(samples, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_1", "value"])
            for pt in grid.points[:-1]:  # drop one point
                writer.writerow([str(pt[0]), "1.0"])
        assert run("recover", "--builtin", "faber", "--d", 1, "--m", 2,
                   "--samples", samples, "--out", tmp_path) == 3

    def test_zero_samples_zero_output(self, tmp_path, faber):
        grid = enumerate_grid(1, 2, faber)
        samples = tmp_path / "samples.csv"
        with open(samples, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_1", "value"])
            for pt in grid.points:
                writer.writerow([str(pt[0]), "0.0"])
        out = tmp_path / "zero"
        assert run("recover", "--builtin", "faber", "--d", 1, "--m", 2,
                   "--samples", samples, "--out", out) == 0
        blob = json.loads((out / "coeffs.json").read_text())
        assert blob["entries"] == []
        with open(out / "recovered.csv", newline="") as fh:
            assert all(float(row["value"]) == 0.0 for row in csv.DictReader(fh))


class TestZeroDenominator:
    """A ``p/0`` cell is an input error (exit 2), in either CSV."""

    @staticmethod
    def write(path, rows):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    def test_in_samples(self, tmp_path, capsys):
        samples = self.write(tmp_path / "samples.csv", [["x_1", "x_2", "value"], ["1/0", "0", "1.0"]])
        assert run("recover", "--builtin", "faber", "--d", 2, "--m", 1,
                   "--samples", samples, "--out", tmp_path / "out") == 2
        assert "input error" in capsys.readouterr().err

    def test_in_eval_points(self, tmp_path, capsys):
        points = self.write(tmp_path / "eval.csv", [["x_1", "x_2"], ["0.5", "3/0"]])
        assert run("recover", "--builtin", "faber", "--d", 2, "--m", 1, "--function", "sine",
                   "--eval", points, "--out", tmp_path / "out") == 2
        assert "input error" in capsys.readouterr().err


class TestShortRow:
    """A row with fewer cells than the header is an input error (exit 2), in
    either CSV, and no coefficient file is written."""

    def test_in_samples(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("x_1,x_2,value\n0.5,0.25,1.0\n0.5,0.25\n")
        out = tmp_path / "out"
        assert run("recover", "--builtin", "faber", "--d", 2, "--m", 1,
                   "--samples", samples, "--out", out) == 2
        assert "input error" in capsys.readouterr().err
        assert not (out / "coeffs.json").exists()

    def test_in_eval_points(self, tmp_path, capsys):
        points = tmp_path / "eval.csv"
        points.write_text("x_1,x_2\n0.5,0.25\n0.5\n")
        out = tmp_path / "out"
        assert run("recover", "--builtin", "faber", "--d", 2, "--m", 1, "--function", "sine",
                   "--eval", points, "--out", out) == 2
        assert "input error" in capsys.readouterr().err
        assert not (out / "coeffs.json").exists()


def _read_points_per_cell(path, d, *extra):
    """The per-cell reader that ``cli._read_points`` replaced: ``csv.DictReader``
    and ``_parse_number`` on every cell."""
    cols = [f"x_{j + 1}" for j in range(d)] + list(extra)
    with open(path, newline="") as fh:
        rows = [[_parse_number(row[c]) for c in cols] for row in csv.DictReader(fh)]
    return np.array(rows, dtype=np.float64).reshape(-1, len(cols))


def _random_float_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    return "".join(",".join(map(repr, row)) + "\r\n" for row in values.tolist())


class TestReadPoints:
    """``_read_points`` parses as the per-cell reader it replaced did."""

    @pytest.mark.parametrize("text", [
        "value,id,x_2,x_1,extra\n1.5,a,0.25,0.5,\n-2,b,0.75,0.125,z\n",  # reordered, extra columns
        'x_1,x_2,value\n"0.5","0.25",1\n0.125,"-3e-5","7"\n',  # quoted cells
        '"x_1","x_2","value"\r\n0.5,0.25,1\r\n',  # quoted header, CRLF
        "x_1,x_2,value\n\n0.5,0.25,1\n\n\n0.125,0.5,2\n\n",  # blank lines
        "x_1,x_2,value\n",  # header only
        "x_1,x_2,value\r\n\r\n",
        'x_1,x_2,value\n1/3,2/3,1\n"1/8",0.5,-7/3\n 5/4 ,nan,0\n',  # fractions
        "x_1,x_2,value\nnan,inf,-0.0\n1e-320,-inf,NaN\n+.5,5.,Infinity\n",  # special values
        "x_1,x_2,value\r\n" + _random_float_rows(1000),
    ])
    def test_matches_per_cell_reader(self, tmp_path, text):
        path = tmp_path / "points.csv"
        path.write_bytes(text.encode())
        new = _read_points(str(path), 2, "value")
        old = _read_points_per_cell(str(path), 2, "value")
        assert new.shape == old.shape and new.dtype == np.float64
        assert np.array_equal(new, old, equal_nan=True)
        assert np.array_equal(np.signbit(new), np.signbit(old))

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x_1,x_2,x_3\n")
        assert _read_points(str(path), 3).shape == (0, 3)

    def test_missing_column_is_a_key_error(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x_1,value\n0.5,1\n")
        with pytest.raises(KeyError, match="x_2"):
            _read_points(str(path), 2, "value")


def test_float_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    table = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-300, 300, size=(200, 4))
    table[0] = [np.nan, np.inf, -np.inf, -0.0]
    table[1, 0] = 5e-324
    header = ["x_1", "x_2", "x_3", "value"]
    _write_number_csv(tmp_path / "fast.csv", header, table.tolist())
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(c)) for c in row] for row in table)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("cells", [None, ["abc"], ["1_000"]])
def test_bad_eval_file_writes_no_coeffs(tmp_path, capsys, cells):
    # a missing file, a cell that is not a number, and digits grouped by "_",
    # which float() would take but the array reader does not
    points = tmp_path / "eval.csv"
    if cells is not None:
        points.write_text("x_1\n" + "\n".join(cells) + "\n")
    out = tmp_path / "out"
    assert run("recover", "--builtin", "faber", "--d", 1, "--m", 2, "--function", "sine",
               "--eval", points, "--out", out) == 2
    assert "input error" in capsys.readouterr().err
    assert not (out / "coeffs.json").exists()


class TestOrder6RoundTrip:
    """`grid` then `recover --samples` on its own file, at order 6: the grid's
    coordinates are thirds of dyadic fractions, so the decimals `grid` writes
    do not terminate and are matched to lattice points within a tolerance."""

    MASK = ["13/240", "-7/15", "73/40", "-7/15", "13/240"]

    @staticmethod
    def f(P):
        return np.sin(2 * np.pi * P[:, 0]) * np.cos(2 * np.pi * P[:, 1]) + P[:, 0] * P[:, 1]

    @pytest.fixture
    def setup(self, tmp_path):
        from sparseqi.quasi_interp import build_scheme
        from sparseqi.smolyak import recover

        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"ell": 6, "mask": self.MASK}))
        assert run("grid", "--mask", mask, "--d", 2, "--m", 2, "--format", "csv",
                   "--out", tmp_path) == 0
        with open(tmp_path / "grid.csv", newline="") as fh:
            coords = [(row["x_1"], row["x_2"]) for row in csv.DictReader(fh)]
        expect = recover(build_scheme(6, self.MASK), 2, 2, f=self.f)
        return mask, coords, expect

    def recover(self, tmp_path, mask, rows):
        samples = tmp_path / "samples.csv"
        with open(samples, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_1", "x_2", "value"])
            writer.writerows(rows)
        out = tmp_path / "rec"
        code = run("recover", "--mask", mask, "--d", 2, "--m", 2, "--samples", samples,
                   "--out", out)
        return code, out

    def sampled(self, coords, offset=0.0):
        pts = np.array(coords, dtype=np.float64)
        vals = self.f(pts).tolist()
        return [
            [repr(x + offset), repr(y + offset), repr(v)]
            for (x, y), v in zip(pts.tolist(), vals)
        ]

    def assert_coeffs(self, out, expect):
        back = HierCoeffs.from_json(json.loads((out / "coeffs.json").read_text()))
        assert list(back.items()) == list(expect.items())

    def test_round_trip(self, tmp_path, setup):
        mask, coords, expect = setup
        assert any((F(x) * 24).denominator != 1 for x, _ in coords)  # inexact decimals
        code, out = self.recover(tmp_path, mask, self.sampled(coords))
        assert code == 0
        self.assert_coeffs(out, expect)

    def test_coordinates_off_by_rounding_match(self, tmp_path, setup):
        mask, coords, expect = setup
        code, out = self.recover(tmp_path, mask, self.sampled(coords, offset=1e-13))
        assert code == 0
        self.assert_coeffs(out, expect)

    def test_coordinate_off_the_lattice_is_missing(self, tmp_path, setup):
        mask, coords, _ = setup
        rows = self.sampled(coords)
        rows[7][0] = repr(float(rows[7][0]) + 1e-3)
        code, _ = self.recover(tmp_path, mask, rows)
        assert code == 3

    def test_rows_on_finer_lattices_ignored(self, tmp_path, setup):
        mask, coords, expect = setup
        fine = [[repr((2 * t + 1) / 48), "0.0", "1e6"] for t in range(24)]
        code, out = self.recover(tmp_path, mask, fine + self.sampled(coords) + fine)
        assert code == 0
        self.assert_coeffs(out, expect)


@pytest.fixture
def caches(monkeypatch):
    """Every sample cache made while the test runs, until ``monkeypatch.undo()``."""
    from sparseqi.quasi_interp import SampleCache

    made = []
    init = SampleCache.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(SampleCache, "__init__", recording_init)
    return made


class TestBenchmark:
    def test_selftest_recovers_planted_exponent(self, tmp_path):
        assert run("benchmark", "--d", 1, "--m-range", "3..8", "--selftest",
                   "--out", tmp_path) == 0
        blob = json.loads((tmp_path / "benchmark_selftest.json").read_text())
        assert blob["recovered"] is True
        assert blob["fit"]["rho"] == pytest.approx(1.5, abs=1e-9)

    def test_short_range_exits_1(self, tmp_path):
        assert run("benchmark", "--d", 1, "--m-range", "3..5", "--out", tmp_path) == 1

    def test_resolution_guard_exits_1(self, tmp_path):
        assert run("benchmark", "--builtin", "faber", "--d", 1, "--m-range", "2..5",
                   "--r", "0.75", "--K", 32, "--resolution", 8, "--out", tmp_path) == 1

    def test_smoothness_outside_equivalence_range_warns(self, tmp_path, capsys):
        # r beyond ell - 1 still runs, with a warning on stderr
        assert run("benchmark", "--builtin", "faber", "--d", 1, "--m-range", "2..5",
                   "--r", "1.25", "--K", 32, "--out", tmp_path) == 0
        assert "outside the two-sided-equivalence range" in capsys.readouterr().err

    def test_small_run_report(self, tmp_path):
        assert run("benchmark", "--builtin", "faber", "--d", 1, "--m-range", "2..5",
                   "--r", "0.75", "--K", 32, "--out", tmp_path) == 0
        report = json.loads((tmp_path / "benchmark_report.json").read_text())
        assert report["theory"]["regime"] == "p>=q"
        assert report["theory"]["exponent"] == pytest.approx(0.75)
        assert len(report["rows"]) == 4
        # no log factor in one dimension: the default fit model is pure dyadic
        assert report["config"]["model"] == "pure_dyadic"
        with open(tmp_path / "benchmark_errors.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["m"]) for r in rows] == [2, 3, 4, 5]
        assert all(float(r["error"]) > 0 for r in rows)

    @pytest.mark.parametrize("q,label", [("2", "Lp,p=2"), ("4", "Lp,p=4"), ("inf", "Lp,p=inf")])
    def test_norm_kind_label(self, tmp_path, q, label):
        assert run("benchmark", "--builtin", "faber", "--d", 1, "--m-range", "2..5",
                   "--r", "0.75", "--K", 32, "--q", q, "--out", tmp_path) == 0
        with open(tmp_path / "benchmark_errors.csv", newline="") as fh:
            assert [r["norm_kind"] for r in csv.DictReader(fh)] == [label] * 4

    # At --resolution 96 the level-4 sample blocks, (2i+1)/64 on one axis,
    # are not on the lattice i/96: the blocks (4, 0) and (0, 4) are evaluated
    # by the fixture itself, beside its one evaluation on the lattice.
    @pytest.mark.parametrize("extra,fixture_calls", [((), 1), (("--resolution", 96), 3)],
                             ids=["default", "resolution96"])
    def test_one_decomposition_leaves_the_sweep_unchanged(self, tmp_path, cubic, monkeypatch,
                                                          caches, extra, fixture_calls):
        from sparseqi import smolyak, testfuncs
        from sparseqi.quasi_interp import SampleCache, decompose

        calls = []
        on_axes = testfuncs.TrigFunction.eval_on_axes

        def counting_on_axes(self, axes):
            calls.append(axes[0].n)
            return on_axes(self, axes)

        monkeypatch.setattr(testfuncs.TrigFunction, "eval_on_axes", counting_on_axes)
        assert run("benchmark", "--d", 2, "--m-range", "1..4", "--K", 8, *extra,
                   "--out", tmp_path) == 0
        monkeypatch.undo()
        assert [c.evaluations for c in caches] == [smolyak.count_points(2, 4, cubic)]
        assert len(calls) == fixture_calls
        # against one decomposition per level over a shared cache, each read
        # from f itself: the sweep reads f from the top quadrature lattice,
        # whose transforms round differently (measured within 1e-14)
        report = json.loads((tmp_path / "benchmark_report.json").read_text())
        cfg = report["config"]
        f = testfuncs.random_mixed_smooth(cfg["r_eff"], cfg["K"], 2, cfg["seed"])
        cache = SampleCache(f, cubic.ell, 2)
        for row in report["rows"]:
            hc = decompose(cubic, f, row["m"], 2, cache=cache)
            expect = analysis.recovery_error(f, hc, 2.0, cfg["resolution"])
            assert row["error"] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("d,m_range,K,extra,lattice", [
        (1, "2..5", 16, (), 256),
        (2, "1..4", 8, (), 128),
        (3, "1..4", 4, (), 64),
        (4, "1..4", 2, ("--resolution", 500), None),
    ])
    def test_sampling_report(self, tmp_path, cubic, caches, d, m_range, K, extra, lattice):
        from sparseqi import smolyak

        assert run("benchmark", "--d", d, "--m-range", m_range, "--K", K, *extra,
                   "--out", tmp_path) == 0
        sampling = json.loads((tmp_path / "benchmark_report.json").read_text())["sampling"]
        m_hi = int(m_range.partition("..")[2])
        assert sampling == {"evaluated": smolyak.count_points(d, m_hi, cubic),
                            "grid_points": smolyak.count_points(d, m_hi, cubic),
                            "fixture_lattice": lattice}
        assert [c.evaluations for c in caches] == [sampling["evaluated"]]

    def test_oversized_lattice_refused_before_sampling(self, tmp_path, capsys, caches):
        assert run("benchmark", "--d", 3, "--m-range", "2..5", "--K", 16,
                   "--resolution", 1024, "--out", tmp_path) == 1
        assert "1024**3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert sum(c.evaluations for c in caches) == 0

    def test_peak_probe_rows(self, tmp_path, faber):
        # --q 4 > --p 2: the default probe is "both", so every row carries the
        # recovery error of the peaked witness
        from sparseqi.analysis import recovery_error
        from sparseqi.quasi_interp import decompose
        from sparseqi.testfuncs import witness_g2

        assert run("benchmark", "--builtin", "faber", "--d", 1, "--m-range", "2..5",
                   "--r", "0.75", "--q", 4, "--K", 32, "--out", tmp_path) == 0
        report = json.loads((tmp_path / "benchmark_report.json").read_text())
        assert report["config"]["probe"] == "both"
        for row in report["rows"]:
            bump = witness_g2(faber, 1, row["m"], 0.75, 2.0)
            expect = recovery_error(bump, decompose(faber, bump, row["m"], 1), 4.0)
            assert row["error_peak"] == expect

    def test_peak_probe_at_d3(self, tmp_path):
        # the bump sits at level m + 2: measured on the level-m lattice it
        # read -0.0 at every level and the class-sup scaling divided by it
        assert run("benchmark", "--d", 3, "--m-range", "1..4", "--K", 8, "--q", "inf",
                   "--out", tmp_path) == 0
        rows = json.loads((tmp_path / "benchmark_report.json").read_text())["rows"]
        assert len(rows) == 4 and all(row["error_peak"] > 0 for row in rows)

    def test_peak_lattice_refused_before_sampling(self, tmp_path, capsys, caches):
        # 64 points per axis pass the fixture's level-4 guard, not the bump's level 6
        assert run("benchmark", "--d", 3, "--m-range", "1..4", "--K", 8, "--q", "inf",
                   "--resolution", 64, "--out", tmp_path) == 1
        assert "level-6 residuals" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert caches == []


class TestWitness:
    def test_g2_sweep(self, tmp_path):
        assert run("witness", "--kind", "g2", "--builtin", "faber", "--d", 1,
                   "--m-range", "2..5", "--r", "0.75", "--p", 2, "--q", 4,
                   "--out", tmp_path) == 0
        report = json.loads((tmp_path / "witness_report.json").read_text())
        assert all(row["grid_max"] == 0.0 for row in report["rows"])
        target = report["expected_ratio"]
        for row in report["rows"][1:]:
            assert row["ratio"] == pytest.approx(target, rel=0.1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("builtin", ["faber", "cubic"])
    @pytest.mark.parametrize("kind", ["g1", "g2"])
    def test_grid_max_is_exactly_zero(self, tmp_path, kind, builtin, d):
        # refinement keeps each spline's support, so the witnesses vanish
        # exactly on the sample grids; the cubic g1 norm at d = 3 needs
        # 256**3 points from m = 2 on, so it stops at m = 1
        hi = 1 if (kind, builtin, d) == ("g1", "cubic", 3) else 4
        assert run("witness", "--kind", kind, "--builtin", builtin, "--d", d,
                   "--m-range", f"1..{hi}", "--r", "1.25", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "witness_report.json").read_text())
        assert [row["grid_max"] for row in report["rows"]] == [0.0] * hi

    def test_export_coeffs_round_trip(self, tmp_path, cubic):
        # every exported file reads back bitwise, and is the indented dump
        from sparseqi.testfuncs import witness_g2

        assert run("witness", "--kind", "g2", "--builtin", "cubic", "--d", 2,
                   "--m-range", "2..3", "--r", "1.25", "--export-coeffs",
                   "--out", tmp_path) == 0
        for m in (2, 3):
            text = (tmp_path / f"witness_g2_m{m}.json").read_text()
            back = HierCoeffs.from_json(json.loads(text))
            direct = witness_g2(cubic, 2, m, 1.25, 2.0)
            assert text == json.dumps(direct.to_json(), indent=2) + "\n"
            assert [k for k, _ in back.block_items()] == [k for k, _ in direct.block_items()]
            for k, C in direct.block_items():
                assert np.array_equal(back.block(k).view(np.int64), C.view(np.int64))

    def test_g1_d1_beta_degenerates(self, tmp_path):
        # no log factor in one dimension: free-beta fit stays near zero
        assert run("witness", "--kind", "g1", "--builtin", "faber", "--d", 1,
                   "--m-range", "2..6", "--r", "0.75", "--q", 2, "--out", tmp_path) == 0
        report = json.loads((tmp_path / "witness_report.json").read_text())
        assert abs(report["fit"]["beta"]) < 0.2
        assert report["fit"]["rho"] == pytest.approx(0.75, abs=0.1)

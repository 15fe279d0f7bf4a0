import csv
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import sparseqi
from sparseqi.cli import main
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
    ])
    def test_bad_dimension_or_level_exits_1(self, argv, tmp_path, capsys):
        assert run(*argv, "--out", tmp_path) == 1
        assert "usage error" in capsys.readouterr().err


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


class TestWitness:
    def test_g2_sweep(self, tmp_path):
        assert run("witness", "--kind", "g2", "--builtin", "faber", "--d", 1,
                   "--m-range", "2..5", "--r", "0.75", "--p", 2, "--q", 4,
                   "--out", tmp_path) == 0
        report = json.loads((tmp_path / "witness_report.json").read_text())
        assert all(row["grid_max"] < 1e-12 for row in report["rows"])
        target = report["expected_ratio"]
        for row in report["rows"][1:]:
            assert row["ratio"] == pytest.approx(target, rel=0.1)

    def test_export_coeffs_round_trip(self, tmp_path):
        from sparseqi.quasi_interp import HierCoeffs
        from sparseqi.testfuncs import witness_g2

        assert run("witness", "--kind", "g2", "--builtin", "cubic", "--d", 2,
                   "--m-range", "2..3", "--r", "1.25", "--export-coeffs",
                   "--out", tmp_path) == 0
        blob = json.loads((tmp_path / "witness_g2_m2.json").read_text())
        back = HierCoeffs.from_json(blob)
        from sparseqi.quasi_interp import builtin_scheme

        direct = witness_g2(builtin_scheme("cubic"), 2, 2, 1.25, 2.0)
        assert list(back.items()) == list(direct.items())

    def test_g1_d1_beta_degenerates(self, tmp_path):
        # no log factor in one dimension: free-beta fit stays near zero
        assert run("witness", "--kind", "g1", "--builtin", "faber", "--d", 1,
                   "--m-range", "2..6", "--r", "0.75", "--q", 2, "--out", tmp_path) == 0
        report = json.loads((tmp_path / "witness_report.json").read_text())
        assert abs(report["fit"]["beta"]) < 0.2
        assert report["fit"]["rho"] == pytest.approx(0.75, abs=0.1)

import csv
import json
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import sparseqi
from sparseqi import analysis, kernels, testfuncs
from sparseqi.cli import _parse_number, _read_points, _write_number_csv, main
from sparseqi.laurent import LaurentPoly
from sparseqi.quasi_interp import HierCoeffs, builtin_scheme
from sparseqi.smolyak import enumerate_grid
from .conftest import run_cli_in_child, traced_peak
from .test_quasi_interp import ORDER6_MASK


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

    def test_ell_disagreeing_with_builtin_exits_1(self, tmp_path, capsys):
        assert run("derive-scheme", "--ell", 2, "--builtin", "cubic", "--out", tmp_path) == 1
        assert "disagrees" in capsys.readouterr().err
        assert not (tmp_path / "scheme.json").exists()

    def test_mask_file_without_ell_takes_the_flag(self, tmp_path, capsys):
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"mask": ["-1/6", "4/3", "-1/6"]}))
        assert run("derive-scheme", "--mask", mask, "--out", tmp_path / "a") == 2
        assert run("derive-scheme", "--mask", mask, "--ell", 4, "--out", tmp_path / "b") == 0
        assert "scheme        ell4[-1/6,4/3,-1/6]" in capsys.readouterr().out
        assert json.loads((tmp_path / "b" / "scheme.json").read_text())["scheme_id"] == "ell4[-1/6,4/3,-1/6]"


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
        ("benchmark", "--d", 1, "--m-range", "2..5", "--K", 8, "--r", "inf"),
        ("witness", "--kind", "g2", "--d", 1, "--m-range", "1..4", "--r", "nan"),
        ("witness", "--kind", "g2", "--d", 1, "--m-range", "1..4", "--r", "inf"),
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
        argv = ("recover", "--function", "sine", "--d", 2, "--m", 1, "--out", tmp_path)
        assert run(*argv, "--eval-grid", 32) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "32**2 = 1024 points" in err
        assert list(tmp_path.iterdir()) == [] and caches == []
        assert run(*argv, "--eval-grid", 31) == 0

    def test_oversized_basis_matrix_exits_1(self, tmp_path, capsys, monkeypatch, caches):
        # at d = 1 the grid kernel's basis matrix, n points by ell * 2**m shifts,
        # is larger than the evaluation grid
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 1000)
        argv = ("recover", "--function", "sine", "--d", 1, "--m", 2, "--out", tmp_path)
        assert run(*argv, "--eval-grid", 63) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "63*16 = 1008 entries" in err
        assert list(tmp_path.iterdir()) == [] and caches == []
        assert run(*argv, "--eval-grid", 62) == 0

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

    @pytest.mark.parametrize("argv, count", [
        (("grid", "--d", 2, "--m", 3), 320),
        (("recover", "--function", "sine", "--d", 2, "--m", 3, "--eval-grid", 4), 320),
        (("recover", "--samples", "SAMPLES", "--d", 2, "--m", 3, "--eval-grid", 4), 320),
        (("benchmark", "--builtin", "faber", "--d", 4, "--m-range", "1..4", "--K", 1,
          "--resolution", 64), 3072),
        (("witness", "--kind", "g2", "--d", 1, "--m-range", "1..3", "--r", 1.25), 32),
    ])
    def test_oversized_sample_grid_exits_1(self, argv, count, tmp_path, capsys, monkeypatch, caches):
        samples = tmp_path / "samples.csv"
        samples.write_text("x_1,x_2,value\n0.0,0.0,1.0\n")
        out = tmp_path / "out"
        argv = [samples if a == "SAMPLES" else a for a in argv]
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", count - 1)
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"a sparse grid of {count} points" in err
        assert not out.exists() and caches == []
        if argv[0] == "grid":  # a grid of exactly the limit is written
            monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", count)
            assert run(*argv, "--out", out) == 0
            assert (out / "grid.csv").exists()

    def test_refused_residual_lattice_writes_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 16)
        assert run("recover", "--function", "sine", "--d", 1, "--m", 2, "--eval-grid", 8,
                   "--out", tmp_path) == 1
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, entries", [("g1", 7 * 4**2 * 2**6), ("g2", 4**2 * 2**5)])
    def test_oversized_witness_refused_before_it_is_built(self, kind, entries, tmp_path, capsys, monkeypatch):
        # cubic at d = 2 and m <= 3: the top blocks sit at level M = 6 for g1,
        # seven blocks of 16 * 2**6 entries, and at M = 5 for g2, one block;
        # the level-3 sample grid of 320 points fits under either cap
        built = []
        for name in ("witness_g1", "witness_g2"):
            monkeypatch.setattr(testfuncs, name, lambda *args, **kw: built.append(args))
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", entries - 1)
        out = tmp_path / "out"
        assert run("witness", "--kind", kind, "--d", 2, "--m-range", "1..3", "--r", 1.25,
                   "--export-coeffs", "--out", out) == 1
        assert f"usage error: a witness of {entries} coefficients" in capsys.readouterr().err
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("extra, cap, message", [
        ((), 7168, "512**2 = 262144 points"),
        (("--resolution", 128), None, "below 2**(m+2) = 256"),
    ])
    def test_witness_lattice_refused_before_it_is_built(self, extra, cap, message, tmp_path, capsys,
                                                        monkeypatch):
        # g1's top blocks (cubic, d = 2, M = 6) fit; its level-6 lattice does not
        built = []
        monkeypatch.setattr(testfuncs, "witness_g1", lambda *args, **kw: built.append(args))
        if cap is not None:
            monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", cap)
        out = tmp_path / "out"
        assert run("witness", "--kind", "g1", "--d", 2, "--m-range", "1..3", "--r", 1.25, *extra,
                   "--out", out) == 1
        assert message in capsys.readouterr().err
        assert built == [] and not out.exists()

    def test_lattice_refused_at_a_later_level_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # m = 1 and 2 fit under the cap, m = 3 does not
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 2**13)
        assert run("witness", "--kind", "g1", "--builtin", "faber", "--d", 2, "--m-range", "1..3",
                   "--r", 0.75, "--export-coeffs", "--out", tmp_path) == 1
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _readme_commands() -> list[list[str]]:
    """The argv of each ``sparseqi ...`` line of the README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("sparseqi ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    # the two input files the commands read: a mask, and samples on the grid
    # of the recover command that reads them
    Path("mask.json").write_text(json.dumps({"ell": 4, "mask": ["-1/6", "4/3", "-1/6"]}))
    (reader,) = [argv for argv in commands if "--samples" in argv]
    level = [arg for flag in ("--builtin", "--d", "--m") for arg in (flag, reader[reader.index(flag) + 1])]
    assert run("grid", *level, "--out", "grid") == 0
    d = int(level[3])
    pts = _read_points("grid/grid.csv", d)
    values = np.prod(np.sin(2 * np.pi * pts), axis=1)
    header = [f"x_{j + 1}" for j in range(d)] + ["value"]
    _write_number_csv(Path("samples.csv"), header, [*pts.T, values])
    for argv in commands:
        assert main(argv) == 0, " ".join(argv)


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    src = str(Path(sparseqi.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + code],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("kind", ["g1", "g2"])
def test_witness_refused_before_allocation_under_a_memory_limit(kind, tmp_path):
    # with the real cap: the level-25 sample grid is exactly 2**27 points and
    # passes, but the top blocks at level M = 27 hold 4 * 2**27 entries, 4 GiB
    child = run_cli_in_child(["witness", "--kind", kind, "--d", 1, "--m-range", "22..25",
                              "--r", 1.25, "--export-coeffs", "--out", "out"], tmp_path)
    assert child.returncode == 1
    assert child.stderr.startswith("usage error: a witness of 536870912 coefficients"), child.stderr
    assert list(tmp_path.iterdir()) == []


def test_rank1_lattice_refused_before_allocation_under_a_memory_limit(tmp_path):
    # 60000000 points of 8 generator entries each exceed the real cap; unchecked,
    # the lattice's generator search ends in a MemoryError under the limit
    child = run_cli_in_child(["benchmark", "--builtin", "faber", "--d", 4, "--m-range", "1..4",
                              "--K", 1, "--resolution", 60_000_000, "--out", "out"], tmp_path)
    assert child.returncode == 1, child.stderr
    assert "usage error: a rank-1 lattice of 60000000*8 = 480000000 entries" in child.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, what", [
    # a basis matrix of 2**15 quadrature points by 2**14 shifts, 4 GiB
    ("benchmark --d 1 --m-range 3..12 --K 64", "a spline basis matrix of 32768*16384"),
    ("recover --d 1 --m 12 --function sine", "a spline basis matrix of 32768*16384"),
    ("witness --kind g1 --d 1 --m-range 9..10 --r 1.25", "a spline basis matrix of 32768*16384"),
    # 70000 evaluation points by 2**13 shifts, refused before coeffs.json is written
    ("recover --d 1 --m 11 --function sine --eval-grid 70000", "a spline basis matrix of 70000*8192"),
    # the generator's search for 33000000 points passes a count of their coordinates
    ("benchmark --builtin faber --d 4 --m-range 1..4 --K 1 --resolution 33000000",
     "a rank-1 lattice of 33000000*8"),
], ids=["benchmark-m12", "recover-m12", "witness-g1-m10", "recover-eval-grid", "rank1-generator"])
def test_refused_before_allocation_under_a_memory_limit(argv, what, tmp_path):
    child = run_cli_in_child(argv.split() + ["--out", "out"], tmp_path)
    assert child.returncode == 1, child.stderr
    assert f"usage error: {what}" in child.stderr and "Traceback" not in child.stderr, child.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", ["benchmark --d 1 --m-range 3..11 --K 64",
                                  "recover --d 1 --m 11 --function sine"], ids=["benchmark-m11", "recover-m11"])
def test_largest_admitted_basis_matrix_runs_under_the_memory_limit(argv, tmp_path):
    # the top basis matrix, 2**14 quadrature points by 2**13 shifts, is 2**27 entries
    child = run_cli_in_child(argv.split() + ["--out", "out"], tmp_path)
    assert child.returncode == 0, child.stderr


def test_small_witness_runs_under_the_memory_limit(tmp_path):
    child = run_cli_in_child(["witness", "--kind", "g1", "--builtin", "faber", "--d", 2,
                              "--m-range", "2..5", "--r", 0.75, "--out", "out"], tmp_path)
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "out" / "witness.csv").is_file()


def test_cli_and_high_dimensional_norm_need_no_scipy():
    blocked = _fresh_interpreter(
        'sys.modules["scipy"] = None  # any scipy import now fails\n'
        "import numpy as np, sparseqi.cli\n"
        "from sparseqi.analysis import lq_norm\n"
        "print(lq_norm(lambda P: np.prod(np.cos(2 * np.pi * P), axis=1), 2.0, 4, 1 << 12))\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    assert float(blocked.stdout) == pytest.approx(0.25, rel=1e-12)
    # numpy.polynomial (the closed-form spline norms), numpy.fft and
    # numpy.random (the fixtures and the rank-1 lattices) are loaded only
    # when used, so no command's start-up pays for them
    plain = _fresh_interpreter(
        "import sparseqi.cli\n"
        'print(*(name in sys.modules for name in ("scipy", "numpy.polynomial", "numpy.fft", "numpy.random")))\n'
    )
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout.strip() == "False False False False"


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
        stored = dict(back.block_items())
        for k, C in hc.block_items():
            other = stored.get(k)
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

    def test_fraction_after_the_first_mib(self, tmp_path):
        # the body is scanned for "/" in 1 MiB chunks; a fraction in a later
        # chunk still turns the converter on
        floats = _random_float_rows(20_000)
        assert len(floats) > 1 << 20
        path = tmp_path / "points.csv"
        path.write_bytes(("x_1,x_2,value\r\n" + floats + "1/3,-2/7,5\r\n").encode())
        new = _read_points(str(path), 2, "value")
        assert np.array_equal(new, _read_points_per_cell(str(path), 2, "value"))
        assert new[-1].tolist() == [1 / 3, -2 / 7, 5.0]

    def test_blank_lines_only_is_empty(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x_1,x_2,x_3\n\n  \n\n")
        assert _read_points(str(path), 3).shape == (0, 3)

    def test_line_endings_agree(self, tmp_path):
        body = ["0.5,0.25,1", "1/3,2/3,-7/3", '"0.125",nan,-0.0']
        arrays = []
        for end in ("\n", "\r\n"):
            path = tmp_path / "points.csv"
            path.write_bytes(end.join(["x_1,x_2,value", *body, ""]).encode())
            arrays.append(_read_points(str(path), 2, "value"))
        assert arrays[0].shape == (3, 3)
        assert np.array_equal(*arrays, equal_nan=True)
        assert np.array_equal(*map(np.signbit, arrays))


def test_float_csv_matches_csv_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    table = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-300, 300, size=(200, 4))
    table[0] = [np.nan, np.inf, -np.inf, -0.0]
    table[1, 0] = 5e-324
    header = ["x_1", "x_2", "x_3", "value"]
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(c)) for c in row] for row in table)
    # one slab, slabs of 37 rows (6 slabs, the last one short), and one row per slab
    for slab, slabs in ((kernels._SLAB_ENTRIES, 1), (16 * 4 * 37, 6), (1, 200)):
        monkeypatch.setattr(kernels, "_SLAB_ENTRIES", slab)
        assert -(-len(table) // max(1, slab // (16 * 4))) == slabs
        _write_number_csv(tmp_path / "fast.csv", header, list(table.T))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _rowwise_grid_csv(grid) -> bytes:
    """``grid.csv`` as the row-wise writer that the per-axis lookup replaced wrote it."""
    header = [f"x_{j + 1}" for j in range(grid.d)] + [f"k_{j + 1}" for j in range(grid.d)]
    rows = map(list.__add__, grid.as_array().tolist(), grid.provenance.tolist())
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return ("\r\n".join(lines) + "\r\n").encode()


@pytest.mark.parametrize("name", ["cubic", "faber"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_csv_matches_rowwise_writer(tmp_path, monkeypatch, name, d):
    for m in range(5):
        expect = _rowwise_grid_csv(enumerate_grid(d, m, builtin_scheme(name)))
        for slab in (kernels._SLAB_ENTRIES, 16 * 2 * d * 5):  # one slab, and slabs of 5 rows
            monkeypatch.setattr(kernels, "_SLAB_ENTRIES", slab)
            assert run("grid", "--builtin", name, "--d", d, "--m", m, "--out", tmp_path) == 0
            assert (tmp_path / "grid.csv").read_bytes() == expect


def test_recover_memory_bound(tmp_path, monkeypatch):
    # The traced peak of `recover --samples ... --eval ...` at d = 3, m = 5
    # with 20 000 evaluation points: 27.9 MB with whole-file text, 7.5 MB
    # with the files streamed, which leaves the scattered kernel's fixed
    # buffers (about 7.7 MB at its own peak) the largest cost.  The bound
    # is under half the whole-file peak.
    monkeypatch.chdir(tmp_path)
    d, m = 3, 5
    assert run("grid", "--builtin", "cubic", "--d", d, "--m", m, "--out", "grid") == 0
    pts = _read_points("grid/grid.csv", d)
    values = np.prod(np.sin(2 * np.pi * pts), axis=1)
    _write_number_csv(Path("samples.csv"), ["x_1", "x_2", "x_3", "value"], [*pts.T, values])
    points = np.random.default_rng(0).random((20_000, d))
    _write_number_csv(Path("eval.csv"), ["x_1", "x_2", "x_3"], list(points.T))
    argv = ["recover", "--builtin", "cubic", "--d", d, "--m", m, "--samples", "samples.csv",
            "--eval", "eval.csv", "--out", "out"]
    assert traced_peak(lambda: run(*argv)) < 10_000_000
    assert Path("out/coeffs.json").stat().st_size > 5_000_000


def test_number_csv_writer_streams(tmp_path):
    # the writer's traced peak does not grow with the rows it writes
    columns = list(np.random.default_rng(1).standard_normal((2, 200_000)))
    peaks = [traced_peak(lambda: _write_number_csv(tmp_path / "t.csv", ["a", "b"],
                                                    [c[:n] for c in columns]))
             for n in (20_000, 200_000)]
    assert peaks[1] <= peaks[0] + 1_000_000


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
        # error of the peaked witness, which vanishes on the grid: its norm
        from sparseqi.analysis import default_resolution, lq_norm, spline_norm
        from sparseqi.testfuncs import witness_g2

        assert run("benchmark", "--builtin", "faber", "--d", 1, "--m-range", "2..5",
                   "--r", "0.75", "--q", 4, "--K", 32, "--out", tmp_path) == 0
        report = json.loads((tmp_path / "benchmark_report.json").read_text())
        assert report["config"]["probe"] == "both"
        for row in report["rows"]:
            bump = witness_g2(faber, 1, row["m"], 0.75, 2.0)
            assert row["error_peak"] == spline_norm(bump, 4.0)
            # the bump's lattice measured it before, on N points, 2.5% high;
            # the lattice converges to the closed form
            N = default_resolution(1, bump.max_level)
            coarse, fine = lq_norm(bump, 4.0, 1, N), lq_norm(bump, 4.0, 1, 2 * N)
            assert abs(row["error_peak"] - fine) <= abs(fine - coarse)

    def test_peak_probe_at_d3(self, tmp_path):
        # the bump sits at level m + 2: measured on the level-m lattice it
        # read -0.0 at every level and the class-sup scaling divided by it
        assert run("benchmark", "--d", 3, "--m-range", "1..4", "--K", 8, "--q", "inf",
                   "--out", tmp_path) == 0
        rows = json.loads((tmp_path / "benchmark_report.json").read_text())["rows"]
        assert len(rows) == 4 and all(row["error_peak"] > 0 for row in rows)

    def test_peak_probe_needs_no_bump_lattice(self, tmp_path):
        # the level-8 bump's lattice of 1024**3 points refused this sweep
        from sparseqi.analysis import spline_norm
        from sparseqi.quasi_interp import builtin_scheme
        from sparseqi.testfuncs import witness_g2

        assert run("benchmark", "--d", 3, "--m-range", "1..6", "--K", 8, "--q", "inf",
                   "--out", tmp_path) == 0
        rows = json.loads((tmp_path / "benchmark_report.json").read_text())["rows"]
        cubic = builtin_scheme("cubic")
        assert [row["error_peak"] for row in rows] == [
            spline_norm(witness_g2(cubic, 3, m, 1.25, 2.0), np.inf) for m in range(1, 7)]


    def test_peak_probe_alone(self, tmp_path):
        # the peaked witness's norms scale by 2**(-r) per level exactly
        assert run("benchmark", "--builtin", "faber", "--d", 1, "--m-range", "2..5",
                   "--K", 32, "--probe", "peak", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "benchmark_report.json").read_text())
        assert all(row["error"] == row["error_peak"] for row in report["rows"])
        assert report["fit"]["rho"] == pytest.approx(1.25, abs=1e-12)

    def test_random_probe_at_p_below_q(self, tmp_path):
        assert run("benchmark", "--d", 1, "--m-range", "2..5", "--K", 32, "--q", 4,
                   "--probe", "random", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "benchmark_report.json").read_text())
        assert report["config"]["probe"] == "random"
        assert all(row["error"] == row["error_random"] for row in report["rows"])
        assert not any("error_peak" in row for row in report["rows"])

    def test_pure_dyadic_model_at_d2(self, tmp_path):
        assert run("benchmark", "--d", 2, "--m-range", "1..4", "--K", 8,
                   "--model", "pure_dyadic", "--out", tmp_path) == 0
        fit = json.loads((tmp_path / "benchmark_ratefit.json").read_text())
        assert fit["beta"] == 0.0 and fit["model"] == "pure_dyadic"


# Rates away from r = 1.25 and at order 6, at --p 2 and the default K: the
# arguments, the theory's exponent and the band |rho - exponent| <= band.
# Each band holds the fitted rho of seeds 0-31, whose range the comment gives.
RATE_SWEEPS = {
    "cubic-r2.5-d1": ("--d 1 --m-range 3..9 --r 2.5", 2.5, 0.1),  # 2.499-2.544
    "cubic-r2.5-d2": ("--d 2 --m-range 3..7 --r 2.5", 2.5, 0.3),  # 2.227-2.668, with a log factor
    "order6-r4-d1": ("--d 1 --m-range 3..9 --r 4", 4.0, 0.1),  # 4.010-4.033
    "order6-r3.5-d2": ("--d 2 --m-range 3..7 --r 3.5", 3.5, 0.4),  # 3.488-3.831, with a log factor
    "cubic-r2.5-d1-q4": ("--d 1 --m-range 3..9 --r 2.5 --q 4", 2.25, 0.1),  # p < q: 2.250-2.274
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("sweep", sorted(RATE_SWEEPS))
def test_rate_sweep_in_band(tmp_path, sweep, seed):
    argv, exponent, band = RATE_SWEEPS[sweep]
    scheme = ()
    if sweep.startswith("order6"):
        scheme = ("--mask", tmp_path / "order6.json")
        scheme[1].write_text(json.dumps({"ell": 6, "mask": list(ORDER6_MASK)}))
    assert run("benchmark", *scheme, *shlex.split(argv), "--p", 2, "--seed", seed, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "benchmark_report.json").read_text())
    assert report["theory"]["exponent"] == pytest.approx(exponent)
    assert abs(report["fit"]["rho"] - exponent) <= band


class TestWitness:
    def test_g2_sweep(self, tmp_path):
        assert run("witness", "--kind", "g2", "--builtin", "faber", "--d", 1,
                   "--m-range", "2..5", "--r", "0.75", "--p", 2, "--q", 4,
                   "--out", tmp_path) == 0
        report = json.loads((tmp_path / "witness_report.json").read_text())
        assert all(row["grid_max"] == 0.0 for row in report["rows"])
        target = report["expected_ratio"]
        for row in report["rows"][1:]:
            assert row["ratio"] == pytest.approx(target, rel=1e-12)

    def test_g2_needs_no_lattice(self, tmp_path):
        # the level-8 bump's lattice of 1024**3 points refused this sweep
        assert run("witness", "--kind", "g2", "--d", 3, "--m-range", "1..6", "--r", "1.25",
                   "--out", tmp_path) == 0
        report = json.loads((tmp_path / "witness_report.json").read_text())
        assert [row["grid_max"] for row in report["rows"]] == [0.0] * 6
        for row in report["rows"][1:]:
            assert row["ratio"] == pytest.approx(report["expected_ratio"], rel=1e-12)

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
            for (_, B), (_, C) in zip(back.block_items(), direct.block_items()):
                assert np.array_equal(B.view(np.int64), C.view(np.int64))

    def test_g1_d1_beta_degenerates(self, tmp_path):
        # no log factor in one dimension: free-beta fit stays near zero
        assert run("witness", "--kind", "g1", "--builtin", "faber", "--d", 1,
                   "--m-range", "2..6", "--r", "0.75", "--q", 2, "--out", tmp_path) == 0
        report = json.loads((tmp_path / "witness_report.json").read_text())
        assert abs(report["fit"]["beta"]) < 0.2
        assert report["fit"]["rho"] == pytest.approx(0.75, abs=0.1)

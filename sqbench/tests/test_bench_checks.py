import json
import shutil
from pathlib import Path

import pytest

import checks
import harness
import workloads

BENCH = Path(__file__).resolve().parents[1]
REFERENCES = json.loads((BENCH / "references.json").read_text())
SEED = 3


def _run(name, tmp, trace):
    run = harness.Run(workloads.TINY[name], SEED, seconds=0, trace=trace, work=tmp)
    run.measure()
    return run


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_smoke_run_of_each_workload(name, tmp_path):
    run = _run(name, tmp_path, trace=True)
    assert len(run.ops) == 2 and [op["traced"] for op in run.ops] == [False, True]
    assert run.check(REFERENCES) == [[], []]
    layers = run.per_layer()
    assert set(layers) == set(harness.PER_LAYER_UNITS)
    rate = name.startswith("rate")
    assert layers["quasi_interp.evals_per_grid_point"] == (1.0 if rate else 0.0)
    assert (layers["testfuncs.points_evaluated"] > 0) == rate
    assert (layers["kernels.scatter_s"] > 0) == (not rate)
    assert layers["trace.coverage"] == pytest.approx(1.0, abs=0.01)
    e2e = run.end_to_end(setup_s=1.0, peak_rss_mb=100.0)
    assert set(e2e) == set(harness.END_TO_END_UNITS)
    assert e2e["wall_s"] > 0


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    return _run("roundtrip-d3", tmp_path_factory.mktemp("roundtrip"), trace=False)


@pytest.fixture(scope="module")
def rate(tmp_path_factory):
    return _run("rate-d2", tmp_path_factory.mktemp("rate"), trace=False)


def _roundtrip_problems(run, out):
    op = run.ops[0]
    ref = run.smolyak.recover(run.scheme, run.wl.d, run.wl.m, f=run.inputs["function"])
    return checks.check_roundtrip(out, op["res"].exit_codes, op["evaluated"], op["caches"],
                                  run.grid_size(), run.inputs["points"],
                                  ref.eval_points(run.inputs["points"]))


def _corrupt(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def test_roundtrip_outputs_pass(roundtrip):
    assert _roundtrip_problems(roundtrip, roundtrip.ops[0]["res"].out) == []


def test_perturbed_recovered_value_is_rejected(roundtrip, tmp_path):
    out = tmp_path / "op"
    shutil.copytree(roundtrip.ops[0]["res"].out, out)

    def perturb(lines):
        *coords, value = lines[7].rstrip("\n").split(",")
        lines[7] = ",".join(coords + [repr(float(value) + 1e-6)]) + "\n"
        return lines

    _corrupt(out / "recovered.csv", perturb)
    assert any("recovered values differ" in p for p in _roundtrip_problems(roundtrip, out))


def test_dropped_grid_row_is_rejected(roundtrip, tmp_path):
    out = tmp_path / "op"
    shutil.copytree(roundtrip.ops[0]["res"].out, out)
    _corrupt(out / "grid.csv", lambda lines: lines[:5] + lines[6:])
    assert any("grid.csv has" in p for p in _roundtrip_problems(roundtrip, out))


def test_function_evaluation_in_roundtrip_is_rejected(roundtrip):
    op = roundtrip.ops[0]
    run = roundtrip
    ref = run.smolyak.recover(run.scheme, run.wl.d, run.wl.m, f=run.inputs["function"])
    problems = checks.check_roundtrip(op["res"].out, op["res"].exit_codes, 1, op["caches"],
                                      run.grid_size(), run.inputs["points"],
                                      ref.eval_points(run.inputs["points"]))
    assert any("function evaluations" in p for p in problems)


def test_corrupted_coeffs_json_is_rejected(roundtrip, tmp_path):
    out = roundtrip.ops[0]["res"].out
    data = json.loads((out / "coeffs.json").read_text())
    data["entries"][0]["c"] += 1e-3
    bad = tmp_path / "coeffs.json"
    bad.write_text(json.dumps(data))
    assert checks.check_readback(out / "coeffs.json", out / "recovered.csv", 3) == []
    assert checks.check_readback(bad, out / "recovered.csv", 3) != []


def _rate_problems(run, out, evaluated=None):
    op = run.ops[0]
    ref = REFERENCES[run.wl.name][str(run.wl.fixture_seed(SEED))]
    evaluated = op["evaluated"] if evaluated is None else evaluated
    return checks.check_rate(run.wl, out, op["res"].exit_codes, evaluated, run.grid_size(), ref)


def test_rate_outputs_pass(rate):
    assert _rate_problems(rate, rate.ops[0]["res"].out) == []


def test_wrong_evaluation_count_is_rejected(rate):
    problems = _rate_problems(rate, rate.ops[0]["res"].out, evaluated=rate.grid_size() + 1)
    assert any("samples evaluated" in p for p in problems)


def test_error_off_the_reference_is_rejected(rate, tmp_path):
    out = tmp_path / "op"
    shutil.copytree(rate.ops[0]["res"].out, out)
    report = json.loads((out / "benchmark_report.json").read_text())
    report["rows"][-1]["error"] *= 1.001
    (out / "benchmark_report.json").write_text(json.dumps(report))
    assert any("differs from reference" in p for p in _rate_problems(rate, out))


def test_rho_outside_the_band_is_rejected(rate, tmp_path):
    out = tmp_path / "op"
    shutil.copytree(rate.ops[0]["res"].out, out)
    report = json.loads((out / "benchmark_report.json").read_text())
    report["fit"]["rho"] = 2.0
    (out / "benchmark_report.json").write_text(json.dumps(report))
    banded = workloads.RateSweep(rate.wl.name, 2, 1, 4, 8, rho_band=0.3)
    op = rate.ops[0]
    ref = REFERENCES[rate.wl.name][str(SEED)]
    problems = checks.check_rate(banded, out, op["res"].exit_codes, op["evaluated"],
                                 rate.grid_size(), ref)
    assert any("outside" in p for p in problems)

"""Output checks.  Each returns a list of problems; an empty list is a pass.

An operation fails when a CLI call exits nonzero or any check on its
outputs reports a problem.  Reference values are computed or loaded outside
the timed region.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Per-level errors must match the pinned references (made at the seed commit
# by make_references.py) to this relative tolerance.
ERROR_RTOL = 1e-9
# Recovered values must match the reference recovery to this tolerance,
# relative to the largest reference value.
VALUE_RTOL = 1e-10
# Points at which coeffs.json is read back and evaluated.
READBACK_POINTS = 2000


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def check_rate(wl, out: Path, exit_codes: list[int], evaluated: int, grid_size: int,
               reference: dict[str, float] | None) -> list[str]:
    """Rate sweep: exit 0, decreasing errors that match the pinned reference
    (level -> error), the rho band where one applies, and one evaluation per
    grid point."""
    if exit_codes != [0]:
        return [f"exit codes {exit_codes}"]
    if reference is None:
        return [f"no pinned reference for {wl.name}"]
    problems = []
    report = json.loads((out / "benchmark_report.json").read_text())
    levels = [row["m"] for row in report["rows"]]
    if levels != wl.levels:
        return [f"levels {levels}, expected {wl.levels}"]
    errors = [row["error"] for row in report["rows"]]
    if any(b >= a for a, b in zip(errors, errors[1:])):
        problems.append(f"errors do not strictly decrease in m: {errors}")
    for m, err in zip(levels, errors):
        want = reference[str(m)]
        if abs(err - want) > ERROR_RTOL * abs(want):
            problems.append(f"m={m}: error {err!r} differs from reference {want!r}")
    _, rows = _read_rows(out / "benchmark_errors.csv")
    if [float(r[2]) for r in rows] != errors:
        problems.append("benchmark_errors.csv disagrees with benchmark_report.json")
    rho = report["fit"]["rho"]
    if wl.rho_band is not None and abs(rho - wl.r) > wl.rho_band:
        problems.append(f"fitted rho {rho:.4f} outside {wl.r} +- {wl.rho_band}")
    if evaluated != grid_size:
        problems.append(f"{evaluated} samples evaluated, grid has {grid_size} points")
    return problems


def check_roundtrip(out: Path, exit_codes: list[int], evaluated: int, caches: int,
                    grid_size: int, points: np.ndarray, reference: np.ndarray) -> list[str]:
    """Round trip: exit 0, a complete duplicate-free grid, recovered values equal
    to the function-sourced recovery, and no function evaluations."""
    if exit_codes != [0, 0]:
        return [f"exit codes {exit_codes}"]
    problems = []
    header, rows = _read_rows(out / "grid.csv")
    d = sum(h.startswith("x_") for h in header)
    distinct = {tuple(r[:d]) for r in rows}
    if len(rows) != grid_size or len(distinct) != grid_size:
        problems.append(f"grid.csv has {len(rows)} rows, {len(distinct)} distinct; expected {grid_size}")
    recovered = read_recovered(out / "recovered.csv")
    if recovered.shape != (points.shape[0], d + 1):
        return problems + [f"recovered.csv has shape {recovered.shape}"]
    if not np.array_equal(recovered[:, :d], points):
        problems.append("recovered.csv coordinates differ from the evaluation points")
    tol = VALUE_RTOL * max(1.0, float(np.max(np.abs(reference))))
    worst = float(np.max(np.abs(recovered[:, d] - reference)))
    if not worst <= tol:
        problems.append(f"recovered values differ from the reference by {worst:.3e} > {tol:.1e}")
    if caches == 0 or evaluated != 0:
        problems.append(f"{evaluated} function evaluations in {caches} sample caches; expected 0")
    return problems


def check_readback(coeffs_json: Path, recovered_csv: Path, d: int) -> list[str]:
    """coeffs.json, read back through HierCoeffs.from_json, evaluates to recovered.csv."""
    from sparseqi.quasi_interp import HierCoeffs

    hc = HierCoeffs.from_json(json.loads(coeffs_json.read_text()))
    recovered = read_recovered(recovered_csv)[:READBACK_POINTS]
    vals = hc.eval_points(recovered[:, :d])
    tol = VALUE_RTOL * max(1.0, float(np.max(np.abs(recovered[:, d]))))
    worst = float(np.max(np.abs(vals - recovered[:, d])))
    return [] if worst <= tol else [f"coeffs.json read back differs by {worst:.3e} > {tol:.1e}"]


def read_recovered(path: Path) -> np.ndarray:
    _, rows = _read_rows(path)
    return np.array([[float(c) for c in r] for r in rows]).reshape(len(rows), -1)

"""The benchmark's workloads: the README's CLI commands at fixed sizes.

Each operation runs ``sparseqi.cli.main(argv)`` in-process.  Its wall time
runs from entry to return of ``cli.main``; work the harness does between
two CLI calls of one operation (writing the round trip's samples) is not
timed.  Every operation writes into its own output directory, which the
checks in ``checks.py`` read afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Fixture seeds with pinned per-level errors in references.json; the
# benchmark seed picks one of them for the rate workloads.
REFERENCE_SEEDS = 16


@dataclass(frozen=True)
class RateSweep:
    """``sparseqi benchmark``: a convergence-rate sweep over a random fixture."""

    name: str
    d: int
    m_lo: int
    m_hi: int
    K: int | None  # None keeps the CLI default ell * 2**m_hi
    rho_band: float | None  # |rho - r| bound, where the sweep is asymptotic
    r: float = 1.25

    @property
    def levels(self) -> list[int]:
        return list(range(self.m_lo, self.m_hi + 1))

    def fixture_seed(self, seed: int) -> int:
        return seed % REFERENCE_SEEDS

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = ["benchmark", "--builtin", "cubic", "--d", str(self.d),
                "--m-range", f"{self.m_lo}..{self.m_hi}"]
        if self.K is not None:
            argv += ["--K", str(self.K)]
        return argv + ["--p", "2", "--q", "2", "--r", str(self.r),
                       "--seed", str(self.fixture_seed(seed)), "--out", str(out)]

    def grid_level(self) -> tuple[int, int]:
        return self.d, self.m_hi


@dataclass(frozen=True)
class RoundTrip:
    """``sparseqi grid`` then ``sparseqi recover --samples``: no function evaluations."""

    name: str
    d: int
    m: int
    n_eval: int

    def grid_argv(self, out: Path) -> list[str]:
        return ["grid", "--builtin", "cubic", "--d", str(self.d), "--m", str(self.m),
                "--format", "csv", "--out", str(out)]

    def recover_argv(self, samples: Path, points: Path, out: Path) -> list[str]:
        return ["recover", "--builtin", "cubic", "--d", str(self.d), "--m", str(self.m),
                "--samples", str(samples), "--eval", str(points), "--out", str(out)]

    def grid_level(self) -> tuple[int, int]:
        return self.d, self.m


WORKLOADS = {
    "rate-d2": RateSweep("rate-d2", d=2, m_lo=3, m_hi=7, K=None, rho_band=0.3),
    # rho is 1.6-1.9 at d=3 (pre-asymptotic sweep), so no band there
    "rate-d3": RateSweep("rate-d3", d=3, m_lo=2, m_hi=5, K=16, rho_band=None),
    "roundtrip-d3": RoundTrip("roundtrip-d3", d=3, m=5, n_eval=50_000),
}

# Small versions of each workload: the warm-up before timing and the smoke tests.
TINY = {
    "rate-d2": RateSweep("rate-d2-tiny", d=2, m_lo=1, m_hi=4, K=8, rho_band=None),
    "rate-d3": RateSweep("rate-d3-tiny", d=3, m_lo=1, m_hi=4, K=4, rho_band=None),
    "roundtrip-d3": RoundTrip("roundtrip-d3-tiny", d=3, m=2, n_eval=500),
}


# ---------------------------------------------------------------------------
# round-trip inputs
# ---------------------------------------------------------------------------


class TrigGenerator:
    """Seeded sum of separable cosines, the round trip's sampled function.

    It belongs to the benchmark, not to ``sparseqi.testfuncs``, so the
    inputs do not change when the package's fixtures do.
    """

    def __init__(self, seed: int, d: int, terms: int = 12, max_freq: int = 6):
        rng = np.random.default_rng([seed, d])
        self.d = d
        self.amps = rng.normal(size=terms) / (1.0 + np.arange(terms))
        self.freqs = rng.integers(0, max_freq + 1, size=(terms, d))
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=(terms, d))

    def __call__(self, P):
        P = np.asarray(P, dtype=np.float64)
        single = P.ndim == 1
        P = P.reshape(-1, self.d)
        out = np.zeros(P.shape[0])
        for a, nu, ph in zip(self.amps, self.freqs, self.phases):
            term = np.full(P.shape[0], a)
            for j in range(self.d):
                term *= np.cos(2.0 * np.pi * nu[j] * P[:, j] + ph[j])
            out += term
        return float(out[0]) if single else out


def eval_points(seed: int, wl: RoundTrip) -> np.ndarray:
    return np.random.default_rng([seed, wl.d, 1]).random((wl.n_eval, wl.d))


def write_points(path: Path, pts: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j + 1}" for j in range(pts.shape[1])])
        writer.writerows([repr(float(c)) for c in row] for row in pts)


def write_samples(grid_csv: Path, samples_csv: Path, f: TrigGenerator) -> None:
    """Sample ``f`` at the exact coordinates listed in ``grid_csv``."""
    with open(grid_csv, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        xcols = [i for i, h in enumerate(header) if h.startswith("x_")]
        coords = [[row[i] for i in xcols] for row in reader]
    vals = f(np.array([[float(c) for c in row] for row in coords]).reshape(-1, len(xcols)))
    with open(samples_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header[i] for i in xcols] + ["value"])
        writer.writerows(row + [repr(float(v))] for row, v in zip(coords, vals))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    out: Path
    wall_s: float
    exit_codes: list[int]
    bytes_read: int = 0


# Exit code recorded for a CLI call that raised instead of returning.
RAISED = -1


def _timed_main(cli, argv: list[str]) -> tuple[int, float]:
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        rc = RAISED
    return rc, time.perf_counter() - t0


def _call_cli(cli, argv: list[str], tracer=None) -> tuple[int, float]:
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return _timed_main(cli, argv)
        with tracer.span("cli.main"):
            return _timed_main(cli, argv)


def run_operation(cli, wl, seed: int, out: Path, inputs: dict, tracer=None) -> OpResult:
    """One operation of ``wl`` writing into ``out``; ``inputs`` holds round-trip files."""
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(wl, RateSweep):
        rc, wall = _call_cli(cli, wl.argv(seed, out), tracer)
        return OpResult(out, wall, [rc])
    rc1, t1 = _call_cli(cli, wl.grid_argv(out), tracer)
    if rc1 != 0:
        return OpResult(out, t1, [rc1])
    samples = out / "samples.csv"
    write_samples(out / "grid.csv", samples, inputs["function"])
    rc2, t2 = _call_cli(cli, wl.recover_argv(samples, inputs["points_csv"], out), tracer)
    read = samples.stat().st_size + inputs["points_csv"].stat().st_size
    return OpResult(out, t1 + t2, [rc1, rc2], bytes_read=read)


@contextlib.contextmanager
def watch_caches(cache_cls):
    """Collect every sample cache created meanwhile, to read its evaluation count."""
    seen = []
    original = cache_cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        seen.append(self)

    cache_cls.__init__ = init
    try:
        yield seen
    finally:
        cache_cls.__init__ = original


def prepare_inputs(wl, seed: int, work: Path) -> dict:
    """Inputs shared by all operations of one run (the round trip's eval points)."""
    if not isinstance(wl, RoundTrip):
        return {}
    work.mkdir(parents=True, exist_ok=True)
    pts = eval_points(seed, wl)
    path = work / "eval.csv"
    write_points(path, pts)
    return {"function": TrigGenerator(seed, wl.d), "points": pts, "points_csv": path}


def written_bytes(out: Path) -> int:
    """Bytes of the files the CLI wrote into ``out`` (samples.csv is the harness's)."""
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "samples.csv")

"""The benchmark run: set-up timing, warm-up, timed operations, checks, metrics."""

from __future__ import annotations

import gc
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

SETUP_REPEATS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import sparseqi.cli; "
    "from sparseqi.quasi_interp import builtin_scheme; builtin_scheme('cubic')"
)
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "wall_p75_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "laurent.derive_s": "s",
    "testfuncs.fixture_s": "s",
    "testfuncs.eval_s": "s",
    "testfuncs.points_evaluated": "count",
    "quasi_interp.decompose_s": "s",
    "quasi_interp.sample_s": "s",
    "quasi_interp.stencil_s": "s",
    "quasi_interp.samples_requested": "count",
    "quasi_interp.samples_evaluated": "count",
    "quasi_interp.cache_hit_ratio": "ratio",
    "quasi_interp.evals_per_grid_point": "ratio",
    "quasi_interp.sweep_useful_ratio": "ratio",
    "quasi_interp.blocks": "count",
    "quasi_interp.to_json_s": "s",
    "smolyak.enumerate_grid_s": "s",
    "smolyak.grid_points": "count",
    "smolyak.recover_s": "s",
    "kernels.scatter_s": "s",
    "kernels.scatter_block_points_per_s": "block-pts/s",
    "kernels.grid_s": "s",
    "kernels.grid_block_points_per_s": "block-pts/s",
    "analysis.lq_norm_s": "s",
    "analysis.quadrature_points": "count",
    "analysis.fit_rate_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def measure_setup(root: Path) -> float:
    """Median time from a fresh interpreter to an imported CLI and a built scheme."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import sparseqi from {root / 'src'}:\n{proc.stderr}")
    return statistics.median(times)


def environment() -> dict:
    import scipy
    from sparseqi import kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "kernels_backend": kernels.active_backend(),
        "machine": platform.machine(),
    }


def _guarded(check, *args) -> list[str]:
    """Run one check; an output it cannot read is a failed check."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{check.__name__} could not read the outputs: {exc!r}"]


class Run:
    """One benchmark run: warm-up, timed operations, then the output checks."""

    def __init__(self, wl, seed: int, seconds: float, trace: bool, work: Path):
        from sparseqi import cli, quasi_interp, smolyak

        self.cli, self.smolyak, self.cache_cls = cli, smolyak, quasi_interp.SampleCache
        self.scheme = quasi_interp.builtin_scheme("cubic")
        self.wl, self.seed, self.seconds, self.trace, self.work = wl, seed, seconds, trace, work
        self.tracer = tracing.Tracer()
        self.ops: list[dict] = []

    def _operation(self, wl, index: int, inputs: dict, traced: bool) -> dict:
        out = self.work / f"op{index}"
        self.tracer.op = index
        with workloads.watch_caches(self.cache_cls) as caches:
            if traced:
                with tracing.traced(self.tracer):
                    res = workloads.run_operation(self.cli, wl, self.seed, out, inputs, self.tracer)
            else:
                res = workloads.run_operation(self.cli, wl, self.seed, out, inputs)
            evaluated = sum(c.evaluations for c in caches)
            n_caches = len(caches)
        return {"res": res, "traced": traced, "evaluated": evaluated, "caches": n_caches,
                "bytes_written": workloads.written_bytes(out)}

    def warm_up(self, tiny) -> None:
        """One untimed operation of ``tiny``, a small version of the workload."""
        inputs = workloads.prepare_inputs(tiny, self.seed, self.work / "warm")
        op = self._operation(tiny, -1, inputs, traced=False)
        if any(op["res"].exit_codes):
            raise RuntimeError(f"warm-up exited with {op['res'].exit_codes}")

    def measure(self) -> None:
        """Operations back to back for about ``seconds``: another one starts while
        it is expected to end less than half an operation late.  At least one,
        and with tracing at least one of each kind."""
        self.inputs = workloads.prepare_inputs(self.wl, self.seed, self.work)
        start = time.perf_counter()
        while True:
            index = len(self.ops)
            gc.collect()  # every operation starts from a collected heap, as a fresh CLI call does
            self.ops.append(self._operation(self.wl, index, self.inputs,
                                            traced=self.trace and index % 2 == 1))
            expected = statistics.median(op["res"].wall_s for op in self.ops)
            enough = len(self.ops) >= (2 if self.trace else 1)
            if enough and time.perf_counter() - start + expected / 2 > self.seconds:
                break

    def grid_size(self) -> int:
        return self.smolyak.count_points(*self.wl.grid_level(), self.scheme)

    def check(self, references: dict) -> list[list[str]]:
        """Problems per operation, in order."""
        n = self.grid_size()
        if isinstance(self.wl, workloads.RateSweep):
            ref = references.get(self.wl.name, {}).get(str(self.wl.fixture_seed(self.seed)))
            return [
                _guarded(checks.check_rate, self.wl, op["res"].out, op["res"].exit_codes,
                         op["evaluated"], n, ref)
                for op in self.ops
            ]
        ref_hc = self.smolyak.recover(self.scheme, self.wl.d, self.wl.m, f=self.inputs["function"])
        reference = ref_hc.eval_points(self.inputs["points"])
        first = self.ops[0]["res"].out
        problems = []
        for i, op in enumerate(self.ops):
            found = _guarded(checks.check_roundtrip, op["res"].out, op["res"].exit_codes,
                             op["evaluated"], op["caches"], n, self.inputs["points"], reference)
            if not found and i == 0:
                found = _guarded(checks.check_readback, first / "coeffs.json",
                                 first / "recovered.csv", self.wl.d)
            elif not found and (op["res"].out / "coeffs.json").read_bytes() != (
                    first / "coeffs.json").read_bytes():
                found = ["coeffs.json differs from the first operation's"]
            problems.append(found)
        return problems

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
        walls = [op["res"].wall_s for op in self.ops]
        return {
            "wall_s": statistics.median(walls),
            "wall_p75_s": statistics.quantiles(walls, n=4, method="inclusive")[2]
            if len(walls) > 1 else walls[0],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        traced = [op for op in self.ops if op["traced"]]
        untraced = [op for op in self.ops if not op["traced"]]
        out = tracing.layer_metrics(
            self.tracer.spans,
            n_ops=len(traced),
            evaluated=sum(op["evaluated"] for op in traced),
            grid_size=self.grid_size() * len(traced),
            bytes_written=sum(op["bytes_written"] for op in traced),
            bytes_read=sum(op["res"].bytes_read for op in traced),
            wall=sum(op["res"].wall_s for op in traced),
        )
        traced_wall = statistics.median(op["res"].wall_s for op in traced)
        untraced_wall = statistics.median(op["res"].wall_s for op in untraced)
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        return out

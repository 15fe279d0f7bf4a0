"""sparseqi benchmark: wall time of the README's CLI commands, and per-layer traces.

Run from the root of a checkout:

    python3 sqbench/run.py --workload rate-d2 --seed 0 --seconds 20 --trace 0

It imports ``sparseqi`` from the checkout's ``src`` directory, so each
checkout measures its own code.  Load model: closed loop, one client in one
process running operations back to back after a small untimed warm-up.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and reports per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark's own tests: ``python3 -m pytest -q sqbench/tests``.
Rationale, layer-to-metric mapping and measured baselines: ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy loads: with a second thread the
# operation times follow the load on the other core, and spread more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402


def _result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sparseqi" / "__init__.py").is_file():
        print(f"error: no sparseqi package under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bench_dir = Path(__file__).resolve().parent
    references = json.loads((bench_dir / "references.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    run_dir = root / ".sqbench_run"
    work = run_dir / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"

    try:
        setup_s = harness.measure_setup(root)
        run = harness.Run(wl, args.seed, args.seconds, bool(args.trace), work)
        run.warm_up(workloads.TINY[args.workload])
        run.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = run.check(references)
        env = harness.environment()
        if args.trace:
            values, units = run.per_layer(), harness.PER_LAYER_UNITS
            trace_file = run_dir / f"trace-{args.workload}-s{args.seed}.json"
            trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                              "environment": env,
                                              "spans": run.tracer.to_json()}))
        else:
            values, units = run.end_to_end(setup_s, peak_rss_mb), harness.END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    for i, found in enumerate(problems):
        for problem in found:
            print(f"operation {i} failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env))
    summary = "  ".join(f"{k} {values[k]:.6g} {u}" for k, u in units.items())
    print(f"{args.workload} seed {args.seed}: {summary}  fail_ratio {failed}/{len(problems)}")
    print(_result_line(failed == 0, len(problems), failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write references.json: the per-level errors of the rate workloads.

Run from the root of a checkout whose results are the reference:

    python3 sqbench/make_references.py

It runs each rate workload, and its tiny version used by the tests, once per
fixture seed 0..REFERENCE_SEEDS-1 (about four minutes on two cores) and records the per-level errors that
``checks.check_rate`` compares against.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from sparseqi import cli  # noqa: E402


def main() -> int:
    refs: dict = {}
    for wl in [*workloads.WORKLOADS.values(), *workloads.TINY.values()]:
        if not isinstance(wl, workloads.RateSweep):
            continue
        refs[wl.name] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
                res = workloads.run_operation(cli, wl, seed, Path(tmp), {})
                if res.exit_codes != [0]:
                    print(f"{wl.name} seed {seed}: exit {res.exit_codes}", file=sys.stderr)
                    return 1
                report = json.loads((Path(tmp) / "benchmark_report.json").read_text())
            refs[wl.name][str(seed)] = {str(r["m"]): r["error"] for r in report["rows"]}
            print(f"{wl.name} seed {seed}: rho {report['fit']['rho']:.4f}", flush=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

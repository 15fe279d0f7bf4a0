import json
from pathlib import Path

import harness
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


def test_workloads_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.TINY) == set(workloads.WORKLOADS)

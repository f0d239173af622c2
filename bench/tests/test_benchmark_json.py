"""BENCHMARK.json declares exactly what the benchmark reports."""

import json
from pathlib import Path

import tracing
import workloads
from client import END_TO_END

DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match_the_generator():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_metric_names_and_units_match_the_report():
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == tracing.PER_LAYER


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

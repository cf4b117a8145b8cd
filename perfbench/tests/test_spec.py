"""BENCHMARK.json is well formed and names exactly what the benchmark emits."""

import json
import re
from pathlib import Path

from perfbench import probes
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_names_units_and_counts():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_names_match_what_the_probes_emit():
    metrics, _ = probes.layer_metrics(Tracer(), n_ops=1, n_setups=1)
    emitted = set(metrics) | {"blas.sgemm_gflops", "blas.dec_wgrad_gflops", "trace.overhead_ms"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}

"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest perfbench``. They launch
small ilcset invocations (a few trials each) and take about ten seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracer
import workloads as wl


def _measure(name: str, tmp_path: Path, flags=None, config_n=None) -> tuple:
    workload = wl.WORKLOADS[name]
    if flags is not None:
        workload = dataclasses.replace(workload, flags=flags)
    if workload.needs_config:
        example1 = json.loads((bench.SRC / "ilcset" / "data" / "example1.json").read_text())
        doc = wl.long_horizon_config(example1)
        doc["system"]["N"] = config_n or doc["system"]["N"]
        (tmp_path / wl.GENERATED_CONFIG).write_text(json.dumps(doc))
    m = bench.Measurement(workload, 3, tmp_path)
    metrics, extra = bench.per_layer(m, 0.0)
    assert m.failed == 0, m.records
    assert extra["absent"] == []
    return {k: v["value"] for k, v in metrics.items()}, m


def test_wait4_reports_each_childs_own_peak(tmp_path):
    big = bench.run_child([sys.executable, "-c", "x = b'x' * (200 << 20)"], tmp_path)
    small = bench.run_child([sys.executable, "-c", "pass"], tmp_path)
    assert big.status == small.status == 0
    assert big.peak_rss_mb > 190
    assert small.peak_rss_mb < 50
    assert big.peak_rss_mb != small.peak_rss_mb


def test_ref_ratio_divides_by_mean_of_neighbouring_references():
    def sample(wall, cpu):
        return bench.Sample(wall_s=wall, cpu_s=cpu, peak_rss_mb=1.0, status=0, stdout=b"")
    r = [sample(1.0, 1.0), sample(3.0, 1.0), sample(1.0, 2.0), sample(1.0, 1.0)]
    triples = [(r[0], sample(4.0, 3.0), r[1]), (r[1], sample(2.0, 3.0), r[2]),
               (r[2], sample(5.0, 4.5), r[3])]
    # wall ratios 2, 1, 5 and cpu ratios 3, 2, 3.
    assert bench.ref_ratio(triples, "wall_s") == pytest.approx(2.0 * bench.REF_SECONDS)
    assert bench.ref_ratio(triples, "cpu_s") == pytest.approx(3.0 * bench.REF_SECONDS)


def test_self_time_subtracts_union_of_children():
    # (id, parent, name, thread, t0, t1, cpu): two overlapping children on
    # different threads, one grandchild, one child overrunning its parent.
    spans = [
        (0, None, "root", 1, 0.0, 10.0, 0.0),
        (1, 0, "a", 1, 1.0, 4.0, 0.0),
        (2, 0, "b", 2, 3.0, 6.0, 0.0),
        (3, 1, "c", 1, 2.0, 3.0, 0.0),
        (4, 3, "d", 1, 2.5, 3.5, 0.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 0.5, 4: 1.0})
    assert tracer.union_length([(1, 2), (1.5, 3), (5, 6)], 0, 5.5) == pytest.approx(2.5)


def test_missing_function_is_reported_absent():
    doc = {"spans": [(0, None, "cli.main", 1, 0.0, 1.0, 1.0)], "traced": ["cli.main"],
           "counts": {}, "distinct_samples": 0, "wall_s": 1.0}
    metrics, absent = bench.layer_metrics(doc, 10, 1.0)
    assert "plant.simulate.calls" in absent
    assert "plant.simulate.calls" not in metrics
    assert "plant.self_s" in absent
    assert metrics["cli.self_s"]["value"] == pytest.approx(1.0)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(1.0)


def test_ex1_verify_trace_counts(tmp_path):
    L = 30
    values, _ = _measure("ex1-verify", tmp_path, ("--iterations", str(L), "--verify-set"))
    assert values["plant.sample_iteration.useful_ratio"] == 1 / 3
    assert values["plant.sample_iteration.calls"] == 3 * L
    assert values["set_transform.assemble_input.calls"] == L * 101
    assert values["set_transform.split_input.calls"] == 101
    # Self times partition the traced call: no thread runs on this workload.
    total = sum(values[f"{layer}.self_s"] for layer in bench._SPANNED)
    wall = values["trace.wall_s"]
    assert abs(total - wall) <= max(values["trace.overhead_s"], 1e-3 * wall)


def test_ex2_sweep_trace_counts(tmp_path):
    values, _ = _measure("ex2-sweep", tmp_path, ("--iterations", "4"))
    assert values["plant.sample_iteration.useful_ratio"] == 1 / 2
    assert values["plant.sample_iteration.calls"] == 2 * 4 * 4
    assert values["set_transform.assemble_input.calls"] == 0
    assert values["set_transform.split_input.calls"] == 0
    assert values["set_transform.self_s"] == 0.0
    assert values["cli.sweep.wait_s"] > 0.0


def test_design_check_simulates_nothing(tmp_path):
    values, m = _measure("design-check", tmp_path, config_n=100)
    assert values["plant.sample_iteration.calls"] == 0
    assert values["plant.simulate.calls"] == 0
    assert values["plant.self_s"] == 0.0
    assert values["conditions.check_lmi.self_s"] > 0.0
    # The traced run printed the same check table as the untraced one.
    assert len(set(m.digests)) == 1


def test_long_horizon_config_rescales_every_k():
    example1 = json.loads((bench.SRC / "ilcset" / "data" / "example1.json").read_text())
    doc = wl.long_horizon_config(example1)
    assert doc["system"]["N"] == wl.LONG_HORIZON_N
    assert doc["run"]["iterations"] == wl.LONG_HORIZON_L
    assert doc["system"]["B"][3][2] == "3*(0.1*k)+4"
    assert doc["system"]["C"][1][0] == "0.2*((0.1*k)-1)"
    cells = json.dumps([doc["system"][key] for key in "ABCDwvr"] + [doc["gains"]])
    assert not wl._K.search(cells.replace("(0.1*k)", ""))
    assert doc["system"]["x0"] == example1["system"]["x0"]


def test_gate_flags_large_recursion_residual(tmp_path):
    workload = wl.WORKLOADS["ex2-sweep"]
    (tmp_path / wl.METRICS_CSV).write_text(
        "seed,l,E_inf,U_inf,res_err_rec,res_in_rec\n0,0,1.0,1.0,,\n0,1,0.5,1.0,2e-8,0.0\n")
    assert wl.gate(tmp_path, workload, 0, b"") == [
        f"res_err_rec=2e-8 at l=1 above {wl.RECURSION_TOL}"]
    assert wl.gate(tmp_path, workload, 1, b"") == ["exit status 1"]
    assert wl.err_floor(tmp_path) == 0.5


def test_benchmark_json_matches_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _kind, _names in bench.PER_LAYER]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ex1-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Tests of the benchmark's own arithmetic (``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import os

import pytest

import run
from measure import HostSpeed, Ledger, find_spans, merge_tree, pass_cost, percentile, throughput

HERE = os.path.dirname(os.path.abspath(__file__))


def test_percentile_is_nearest_rank_and_states_its_samples():
    values = list(range(100, 0, -1))  # order must not matter
    p50, p90 = percentile(values, 50), percentile(values, 90)
    assert (p50.value, p50.samples, p50.beyond) == (50, 100, 50)
    assert (p90.value, p90.samples, p90.beyond) == (90, 100, 10)
    assert percentile([7.0], 90) == percentile([7.0], 50)
    assert percentile([7.0], 90).beyond == 0
    # a 3:1 mix puts the median in the large population, p90 in the small one
    mix = [10.0] * 75 + [40.0] * 25
    assert percentile(mix, 50).value == 10.0
    assert percentile(mix, 90).value == 40.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_pass_cost_sums_fastest_times_and_ignores_slow_spells():
    # three passes: "a" and "b" run once a pass, "c" twice
    slow_spell = [9.0, 3.0, 4.0]
    samples = {"a": [100.0, 1.0, 2.0], "b": slow_spell, "c": [5.0, 5.0, 0.5, 5.0, 6.0, 5.0]}
    assert pass_cost(samples, 3) == 1.0 + 3.0 + 2 * 0.5
    with pytest.raises(ValueError):
        pass_cost({}, 1)


def test_host_speed_factor_is_quiet_time_over_fastest_reference():
    host = HostSpeed()
    with pytest.raises(ValueError):
        host.factor
    host.sample()
    assert len(host.samples) == 1 and host.samples[0] > 0.0
    # a run whose reference never beat twice the quiet time ran at half speed
    host.samples = [3.0 * host.QUIET_S, 2.0 * host.QUIET_S, 2.5 * host.QUIET_S]
    assert host.factor == pytest.approx(0.5)


def test_shots_per_second_is_total_over_total_not_mean_of_rates():
    # 1000 shots in 1 s and 1000 in 3 s: 500 shots/s, not (1000 + 333) / 2
    assert throughput([1000, 1000], [1.0, 3.0]) == 500.0
    assert throughput([], []) == 0.0


def test_ledger_counts_each_operation_once():
    ledger = Ledger()
    assert ledger.failed_ratio == 0.0
    ledger.record([])
    ledger.record(["sum wrong", "outside golden support"])
    ledger.record([])
    ledger.record([])
    assert (ledger.attempted, ledger.failed) == (4, 1)
    assert ledger.failed_ratio == 0.25
    assert ledger.messages == ["sum wrong", "outside golden support"]


def test_self_time_is_duration_minus_children():
    artifact = {
        "name": "job",
        "wall_s": 10.0,
        "children": [
            {"name": "compile", "wall_s": 3.0, "children": [{"name": "parse", "wall_s": 1.0}]},
            {"name": "engine", "wall_s": 4.0},
        ],
    }
    root = merge_tree([artifact, artifact])
    job = root.children["job"]
    assert (job.calls, job.wall_s, job.self_s) == (2, 20.0, 6.0)
    assert job.children["compile"].self_s == 4.0
    assert job.children["compile"].children["parse"].self_s == 2.0
    assert root.wall_s == 20.0


def test_find_spans_searches_every_depth_and_reads_telemetry_spans():
    from repro.qsim import telemetry

    telemetry.drain_spans()
    with telemetry.span("pass"):
        with telemetry.span("qasm.parse"):
            pass
        with telemetry.span("engine.statevector") as engine:
            with telemetry.span("backend.run"):
                pass
            engine.tag(shots=10, method="sampled")
    trees = [root.to_dict() for root in telemetry.drain_spans()]
    (engine_span,) = find_spans(trees, "engine.statevector")
    assert engine_span["tags"] == {"shots": 10, "method": "sampled"}
    assert [s["name"] for s in find_spans(trees, "backend.run")] == ["backend.run"]
    assert find_spans(trees, "lang.parse") == []
    tree = merge_tree(trees).children["pass"]
    assert tree.self_s == pytest.approx(
        trees[0]["wall_s"] - sum(child["wall_s"] for child in trees[0]["children"])
    )
    assert tree.self_s >= 0.0


def test_benchmark_json_names_the_metrics_the_command_prints():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)

"""Unit tests for the telemetry subsystem: spans, metrics, exporters."""

import json
import threading

import pytest

from repro.qsim import telemetry
from repro.qsim.telemetry import export
from repro.qsim.telemetry.metrics import (
    DEFAULT_BUCKETS,
    merge_snapshots,
    snapshot_delta,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts enabled with empty spans/metrics, and leaves no residue."""
    telemetry.enable()
    telemetry.clear_spans()
    telemetry.reset_metrics()
    yield
    telemetry.enable()
    telemetry.clear_spans()
    telemetry.reset_metrics()


class TestSpans:
    def test_span_records_name_tags_and_timing(self):
        with telemetry.span("work", kind="unit") as sp:
            pass
        (root,) = telemetry.drain_spans()
        assert root.name == "work"
        assert root.tags == {"kind": "unit"}
        assert root.wall_s >= 0.0
        assert root.cpu_s >= 0.0
        assert root.parent_id is None

    def test_nesting_builds_a_tree(self):
        with telemetry.span("outer") as outer:
            with telemetry.span("inner-a"):
                pass
            with telemetry.span("inner-b"):
                pass
        (root,) = telemetry.drain_spans()
        assert [child.name for child in root.children] == ["inner-a", "inner-b"]
        assert all(child.parent_id == outer.span_id for child in root.children)

    def test_current_span_tracks_the_open_stack(self):
        assert telemetry.current_span() is None
        with telemetry.span("outer"):
            assert telemetry.current_span().name == "outer"
            with telemetry.span("inner"):
                assert telemetry.current_span().name == "inner"
            assert telemetry.current_span().name == "outer"
        assert telemetry.current_span() is None
        telemetry.drain_spans()

    def test_exception_tags_error_and_closes_span(self):
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("nope")
        (root,) = telemetry.drain_spans()
        assert root.tags["error"] == "ValueError"
        assert telemetry.current_span() is None

    def test_record_grafts_a_finished_child(self):
        with telemetry.span("job"):
            telemetry.record("claim", 0.25, 0.1, source="test")
        (root,) = telemetry.drain_spans()
        (claim,) = root.children
        assert claim.name == "claim"
        assert claim.wall_s == pytest.approx(0.25)
        assert claim.cpu_s == pytest.approx(0.1)
        assert claim.tags == {"source": "test"}

    def test_to_dict_round_trips_through_json(self):
        with telemetry.span("outer", n=1):
            with telemetry.span("inner"):
                pass
        (root,) = telemetry.drain_spans()
        tree = json.loads(json.dumps(root.to_dict()))
        assert tree["name"] == "outer"
        assert tree["tags"] == {"n": 1}
        assert tree["children"][0]["name"] == "inner"

    def test_root_buffer_is_bounded(self):
        for index in range(telemetry.trace.MAX_BUFFERED_ROOTS + 10):
            with telemetry.span(f"s{index}"):
                pass
        roots = telemetry.drain_spans()
        assert len(roots) == telemetry.trace.MAX_BUFFERED_ROOTS
        assert roots[-1].name == f"s{telemetry.trace.MAX_BUFFERED_ROOTS + 9}"

    def test_drain_clears_and_preserves_order(self):
        for name in ("a", "b"):
            with telemetry.span(name):
                pass
        assert [sp.name for sp in telemetry.drain_spans()] == ["a", "b"]
        assert telemetry.drain_spans() == []

    def test_spans_are_per_thread(self):
        seen = {}

        def worker():
            with telemetry.span("thread-root"):
                pass
            seen["roots"] = [sp.name for sp in telemetry.drain_spans()]

        with telemetry.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["roots"] == ["thread-root"]
        (root,) = telemetry.drain_spans()
        assert root.name == "main-root"
        assert root.children == []


class TestDisabled:
    def test_disabled_span_is_the_shared_null_span(self):
        telemetry.disable()
        with telemetry.span("ignored", x=1) as sp:
            assert sp is telemetry.trace.NULL_SPAN
            sp.tag(extra=2)  # must be accepted and dropped
        assert telemetry.drain_spans() == []

    def test_disabled_record_is_a_no_op(self):
        telemetry.disable()
        telemetry.record("claim", 1.0)
        assert telemetry.drain_spans() == []

    def test_disable_mid_span_still_closes_cleanly(self):
        with telemetry.span("outer"):
            telemetry.disable()
            with telemetry.span("inner"):
                pass
        telemetry.enable()
        (root,) = telemetry.drain_spans()
        assert root.name == "outer"
        assert root.children == []  # inner was never opened

    def test_disabled_instruments_do_not_mutate_the_registry(self):
        telemetry.disable()
        telemetry.counter("c").inc()
        telemetry.gauge("g").set(5)
        telemetry.histogram("h").observe(0.5)
        # not even zero-valued instruments appear: exact no-op
        assert telemetry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestMetrics:
    def test_counter_accumulates(self):
        telemetry.counter("jobs").inc()
        telemetry.counter("jobs").inc(4)
        assert telemetry.snapshot()["counters"]["jobs"] == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            telemetry.counter("jobs").inc(-1)

    def test_gauge_keeps_last_value(self):
        telemetry.gauge("depth").set(3)
        telemetry.gauge("depth").set(1)
        assert telemetry.snapshot()["gauges"]["depth"] == 1

    def test_histogram_buckets_are_cumulative_ready(self):
        hist = telemetry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        snap = telemetry.snapshot()["histograms"]["lat"]
        assert snap["buckets"] == [0.1, 1.0]
        assert snap["counts"] == [1, 1, 1]  # per-bucket slots + overflow
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)

    def test_default_buckets_cover_sub_ms_to_half_minute(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 30.0

    def test_same_name_different_type_raises(self):
        telemetry.counter("x")
        with pytest.raises(ValueError, match="already a counter"):
            telemetry.gauge("x")

    def test_reset_drops_everything(self):
        telemetry.counter("x").inc()
        telemetry.reset_metrics()
        assert telemetry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestSnapshotArithmetic:
    def test_delta_subtracts_counters_and_drops_zeros(self):
        telemetry.counter("a").inc(2)
        telemetry.counter("b").inc(1)
        before = telemetry.snapshot()
        telemetry.counter("a").inc(3)
        delta = snapshot_delta(before, telemetry.snapshot())
        assert delta["counters"] == {"a": 3}

    def test_delta_subtracts_histograms(self):
        hist = telemetry.histogram("lat", buckets=(1.0,))
        hist.observe(0.5)
        before = telemetry.snapshot()
        hist.observe(2.0)
        delta = snapshot_delta(before, telemetry.snapshot())
        assert delta["histograms"]["lat"]["counts"] == [0, 1]
        assert delta["histograms"]["lat"]["count"] == 1
        assert delta["histograms"]["lat"]["sum"] == pytest.approx(2.0)

    def test_delta_gauges_take_after_value(self):
        telemetry.gauge("depth").set(4)
        before = telemetry.snapshot()
        telemetry.gauge("depth").set(9)
        delta = snapshot_delta(before, telemetry.snapshot())
        assert delta["gauges"]["depth"] == 9

    def test_merge_adds_counters_and_histograms(self):
        a = {
            "counters": {"jobs": 2},
            "gauges": {},
            "histograms": {
                "lat": {"buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}
            },
        }
        b = {
            "counters": {"jobs": 3, "other": 1},
            "gauges": {"depth": 7},
            "histograms": {
                "lat": {"buckets": [1.0], "counts": [0, 1], "sum": 2.0, "count": 1}
            },
        }
        merged = merge_snapshots([a, None, b])
        assert merged["counters"] == {"jobs": 5, "other": 1}
        assert merged["gauges"] == {"depth": 7}
        assert merged["histograms"]["lat"]["counts"] == [1, 1]
        assert merged["histograms"]["lat"]["count"] == 2
        assert merged["histograms"]["lat"]["sum"] == pytest.approx(2.5)

    def test_merge_mismatched_buckets_fold_into_sum_count(self):
        a = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "lat": {"buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}
            },
        }
        b = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "lat": {"buckets": [2.0], "counts": [1, 0], "sum": 1.5, "count": 1}
            },
        }
        merged = merge_snapshots([a, b])
        assert merged["histograms"]["lat"]["buckets"] == [1.0]
        assert merged["histograms"]["lat"]["counts"] == [1, 0]  # shape kept
        assert merged["histograms"]["lat"]["count"] == 2  # totals still true
        assert merged["histograms"]["lat"]["sum"] == pytest.approx(2.0)


class TestExport:
    def _snapshot(self):
        telemetry.counter("engine.runs").inc(3)
        telemetry.gauge("queue.depth").set(2)
        telemetry.histogram("run.seconds", buckets=(0.1, 1.0)).observe(0.5)
        return telemetry.snapshot()

    def test_json_round_trips(self):
        data = json.loads(export.to_json(self._snapshot()))
        assert data["counters"]["engine.runs"] == 3
        assert data["histograms"]["run.seconds"]["count"] == 1

    def test_prometheus_text_format(self):
        text = export.to_prometheus(self._snapshot())
        assert "# TYPE qsim_engine_runs counter" in text
        assert "qsim_engine_runs 3" in text
        assert "qsim_queue_depth 2" in text
        assert 'qsim_run_seconds_bucket{le="0.1"} 0' in text
        assert 'qsim_run_seconds_bucket{le="1.0"} 1' in text
        assert 'qsim_run_seconds_bucket{le="+Inf"} 1' in text
        assert "qsim_run_seconds_sum 0.5" in text
        assert "qsim_run_seconds_count 1" in text

    def test_prometheus_buckets_are_cumulative(self):
        hist = telemetry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = export.to_prometheus(telemetry.snapshot())
        assert 'qsim_lat_bucket{le="0.1"} 1' in text
        assert 'qsim_lat_bucket{le="1.0"} 2' in text
        assert 'qsim_lat_bucket{le="+Inf"} 3' in text

    def test_custom_prefix(self):
        telemetry.counter("x").inc()
        assert "svc_x 1" in export.to_prometheus(telemetry.snapshot(), prefix="svc")


class TestFormatSpanTree:
    def _tree(self):
        with telemetry.span("job"):
            telemetry.record("claim", 0.001)
            with telemetry.span("run", backend="statevector"):
                pass
        (root,) = telemetry.drain_spans()
        return root.to_dict()

    def test_renders_nested_tree_with_percentages(self):
        tree = self._tree()
        text = telemetry.format_span_tree(tree, tree["wall_s"])
        lines = text.splitlines()
        assert lines[0].startswith("job")
        assert any(line.lstrip("│ ├└─ ").startswith("claim") for line in lines)
        assert any("backend=statevector" in line for line in lines)
        assert "%" in lines[0]

    def test_renders_without_total(self):
        tree = self._tree()
        text = telemetry.format_span_tree(tree)
        assert "job" in text and "run" in text

    def test_self_time_column_subtracts_children(self):
        tree = {
            "name": "job",
            "wall_s": 0.010,
            "children": [
                {"name": "compile", "wall_s": 0.003, "children": [{"name": "parse", "wall_s": 0.001}]},
                {"name": "run", "wall_s": 0.002},
            ],
        }
        lines = telemetry.format_span_tree(tree).splitlines()
        assert "self     5.000 ms" in lines[0]
        assert "self     2.000 ms" in lines[1]  # compile less its parse
        assert "self     1.000 ms" in lines[2]  # a leaf is all self time
        assert "self     2.000 ms" in lines[3]


class TestInstrumentationEndToEnd:
    def test_backend_run_emits_spans_and_metrics(self):
        from repro.qsim import QuantumCircuit, get_backend

        qc = QuantumCircuit(2, 2, name="bell")
        qc.h(0).cx(0, 1)
        qc.measure([0, 1], [0, 1])
        backend = get_backend("statevector")
        backend.run(qc, shots=32, seed=5).result()

        names = {sp.name for sp in telemetry.drain_spans()}
        assert "backend.run" in names
        snap = telemetry.snapshot()
        assert snap["counters"]["engine.statevector.experiments"] == 1
        assert snap["counters"]["engine.statevector.shots"] == 32
        assert snap["histograms"]["engine.run.seconds"]["count"] == 1

    def test_engine_span_tags_report_method_branches_and_fallback(self):
        from repro.qsim import QuantumCircuit, get_backend

        qc = QuantumCircuit(2, 2)
        qc.h(0).measure(0, 0)
        qc.h(1).c_if(qc.cregs[0], 1)
        qc.measure(1, 1)
        pauli = QuantumCircuit(2, 2)
        pauli.h(0).measure(0, 0)
        pauli.x(1).c_if(pauli.cregs[0], 1)
        pauli.measure(1, 1)
        get_backend("density_matrix").run(qc, shots=200, seed=5).result()
        get_backend("stabilizer").run(qc, shots=20, seed=5).result()

        def find(spans, name):
            for sp in spans:
                if sp.name == name:
                    return sp
                found = find(sp.children, name)
                if found is not None:
                    return found
            return None

        spans = telemetry.drain_spans()
        dm = find(spans, "engine.density_matrix.run")
        assert dm.tags["method"] == "branched" and dm.tags["branches"] == 2
        stabilizer = find(spans, "engine.stabilizer.run")
        assert stabilizer.tags["method"] == "stabilizer_per_shot"
        assert (
            stabilizer.tags["fallback_reason"]
            == "classically-conditioned non-Pauli instruction 'h'"
        )
        get_backend("stabilizer").run(pauli, shots=20, seed=5).result()
        symbolic = find(telemetry.drain_spans(), "engine.stabilizer.run")
        assert symbolic.tags["method"] == "stabilizer"
        assert "fallback_reason" not in symbolic.tags

        # statevector trajectories: at 12 qubits a batch holds 16 shots,
        # which share one row until their first error (never at p=0)
        from repro.qsim import DepolarizingNoise, StatevectorBackend
        from repro.qsim.backends import build_noisy_backend

        ghz = QuantumCircuit(12)
        ghz.h(0)
        for qubit in range(11):
            ghz.cx(qubit, qubit + 1)
        ghz.measure_all()

        def trajectories(p):
            backend = StatevectorBackend(noise_model=DepolarizingNoise(p))
            experiment = backend.run(ghz, shots=64, seed=5).result()[0]
            sv = find(telemetry.drain_spans(), "engine.statevector.run")
            assert sv.tags["trajectories"] == experiment.metadata["trajectories"]
            return experiment.metadata["trajectories"]

        assert trajectories(0.0) == 4
        assert 4 < trajectories(0.005) < 64

        # classical_prefix: the instructions run on basis rows (statevector)
        # or populations (density matrix), until the first non-monomial one
        adder = QuantumCircuit(3, 3)
        adder.x(0).cx(0, 1).ccx(0, 1, 2).h(0)
        adder.measure([0, 1, 2], [0, 1, 2])
        for name in ("statevector", "density_matrix"):
            backend = build_noisy_backend(name, 0.01, "depolarizing", seed=3)
            experiment = backend.run(adder, shots=64).result()[0]
            span = find(telemetry.drain_spans(), f"engine.{name}.run")
            assert experiment.metadata["classical_prefix"] == 3
            assert span.tags["classical_prefix"] == 3

    def test_disabled_run_emits_nothing(self):
        from repro.qsim import QuantumCircuit, get_backend

        telemetry.disable()
        qc = QuantumCircuit(1, 1)
        qc.h(0).measure([0], [0])
        get_backend("statevector").run(qc, shots=8, seed=1).result()
        assert telemetry.drain_spans() == []
        assert telemetry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

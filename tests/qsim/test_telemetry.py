"""Unit tests for the telemetry subsystem: spans, span-derived metrics, exporters."""

import json
import threading

import pytest

from repro.qsim import telemetry
from repro.qsim.telemetry import export
from repro.qsim.telemetry.export import DEFAULT_BUCKETS, metrics_from_traces


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts enabled with no spans, and leaves no residue."""
    telemetry.enable()
    telemetry.clear_spans()
    yield
    telemetry.enable()
    telemetry.clear_spans()


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

    def test_disable_mid_span_still_closes_cleanly(self):
        with telemetry.span("outer"):
            telemetry.disable()
            with telemetry.span("inner"):
                pass
        telemetry.enable()
        (root,) = telemetry.drain_spans()
        assert root.name == "outer"
        assert root.children == []  # inner was never opened

class TestMetricsFromTraces:
    @staticmethod
    def _engine_run(name, shots, gates, wall_s, method=None):
        tags = {"shots": shots, "gates": gates}
        if method is not None:
            tags["method"] = method
        return {"name": f"engine.{name}.run", "wall_s": wall_s, "tags": tags}

    def test_each_counter_is_one_span_fact(self):
        job = {
            "name": "job",
            "wall_s": 1.0,
            "children": [
                {
                    "name": "cache.compile_batch",
                    "wall_s": 0.1,
                    "children": [
                        {"name": "cache.lookup", "wall_s": 0.01, "tags": {"kind": "memory_hit"}},
                        {"name": "cache.lookup", "wall_s": 0.01, "tags": {"kind": "disk_hit"}},
                        {
                            "name": "cache.lookup",
                            "wall_s": 0.05,
                            "tags": {"kind": "corrupt"},
                            "children": [
                                {"name": "transpile", "wall_s": 0.01, "tags": {"gates": 5}}
                            ],
                        },
                        {
                            "name": "cache.lookup",
                            "wall_s": 0.02,
                            "tags": {"kind": "miss"},
                            "children": [
                                {"name": "transpile", "wall_s": 0.01, "tags": {"gates": 3}}
                            ],
                        },
                    ],
                },
                {
                    "name": "backend.run",
                    "wall_s": 0.5,
                    "tags": {"circuits": 3},
                    "children": [
                        self._engine_run("statevector", 10, 4, 0.0005, "sampled"),
                        self._engine_run("statevector", 20, 6, 0.002, "batched_shots"),
                        self._engine_run("stabilizer", 7, 2, 0.2, "stabilizer"),
                    ],
                },
            ],
        }
        snap = metrics_from_traces([job])
        assert snap["counters"] == {
            "backend.batches": 1,
            "backend.circuits": 3,
            "cache.corrupt": 1,
            "cache.disk_hits": 1,
            "cache.memory_hits": 1,
            "cache.misses": 2,
            "engine.stabilizer.experiments": 1,
            "engine.stabilizer.gates": 2,
            "engine.stabilizer.shots": 7,
            "engine.stabilizer.stabilizer": 7,
            "engine.statevector.batched_shots": 20,
            "engine.statevector.experiments": 2,
            "engine.statevector.gates": 10,
            "engine.statevector.shots": 30,
            "transpile.circuits": 2,
            "transpile.gates_in": 8,
        }
        assert snap["gauges"] == {}
        hist = snap["histograms"]["engine.run.seconds"]
        assert hist["buckets"] == list(DEFAULT_BUCKETS)
        assert hist["counts"] == [1, 1, 0, 0, 0, 1, 0, 0, 0, 0]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.2025)

    def test_traces_add_up(self):
        runs = [self._engine_run("density_matrix", 8, 1, 0.001, "branched")] * 2
        snap = metrics_from_traces(runs)
        assert snap["counters"]["engine.density_matrix.branched"] == 16
        # a wall time on a bound falls in that bound's bucket
        assert snap["histograms"]["engine.run.seconds"]["counts"][0] == 2

    def test_no_spans_no_metrics(self):
        assert metrics_from_traces([]) == {"counters": {}, "gauges": {}, "histograms": {}}
        assert metrics_from_traces([{"name": "job", "wall_s": 0.1}]) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_run_past_the_last_bound_lands_in_the_inf_bucket(self):
        snap = metrics_from_traces([self._engine_run("statevector", 1, 1, 60.0)])
        hist = snap["histograms"]["engine.run.seconds"]
        assert hist["counts"] == [0] * len(DEFAULT_BUCKETS) + [1]
        assert hist["sum"] == 60.0

    def test_lookup_without_a_known_kind_counts_nothing(self):
        lookups = [
            {"name": "cache.lookup", "wall_s": 0.01},
            {"name": "cache.lookup", "wall_s": 0.01, "tags": {"kind": "stale"}},
        ]
        assert metrics_from_traces(lookups)["counters"] == {}

    def test_engine_run_without_method_counts_no_method_shots(self):
        snap = metrics_from_traces([self._engine_run("statevector", 9, 2, 0.01)])
        assert snap["counters"] == {
            "engine.statevector.experiments": 1,
            "engine.statevector.gates": 2,
            "engine.statevector.shots": 9,
        }

    def test_default_buckets_cover_sub_ms_to_half_minute(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 30.0

    def test_counts_a_live_process_by_draining_its_spans(self):
        from repro.qsim import QuantumCircuit, get_backend

        qc = QuantumCircuit(1, 1)
        qc.x(0).measure(0, 0)
        get_backend("statevector").run([qc, qc], shots=5, seed=2).result()
        snap = metrics_from_traces(root.to_dict() for root in telemetry.drain_spans())
        assert snap["counters"]["backend.batches"] == 1
        assert snap["counters"]["engine.statevector.shots"] == 10


class TestExport:
    def _snapshot(self):
        return {
            "counters": {"engine.runs": 3.0},
            "gauges": {"queue.depth": 2.0},
            "histograms": {
                "run.seconds": {"buckets": [0.1, 1.0], "counts": [0, 1, 0], "sum": 0.5, "count": 1}
            },
        }

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
        snap = {
            "histograms": {
                "lat": {"buckets": [0.1, 1.0], "counts": [1, 1, 1], "sum": 5.55, "count": 3}
            }
        }
        text = export.to_prometheus(snap)
        assert 'qsim_lat_bucket{le="0.1"} 1' in text
        assert 'qsim_lat_bucket{le="1.0"} 2' in text
        assert 'qsim_lat_bucket{le="+Inf"} 3' in text

    def test_empty_snapshot_renders_nothing(self):
        assert export.to_prometheus({}) == ""
        assert export.to_prometheus(metrics_from_traces([])) == ""

    def test_prometheus_sanitises_names(self):
        text = export.to_prometheus({"counters": {"job-cache.hits": 2.0}}, prefix="9svc")
        assert "# TYPE _9svc_job_cache_hits counter" in text
        assert "_9svc_job_cache_hits 2" in text

    def test_non_integral_values_keep_their_fraction(self):
        text = export.to_prometheus({"counters": {"shots": 2.5}})
        assert "qsim_shots 2.5" in text

    def test_custom_prefix(self):
        snap = {"counters": {"x": 1.0}}
        assert "svc_x 1" in export.to_prometheus(snap, prefix="svc")


class TestFormatSpanTree:
    def _tree(self):
        with telemetry.span("job"):
            with telemetry.span("claim"):
                pass
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

        roots = telemetry.drain_spans()
        assert "backend.run" in {sp.name for sp in roots}
        snap = metrics_from_traces(root.to_dict() for root in roots)
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
        roots = telemetry.drain_spans()
        assert roots == []
        assert metrics_from_traces(roots) == {"counters": {}, "gauges": {}, "histograms": {}}

"""One heartbeat thread per worker, pointed at each job the worker holds.

A worker starts its heartbeat thread (and that thread's database
connection) once, before its first claim, instead of once per job; the
thread extends only the lease of the job it was last told to watch, and
drops a job the store says is no longer the worker's.
"""

import threading
import time

import pytest

from repro.qsim import QuantumCircuit
from repro.qsim.service import BatchPayload, JobStore, worker, worker_loop


def bell_payload(seed):
    qc = QuantumCircuit(2, 2, name="bell")
    qc.h(0).cx(0, 1)
    qc.measure([0, 1], [0, 1])
    return BatchPayload.from_circuits([qc], shots=16, seed=seed).to_json()


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def beats(monkeypatch):
    """Every ``JobStore.heartbeat`` call as ``(job_id, extended)``, in order."""
    calls = []
    original = JobStore.heartbeat

    def spy(self, job_id, worker_id, lease_timeout):
        extended = original(self, job_id, worker_id, lease_timeout)
        calls.append((job_id, extended))
        return extended

    monkeypatch.setattr(JobStore, "heartbeat", spy)
    return calls


def test_burst_over_many_jobs_starts_one_thread_and_one_store(tmp_path, monkeypatch):
    started, opened = [], []

    class CountingHeartbeat(worker._Heartbeat):
        def start(self):
            started.append(self.name)
            super().start()

    class CountingStore(JobStore):
        def __init__(self, *args, **kwargs):
            opened.append(threading.current_thread().name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(worker, "_Heartbeat", CountingHeartbeat)
    monkeypatch.setattr(worker, "JobStore", CountingStore)
    db_path = tmp_path / "burst.db"
    with JobStore(db_path) as store:
        job_ids = [store.submit(bell_payload(seed)) for seed in range(6)]
        assert worker_loop(db_path, burst=True) == 6
        assert all(store.get(job_id).state == "DONE" for job_id in job_ids)
    assert len(started) == 1
    # the worker's own store, plus one opened by the heartbeat thread
    assert opened == [threading.main_thread().name, started[0]]


def test_cancelled_job_is_dropped_and_the_next_claim_is_heartbeated(tmp_path, beats):
    db_path = tmp_path / "cancel.db"
    with JobStore(db_path) as store:
        first = store.submit(bell_payload(1))
        second = store.submit(bell_payload(2))
        heartbeat = worker._Heartbeat(str(db_path), "w", lease_timeout=0.2)
        heartbeat.start()
        try:
            assert store.claim("w", lease_timeout=0.2).job_id == first
            heartbeat.watch(first)
            assert wait_until(lambda: (first, True) in beats)
            # cancelled mid-run: the next beat fails and the thread lets go
            assert store.cancel(first)
            assert wait_until(lambda: (first, False) in beats)
            time.sleep(5 * heartbeat.interval)
            assert [beat for beat in beats if beat[0] == first][-1] == (first, False)
            assert beats.count((first, False)) == 1
            # the worker records the dropped run, releases it, claims again
            heartbeat.release()
            assert store.claim("w", lease_timeout=0.2).job_id == second
            heartbeat.watch(second)
            assert wait_until(lambda: beats.count((second, True)) >= 2)
            record = store.get(second)
            assert record.state == "RUNNING"
            assert record.lease_expires_at > record.heartbeat_at
        finally:
            heartbeat.stop()
    assert not heartbeat.is_alive()


def test_released_job_is_not_heartbeated(tmp_path, beats):
    db_path = tmp_path / "release.db"
    with JobStore(db_path) as store:
        job_id = store.submit(bell_payload(3))
        heartbeat = worker._Heartbeat(str(db_path), "w", lease_timeout=0.2)
        heartbeat.start()
        try:
            store.claim("w", lease_timeout=0.2)
            heartbeat.watch(job_id)
            assert wait_until(lambda: (job_id, True) in beats)
            heartbeat.release()
            count = len(beats)
            time.sleep(5 * heartbeat.interval)
            assert len(beats) == count
        finally:
            heartbeat.stop()

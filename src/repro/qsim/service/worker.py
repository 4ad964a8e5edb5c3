"""Worker fleet: processes that drain the job queue, crash-safely.

A worker is a loop over the :class:`~repro.qsim.service.store.JobStore`:
reclaim expired leases, atomically claim the oldest runnable job, execute
its :class:`~repro.qsim.service.payload.BatchPayload` through the
compiled-circuit cache, and record the outcome.  Everything that makes the
loop safe against crashes and races lives in the store's guarded
transitions; the worker adds the *liveness* half:

* one **heartbeat thread** per worker, started before the first claim
  with its own database connection, extends the lease of the job the
  worker holds every ``lease_timeout / 4`` seconds, so a healthy worker
  can run a job far longer than one lease period; the worker points it at
  each claimed job and takes it off once the job is recorded;
* a worker that dies -- SIGKILL included -- simply stops heartbeating; its
  lease expires and any surviving (or future) worker's
  ``reclaim_expired`` returns the job to the queue, where it is re-run.
  With a seeded payload the re-run is bit-identical to an uninterrupted
  one, because results are only ever written on completion;
* a job that *raises* is retried with exponential backoff
  (``retry_delay * 2**(attempt-1)``) until its attempt budget is spent,
  then parked ``FAILED`` with the formatted traceback as artifact.

:class:`WorkerFleet` spawns N such loops as separate OS processes (real
parallelism, real crash isolation -- the test harness SIGKILLs them).
The ``qutes worker`` CLI verb runs a worker or a fleet from the shell.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import socket
import threading
import time
import traceback
import uuid
from typing import Any, Dict, List, Optional

from .. import telemetry
from .cache import CircuitCache
from .payload import BatchPayload
from .store import JobRecord, JobStore

__all__ = ["execute_payload", "worker_loop", "WorkerFleet", "configure_logging", "logger"]

#: every worker/service module logs through this logger; handlers and level
#: are the *application's* choice (the CLI's --verbose/--quiet flags call
#: :func:`configure_logging`) -- the library itself never calls basicConfig
logger = logging.getLogger("repro.qsim.service")

#: a worker must heartbeat within this window or its job is reclaimed
DEFAULT_LEASE_TIMEOUT = 15.0
#: idle sleep between claim attempts when the queue is empty
DEFAULT_POLL_INTERVAL = 0.2
#: base of the exponential retry backoff
DEFAULT_RETRY_DELAY = 0.5


def configure_logging(verbosity: int = 0) -> None:
    """Wire the service logger to stderr at a verbosity chosen by the CLI.

    ``verbosity`` is the net of ``--verbose``/``--quiet`` flags: 0 logs
    lifecycle events (INFO), positive adds per-claim detail (DEBUG),
    negative keeps only problems (WARNING).  Uses ``logging.basicConfig``,
    so an application that already configured handlers wins.
    """
    if verbosity > 0:
        level = logging.DEBUG
    elif verbosity < 0:
        level = logging.WARNING
    else:
        level = logging.INFO
    logging.basicConfig(format="%(asctime)s %(levelname)s %(name)s %(message)s")
    logger.setLevel(level)


def _new_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def execute_payload(payload: BatchPayload, cache: CircuitCache) -> Dict[str, Any]:
    """Run one payload through the cache and backend; return ``Result.to_dict()``.

    The cache's hit/miss statistics are attached under
    ``metadata["cache"]`` so every job artifact records whether it paid the
    compile pipeline.  Raises whatever the compile or execution raises --
    the caller decides between retry and ``FAILED``.
    """
    from ..backends import StatevectorBackend, build_noisy_backend

    # exactly like the CLI's --backend/--noise/--noise-model flags
    backend = build_noisy_backend(payload.backend, payload.noise_p, payload.noise_channel)
    # the statevector engine's own fusion runs once, in the cache, so the
    # memory layer keeps the circuit the engine would have prepared
    prepared = payload.noise_p is None and isinstance(backend, StatevectorBackend)
    circuits, cache_stats = cache.compile_batch(payload, backend.name, prepared=prepared)
    job = backend.run(
        circuits, shots=payload.shots, seed=payload.seed, memory=payload.memory
    )
    result_dict = job.result().to_dict()
    result_dict["metadata"]["cache"] = cache_stats
    result_dict["metadata"]["payload_metadata"] = payload.metadata
    return result_dict


class _Heartbeat(threading.Thread):
    """Extends the lease of the job its worker holds, until stopped.

    One per worker: it opens its own database connection once, and the
    worker names the job it holds with :meth:`watch` and takes it off with
    :meth:`release`.  Between jobs it only wakes up.
    """

    def __init__(self, db_path: str, worker_id: str, lease_timeout: float):
        super().__init__(daemon=True, name=f"heartbeat-{worker_id}")
        self.db_path = db_path
        self.worker_id = worker_id
        self.lease_timeout = lease_timeout
        self.interval = max(0.05, lease_timeout / 4.0)
        self._job_id: Optional[str] = None
        # held across a beat, so no beat for a job outlives its release()
        self._lock = threading.Lock()
        self._stop_event = threading.Event()

    def watch(self, job_id: str) -> None:
        with self._lock:
            self._job_id = job_id

    def release(self) -> None:
        with self._lock:
            self._job_id = None

    def run(self) -> None:
        store = JobStore(self.db_path)
        try:
            while not self._stop_event.wait(self.interval):
                with self._lock:
                    job_id = self._job_id
                    if job_id is not None and not store.heartbeat(
                        job_id, self.worker_id, self.lease_timeout
                    ):
                        # the job is no longer ours (cancelled or reclaimed)
                        self._job_id = None
        finally:
            store.close()

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)


#: shape version of the per-job telemetry artifact (version 1 also carried a
#: "metrics" snapshot, which its "trace" already yields)
TELEMETRY_ARTIFACT_VERSION = 2


def _process_one(
    store: JobStore,
    cache: CircuitCache,
    heartbeat: _Heartbeat,
    worker_id: str,
    lease_timeout: float,
    retry_delay: float,
) -> bool:
    """Claim the oldest runnable job and run it; ``False`` if there was none.

    The job span opens before the claim, so ``claim`` is the first child
    of the job's trace and the root's wall time is the job's whole recorded
    duration.  A claim that finds nothing leaves no span behind.
    """
    # each job gets a fresh trace: drop roots nobody drained plus any span
    # stack a previous exception may have stranded
    telemetry.clear_spans()
    result_dict = None
    with telemetry.span("job", worker=worker_id) as job_span:
        with telemetry.span("claim"):
            record = store.claim(worker_id, lease_timeout)
        if record is not None:
            logger.debug(
                "event=claim job=%s worker=%s attempt=%d",
                record.job_id, worker_id, record.attempts,
            )
            heartbeat.watch(record.job_id)
            job_span.tag(job_id=record.job_id, attempt=record.attempts)
            result_dict = _run_claimed(store, cache, record, worker_id, retry_delay)
    telemetry.drain_spans()  # the root that just closed: serialized below, if at all
    if result_dict is None:
        return record is not None
    tree = job_span.to_dict()
    artifact = None
    if tree:
        artifact = {
            "version": TELEMETRY_ARTIFACT_VERSION,
            "duration_s": tree["wall_s"],
            "trace": tree,
        }
    # the guarded transition silently drops the result if a cancel or lease
    # reclaim won the race -- exactly what a durable queue must do
    if store.finish(record.job_id, worker_id, result_dict, telemetry=artifact):
        logger.info(
            "event=done job=%s worker=%s attempt=%d wall=%.3fs",
            record.job_id, worker_id, record.attempts, tree.get("wall_s", 0.0),
        )
    else:
        logger.warning(
            "event=dropped job=%s worker=%s reason=lost-ownership", record.job_id, worker_id
        )
    return True


def _run_claimed(
    store: JobStore,
    cache: CircuitCache,
    record: JobRecord,
    worker_id: str,
    retry_delay: float,
) -> Optional[Dict[str, Any]]:
    """The claimed job's result dict, or ``None`` once its failure is recorded."""
    try:
        with telemetry.span("payload.parse"):
            payload = BatchPayload.from_json(record.payload)
        result_dict = execute_payload(payload, cache)
        with telemetry.span("finalize"):
            result_dict["metadata"].update(
                job_id=record.job_id, worker_id=worker_id, attempt=record.attempts
            )
        return result_dict
    except Exception:
        backoff = retry_delay * (2 ** max(0, record.attempts - 1))
        state = store.fail(record.job_id, worker_id, traceback.format_exc(), backoff)
        if state == "FAILED":
            logger.error(
                "event=failed job=%s worker=%s attempt=%d", record.job_id, worker_id,
                record.attempts, exc_info=True,
            )
        else:
            logger.warning(
                "event=retry job=%s worker=%s attempt=%d backoff=%.2fs state=%s",
                record.job_id, worker_id, record.attempts, backoff, state,
            )
        return None


def worker_loop(
    db_path: str,
    worker_id: Optional[str] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    retry_delay: float = DEFAULT_RETRY_DELAY,
    burst: bool = False,
    max_jobs: Optional[int] = None,
) -> int:
    """Drain jobs from *db_path* until stopped; returns jobs processed.

    ``burst=True`` exits as soon as a claim attempt finds the queue empty
    (the mode CI and the benchmark use); otherwise the loop polls forever
    and is meant to be killed.  ``max_jobs`` bounds the number of processed
    jobs either way.
    """
    # import what a job would import lazily -- the backends, the engines'
    # session module and numpy.random -- before the first claim, so a fresh
    # worker's start-up cost lands outside every job's span
    import numpy.random  # noqa: F401

    from .. import backends, shotbatch  # noqa: F401

    worker_id = worker_id or _new_worker_id()
    store = JobStore(db_path)
    cache = CircuitCache(store)
    heartbeat = _Heartbeat(db_path, worker_id, lease_timeout)
    heartbeat.start()
    processed = 0
    logger.info("event=worker-start worker=%s db=%s burst=%s", worker_id, db_path, burst)
    try:
        while max_jobs is None or processed < max_jobs:
            reclaimed = store.reclaim_expired(retry_delay)
            if reclaimed:
                logger.warning("event=reclaimed worker=%s jobs=%d", worker_id, reclaimed)
            try:
                claimed = _process_one(
                    store, cache, heartbeat, worker_id, lease_timeout, retry_delay
                )
            finally:
                heartbeat.release()
            if not claimed:
                if burst:
                    break
                time.sleep(poll_interval)
                continue
            processed += 1
    finally:
        heartbeat.stop()
        store.close()
        logger.info("event=worker-exit worker=%s processed=%d", worker_id, processed)
    return processed


def _fleet_entry(db_path: str, worker_id: str, kwargs: Dict[str, Any]) -> None:
    worker_loop(db_path, worker_id=worker_id, **kwargs)


class WorkerFleet:
    """N worker processes over one database, as a context manager.

    Keyword arguments besides *workers* are forwarded to
    :func:`worker_loop`.  Processes are real OS processes (fork when
    available), so the crash-recovery tests can SIGKILL one and watch the
    survivors reclaim its job.
    """

    def __init__(self, db_path: str, workers: int = 2, **worker_kwargs: Any):
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.db_path = os.fspath(db_path)
        self.worker_kwargs = worker_kwargs
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        self.processes: List[multiprocessing.Process] = [
            context.Process(
                target=_fleet_entry,
                args=(self.db_path, f"fleet-{index}-{uuid.uuid4().hex[:6]}", worker_kwargs),
                name=f"qsim-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]

    def start(self) -> "WorkerFleet":
        for process in self.processes:
            process.start()
        return self

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every worker to exit; ``True`` if all did in time."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for process in self.processes:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            process.join(remaining)
        return all(not process.is_alive() for process in self.processes)

    def terminate(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        self.join(timeout=5.0)

    @property
    def pids(self) -> List[Optional[int]]:
        return [process.pid for process in self.processes]

    def alive(self) -> int:
        return sum(process.is_alive() for process in self.processes)

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.terminate()

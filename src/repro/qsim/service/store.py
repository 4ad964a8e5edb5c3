"""Sqlite-backed durable job store: the service's single source of truth.

One database file holds both tables of the execution service:

* ``jobs`` -- every submitted batch payload with its full lifecycle state
  (``QUEUED -> RUNNING -> DONE / FAILED / CANCELLED``), attempt counter,
  lease bookkeeping and per-job artifacts (the serialized
  :class:`~repro.qsim.result.Result` counts/timing JSON on
  success, the formatted traceback on failure).
* ``compiled_circuits`` -- the persistent layer of the compiled-circuit
  cache (:mod:`~repro.qsim.service.cache`).

Durability and concurrency model
--------------------------------
The database runs in WAL mode with a generous busy timeout, so any number
of submitter/worker/observer *processes* can share one file.  Every state
transition is a single guarded ``UPDATE ... WHERE state = ...`` statement,
which sqlite executes atomically:

* **claim** flips ``QUEUED -> RUNNING`` only if the row is still queued, so
  two workers racing for the same job cannot both win (the loser's UPDATE
  matches zero rows and it moves on to the next candidate);
* **finish** flips ``RUNNING -> DONE`` only if the job is still running
  *and still owned by the finishing worker*, so a ``cancel`` (or a lease
  reclaim) that lands mid-execution wins over the stale worker's result --
  a cancelled job can never end up ``DONE``;
* **reclaim** returns expired ``RUNNING`` leases to ``QUEUED`` (or
  ``FAILED`` once the attempt budget is spent), which is how a SIGKILLed
  worker's job gets re-run by the survivors.

Connections are cheap and per-instance; anything that runs on its own
thread or process (worker loops, heartbeat threads) opens its own
:class:`JobStore` rather than sharing one.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..exceptions import QsimError

__all__ = ["JobRecord", "JobStore", "ServiceError", "JOB_STATES"]

#: every lifecycle state a job can be in
JOB_STATES = ("QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED")

#: states from which no further transition happens
TERMINAL_STATES = ("DONE", "FAILED", "CANCELLED")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id           TEXT PRIMARY KEY,
    state            TEXT NOT NULL
                     CHECK (state IN ('QUEUED','RUNNING','DONE','FAILED','CANCELLED')),
    payload          TEXT NOT NULL,
    created_at       REAL NOT NULL,
    updated_at       REAL NOT NULL,
    not_before       REAL NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    worker_id        TEXT,
    lease_expires_at REAL,
    heartbeat_at     REAL,
    result           TEXT,
    error            TEXT,
    telemetry        TEXT,
    diagnostics      TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim ON jobs (state, not_before, created_at);

CREATE TABLE IF NOT EXISTS compiled_circuits (
    cache_key  TEXT PRIMARY KEY,
    backend    TEXT NOT NULL,
    noise      TEXT NOT NULL,
    qasm       TEXT NOT NULL,
    created_at REAL NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0
);
"""


class ServiceError(QsimError):
    """Raised by the execution service layer (unknown job, bad transition)."""


@dataclass
class JobRecord:
    """One row of the ``jobs`` table, as plain data."""

    job_id: str
    state: str
    payload: str
    created_at: float
    updated_at: float
    not_before: float
    attempts: int
    max_attempts: int
    worker_id: Optional[str]
    lease_expires_at: Optional[float]
    heartbeat_at: Optional[float]
    result: Optional[str]
    error: Optional[str]
    telemetry: Optional[str] = None
    diagnostics: Optional[str] = None

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def result_dict(self) -> Dict[str, Any]:
        """The stored :meth:`Result.to_dict` artifact of a ``DONE`` job."""
        if self.result is None:
            raise ServiceError(
                f"job {self.job_id} has no result (state {self.state})"
            )
        return json.loads(self.result)

    def telemetry_dict(self) -> Dict[str, Any]:
        """The stored telemetry artifact (the job's span tree and duration).

        Raises :class:`ServiceError` when the job has none -- either it is
        not ``DONE`` yet, or it ran with telemetry disabled (or on a build
        that predates the subsystem).
        """
        if self.telemetry is None:
            raise ServiceError(
                f"job {self.job_id} has no telemetry artifact (state {self.state};"
                " jobs record one on completion when telemetry is enabled)"
            )
        return json.loads(self.telemetry)

    def diagnostics_dict(self) -> Dict[str, Any]:
        """The stored submit-time analysis artifact (per-circuit reports).

        Raises :class:`ServiceError` when the job has none -- submitted with
        validation skipped, or recorded by a build that predates the static
        analyzer.  See ``docs/analysis.md`` for the artifact shape.
        """
        if self.diagnostics is None:
            raise ServiceError(
                f"job {self.job_id} has no diagnostics artifact (submitted "
                "with validation skipped, or by an older build)"
            )
        return json.loads(self.diagnostics)


def _row_to_record(row: sqlite3.Row) -> JobRecord:
    return JobRecord(**{key: row[key] for key in row.keys()})


class JobStore:
    """Open (creating if needed) the service database at *path*."""

    def __init__(self, path: str, timeout: float = 10.0):
        self.path = os.fspath(path)
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, isolation_level=None, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
        self._conn.executescript(_SCHEMA)
        self._migrate()

    def _migrate(self) -> None:
        """Bring a database created by an older build up to this schema.

        ``CREATE TABLE IF NOT EXISTS`` leaves pre-existing tables untouched,
        so columns added later (``telemetry``, ``diagnostics``) must be
        grafted onto old databases here.  ``ADD COLUMN`` with no constraints is a pure
        metadata operation in sqlite -- safe on a live multi-process store.
        """
        columns = {
            row["name"] for row in self._conn.execute("PRAGMA table_info(jobs)")
        }
        for column in ("telemetry", "diagnostics"):
            if column in columns:
                continue
            try:
                self._conn.execute(f"ALTER TABLE jobs ADD COLUMN {column} TEXT")
            except sqlite3.OperationalError as exc:  # pragma: no cover - migration race
                # two processes opening an old database concurrently: the
                # loser's duplicate ALTER is harmless
                if "duplicate column" not in str(exc).lower():
                    raise

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        payload_json: str,
        max_attempts: int = 3,
        not_before: float = 0.0,
        diagnostics: Optional[str] = None,
        rejected_error: Optional[str] = None,
    ) -> str:
        """Insert a new ``QUEUED`` job and return its durable id.

        Ids are ``job-<uuid4 hex>``: unique across concurrent submitters
        without any coordination, and the primary-key constraint turns the
        astronomically unlikely collision into a hard error instead of a
        silent overwrite.

        *diagnostics*, when given, is the submit-time analysis artifact
        (serialized JSON) stored on the row.  *rejected_error* inserts the
        job directly as terminal ``FAILED`` with that error text -- this is
        how submit-time validation rejects an error-severity payload while
        still recording it durably: claims only ever select ``QUEUED``
        rows, so a rejected job is never picked up by any worker.
        """
        if max_attempts < 1:
            raise ServiceError("max_attempts must be at least 1")
        job_id = f"job-{uuid.uuid4().hex}"
        now = time.time()
        state = "QUEUED" if rejected_error is None else "FAILED"
        self._conn.execute(
            "INSERT INTO jobs (job_id, state, payload, created_at, updated_at,"
            " not_before, max_attempts, diagnostics, error)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                job_id,
                state,
                payload_json,
                now,
                now,
                not_before,
                max_attempts,
                diagnostics,
                rejected_error,
            ),
        )
        return job_id

    # -- inspection --------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"no such job: {job_id}")
        return _row_to_record(row)

    def list_jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        if state is not None and state not in JOB_STATES:
            raise ServiceError(f"unknown job state {state!r} (choose from {JOB_STATES})")
        if state is None:
            rows = self._conn.execute("SELECT * FROM jobs ORDER BY created_at").fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE state = ? ORDER BY created_at", (state,)
            ).fetchall()
        return [_row_to_record(row) for row in rows]

    def stats(self) -> Dict[str, Any]:
        """Queue health snapshot: per-state counts, depth, cache statistics.

        ``job_cache`` aggregates the per-job cache hit/miss metadata across
        every ``DONE`` job, so the fleet-wide hit-rate (the number the
        compiled-circuit cache exists to maximise) is one ``queue-stats``
        away instead of buried in individual job artifacts.
        """
        counts = {state: 0 for state in JOB_STATES}
        for row in self._conn.execute("SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"):
            counts[row["state"]] = row["n"]
        oldest = self._conn.execute(
            "SELECT MIN(created_at) AS t FROM jobs WHERE state = 'QUEUED'"
        ).fetchone()["t"]
        cache = self._conn.execute(
            "SELECT COUNT(*) AS n, COALESCE(SUM(hits), 0) AS hits FROM compiled_circuits"
        ).fetchone()
        job_cache = {"hits": 0, "misses": 0, "corrupt": 0, "jobs": 0}
        for row in self._conn.execute("SELECT result FROM jobs WHERE state = 'DONE'"):
            try:
                per_job = json.loads(row["result"])["metadata"]["cache"]
            except (TypeError, KeyError, ValueError):
                continue  # a DONE job recorded by an older build, or hand-edited
            job_cache["jobs"] += 1
            for key in ("hits", "misses", "corrupt"):
                job_cache[key] += int(per_job.get(key, 0))
        lookups = job_cache["hits"] + job_cache["misses"]
        job_cache["hit_rate"] = (job_cache["hits"] / lookups) if lookups else None
        return {
            "states": counts,
            "queued_depth": counts["QUEUED"],
            "oldest_queued_age": None if oldest is None else max(0.0, time.time() - oldest),
            "cache_entries": cache["n"],
            "cache_disk_hits": cache["hits"],
            "job_cache": job_cache,
        }

    # -- worker-side transitions -------------------------------------------------

    def claim(self, worker_id: str, lease_timeout: float) -> Optional[JobRecord]:
        """Atomically claim the oldest runnable ``QUEUED`` job, or ``None``.

        The guarded UPDATE is the atomicity point: even if many workers pick
        the same candidate row, exactly one UPDATE finds it still ``QUEUED``.
        The claim increments ``attempts`` and takes a lease of
        *lease_timeout* seconds, to be extended by heartbeats.
        """
        now = time.time()
        candidates = self._conn.execute(
            "SELECT job_id FROM jobs WHERE state = 'QUEUED' AND not_before <= ?"
            " ORDER BY created_at, job_id LIMIT 8",
            (now,),
        ).fetchall()
        for row in candidates:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = 'RUNNING', worker_id = ?,"
                " attempts = attempts + 1, lease_expires_at = ?, heartbeat_at = ?,"
                " updated_at = ? WHERE job_id = ? AND state = 'QUEUED'",
                (worker_id, now + lease_timeout, now, now, row["job_id"]),
            )
            if cursor.rowcount == 1:
                return self.get(row["job_id"])
        return None

    def heartbeat(self, job_id: str, worker_id: str, lease_timeout: float) -> bool:
        """Extend the lease of a job this worker is still running.

        Returns ``False`` when the job is no longer this worker's to run
        (cancelled, reclaimed after a lease expiry, ...) -- the worker
        should abandon the execution's result.
        """
        now = time.time()
        cursor = self._conn.execute(
            "UPDATE jobs SET lease_expires_at = ?, heartbeat_at = ?, updated_at = ?"
            " WHERE job_id = ? AND state = 'RUNNING' AND worker_id = ?",
            (now + lease_timeout, now, now, job_id, worker_id),
        )
        return cursor.rowcount == 1

    def finish(
        self,
        job_id: str,
        worker_id: str,
        result: Dict[str, Any],
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Record a successful execution: ``RUNNING -> DONE`` with artifacts.

        Guarded on both state and ownership, so a cancel or reclaim that
        raced the execution wins and the stale result is dropped (the
        ``False`` return tells the worker its work was discarded).
        *telemetry*, when given, is the worker's per-job observability
        artifact -- the job's span tree and its duration -- stored alongside
        the result and surfaced by the ``trace`` / ``metrics`` CLI verbs.
        """
        cursor = self._conn.execute(
            "UPDATE jobs SET state = 'DONE', result = ?, error = NULL, telemetry = ?,"
            " updated_at = ?, lease_expires_at = NULL WHERE job_id = ?"
            " AND state = 'RUNNING' AND worker_id = ?",
            (
                json.dumps(result),
                None if telemetry is None else json.dumps(telemetry),
                time.time(),
                job_id,
                worker_id,
            ),
        )
        return cursor.rowcount == 1

    def fail(
        self,
        job_id: str,
        worker_id: str,
        error: str,
        retry_delay: float = 0.0,
    ) -> Optional[str]:
        """Record a failed attempt; retry with backoff or go ``FAILED``.

        While attempts remain the job returns to ``QUEUED`` with
        ``not_before = now + retry_delay``; once the attempt budget is spent
        it goes terminal ``FAILED``.  Either way the traceback artifact is
        stored.  Returns the resulting state, or ``None`` when the job was
        no longer this worker's to fail (same ownership guard as
        :meth:`finish`).
        """
        now = time.time()
        cursor = self._conn.execute(
            "UPDATE jobs SET"
            " state = CASE WHEN attempts >= max_attempts THEN 'FAILED' ELSE 'QUEUED' END,"
            " not_before = CASE WHEN attempts >= max_attempts THEN not_before ELSE ? END,"
            " error = ?, worker_id = NULL, lease_expires_at = NULL, updated_at = ?"
            " WHERE job_id = ? AND state = 'RUNNING' AND worker_id = ?",
            (now + retry_delay, error, now, job_id, worker_id),
        )
        if cursor.rowcount != 1:
            return None
        return self.get(job_id).state

    def reclaim_expired(self, retry_delay: float = 0.0) -> int:
        """Return expired ``RUNNING`` leases to the queue (crash recovery).

        A worker that died (or lost its heartbeat) leaves its job
        ``RUNNING`` with a lease in the past; any surviving worker calls
        this before claiming.  Jobs with attempts left are re-queued after
        *retry_delay*; jobs whose budget is spent go ``FAILED`` with a
        descriptive error artifact.  Returns the number of reclaimed rows.
        """
        now = time.time()
        cursor = self._conn.execute(
            "UPDATE jobs SET"
            " state = CASE WHEN attempts >= max_attempts THEN 'FAILED' ELSE 'QUEUED' END,"
            " not_before = CASE WHEN attempts >= max_attempts THEN not_before ELSE ? END,"
            " error = CASE WHEN attempts >= max_attempts THEN"
            "   'lease expired after ' || attempts || ' attempt(s); worker ' ||"
            "   COALESCE(worker_id, '?') || ' presumed dead' ELSE error END,"
            " worker_id = NULL, lease_expires_at = NULL, updated_at = ?"
            " WHERE state = 'RUNNING' AND lease_expires_at < ?",
            (now + retry_delay, now, now),
        )
        return cursor.rowcount

    # -- user-side transitions ---------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not finished; ``True`` if this call won.

        ``QUEUED`` and ``RUNNING`` jobs flip to ``CANCELLED``; the ownership
        guards on :meth:`finish`/:meth:`fail` then make the stale worker's
        outcome a no-op, so a cancelled job can never become ``DONE``.
        Cancelling a terminal job returns ``False`` and changes nothing.
        """
        cursor = self._conn.execute(
            "UPDATE jobs SET state = 'CANCELLED', worker_id = NULL,"
            " lease_expires_at = NULL, updated_at = ?"
            " WHERE job_id = ? AND state IN ('QUEUED', 'RUNNING')",
            (time.time(), job_id),
        )
        return cursor.rowcount == 1

    # -- retention ---------------------------------------------------------------

    def purge(self, older_than: float) -> int:
        """Delete terminal ``DONE``/``CANCELLED`` jobs older than a TTL.

        *older_than* is an age in seconds measured against ``updated_at``
        (the moment the job went terminal); ``0`` purges every finished and
        cancelled job.  Artifacts (result, error, telemetry) go with the
        row -- this is the retention/GC half of the durable queue.
        ``FAILED`` jobs are deliberately kept: their traceback artifact is
        the only record of what went wrong, so disposing of them is an
        explicit operator decision (cancel semantics do not apply either).
        Returns the number of deleted rows.
        """
        if older_than < 0:
            raise ServiceError("older_than must be >= 0 seconds")
        cursor = self._conn.execute(
            "DELETE FROM jobs WHERE state IN ('DONE', 'CANCELLED') AND updated_at < ?",
            (time.time() - older_than,),
        )
        return cursor.rowcount

    # -- telemetry artifacts -------------------------------------------------------

    def telemetry_traces(self) -> Iterator[Dict[str, Any]]:
        """The persisted span tree of every ``DONE`` job.

        What the ``metrics`` CLI verb counts
        (:func:`repro.qsim.telemetry.export.metrics_from_traces`).  Jobs
        without an artifact (telemetry disabled, older builds) or with an
        unreadable one are skipped.
        """
        for row in self._conn.execute(
            "SELECT telemetry FROM jobs WHERE state = 'DONE' AND telemetry IS NOT NULL"
        ):
            try:
                trace = json.loads(row["telemetry"]).get("trace")
            except ValueError:
                continue
            if trace:
                yield trace

    # -- compiled-circuit cache rows ---------------------------------------------

    def cache_get(self, cache_key: str) -> Optional[str]:
        """The stored compiled QASM for *cache_key*, bumping its hit counter."""
        row = self._conn.execute(
            "SELECT qasm FROM compiled_circuits WHERE cache_key = ?", (cache_key,)
        ).fetchone()
        if row is None:
            return None
        self._conn.execute(
            "UPDATE compiled_circuits SET hits = hits + 1 WHERE cache_key = ?",
            (cache_key,),
        )
        return row["qasm"]

    def cache_put(self, cache_key: str, backend: str, noise: str, qasm: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO compiled_circuits"
            " (cache_key, backend, noise, qasm, created_at, hits)"
            " VALUES (?, ?, ?, ?, ?, COALESCE("
            "   (SELECT hits FROM compiled_circuits WHERE cache_key = ?), 0))",
            (cache_key, backend, noise, qasm, time.time(), cache_key),
        )

    def cache_delete(self, cache_key: str) -> None:
        self._conn.execute(
            "DELETE FROM compiled_circuits WHERE cache_key = ?", (cache_key,)
        )

    def __repr__(self) -> str:
        return f"JobStore(path={self.path!r})"

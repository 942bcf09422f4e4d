"""The service job queue: run IDs, worker threads, restartable jobs.

:class:`JobQueue` is the layer between the HTTP API and the scheduler
(:mod:`repro.sched`).  A submission (:class:`~repro.service.spec.SweepSpec`)
becomes a :class:`Job` with a queue-assigned id; ``workers`` background
threads drain the queue (``repro-serve --workers N``), each running its
job as a claim consumer: the job's
:class:`~repro.perf.parallel.SweepPoint` batch becomes PENDING rows of
a claim store — the durable ledger when one is configured — and
:func:`~repro.perf.parallel.run_points` claims, dispatches, and records
them under a :class:`~repro.sched.ClaimSession` wired to the job's
cancel event.

The ledger being the source of truth is what makes jobs *restartable*:
job rows (spec + lifecycle state) and point rows (per-point claims and
results) both live in the database, so a restarted server re-adopts
unfinished jobs on :meth:`JobQueue.start` — DONE points are taken as-is
from their stored results, PENDING and expired-CLAIMED points are
re-claimed and run, and the job completes as if the crash never
happened.  For the same reason an external ``repro-worker`` process
attached to the same ledger can shard a running job's points with the
service's own workers.

Job lifecycle state machine::

    QUEUED ──▶ RUNNING ──▶ DONE
       │          ├──────▶ FAILED
       └──────────┴──────▶ CANCELLED

* ``QUEUED -> CANCELLED``: a ``DELETE`` before a worker picks the
  job up; nothing ever simulates.
* ``RUNNING -> CANCELLED``: the cancel event is a claim-revocation
  trigger — the session releases its claims, revokes the job's
  remaining PENDING rows (so no other worker picks them up), and the
  sweep stops at the next point boundary.  Points already simulated
  stay in the run cache (a resubmission replays them) but the job
  serves no results.
* Terminal states never transition again; cancelling a terminal job
  is a no-op returning False.

Sweeps still parallelize *inside* a job via ``run_points(jobs=N)``;
``workers`` controls how many jobs run concurrently.  Repeat
submissions of an identical spec remain the cheap path: every point
hits the on-disk run cache, so the "sweep" collapses into
ledger-recorded replays.
"""

from __future__ import annotations

import json
import os
import platform
import queue
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..obs.ledger import LedgerSchemaError, RunLedger, ledger_to
from ..obs.metrics import METRICS
from ..obs.progress import PROGRESS, tracking
from ..perf.parallel import run_points
from ..sched import ClaimSession, MemoryClaimStore, SweepCancelled
from .spec import SweepSpec, point_rows, result_row


class JobState:
    """Lifecycle states (plain strings — they serialize as-is)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job never leaves.
    TERMINAL = (DONE, FAILED, CANCELLED)


class Job:
    """One submission's mutable record (guarded by the queue's lock)."""

    def __init__(self, job_id: str, spec: Optional[SweepSpec],
                 submitted_at: Optional[float] = None,
                 stored_spec: Optional[str] = None):
        self.job_id = job_id
        #: None only for a job adopted with an unparseable stored spec,
        #: which is FAILED on adoption and keeps ``stored_spec`` instead
        self.spec = spec
        self.stored_spec = stored_spec
        self.spec_fingerprint = (
            spec.fingerprint() if spec is not None else None
        )
        self.state = JobState.QUEUED
        self.submitted_at = (
            time.time() if submitted_at is None else submitted_at
        )
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.cancel_event = threading.Event()
        self.points_total = 0
        self.skipped: List[Tuple[str, str]] = []
        #: final progress snapshot (live snapshots come from the session)
        self.progress: Optional[dict] = None
        #: deterministic results payload, set only on DONE
        self.results: Optional[dict] = None
        #: cache-verdict counts for this job's points
        self.cache_counts: Dict[str, int] = {}
        #: the live claim session while RUNNING (None otherwise)
        self.session: Optional[ClaimSession] = None
        #: True when this Job was re-adopted from the ledger on restart
        self.adopted = False


class JobQueue:
    """Accepts sweep specs, runs them on worker threads, serves state.

    ``cache_dir`` is the shared on-disk run cache every job's points
    consult (the cache-hit fast path for repeat submissions);
    ``ledger_path`` the durable ledger database each job's points,
    claim rows and lifecycle records land in; ``jobs`` the per-sweep
    worker-process fan-out passed to :func:`run_points`; ``workers``
    the number of queue worker threads (concurrent jobs).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        ledger_path: Optional[str] = None,
        jobs: int = 1,
        workers: int = 1,
    ):
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.ledger_path = (
            str(ledger_path) if ledger_path is not None else None
        )
        self.jobs = max(1, int(jobs))
        self.workers = max(1, int(workers))
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._ledger = (
            RunLedger(self.ledger_path)
            if self.ledger_path is not None else None
        )
        self._recovered = False
        # The ledger/progress global scopes are process-wide; with
        # N workers they are entered once by the first running job and
        # left by the last, so one job finishing can never disable
        # them under a sibling still running.
        self._scope_lock = threading.Lock()
        self._scope_depth = 0
        self._scope_cms: list = []

    # ---- lifecycle ----------------------------------------------------------

    def start(self) -> "JobQueue":
        """Start the worker threads (idempotent); adopt unfinished jobs.

        With a ledger configured, the first start re-enqueues every
        job the database still records as QUEUED or RUNNING — the
        restart-resume path: their claim rows are still there, so DONE
        points replay from their stored results and only the remainder
        simulates.  Raises :class:`~repro.obs.ledger.LedgerSchemaError`
        (before any worker starts) when the ledger carries a newer
        schema: every job would fail on it.
        """
        self._recover()
        self._stop.clear()
        self._threads = [t for t in self._threads if t.is_alive()]
        for index in range(len(self._threads), self.workers):
            thread = threading.Thread(
                target=self._work,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop draining the queue; optionally join the workers."""
        self._stop.set()
        for _ in range(max(1, len(self._threads))):
            self._queue.put(None)  # wake blocked workers
        if wait:
            deadline = time.monotonic() + timeout
            for thread in self._threads:
                if thread.is_alive():
                    thread.join(
                        timeout=max(0.0, deadline - time.monotonic())
                    )

    def _recover(self) -> None:
        """Re-adopt QUEUED/RUNNING jobs from the ledger (once).

        A row whose stored spec no longer parses is adopted as a FAILED
        job carrying the parse message — terminal and visible, never
        left QUEUED with no job behind it.
        """
        if self._ledger is None or self._recovered:
            self._recovered = True
            return
        try:
            rows = self._ledger.job_rows(
                states=(JobState.QUEUED, JobState.RUNNING)
            )
        except LedgerSchemaError:
            raise
        except Exception:
            rows = []  # an unreadable ledger has nothing to adopt
        self._recovered = True
        for row in rows:
            spec, error = _stored_spec(row["spec"])
            job = Job(
                row["job_id"], spec, submitted_at=row.get("submitted_at"),
                stored_spec=row["spec"] if spec is None else None,
            )
            job.adopted = True
            with self._lock:
                if job.job_id in self._jobs:
                    continue
                self._jobs[job.job_id] = job
                if error is not None:
                    job.error = error
                    self._finish(job, JobState.FAILED)
            self._persist(job)
            if error is None:
                self._queue.put(job.job_id)
            if METRICS.enabled:
                METRICS.inc("service.jobs.adopted")

    # ---- submission / control ----------------------------------------------

    def submit(self, spec: SweepSpec) -> Job:
        """Enqueue one sweep; returns its :class:`Job` immediately."""
        job = Job(uuid.uuid4().hex, spec)
        with self._lock:
            self._jobs[job.job_id] = job
        self._persist(job)
        self._queue.put(job.job_id)
        if METRICS.enabled:
            METRICS.inc("service.jobs.submitted")
        return job

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable.

        A queued job is cancelled on the spot; a running job's cancel
        event revokes its claims at the next point boundary.  Terminal
        jobs return False.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state in JobState.TERMINAL:
                return False
            job.cancel_event.set()
            if job.state == JobState.QUEUED:
                self._finish(job, JobState.CANCELLED)
        self._persist(job)
        if METRICS.enabled:
            METRICS.inc("service.jobs.cancel_requested")
        return True

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def job_ids(self) -> List[str]:
        """Submission order is not preserved; sort by submit stamp."""
        with self._lock:
            jobs = list(self._jobs.values())
        jobs.sort(key=lambda j: (j.submitted_at, j.job_id))
        return [j.job_id for j in jobs]

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (the ``/healthz`` summary)."""
        with self._lock:
            jobs = list(self._jobs.values())
        counts: Dict[str, int] = {}
        for job in jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return dict(sorted(counts.items()))

    # ---- views --------------------------------------------------------------

    def status(self, job_id: str) -> dict:
        """The ``GET /jobs/{id}`` document for one job.

        While the job runs, ``progress`` is composed from its claim
        session's store — per-point rows with durable claim state — so
        the snapshot is correct even with several jobs running and
        external workers sharding the sweep.  That store read runs
        outside the queue lock.
        """
        job = self.get(job_id)
        with self._lock:
            state = job.state
            session = job.session
            doc = {
                "job_id": job.job_id,
                "state": state,
                "spec": (
                    job.spec.to_dict() if job.spec is not None
                    else job.stored_spec
                ),
                "spec_fingerprint": job.spec_fingerprint,
                "submitted_at": job.submitted_at,
                "started_at": job.started_at,
                "finished_at": job.finished_at,
                "duration_seconds": (
                    job.finished_at - job.started_at
                    if job.finished_at is not None
                    and job.started_at is not None else None
                ),
                "points_total": job.points_total,
                "skipped": [list(pair) for pair in job.skipped],
                "error": job.error,
                "progress": job.progress,
                "cache": dict(job.cache_counts),
            }
        if state == JobState.RUNNING:
            # Outside the lock: the snapshot is a ledger read, and
            # polls must not serialize submit/_finish behind it.
            doc["progress"] = (
                session.progress_snapshot(doc["started_at"])
                if session is not None else self._live_progress(job)
            )
        return doc

    def _live_progress(self, job: Job) -> dict:
        state = PROGRESS.get_current_state()
        total = max(job.points_total, state["completed"])
        remaining = max(0, total - state["completed"])
        rate = state["points_per_second"]
        state["total"] = total
        state["eta_seconds"] = remaining / rate if rate > 0 else None
        return state

    def results(self, job_id: str) -> dict:
        """The deterministic results payload of a DONE job.

        Raises :class:`KeyError` for unknown ids and
        :class:`LookupError` while the job is not (or never will be)
        done — the HTTP layer maps these to 404/409.
        """
        job = self.get(job_id)
        with self._lock:
            if job.state != JobState.DONE or job.results is None:
                raise LookupError(
                    f"job {job_id} has no results (state: {job.state})"
                )
            return job.results

    def results_page(self, job_id: str, offset: int = 0) -> dict:
        """One ``GET /jobs/{id}/results?offset=N`` page.

        Streams the completed prefix of a *running* job straight from
        its claim rows (rows are served in point order, so the pages a
        client accumulates concatenate into exactly the final
        ``rows``), and slices the final payload once the job is DONE.
        ``next_offset`` is where the client should poll next;
        ``complete`` tells it when to stop.

        Raises :class:`LookupError` (409) for FAILED/CANCELLED jobs —
        same contract as :meth:`results`.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        job = self.get(job_id)
        with self._lock:
            state = job.state
            session = job.session
            if state == JobState.DONE and job.results is not None:
                rows = job.results["rows"]
                page = rows[offset:]
                return {
                    "job_id": job.job_id,
                    "state": state,
                    "total": len(rows),
                    "offset": offset,
                    "next_offset": len(rows),
                    "complete": True,
                    "rows": page,
                }
            if state in JobState.TERMINAL:
                raise LookupError(
                    f"job {job_id} has no results (state: {state})"
                )
            total = job.points_total
        # QUEUED or RUNNING: serve the contiguous done-prefix.
        rows: List[dict] = []
        done_prefix = 0
        if session is not None:
            try:
                point_rows_ = session.store.point_rows(
                    job_id, with_result=True
                )
            except Exception:
                point_rows_ = []
            by_seq = {row["seq"]: row for row in point_rows_}
            while True:
                row = by_seq.get(done_prefix)
                if row is None or row["status"] != "done":
                    break
                done_prefix += 1
                if done_prefix > offset:
                    payload = session.payload_from_row(row)
                    rows.append(result_row(job.spec.backend, payload))
        return {
            "job_id": job.job_id,
            "state": state,
            "total": total,
            "offset": offset,
            "next_offset": max(offset, done_prefix),
            "complete": False,
            "rows": rows,
        }

    # ---- the workers --------------------------------------------------------

    def _work(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if job_id is None:  # shutdown sentinel
                continue
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state != JobState.QUEUED:
                    continue  # cancelled while queued, or stale
                job.state = JobState.RUNNING
                job.started_at = time.time()
            self._persist(job)
            try:
                self._run_job(job)
            except Exception as exc:  # the queue must survive any job
                with self._lock:
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.session = None
                    self._finish(job, JobState.FAILED)
                self._persist(job)

    @contextmanager
    def _global_scopes(self):
        """Process-global ledger/progress scoping, refcounted.

        ``ledger_to`` and ``tracking`` flip process-wide state; with
        ``workers > 1`` a naive per-job ``with`` would restore it when
        the *first* job finishes, silently disabling the ledger and
        tracker under every job still running.  The refcount enters
        the scopes with the first running job and exits with the last.
        """
        with self._scope_lock:
            self._scope_depth += 1
            if self._scope_depth == 1:
                cms = []
                if self.ledger_path is not None:
                    cms.append(ledger_to(self.ledger_path))
                cms.append(tracking())
                for cm in cms:
                    cm.__enter__()
                self._scope_cms = cms
        try:
            yield
        finally:
            with self._scope_lock:
                self._scope_depth -= 1
                if self._scope_depth == 0:
                    cms, self._scope_cms = self._scope_cms, []
                    for cm in reversed(cms):
                        cm.__exit__(None, None, None)

    def _session_for(self, job: Job) -> ClaimSession:
        store = self._ledger if self._ledger is not None else (
            MemoryClaimStore()
        )
        worker_id = (
            f"{platform.node()}:{os.getpid()}:"
            f"{threading.current_thread().name}"
        )
        return ClaimSession(
            store,
            job_id=job.job_id,
            worker_id=worker_id,
            cancel_check=lambda: (
                job.cancel_event.is_set() or self._stop.is_set()
            ),
        )

    def _run_job(self, job: Job) -> None:
        points, skipped = job.spec.build_points(
            cache_dir=self.cache_dir, ledger_path=self.ledger_path
        )
        with self._lock:
            job.points_total = len(points)
            job.skipped = skipped
        session = self._session_for(job)
        with self._lock:
            job.session = session
        cancelled: Optional[SweepCancelled] = None
        results: list = []
        try:
            with self._global_scopes():
                try:
                    results = run_points(
                        points, jobs=self.jobs, session=session
                    )
                except SweepCancelled as exc:
                    cancelled = exc
            snapshot = session.progress_snapshot(job.started_at)
            cache_counts = self._cache_counts(job, session)
        finally:
            with self._lock:
                job.session = None
            session.close()
        with self._lock:
            job.progress = snapshot
            job.cache_counts = cache_counts
            if cancelled is not None:
                job.error = str(cancelled)
                self._finish(job, JobState.CANCELLED)
            else:
                job.results = {
                    "spec_fingerprint": job.spec_fingerprint,
                    "backend": job.spec.backend,
                    "num_points": len(points),
                    "skipped": [list(pair) for pair in skipped],
                    "rows": point_rows(points, results),
                }
                self._finish(job, JobState.DONE)
        self._persist(job)
        if cancelled is None and METRICS.enabled:
            METRICS.inc("service.points.simulated", len(points))
            hits = job.cache_counts.get("hit", 0)
            if hits:
                METRICS.inc("service.cache_hits", hits)

    def _finish(self, job: Job, state: str) -> None:
        """Terminal transition (caller holds the lock)."""
        job.state = state
        job.finished_at = time.time()
        if METRICS.enabled:
            METRICS.inc(f"service.jobs.{state}")

    def _persist(self, job: Job) -> None:
        """Mirror the job's lifecycle row into the ledger (best effort)."""
        if self._ledger is None:
            return
        try:
            self._ledger.upsert_job({
                "job_id": job.job_id,
                "spec": (
                    json.dumps(job.spec.to_dict(), sort_keys=True)
                    if job.spec is not None else job.stored_spec
                ),
                "source": "service",
                "state": job.state,
                "submitted_at": job.submitted_at,
                "started_at": job.started_at,
                "finished_at": job.finished_at,
                "error": job.error,
                "points_total": job.points_total,
            })
        except Exception:
            pass  # lifecycle mirroring must never fail a request

    def _cache_counts(
        self, job: Job, session: ClaimSession
    ) -> Dict[str, int]:
        """Cache-verdict counts for one job's points.

        The claim rows carry per-point verdicts when the serial
        consumer (or an external worker) ran them; when every point
        has one, that *is* the job's account.  Pool-dispatched points
        carry no verdict, so the ledger's runs-table window is the
        fallback.  Returns {} when nothing is available — accounting
        must never fail a job.
        """
        try:
            verdicts = session.cache_verdicts()
        except Exception:
            verdicts = {}
        if job.points_total and (
            sum(verdicts.values()) >= job.points_total
        ):
            return verdicts
        if self.ledger_path is None or job.started_at is None:
            return verdicts or {}
        try:
            return RunLedger(self.ledger_path).cache_counts(
                since=job.started_at
            )
        except Exception:
            return verdicts or {}


def _stored_spec(text) -> Tuple[Optional[SweepSpec], Optional[str]]:
    """Parse a ledger job row's spec: ``(spec, None)`` or ``(None, error)``.

    Specs stored while the service still accepted an ``engine_core``
    field carry that key; it selects nothing any more, so it is dropped
    here (and only here — a new submission naming it is rejected).
    """
    try:
        doc = json.loads(text)
        if isinstance(doc, dict):
            doc.pop("engine_core", None)
        return SweepSpec.from_dict(doc), None
    except (ValueError, TypeError, KeyError) as exc:
        return None, f"unparseable stored spec: {exc}"


__all__ = ["Job", "JobQueue", "JobState"]

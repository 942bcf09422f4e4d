"""Fault injection: the performance layer under deliberate damage.

The run cache and the parallel dispatcher both promise *graceful
degradation* — a corrupt disk entry is a miss, a broken worker pool
falls back to the serial loop, an interrupt propagates promptly and
never leaves a torn cache file behind.  This module makes those promises
testable:

* :func:`inject_cache_faults` mutates on-disk :class:`~repro.perf.cache.
  RunCache` entries per a :class:`FaultPlan` — random bytes, truncation,
  schema/field mismatches, non-dict JSON documents;
* :func:`run_fault_suite` runs four end-to-end scenarios (corrupted
  cache, dying worker pool, mid-sweep KeyboardInterrupt, a ledger
  stamped with another schema) and reports a :class:`FaultCheck`
  verdict for each — pristine-identical results or a clear error,
  never wrong answers.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sqlite3
import tempfile
import time
from pathlib import Path
from typing import Iterator, List, Optional, Union


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """How many cache entries to damage, and how.

    The four counts partition the victim files (chosen deterministically
    from ``seed``); a count larger than the remaining population just
    takes what is left.
    """

    corrupt_entries: int = 0      # overwrite with non-JSON bytes
    truncate_entries: int = 0     # cut the file mid-document
    mismatch_entries: int = 0     # valid JSON dict, wrong/missing fields
    non_dict_entries: int = 0     # valid JSON, but an array not a dict
    seed: int = 0


@dataclasses.dataclass
class FaultCheck:
    """Verdict of one fault scenario."""

    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _cache_files(cache_dir: Union[str, Path]) -> List[Path]:
    """Every committed entry file, in deterministic order."""
    return sorted(Path(cache_dir).glob("*/*.json"))


def inject_cache_faults(
    cache_dir: Union[str, Path], plan: FaultPlan
) -> int:
    """Damage on-disk cache entries per the plan; returns files mutated."""
    files = _cache_files(cache_dir)
    rng = random.Random(plan.seed)
    rng.shuffle(files)
    mutated = 0
    victims: Iterator[Path] = iter(files)

    def take(count: int) -> List[Path]:
        return list(itertools.islice(victims, count))

    for path in take(plan.corrupt_entries):
        path.write_bytes(b"\x00\xffnot json at all\x80" * 3)
        mutated += 1
    for path in take(plan.truncate_entries):
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
        mutated += 1
    for path in take(plan.mismatch_entries):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("cycles", None)            # missing required field
        doc["no_such_field"] = 1           # unexpected extra field
        path.write_text(json.dumps(doc), encoding="utf-8")
        mutated += 1
    for path in take(plan.non_dict_entries):
        path.write_text("[1, 2, 3]", encoding="utf-8")
        mutated += 1
    return mutated


def _sample_points(cache_dir: Optional[str]) -> list:
    from ..machine.config import named_config
    from ..machine.params import MachineParams
    from ..perf.parallel import SweepPoint

    params = MachineParams()
    return [
        SweepPoint(kernel=name, config=named_config(cfg), params=params,
                   records=12, workload_seed=3, cache_dir=cache_dir)
        for name, cfg in [("convert", "S-O"), ("fft", "S"),
                          ("md5", "baseline"), ("fft", "M")]
    ]


def check_cache_corruption(plan: Optional[FaultPlan] = None) -> FaultCheck:
    """Corrupt every kind of disk damage; results must equal pristine."""
    from ..perf.parallel import simulate_point

    with tempfile.TemporaryDirectory() as tmp:
        points = _sample_points(tmp)
        pristine = [simulate_point(p) for p in points]
        files = _cache_files(tmp)
        if not files:
            return FaultCheck("cache-corruption", False,
                              "no cache entries were written to damage")
        if plan is None:
            plan = FaultPlan(corrupt_entries=1, truncate_entries=1,
                             mismatch_entries=1, non_dict_entries=1)
        mutated = inject_cache_faults(tmp, plan)
        # Fresh RunCache instances per call (simulate_point constructs
        # its own), so damaged files must degrade to misses and the
        # points re-simulate to pristine-identical results.
        damaged = [simulate_point(p) for p in points]
        if damaged != pristine:
            return FaultCheck("cache-corruption", False,
                              "results diverged after cache damage")
        repaired = _cache_files(tmp)
        return FaultCheck(
            "cache-corruption", True,
            f"{mutated}/{len(files)} entries damaged; all {len(points)} "
            "points re-simulated to identical results "
            f"({len(repaired)} entries now on disk)",
        )


def check_worker_failure(jobs: int = 4) -> FaultCheck:
    """A pool whose workers die must fall back to the serial loop."""
    from concurrent.futures.process import BrokenProcessPool

    from ..perf import parallel

    class DyingPool:
        """Stands in for ProcessPoolExecutor; every map breaks."""

        def __init__(self, max_workers=None):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            raise BrokenProcessPool("worker died during fault drill")

    points = _sample_points(None)
    serial = parallel.run_points(points, jobs=1)
    original = parallel.ProcessPoolExecutor
    original_cpus = parallel.os.cpu_count
    parallel.ProcessPoolExecutor = DyingPool
    # Single-CPU hosts clamp to one worker and never try the pool; the
    # drill needs the pool path, so pin a multi-CPU view for its scope.
    parallel.os.cpu_count = lambda: max(jobs, 2)
    try:
        degraded = parallel.run_points(points, jobs=jobs)
        dispatch = parallel.LAST_DISPATCH
    except BrokenProcessPool:
        return FaultCheck("worker-failure", False,
                          "BrokenProcessPool leaked out of run_points")
    finally:
        parallel.ProcessPoolExecutor = original
        parallel.os.cpu_count = original_cpus
    if dispatch is None or dispatch.mode != "pool-fallback":
        mode = dispatch.mode if dispatch else "none"
        return FaultCheck("worker-failure", False,
                          f"expected pool-fallback dispatch, got {mode}")
    if degraded != serial:
        return FaultCheck("worker-failure", False,
                          "fallback results diverged from the serial loop")
    return FaultCheck(
        "worker-failure", True,
        f"pool of {jobs} died; dispatch degraded to pool-fallback with "
        f"results identical to the serial loop over {len(points)} points",
    )


def check_interrupt(after_points: int = 2) -> FaultCheck:
    """A mid-sweep KeyboardInterrupt propagates; the cache stays clean."""
    from ..perf import parallel

    with tempfile.TemporaryDirectory() as tmp:
        points = _sample_points(tmp)
        original = parallel.simulate_point
        calls = {"n": 0}

        def interrupting(point):
            calls["n"] += 1
            if calls["n"] > after_points:
                raise KeyboardInterrupt
            return original(point)

        parallel.simulate_point = interrupting
        try:
            parallel.run_points(points, jobs=1)
        except KeyboardInterrupt:
            interrupted = True
        else:
            interrupted = False
        finally:
            parallel.simulate_point = original
        if not interrupted:
            return FaultCheck("interrupt", False,
                              "KeyboardInterrupt did not propagate")
        # Atomic write-then-rename means every committed file must parse.
        torn = []
        for path in _cache_files(tmp):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(doc, dict):
                    torn.append(path.name)
            except ValueError:
                torn.append(path.name)
        stray = [p.name for p in Path(tmp).glob("*/.tmp-*")]
        if torn or stray:
            return FaultCheck("interrupt", False,
                              f"torn entries {torn}, stray temps {stray}")
        committed = len(_cache_files(tmp))
        return FaultCheck(
            "interrupt", True,
            f"interrupt after {after_points} points propagated; "
            f"{committed} committed entries all parse, no stray temps",
        )


#: A ledger file as schema 2 wrote it: ``runs`` still has the
#: ``engine_core`` column that schema 3 dropped.
_SCHEMA2_DDL = """
CREATE TABLE runs (
    run_id TEXT PRIMARY KEY, created_at REAL NOT NULL, host TEXT,
    "user" TEXT, pid INTEGER, git_sha TEXT, backend TEXT,
    engine_core TEXT, kernel TEXT, config TEXT, records INTEGER,
    params TEXT, fingerprint TEXT, cache TEXT, sanitizer TEXT,
    cycles INTEGER, useful_ops INTEGER, wall_seconds REAL, phases TEXT,
    metrics TEXT
);
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);
CREATE TABLE jobs (
    job_id TEXT PRIMARY KEY, spec TEXT, source TEXT, state TEXT,
    submitted_at REAL, started_at REAL, finished_at REAL, error TEXT,
    points_total INTEGER
);
"""


def _stamped_ledger(path: str, schema: int, ddl: str = "") -> None:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(
            ddl or "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);"
        )
        conn.execute("INSERT INTO meta VALUES ('schema', ?)", (str(schema),))
        conn.commit()
    finally:
        conn.close()


def check_ledger_schema(timeout: float = 120.0) -> FaultCheck:
    """A ledger stamped newer refuses to start; a schema-2 one adopts.

    Two checks.  A service queue on a ledger stamped with a newer
    schema must fail at start-up with :class:`LedgerSchemaError` and
    start no worker.  A hand-built schema-2 ledger holding a QUEUED job
    whose spec still carries ``"engine_core": null`` must open, be
    restamped to the current schema, and finish the adopted job DONE
    with rows equal to a serial run.
    """
    from ..obs.ledger import LEDGER_SCHEMA, LedgerSchemaError
    from ..perf.parallel import simulate_point
    from ..service.jobs import JobQueue, JobState
    from ..service.spec import SweepSpec, point_rows

    name = "ledger-schema"
    with tempfile.TemporaryDirectory() as tmp:
        newer = str(Path(tmp) / "newer.sqlite")
        _stamped_ledger(newer, LEDGER_SCHEMA + 1)
        queue = JobQueue(ledger_path=newer)
        try:
            queue.start()
        except LedgerSchemaError:
            if queue._threads:
                return FaultCheck(name, False,
                                  "workers started on a newer ledger")
        else:
            queue.shutdown(wait=True, timeout=10.0)
            return FaultCheck(name, False,
                              "a newer-schema ledger started serving")

        legacy = str(Path(tmp) / "schema2.sqlite")
        _stamped_ledger(legacy, 2, _SCHEMA2_DDL)
        doc = {"kernels": ["convert"], "configs": ["baseline", "S"],
               "records": 8}
        stored = dict(SweepSpec.from_dict(doc).to_dict(), engine_core=None)
        conn = sqlite3.connect(legacy)
        conn.execute(
            "INSERT INTO jobs (job_id, spec, source, state, submitted_at) "
            "VALUES ('legacy', ?, 'service', 'queued', ?)",
            (json.dumps(stored, sort_keys=True), time.time()),
        )
        conn.commit()
        conn.close()
        points, _ = SweepSpec.from_dict(doc).build_points()
        serial = point_rows(points, [simulate_point(p) for p in points])

        queue = JobQueue(cache_dir=str(Path(tmp) / "cache"),
                         ledger_path=legacy)
        try:
            queue.start()
            deadline = time.monotonic() + timeout
            while (queue.get("legacy").state not in JobState.TERMINAL
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            job = queue.get("legacy")
            rows = queue.results("legacy")["rows"] \
                if job.state == JobState.DONE else None
        except Exception as exc:
            return FaultCheck(name, False,
                              f"schema-2 ledger failed: {exc!r}")
        finally:
            queue.shutdown(wait=True, timeout=10.0)
        if job.state != JobState.DONE:
            return FaultCheck(name, False,
                              f"adopted job ended {job.state}: {job.error}")
        if rows != serial:
            return FaultCheck(name, False,
                              "adopted job rows diverged from a serial run")
        conn = sqlite3.connect(legacy)
        try:
            stamp = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()[0]
            legacy_cells = conn.execute(
                "SELECT COUNT(*) FROM runs WHERE engine_core IS NOT NULL"
            ).fetchone()[0]
        finally:
            conn.close()
        if stamp != str(LEDGER_SCHEMA) or legacy_cells:
            return FaultCheck(
                name, False,
                f"schema-2 ledger left stamped {stamp!r} with "
                f"{legacy_cells} non-NULL engine_core cells",
            )
    return FaultCheck(
        name, True,
        f"schema {LEDGER_SCHEMA + 1} stamp refused at start; schema-2 ledger "
        f"restamped {LEDGER_SCHEMA} and its queued job finished DONE with "
        f"{len(rows)} rows equal to a serial run",
    )


def run_fault_suite(jobs: int = 4) -> List[FaultCheck]:
    """All four fault scenarios, in order."""
    return [
        check_cache_corruption(),
        check_worker_failure(jobs=jobs),
        check_interrupt(),
        check_ledger_schema(),
    ]

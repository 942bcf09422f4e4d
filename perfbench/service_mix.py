"""The service-mix workload: a closed loop of clients against repro-serve.

Two client threads share one ``repro-serve --workers 2`` process with a
fresh ledger and cache.  A job is one paper domain's kernels × the
baseline and Table 5 configurations at 128 records.  Each client first
submits two domains cold (together the four cold jobs are the whole
78-point sweep); after a barrier, clients rotate through the domains
replaying the cached specs, and every 8th submission of a client uses
a fresh seed so that it misses the cache.

Job latency is POST→DONE taken from the server's ``finished_at`` stamp,
so it does not depend on the client's poll interval.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

import tracer
from child import rows_digest

RECORDS = 128
LANES = 2
SERVER_WORKERS = 2
#: client status poll interval (ServiceClient.wait's default); job latency
#: comes from the server's finished_at stamp, so it does not depend on it
POLL_S = 0.05
FRESH_EVERY = 8
#: a measuring window needs this many hit jobs (p90 has 10 beyond it)
MIN_HITS = 100
JOB_TIMEOUT_S = 60.0
HARD_LIMIT_S = 100.0


def domains() -> List[tuple]:
    """(domain name, kernel names) in Table 1 order."""
    from repro.kernels.registry import TABLE1_ORDER, spec

    grouped: Dict[str, list] = {}
    for name in TABLE1_ORDER:
        s = spec(name)
        if s.in_performance_suite:
            grouped.setdefault(s.domain.value, []).append(name)
    return list(grouped.items())


def configs() -> List[str]:
    from repro.machine.config import TABLE5_CONFIGS

    return ["baseline"] + [c.name for c in TABLE5_CONFIGS]


def fresh_seed(seed: int, lane: int, k: int) -> int:
    """A cache-missing spec seed, distinct per bench seed, lane and k."""
    return 100_000 * (seed + 1) + 1_000 * lane + k


def reference_rows(kernels, seed: int) -> list:
    """The spec's rows from the in-process serial path (no service)."""
    from repro.harness.experiments import ExperimentContext
    from repro.machine.config import named_config
    from repro.service.spec import result_row

    ctx = ExperimentContext(
        records=RECORDS, large_kernel_records=max(16, RECORDS // 4),
        seed=seed,
    )
    rows = []
    for name in kernels:
        for config_name in configs():
            config = named_config(config_name)
            if ctx.supports(name, config):
                rows.append(result_row("grid", ctx.run(name, config)))
    return rows


# ---- the server process ------------------------------------------------------


class Server:
    """One ``repro-serve`` process on a free port."""

    def __init__(self, root: str, work: str, env: dict,
                 trace_dump: Optional[str] = None):
        os.makedirs(work, exist_ok=True)
        cmd = [sys.executable, os.path.join(root, "perfbench", "serve.py")]
        if trace_dump:
            cmd += ["--trace-dump", trace_dump]
        cmd += ["--", "--port", "0", "--workers", str(SERVER_WORKERS),
                "--cache-dir", os.path.join(work, "cache"),
                "--ledger", os.path.join(work, "ledger.sqlite")]
        self.trace_dump = trace_dump
        self._stderr = open(os.path.join(work, "serve.stderr"), "wb")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"repro-serve did not start: {line!r}")
            self.url = line.split()[-1]
            deadline = time.monotonic() + 60.0
            while not self._healthy():
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("repro-serve never became healthy")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _healthy(self) -> bool:
        try:
            with urllib.request.urlopen(self.url + "/healthz",
                                        timeout=1.0) as rsp:
                return rsp.status == 200
        except (urllib.error.URLError, OSError):
            return False

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> Optional[dict]:
        """Stop the server; returns its span snapshot when traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        if self.trace_dump and os.path.exists(self.trace_dump):
            with open(self.trace_dump, encoding="utf-8") as fh:
                return json.load(fh)
        return None


# ---- the client loop ----------------------------------------------------------


class Loop:
    """The closed loop of ``LANES`` client threads against one server."""

    def __init__(self, url: str, seed: int, seconds: float,
                 min_hits: int, traced: bool):
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
        self.seed = seed
        self.seconds = seconds
        self.min_hits = min_hits
        self.domains = domains()
        self.lock = threading.Lock()
        self.jobs: List[dict] = []
        self.hits = 0
        self.requests = 0
        self.http_failures = 0
        self.barrier = threading.Barrier(LANES)
        call = (lambda layer, fn: tracer.span(layer, fn)) if traced else (
            lambda layer, fn: fn)
        self.submit = call("http.post", self.client.submit)
        self.status = call("http.status", self.client.status)
        self.results = call("http.results", self.client.results)
        self.sleep = call("http.poll_sleep", time.sleep)

    def spec(self, domain: int, seed: int) -> dict:
        return {"kernels": self.domains[domain][1], "configs": configs(),
                "records": RECORDS, "seed": seed}

    def _request(self, fn, *args):
        with self.lock:
            self.requests += 1
        try:
            return fn(*args)
        except (OSError, RuntimeError, ValueError) as exc:
            with self.lock:
                self.http_failures += 1
            raise _JobFailed(str(exc)) from None

    def _job(self, lane: int, domain: int, seed: int, kind: str) -> None:
        record = {"lane": lane, "domain": self.domains[domain][0],
                  "seed": seed, "kind": kind, "ok": False, "polls": 0}
        try:
            record["post_at"] = time.time()
            job_id = self._request(self.submit, self.spec(domain, seed))[
                "job_id"]
            deadline = time.monotonic() + JOB_TIMEOUT_S
            while True:
                self.sleep(POLL_S)
                status = self._request(self.status, job_id)
                record["polls"] += 1
                if status["state"] in ("done", "failed", "cancelled"):
                    break
                if time.monotonic() > deadline:
                    raise _JobFailed(f"job {job_id} timed out")
            for stamp in ("submitted_at", "started_at", "finished_at"):
                record[stamp] = status[stamp]
            if status["state"] != "done":
                raise _JobFailed(status.get("error") or status["state"])
            rows = self._request(self.results, job_id)["rows"]
            record["digest"] = rows_digest(rows)
            record["points"] = len(rows)
            record["sim_cycles"] = sum(r["cycles"] for r in rows)
            record["useful_ops"] = sum(r["useful_ops"] for r in rows)
            record["job_id"] = job_id
            record["ok"] = True
        except _JobFailed as exc:
            record["error"] = str(exc)
        except Exception as exc:  # a lane must finish its loop
            record["error"] = f"{type(exc).__name__}: {exc}"
        with self.lock:
            self.jobs.append(record)
            if record["ok"] and kind == "hit":
                self.hits += 1

    def _lane(self, lane: int) -> None:
        for domain in (2 * lane, 2 * lane + 1):
            self._job(lane, domain, self.seed, "cold")
        self.barrier.wait()
        k = 0
        while True:
            now = time.monotonic()
            with self.lock:
                enough = self.hits >= self.min_hits
            if now >= self.hard_deadline or (now >= self.deadline and enough):
                return
            # The extra step every FRESH_EVERY submissions moves the
            # cache-missing slot on to the next domain.
            domain = (k + 2 * lane + k // FRESH_EVERY) % len(self.domains)
            if k % FRESH_EVERY == FRESH_EVERY - 1:
                self._job(lane, domain, fresh_seed(self.seed, lane, k), "miss")
            else:
                self._job(lane, domain, self.seed, "hit")
            k += 1

    def run(self) -> None:
        started = time.monotonic()
        self.deadline = started + self.seconds
        self.hard_deadline = started + max(self.seconds, HARD_LIMIT_S)
        threads = [
            threading.Thread(target=self._lane, args=(lane,),
                             name=f"lane-{lane}")
            for lane in range(LANES)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


class _JobFailed(Exception):
    pass


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(loop: Loop) -> dict:
    """End-to-end metrics of one finished loop."""
    done = [j for j in loop.jobs if j["ok"]]
    lat = {j_kind: [j["finished_at"] - j["post_at"] for j in done
                    if j["kind"] == j_kind] for j_kind in ("hit", "miss",
                                                           "cold")}
    hits = sorted(lat["hit"])
    misses = lat["miss"] + lat["cold"]
    per_domain = {}
    for name, _ in loop.domains:
        values = [j["finished_at"] - j["post_at"] for j in done
                  if j["kind"] == "hit" and j["domain"] == name]
        if values:
            per_domain[name] = statistics.median(values)
    start = min(j["post_at"] for j in loop.jobs)
    end = max(j["finished_at"] for j in done) if done else start
    window = end - start
    return {
        "jobs": len(loop.jobs),
        "jobs_done": len(done),
        "hit_jobs": len(hits),
        "miss_jobs": len(misses),
        "window_s": window,
        "sweep_s": sum(per_domain.values()),
        "hit_job_p50_s": percentile(hits, 50),
        "hit_job_p90_s": percentile(hits, 90),
        "miss_job_p50_s": statistics.median(misses) if misses else 0.0,
        "jobs_per_s": len(done) / window if window > 0 else 0.0,
        "queue_wait_s": sum(j["started_at"] - j["submitted_at"]
                            for j in done),
        "run_s": sum(j["finished_at"] - j["started_at"] for j in done),
        "polls_per_job": (sum(j["polls"] for j in done) / len(done)
                          if done else 0.0),
        "requests": loop.requests,
        "http_failures": loop.http_failures,
    }


def check(loop: Loop, expected: Dict[str, str], cache: dict) -> dict:
    """Correctness of every job of a loop.

    Jobs must be DONE; every job of one spec must serve the same rows;
    each spec's rows must match the digest recorded for it, or (for a
    spec without one) the rows of the in-process serial path.
    ``cache`` memoizes reference digests across loops of one run.
    """
    failed = sum(1 for j in loop.jobs if not j["ok"])
    by_spec: Dict[tuple, set] = {}
    for j in loop.jobs:
        if j["ok"]:
            by_spec.setdefault((j["domain"], j["seed"]), set()).add(
                j["digest"])
    kernels = dict(loop.domains)
    mismatched = []
    for (domain, seed), digests in sorted(by_spec.items()):
        want = expected.get(domain) if seed == loop.seed else None
        if want is None:
            key = (domain, seed)
            if key not in cache:
                cache[key] = rows_digest(reference_rows(kernels[domain], seed))
            want = cache[key]
        if digests != {want}:
            mismatched.append(f"{domain}@{seed}")
    return {
        "attempted": len(loop.jobs) + loop.requests + len(by_spec),
        "failed": failed + loop.http_failures + len(mismatched),
        "errors": [j["error"] for j in loop.jobs if not j["ok"]],
        "mismatched_specs": mismatched,
        "checked_specs": len(by_spec),
        "recorded_specs": sum(
            1 for (d, s) in by_spec if s == loop.seed and d in expected),
    }


def hit_rotation_counts(loop: Loop, server_snap: dict) -> tuple:
    """Exact per-job work counters of hit jobs, summed over one rotation.

    Returns ``(counts, repeat_failures)``: every hit job of a domain
    must count the same work; each domain that does not is a failure.
    """
    per_job = server_snap["job_counts"]
    total: Dict[str, int] = {}
    failures = 0
    for name, _ in loop.domains:
        jobs = [j for j in loop.jobs
                if j["ok"] and j["kind"] == "hit" and j["domain"] == name]
        if not jobs:
            continue
        seen = {json.dumps(per_job.get(j["job_id"], {}), sort_keys=True)
                for j in jobs}
        if len(seen) != 1:
            failures += 1
        counts = dict(per_job.get(jobs[0]["job_id"], {}))
        counts["work.points"] = jobs[0]["points"]
        counts["work.sim_cycles"] = jobs[0]["sim_cycles"]
        counts["work.useful_ops"] = jobs[0]["useful_ops"]
        for k, v in counts.items():
            total[k] = total.get(k, 0) + v
    return total, failures

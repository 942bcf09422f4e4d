"""The repository benchmark: three workloads, end-to-end and per layer.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload paper-full --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``paper-full``  – the default ``repro-experiments`` run, serial, ledger
  on, in a fresh process with an empty cache; stdout must be
  byte-identical to ``perfbench/paper_full_stdout.txt``.
* ``mimd-stream`` – every (kernel, M or M-D) point at 2048 records
  through ``ExperimentContext.run_many`` on ``nproc`` pool workers.
* ``service-mix`` – two closed-loop clients against
  ``repro-serve --workers 2`` (see :mod:`service_mix`).

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, whose ``*_s`` rows plus ``unattributed_s`` add up to
``wall_s``, and the tracing overhead.  The last stdout line is the
result object; a full report is written under ``.perfbench_runs/``.

All times are host time.  The simulator's model is unvalidated
against hardware: correctness here means "same outputs as the
reference run", and paper-shape accuracy stays with ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("paper-full", "mimd-stream", "service-mix")
END_TO_END = {
    "setup_s": "s", "sweep_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB",
}
#: batch iterations per untraced run, at least (medians need several)
MIN_ITERATIONS = 3
#: server start-ups per untraced service-mix run (setup_s is their median)
SERVER_STARTS = 5
CHILD_TIMEOUT_S = 170.0
#: batch passes of a --trace 1 run: untraced and traced, interleaved
TRACE_PASSES = (False, True, False, True)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_LEDGER", None)
    env.pop("REPRO_ENGINE_CORE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_context() -> dict:
    """Host and source facts that help read noise later."""
    import numpy

    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---- batch workloads (paper-full, mimd-stream) ------------------------------------


def run_child(workload: str, seed: int, trace: bool, work: str,
              jobs: int) -> Optional[dict]:
    """One fresh-process iteration; None (and a note on stderr) if it failed."""
    os.makedirs(work)
    cfg = {"workload": workload, "seed": seed, "trace": trace,
           "workdir": work, "jobs": jobs, "spawned": time.monotonic()}
    # A session of its own, so that a timeout also ends the pool workers.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} iteration timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} iteration failed "
              f"(exit {proc.returncode}):\n{stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Batch:
    """Iterations of one batch workload plus their correctness account."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.jobs = (os.cpu_count() or 1) if workload == "mimd-stream" else 1
        self.points_per_iteration = 78 if workload == "paper-full" else 26
        self.expected = self._expected_output()
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.n = 0

    def _expected_output(self) -> Optional[str]:
        if self.workload == "paper-full":
            with open(os.path.join(HERE, "paper_full_stdout.txt"), "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()
        return load_expected()["mimd-stream"].get(str(self.seed))

    def iteration(self, trace: bool) -> Optional[dict]:
        self.n += 1
        out = run_child(self.workload, self.seed, trace,
                        os.path.join(self.work, f"it{self.n}"), self.jobs)
        self.attempted += self.points_per_iteration + 1
        if out is None:
            self.failed += self.points_per_iteration + 1
            self.notes.append(f"iteration {self.n} failed")
        elif out["exit_code"] != 0:
            self.failed += 1
            self.notes.append(f"iteration {self.n} exit {out['exit_code']}")
        return out

    def check(self, outs: List[dict]) -> None:
        """Compare every iteration's output with the expected one."""
        key = "stdout_sha256" if self.workload == "paper-full" else (
            "rows_digest")
        want = self.expected
        if want is None:
            # No digest recorded for this seed: the serial in-context
            # path is the reference for the pool path.
            ref = run_child(self.workload, self.seed, False,
                            os.path.join(self.work, "reference"), 1)
            self.attempted += 1
            if ref is None:
                self.failed += 1
                self.notes.append("reference run failed")
                return
            want = ref[key]
            self.notes.append("reference: serial in-context run")
        else:
            self.notes.append("reference: recorded digest")
        for i, out in enumerate(outs, 1):
            if out[key] != want:
                self.failed += 1
                self.notes.append(f"output mismatch in iteration {i}")


def batch_measure(workload: str, seed: int, seconds: float,
                  work: str) -> dict:
    from service_mix import percentile

    batch = Batch(workload, seed, work)
    outs: List[dict] = []
    started = time.monotonic()
    while (len(outs) < MIN_ITERATIONS
           or time.monotonic() - started < seconds):
        out = batch.iteration(trace=False)
        if out is None:
            break
        outs.append(out)
    batch.check(outs)
    sweeps = [o["sweep_s"] for o in outs]
    points = sum(o["points"] for o in outs)
    metrics = {
        "setup_s": median([o["setup_s"] for o in outs]),
        "sweep_s": median(sweeps),
        "jobs_per_s": points / sum(sweeps) if sweeps else 0.0,
        "peak_rss_mb": median([o["peak_rss_mb"] for o in outs]),
    }
    detail = {
        "iterations": len(outs),
        "sweep_s_all": sweeps,
        "setup_s_all": [o["setup_s"] for o in outs],
        "work": {k: outs[0][k] for k in ("points", "sim_cycles",
                                         "useful_ops")} if outs else {},
    }
    point_s = [t for o in outs for t in o["point_s"].values()]
    batch.notes.append(
        f"simulated points: {len(point_s)}, per-point wall p50 "
        f"{percentile(point_s, 50):.4f} s, p90 {percentile(point_s, 90):.4f} s")
    return {"metrics": metrics, "detail": detail, "attempted":
            batch.attempted, "failed": batch.failed, "notes": batch.notes}


def batch_trace(workload: str, seed: int, work: str) -> dict:
    from layers import COUNTERS, batch_table, layer_metrics, mean_table

    batch = Batch(workload, seed, work)
    plain: List[dict] = []
    traced: List[dict] = []
    for trace in TRACE_PASSES:
        out = batch.iteration(trace=trace)
        if out is not None:
            (traced if trace else plain).append(out)
    batch.check(plain + traced)
    tables = [batch_table(out) for out in traced]
    if not tables:
        return {"metrics": {}, "attempted": batch.attempted,
                "failed": batch.failed, "notes": batch.notes}
    counts = [{k: t["counts"].get(k, 0) for k in COUNTERS} for t in tables]
    batch.attempted += 1
    if any(c != counts[0] for c in counts):
        batch.failed += 1
        batch.notes.append("work counters differ between traced passes")
    table = mean_table(tables)
    metrics = layer_metrics(table)
    metrics.update(counts[0])
    metrics.update(tables[0]["ratios"])
    metrics["trace.overhead_ratio"] = (
        statistics.mean(o["sweep_s"] for o in traced)
        / statistics.mean(o["sweep_s"] for o in plain) - 1.0
        if plain else 0.0)
    return {"metrics": metrics, "attempted": batch.attempted,
            "failed": batch.failed, "notes": batch.notes,
            "table": table, "detail": {"tables": tables}}


# ---- service-mix ------------------------------------------------------------------


def service_measure(seed: int, seconds: float, work: str) -> dict:
    import service_mix as sm

    expected = load_expected()["service-mix"].get(str(seed), {})
    setups = []
    server = None
    for i in range(SERVER_STARTS):
        server = sm.Server(ROOT, os.path.join(work, f"serve{i}"), child_env())
        setups.append(server.setup_s)
        if i < SERVER_STARTS - 1:
            server.stop()
    try:
        loop = sm.Loop(server.url, seed, seconds, sm.MIN_HITS, traced=False)
        loop.run()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    summary = sm.summarize(loop)
    verdict = sm.check(loop, expected, {})
    metrics = {
        "setup_s": median(setups),
        "sweep_s": summary["sweep_s"],
        "jobs_per_s": summary["jobs_per_s"],
        "peak_rss_mb": rss,
    }
    notes = [
        f"hit jobs: {summary['hit_jobs']}, POST->DONE p50 "
        f"{summary['hit_job_p50_s']:.4f} s, p90 "
        f"{summary['hit_job_p90_s']:.4f} s",
        f"miss jobs: {summary['miss_jobs']}, POST->DONE p50 "
        f"{summary['miss_job_p50_s']:.4f} s",
        f"{verdict['checked_specs']} specs checked, "
        f"{verdict['recorded_specs']} against recorded digests",
    ]
    notes += [f"rows mismatch: {m}" for m in verdict["mismatched_specs"]]
    notes += [f"job failed: {e}" for e in verdict["errors"][:5]]
    if summary["hit_jobs"] < sm.MIN_HITS:
        notes.append(f"only {summary['hit_jobs']} hit jobs")
    return {"metrics": metrics, "attempted": verdict["attempted"],
            "failed": verdict["failed"], "notes": notes,
            "detail": {"summary": summary, "setup_s_all": setups,
                       "poll_s": sm.POLL_S}}


def service_trace(seed: int, seconds: float, work: str) -> dict:
    import service_mix as sm
    import tracer
    from layers import COUNTERS, layer_metrics, ratios, service_table

    expected = load_expected()["service-mix"].get(str(seed), {})
    half = max(1.0, seconds / 2.0)
    references: dict = {}
    attempted = failed = 0
    notes: List[str] = []
    runs = {}
    for traced in (False, True):
        dump = os.path.join(work, "server-trace.json") if traced else None
        server = sm.Server(ROOT, os.path.join(work, f"serve-{traced}"),
                           child_env(), trace_dump=dump)
        if traced:
            tracer.REC = tracer.Recorder()
        try:
            loop = sm.Loop(server.url, seed, half, 0, traced=traced)
            loop.run()
        finally:
            server_snap = server.stop()
        verdict = sm.check(loop, expected, references)
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        notes += [f"rows mismatch: {m}" for m in verdict["mismatched_specs"]]
        notes += [f"job failed: {e}" for e in verdict["errors"][:5]]
        runs[traced] = (loop, sm.summarize(loop), server_snap)
    loop, summary, server_snap = runs[True]
    client_snap = tracer.REC.snapshot()
    table = service_table(client_snap, server_snap, sm.LANES,
                          summary["window_s"], summary["queue_wait_s"])
    counts, repeat_failures = sm.hit_rotation_counts(loop, server_snap)
    attempted += 1
    if repeat_failures:
        failed += 1
        notes.append(f"hit-job counters differ in {repeat_failures} domains")
    metrics = layer_metrics(table)
    metrics.update({k: counts.get(k, 0) for k in COUNTERS})
    # Distinct streams and fingerprints are known for the whole window
    # only, so the ratios use the window's counts.
    _, window_counts, _ = tracer.merge_threads([server_snap])
    metrics.update(ratios(window_counts, [server_snap]))
    metrics["parallel.busy_ratio"] = 0.0
    c_self, _, _ = tracer.merge_threads([client_snap])
    per_lane = sm.LANES * table["wall_s"]
    metrics.update({
        "http.status_share": c_self.get("http.status", 0.0) / per_lane,
        "service.handler_share": table["handler_s"] / table["wall_s"],
        "service.run_share": summary["run_s"] / per_lane,
        "http.polls_per_job": summary["polls_per_job"],
    })
    notes.append(f"poll interval {sm.POLL_S:g} s; latencies from the "
                 "server's finished_at")
    plain_rate = runs[False][1]["jobs_per_s"]
    metrics["trace.overhead_ratio"] = (
        plain_rate / summary["jobs_per_s"] - 1.0
        if summary["jobs_per_s"] else 0.0)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "notes": notes, "table": table,
            "detail": {"table": table, "summary": summary}}


# ---- output -----------------------------------------------------------------------


def per_layer_spec() -> List[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # Users do not recompile on every run: fill the bytecode cache first
    # so that set-up times never include it.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    os.environ.pop("REPRO_LEDGER", None)
    os.environ.pop("REPRO_ENGINE_CORE", None)

    context = run_context()
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload == "service-mix":
            result = (service_trace if args.trace else service_measure)(
                args.seed, args.seconds, work)
        elif args.trace:
            result = batch_trace(args.workload, args.seed, work)
        else:
            result = batch_measure(args.workload, args.seed, args.seconds,
                                   work)
    except Exception:  # report the failure in the result line
        traceback.print_exc()
        result = {"metrics": {}, "attempted": 1, "failed": 1,
                  "notes": ["the workload raised; traceback on stderr"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_after"] = os.getloadavg()

    if args.trace:
        # Layers a workload bypasses read 0.
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
    else:
        units = END_TO_END
        missing = [name for name in units if name not in result["metrics"]]
        if missing:
            result["failed"] += 1
            result["notes"].append(f"metrics not measured: {missing}")
    metrics = {name: {"value": result["metrics"].get(name, 0.0),
                      "unit": unit} for name, unit in units.items()}
    attempted = max(1, result["attempted"])
    failed = result["failed"]
    correct = failed == 0

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("  host time throughout; the simulator is unvalidated against "
          "hardware (paper-shape accuracy: benchmarks/)")
    for key, value in context.items():
        print(f"  {key:<16} {value}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {name:<28} {shown} {metric['unit']}")
    print(f"  correct          {correct}")
    print(f"  error_rate       {failed / attempted:.6f} "
          f"({failed} failed / {attempted} attempted)")
    for note in result["notes"]:
        print(f"  note: {note}")
    if "table" in result:
        from layers import format_table

        print("  per-layer self time (traced pass):")
        for line in format_table(result["table"]):
            print(line)

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "context": context, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "notes": result["notes"],
              "detail": result.get("detail", {})}
    runs = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(runs, f"{args.workload}-s{args.seed}-"
                           f"t{args.trace}-{stamp}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh-process iteration of a batch workload.

Run by ``perfbench/run.py`` as ``python3 perfbench/child.py CONFIG``
where CONFIG is a JSON object.  The process imports ``repro``, builds
the kernel registry (that is its set-up), runs one sweep and prints a
single JSON line with its timings, its outputs and, when traced, its
per-thread span snapshots.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sqlite3  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

#: mimd-stream record budget; large kernels follow the CLI rule
#: ``max(16, records // 4)``.
MIMD_RECORDS = 2048
MIMD_CONFIGS = ("M", "M-D")


def rows_digest(rows) -> str:
    """sha256 of the canonical JSON of a list of result rows."""
    encoded = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` × the largest child's."""
    own_kb = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + workers * child_kb) / 1024.0


def paper_full(cfg: dict, runner) -> dict:
    work = cfg["workdir"]
    argv = ["--cache-dir", os.path.join(work, "cache"),
            "--ledger", os.path.join(work, "ledger.sqlite")]
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = runner.main(argv)
    sweep_s = time.perf_counter() - started
    text = out.getvalue().encode("utf-8")
    with contextlib.closing(
            sqlite3.connect(os.path.join(work, "ledger.sqlite"))) as db:
        runs = db.execute(
            "SELECT wall_seconds, cycles, useful_ops, fingerprint FROM runs "
            "WHERE cache = 'miss'").fetchall()
    return {
        "exit_code": code,
        "sweep_s": sweep_s,
        "stdout_sha256": hashlib.sha256(text).hexdigest(),
        "point_s": {r[3]: r[0] for r in runs},
        "points": len(runs),
        "sim_cycles": sum(r[1] for r in runs),
        "useful_ops": sum(r[2] for r in runs),
        "workers": 1,
    }


def mimd_stream(cfg: dict) -> dict:
    from repro.harness.experiments import ExperimentContext
    from repro.kernels.registry import TABLE1_ORDER, spec
    from repro.machine.config import named_config
    from repro.perf import parallel
    from repro.service.spec import result_row

    started = time.perf_counter()
    ctx = ExperimentContext(
        records=MIMD_RECORDS,
        large_kernel_records=max(16, MIMD_RECORDS // 4),
        seed=cfg["seed"],
        jobs=cfg["jobs"],
    )
    pairs = [
        (name, named_config(c))
        for name in TABLE1_ORDER if spec(name).in_performance_suite
        for c in MIMD_CONFIGS
        if ctx.supports(name, named_config(c))
    ]
    results = ctx.run_many(pairs)
    sweep_s = time.perf_counter() - started
    rows = [result_row("grid", results[(n, c.name)]) for n, c in pairs]
    dispatch = parallel.LAST_DISPATCH
    return {
        "exit_code": 0,
        "sweep_s": sweep_s,
        "rows_digest": rows_digest(rows),
        "point_s": {"|".join(k): v for k, v in ctx.point_seconds.items()},
        "points": len(rows),
        "sim_cycles": sum(r["cycles"] for r in rows),
        "useful_ops": sum(r["useful_ops"] for r in rows),
        "workers": dispatch.workers if dispatch is not None else 1,
        "pool_s": dispatch.wall_seconds if dispatch is not None else 0.0,
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    # Set-up is what repro-experiments itself imports.
    import repro.harness.runner as runner
    kreg = sys.modules["repro.kernels.registry"]
    imported = time.monotonic()

    spool = os.path.join(cfg["workdir"], "spool")
    if cfg["trace"]:
        os.makedirs(spool, exist_ok=True)
        tracer.install(spool)
    kreg.registry()
    ready = time.monotonic()

    if cfg["workload"] == "paper-full":
        out = paper_full(cfg, runner)
    else:
        out = mimd_stream(cfg)
    finished = time.monotonic()
    out.update({
        "setup_s": ready - cfg["spawned"],
        "import_s": imported - _STARTED,
        "wall_s": finished - _STARTED,
        "peak_rss_mb": peak_rss_mb(out["workers"]),
    })
    if cfg["trace"]:
        out["trace"] = tracer.REC.snapshot()
        out["worker_traces"] = tracer.load_spool(spool)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Performance-layer benchmark: phase timings and ``BENCH_perf.json``.

Measures the experiment pipeline end to end and emits a machine-readable
report:

* **cold_serial** — a fresh :class:`~repro.harness.experiments.ExperimentContext`
  regenerating Figure 5, Table 4 and Table 6 with every simulation point
  run serially (the pre-optimization workflow);
* **warm_memory** — the same experiment set repeated on the now-warm
  context, so every point is an in-memory cache hit;
* **cold_parallel** — a fresh context with ``jobs > 1`` fanning the
  sweep over a process pool (skipped when ``jobs <= 1``);
* **disk_replay** — a fresh context replaying every point from the
  on-disk cache tier (skipped without ``--cache-dir``).

``--repeats N`` re-measures the cold serial phase N times on fresh
contexts (window cache and SoA counters reset, private disk-cache
subdirectories) and reports per-phase medians — use it on noisy hosts
where a single cold run is not trustworthy.

The report also carries the cache hit/miss accounting, the SoA
fused/built/reused window counters and the wall seconds of every
individual simulation point, so regressions can be attributed to a
specific (kernel, configuration) pair.  For a true cold
measurement pass a fresh (or absent) cache directory — a pre-populated
one turns the "cold" phase into a disk replay.

Run as ``python -m repro.harness.bench`` (or the ``repro-bench``
console script); the default output file is ``BENCH_perf.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

from ..machine.fastcore import reset_soa_counters, soa_counters
from ..machine.window_cache import SHARED_WINDOW_CACHE
from ..obs.ledger import LEDGER, add_ledger_arguments, configure_from_args
from ..obs.metrics import Histogram
from ..perf import parallel
from ..perf.cache import RunCache
from ..perf.phases import measuring
from . import experiments
from .profiling import add_profile_arguments, profiled

#: Report format version (bump on incompatible layout changes).
BENCH_SCHEMA = 1


def _median(values: List[float]) -> float:
    """Median of a non-empty list (mean of the middle pair when even)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class PhaseTimer:
    """Names wall-clock phases and records their durations in order."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def measure(self, name: str, fn) -> float:
        """Run ``fn()`` and record its wall duration under ``name``."""
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        self.seconds[name] = elapsed
        return elapsed


def _run_all(ctx: experiments.ExperimentContext) -> None:
    """Regenerate the full simulated experiment set on one context."""
    experiments.figure5(ctx)
    experiments.table4(ctx)
    experiments.table6(ctx)


def bench_experiments(
    records: int = 512,
    large_kernel_records: int = 128,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    backend: str = "grid",
    repeats: int = 1,
) -> dict:
    """Time the experiment pipeline across cache/parallel phases.

    ``backend`` (a :mod:`repro.backends` registry name) selects the
    machine model every phase simulates on.  ``repeats`` re-measures the
    cold serial phase that many times — each repeat on a fresh context
    with the shared window cache and SoA counters reset, and (when a
    ``cache_dir`` is given) its own cache subdirectory so every repeat
    is genuinely cold — and reports per-phase *medians*, which shake off
    one-off scheduler noise on busy hosts.  Cache accounting, point
    timings and the SoA counter snapshot come from the first repeat.
    Returns the ``BENCH_perf.json`` document (see the module docstring
    for the phase definitions).
    """
    timer = PhaseTimer()
    repeats = max(1, repeats)
    # Dispatch accounting is per-process state; reset it so the report
    # can only ever describe this benchmark's own sweeps.
    parallel.LAST_DISPATCH = None

    serial_ctx = None
    serial_cache_dir = cache_dir
    cold_seconds: List[float] = []
    breakdown_runs: List[Dict[str, float]] = []
    cold_stats = None
    soa_snapshot = None
    dispatch_stats = None
    for index in range(repeats):
        # A truly cold repeat: no mapped windows left over from the
        # previous one, counters at zero, and a private disk-cache tier.
        SHARED_WINDOW_CACHE.clear()
        reset_soa_counters()
        repeat_dir = cache_dir
        if cache_dir is not None and repeats > 1:
            repeat_dir = os.path.join(cache_dir, f"repeat{index}")
        ctx = experiments.ExperimentContext(
            records=records,
            large_kernel_records=large_kernel_records,
            jobs=1,
            cache=RunCache(repeat_dir),
            backend=backend,
        )
        with measuring() as phase_acc:
            started = time.perf_counter()
            _run_all(ctx)
            cold_seconds.append(time.perf_counter() - started)
        breakdown_runs.append(phase_acc.snapshot())
        if index == 0:
            serial_ctx = ctx
            serial_cache_dir = repeat_dir
            cold_stats = ctx.cache.stats.as_dict()
            soa_snapshot = soa_counters()
            dispatch_stats = (
                parallel.LAST_DISPATCH.as_dict()
                if parallel.LAST_DISPATCH is not None else None
            )
    timer.seconds["cold_serial"] = _median(cold_seconds)
    breakdown_keys: List[str] = []
    for run in breakdown_runs:
        for key in run:
            if key not in breakdown_keys:
                breakdown_keys.append(key)
    phase_breakdown = {
        key: _median([run.get(key, 0.0) for run in breakdown_runs])
        for key in breakdown_keys
    }
    timer.measure("warm_memory", lambda: _run_all(serial_ctx))

    if jobs > 1:
        parallel_ctx = experiments.ExperimentContext(
            records=records,
            large_kernel_records=large_kernel_records,
            jobs=jobs,
            backend=backend,
        )
        timer.measure("cold_parallel", lambda: _run_all(parallel_ctx))
        if parallel.LAST_DISPATCH is not None:
            dispatch_stats = parallel.LAST_DISPATCH.as_dict()

    if cache_dir is not None:
        # Replay the tier the first cold repeat populated (its own
        # subdirectory when repeating, the cache_dir itself otherwise).
        replay_ctx = experiments.ExperimentContext(
            records=records,
            large_kernel_records=large_kernel_records,
            jobs=1,
            cache=RunCache(serial_cache_dir),
            backend=backend,
        )
        timer.measure("disk_replay", lambda: _run_all(replay_ctx))

    point_seconds = {
        f"{name}|{config}": seconds
        for (name, config), seconds in sorted(
            serial_ctx.point_seconds.items(),
            key=lambda item: item[1],
            reverse=True,
        )
    }
    # Tail view of per-point simulation latency: a bounded histogram
    # (repro.obs.metrics) summarizes the cold sweep's point wall times,
    # so the report says not just where the total went but how skewed
    # the distribution is (one pathological point vs uniform slowness).
    point_latency = Histogram()
    for seconds in point_seconds.values():
        point_latency.observe(seconds)
    point_percentiles = {
        "p50": point_latency.percentile(50),
        "p90": point_latency.percentile(90),
        "p99": point_latency.percentile(99),
    }
    cold = timer.seconds["cold_serial"]
    warm = timer.seconds["warm_memory"]
    report = {
        "schema": BENCH_SCHEMA,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "records": records,
        "large_kernel_records": large_kernel_records,
        "jobs": jobs,
        "cache_dir": cache_dir,
        "backend": backend,
        # Cold-phase repeat protocol: cold_serial (and its breakdown)
        # are medians over this many fresh-context repeats; the raw
        # per-repeat wall times are kept for spread inspection.
        "repeats": repeats,
        "cold_serial_seconds": cold_seconds,
        # SoA lifecycle of the first cold repeat (repro.machine.fastcore):
        # windows fused straight from the template expansion vs flattened
        # from instance objects, and engine runs that reused the buffers.
        "fastcore_soa": soa_snapshot,
        "phases_seconds": timer.seconds,
        # Where cold_serial's wall time went inside the pipeline: window
        # mapping (placement + expansion or cache rebase), block-style
        # vs MIMD engine simulation, and the MIMD memory interface.
        # The remainder up to cold_serial is harness overhead (workload
        # generation, fingerprinting, cache serialization).
        "phase_breakdown_seconds": phase_breakdown,
        "warm_vs_cold_speedup": cold / warm if warm > 0 else float("inf"),
        "simulated_points": len(point_seconds),
        "cache_after_cold": cold_stats,
        "cache_after_warm": serial_ctx.cache.stats.as_dict(),
        "point_seconds": point_seconds,
        "point_latency_percentiles": point_percentiles,
    }
    if dispatch_stats is not None:
        # How the most recent sweep dispatched: pool/pool-fallback from
        # run_points, or "in-context" when one worker was effective.
        # Omitted entirely when no sweep routed through run_points.
        report["dispatch_stats"] = dispatch_stats
    return report


def render_report(report: dict) -> str:
    """Human-readable summary of a :func:`bench_experiments` report."""
    lines = [
        f"simulated points : {report['simulated_points']}"
        f" ({report['records']} records,"
        f" {report['large_kernel_records']} for large kernels)",
    ]
    repeats = report.get("repeats", 1)
    for name, seconds in report["phases_seconds"].items():
        line = f"{name:<17}: {seconds:8.3f}s"
        if name == "cold_serial" and repeats > 1:
            line += f"  (median of {repeats})"
        lines.append(line)
    breakdown = report.get("phase_breakdown_seconds") or {}
    if breakdown:
        cold = report["phases_seconds"].get("cold_serial", 0.0)
        accounted = sum(breakdown.values())
        lines.append("cold_serial breakdown:")
        for name, seconds in sorted(
            breakdown.items(), key=lambda item: item[1], reverse=True
        ):
            lines.append(f"  {name:<15}: {seconds:8.3f}s")
        if cold > accounted:
            lines.append(f"  {'harness/other':<15}: {cold - accounted:8.3f}s")
    soa = report.get("fastcore_soa")
    if soa:
        lines.append(
            "soa windows      : "
            f"{soa['fused']} fused, {soa['built']} built, "
            f"{soa['reused']} reused"
        )
    lines.append(
        f"warm/cold speedup: {report['warm_vs_cold_speedup']:8.1f}x"
    )
    lines.append(
        "cache hit rate   : "
        f"{report['cache_after_warm']['hit_rate']:8.1%}"
    )
    dispatch = report.get("dispatch_stats")
    if dispatch:
        line = (
            f"pool dispatch    : {dispatch['mode']},"
            f" {dispatch['workers']} worker(s),"
            f" {dispatch['points']} point(s)"
        )
        if dispatch.get("utilization") is not None:
            line += f", {dispatch['utilization']:.0%} utilization"
        lines.append(line)
    percentiles = report.get("point_latency_percentiles")
    if percentiles:
        lines.append(
            "point latency    : "
            f"p50 {percentiles['p50']:.3f}s  "
            f"p90 {percentiles['p90']:.3f}s  "
            f"p99 {percentiles['p99']:.3f}s"
        )
    slowest = list(report["point_seconds"].items())[:5]
    if slowest:
        lines.append("slowest points   :")
        for point, seconds in slowest:
            lines.append(f"  {point:<28} {seconds:7.3f}s")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; writes the report and returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the simulator's experiment pipeline and "
                    "write a machine-readable BENCH_perf.json report.",
    )
    parser.add_argument(
        "--records", type=int, default=512,
        help="records per kernel run (default 512; large kernels use 1/4)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="also time a parallel cold run with N worker processes",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="measure the cold serial phase N times on fresh contexts "
             "and report per-phase medians (default 1)",
    )
    parser.add_argument(
        "--backend", default="grid", metavar="NAME",
        help="machine model to benchmark (a repro.backends registry "
             "name; default grid)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="also time a disk-cache replay through DIR",
    )
    parser.add_argument(
        "--output", default="BENCH_perf.json", metavar="FILE",
        help="report path (default BENCH_perf.json; '-' for stdout only)",
    )
    add_ledger_arguments(parser)
    add_profile_arguments(parser)
    args = parser.parse_args(argv)

    configure_from_args(args)
    kwargs = dict(
        records=args.records,
        large_kernel_records=max(16, args.records // 4),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        backend=args.backend,
        repeats=args.repeats,
    )
    if args.profile:
        with profiled(label="repro-bench", top=args.profile_top):
            report = bench_experiments(**kwargs)
    else:
        report = bench_experiments(**kwargs)
    if args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    print(render_report(report))
    if LEDGER.enabled and LEDGER.path is not None:
        print(f"run ledger       : {LEDGER.path} (see repro-perf)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

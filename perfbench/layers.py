"""Compose span snapshots into per-layer metrics that add up to wall time.

Self times come from :mod:`tracer` snapshots.  Work done concurrently
elsewhere is folded into the thread that waited for it:

* pool workers: their time divided by the worker count is taken out of
  the parent's ``parallel`` span, which was blocked on them;
* the service: each client thread waits on its own job, so the server
  worker thread's spans and the queue wait are taken out of the
  client's polling time (the ``http.wait`` row), and every row is divided by
  the number of client threads.

So for each workload the rows plus ``unattributed_s`` sum to ``wall_s``
exactly; the per-layer metrics report each row as a share of it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from tracer import merge_threads

#: span layer -> per-layer metric: self time as a share of wall_s
TIME_ROWS = {
    "setup.import": "setup.import_share",
    "kernels": "kernels.build_share",
    "workloads": "workloads.gen_share",
    "fingerprint": "fingerprint.share",
    "cache.get": "cache.get_share",
    "cache.put": "cache.put_share",
    "dispatch": "dispatch.share",
    "placement": "placement.share",
    "window_map": "window_map.share",
    "block_engine": "block_engine.share",
    "mimd_engine": "mimd_engine.share",
    "memory": "memory.share",
    "parallel": "parallel.share",
    "sched.enqueue": "sched.enqueue_share",
    "sched.claim": "sched.claim_share",
    "sched.complete": "sched.complete_share",
    "ledger": "ledger.share",
    "harness": "harness.share",
    "service.job": "service.job_share",
    "service.queue_wait": "service.queue_wait_share",
    "http.post": "http.post_share",
    "http.wait": "http.wait_share",
}

#: exact work counters (repeat run to run; compared between traced passes)
COUNTERS = (
    "kernels.builds", "workloads.gens", "fingerprint.calls",
    "cache.hits", "cache.misses", "cache.stores", "dispatch.points",
    "placement.calls", "window_cache.lookups", "window_map.maps",
    "block_engine.runs", "block_engine.sim_cycles",
    "mimd_engine.records", "mimd_engine.sim_cycles", "memory.calls",
    "sched.claims", "ledger.writes", "ledger.runs",
    "work.points", "work.sim_cycles", "work.useful_ops",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _union(snapshots: Iterable[dict], name: str) -> int:
    keys = set()
    for snap in snapshots:
        keys.update(snap["distinct"].get(name, ()))
    return len(keys)


def ratios(counts: Dict[str, int], snapshots: List[dict]) -> Dict[str, float]:
    """The derived ratio metrics of one set of counters."""
    return {
        "workloads.unique_ratio": _ratio(
            _union(snapshots, "workloads.gens"),
            counts.get("workloads.gens", 0)),
        "fingerprint.unique_ratio": _ratio(
            _union(snapshots, "fingerprint.calls"),
            counts.get("fingerprint.calls", 0)),
        "cache.hit_ratio": _ratio(
            counts.get("cache.hits", 0),
            counts.get("cache.hits", 0) + counts.get("cache.misses", 0)),
        "window_cache.hit_ratio": _ratio(
            counts.get("window_cache.lookups", 0)
            - counts.get("window_map.maps", 0),
            counts.get("window_cache.lookups", 0)),
    }


def batch_table(child: dict) -> dict:
    """Per-layer rows, counters and ratios of one traced batch iteration."""
    main = child["trace"]
    workers = child["worker_traces"]
    n = max(1, child["workers"])
    self_s, counts, top = merge_threads([main])
    w_self, w_counts, w_top = merge_threads(workers)
    rows: Dict[str, float] = defaultdict(float)
    rows["setup.import"] = child["import_s"]
    for layer, seconds in self_s.items():
        rows[layer] += seconds
    for layer, seconds in w_self.items():
        rows[layer] += seconds / n
    if workers:
        rows["parallel"] -= w_top / n
    wall = child["wall_s"]
    total = dict(counts)
    for k, v in w_counts.items():
        total[k] = total.get(k, 0) + v
    total["work.points"] = child["points"]
    total["work.sim_cycles"] = child["sim_cycles"]
    total["work.useful_ops"] = child["useful_ops"]
    pool_s = child.get("pool_s", 0.0)
    busy = _ratio(w_top, n * pool_s) if workers and n > 1 else 0.0
    return {
        "wall_s": wall,
        "rows": dict(rows),
        "unattributed_s": wall - child["import_s"] - top,
        "counts": total,
        "ratios": dict(ratios(total, [main] + workers),
                       **{"parallel.busy_ratio": busy}),
    }


def service_table(client_snap: dict, server_snap: dict, lanes: int,
                  window_s: float, queue_wait_s: float) -> dict:
    """Per-layer rows of a traced service window, per client thread.

    Rows follow each client's critical path: its POST, the queue wait,
    the server worker thread running its job, and the rest of its
    polling (``http.wait``).  Server threads answering polls run beside
    that path; their time is ``handler_s``, outside the sum.
    """
    c_self, _, _ = merge_threads([client_snap],
                                 keep=lambda name: name.startswith("lane-"))
    on_path = lambda name: name.startswith("repro-service-worker")
    w_self, _, w_top = merge_threads([server_snap], keep=on_path)
    _, _, h_top = merge_threads([server_snap],
                                keep=lambda name: not on_path(name))
    rows: Dict[str, float] = defaultdict(float)
    for layer, seconds in w_self.items():
        rows[layer] += seconds
    rows["service.queue_wait"] = queue_wait_s
    rows["http.post"] = c_self.get("http.post", 0.0)
    rows["http.wait"] = sum(
        c_self.get(k, 0.0) for k in
        ("http.status", "http.results", "http.poll_sleep")
    ) - w_top - queue_wait_s
    rows = {k: v / lanes for k, v in rows.items()}
    return {
        "wall_s": window_s,
        "rows": rows,
        "unattributed_s": window_s - sum(rows.values()),
        "handler_s": h_top / lanes,
    }


def mean_table(tables: List[dict]) -> dict:
    """Row-by-row mean of several tables of the same workload."""
    names = {name for t in tables for name in t["rows"]}
    n = len(tables)
    return {
        "wall_s": sum(t["wall_s"] for t in tables) / n,
        "rows": {name: sum(t["rows"].get(name, 0.0) for t in tables) / n
                 for name in names},
        "unattributed_s": sum(t["unattributed_s"] for t in tables) / n,
    }


def layer_metrics(table: dict) -> Dict[str, float]:
    """A table's rows as shares of its wall clock (they sum to 1)."""
    wall = table["wall_s"]
    out = {name: 0.0 for name in TIME_ROWS.values()}
    for layer, seconds in table["rows"].items():
        out[TIME_ROWS[layer]] = _ratio(seconds, wall)
    out["unattributed_share"] = _ratio(table["unattributed_s"], wall)
    out["unattributed_s"] = table["unattributed_s"]
    out["wall_s"] = wall
    return out


def format_table(table: dict) -> List[str]:
    """The table in seconds, one line per row, largest first."""
    wall = table["wall_s"]
    rows = sorted(table["rows"].items(), key=lambda kv: -kv[1])
    rows.append(("unattributed", table["unattributed_s"]))
    lines = [f"    {name:<20} {seconds:>10.4f} s  {_ratio(seconds, wall):6.1%}"
             for name, seconds in rows]
    lines.append(f"    {'= wall':<20} {wall:>10.4f} s")
    return lines

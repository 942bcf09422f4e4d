"""Per-layer span recorder that wraps the simulator from outside.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each layer (module functions at every place
a caller looks them up, methods on their classes) with wrappers that
time the call and count its work.  Each thread keeps a stack of open
spans, so a layer's *self* time is its span's duration minus the time
its child spans cover, and the self times of one thread add up to the
time that thread spent inside any span.

Pool workers are forked from a traced parent and inherit the wrappers;
:func:`install` registers a fork hook that gives each child a fresh
recorder which it writes to ``<spool>/<pid>.json`` after every point
it runs.  A traced service process writes its recorder with
:func:`dump` when it shuts down.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

#: ``RunLedger`` methods that write rows.
LEDGER_WRITES = frozenset({
    "append", "enqueue_points", "claim_points", "complete_point",
    "fail_point", "release_points", "reclaim_expired", "renew_leases",
    "revoke_pending", "upsert_job", "update_job", "prune",
})


class _ThreadState:
    __slots__ = ("name", "stack", "self_s", "counts", "top_s", "job")

    def __init__(self, name: str):
        self.name = name
        self.stack: list = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: time this thread spent inside any outermost span
        self.top_s = 0.0
        #: service job id whose counters this thread is accumulating
        self.job: Optional[str] = None


class Recorder:
    """Spans and counters of one process, kept per thread."""

    def __init__(self, spool: Optional[str] = None):
        self.spool = spool
        self.forked = False
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []
        #: per service job: counter -> count (exact work per job)
        self.job_counts: Dict[str, Dict[str, int]] = {}
        #: distinct keys per counter (for the ``unique_ratio`` metrics)
        self.distinct: Dict[str, set] = defaultdict(set)

    def state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._tls.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, name: str, n: int = 1) -> None:
        st = self.state()
        st.counts[name] += n
        if st.job is not None:
            per_job = self.job_counts.setdefault(st.job, {})
            per_job[name] = per_job.get(name, 0) + n

    def note(self, name: str, key) -> None:
        with self._lock:
            self.distinct[name].add(key)

    def snapshot(self) -> dict:
        """Plain-data view: per-thread self times, counts, job counters."""
        with self._lock:
            threads = list(self._threads)
            distinct = {k: sorted(map(repr, v))
                        for k, v in self.distinct.items()}
            job_counts = {k: dict(v) for k, v in self.job_counts.items()}
        return {
            "pid": os.getpid(),
            "threads": [
                {
                    "name": st.name,
                    "self_s": dict(st.self_s),
                    "counts": dict(st.counts),
                    "top_s": st.top_s,
                }
                for st in threads
            ],
            "distinct": distinct,
            "job_counts": job_counts,
        }


#: The process's recorder while tracing is installed.
REC: Optional[Recorder] = None


def span(layer: str, fn: Callable, after: Optional[Callable] = None,
         count: Optional[str] = None) -> Callable:
    """Wrap ``fn`` so each call is a ``layer`` span.

    ``count`` names a counter bumped once per call; ``after(result,
    args, kwargs)`` runs on return to count the work the call did.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = REC
        st = rec.state()
        stack = st.stack
        stack.append(0.0)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            children = stack.pop()
            st.self_s[layer] += elapsed - children
            if stack:
                stack[-1] += elapsed
            else:
                st.top_s += elapsed
        if count is not None:
            rec.count(count)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _patch_function(module, name: str, wrapper_for: Callable) -> None:
    """Replace ``module.name`` wherever a ``repro`` module binds it."""
    original = getattr(module, name)
    wrapped = wrapper_for(original)
    for mod in list(sys.modules.values()):
        mod_name = getattr(mod, "__name__", "")
        if not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _patch_method(cls, name: str, wrapper_for: Callable) -> None:
    setattr(cls, name, wrapper_for(cls.__dict__[name]))


def _public_methods(cls):
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]


# ---- counting hooks ------------------------------------------------------------


def _count_cache_get(result, args, kwargs):
    REC.count("cache.hits" if result is not None else "cache.misses")


def _count_claims(result, args, kwargs):
    REC.count("sched.claims", len(result))


def _count_block(result, args, kwargs):
    REC.count("block_engine.runs")
    REC.count("block_engine.sim_cycles", int(result.cycles))


def _count_mimd(result, args, kwargs):
    records = args[1] if len(args) > 1 else kwargs["records"]
    REC.count("mimd_engine.runs")
    REC.count("mimd_engine.records", len(records))
    REC.count("mimd_engine.sim_cycles", int(result.cycles))


def _count_dispatch(result, args, kwargs):
    REC.count("dispatch.points")
    REC.count("work.sim_cycles", int(result.cycles))
    REC.count("work.useful_ops", int(result.useful_ops))


def _fingerprint_after(result, args, kwargs):
    REC.count("fingerprint.calls")
    REC.note("fingerprint.calls", result)


def _workload_counter(kernel_name: str):
    def after(result, args, kwargs):
        REC.count("workloads.gens")
        REC.note("workloads.gens", (kernel_name, args, tuple(kwargs.items())))
    return after


def _ledger_method(name: str, fn: Callable) -> Callable:
    return span("ledger", fn,
                count="ledger.writes" if name in LEDGER_WRITES else None)


def _job_scope(fn: Callable) -> Callable:
    """Scope counters of a service worker thread to the job it runs."""

    timed = span("service.job", fn)

    @functools.wraps(fn)
    def wrapper(queue, job, *args, **kwargs):
        st = REC.state()
        st.job = job.job_id
        try:
            return timed(queue, job, *args, **kwargs)
        finally:
            st.job = None

    return wrapper


def _pool_worker(fn: Callable) -> Callable:
    """A pool worker's point: a ``parallel`` span, spooled when forked."""
    timed = span("parallel", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return timed(*args, **kwargs)
        finally:
            if REC.forked:
                dump(os.path.join(REC.spool, f"{os.getpid()}.json"))

    return wrapper


def _after_fork() -> None:
    global REC
    spool = REC.spool if REC is not None else None
    REC = Recorder(spool)
    REC.forked = True


def install(spool: Optional[str] = None) -> None:
    """Wrap every layer's public calls and start recording into ``REC``.

    Call after importing ``repro`` and before the kernel registry is
    first built, so that registry construction is timed as well.
    """
    global REC
    REC = Recorder(spool)

    backends_base = importlib.import_module("repro.backends.base")
    experiments = importlib.import_module("repro.harness.experiments")
    kreg = importlib.import_module("repro.kernels.registry")
    dataflow_engine = importlib.import_module("repro.machine.dataflow_engine")
    mapping = importlib.import_module("repro.machine.mapping")
    mimd_engine = importlib.import_module("repro.machine.mimd_engine")
    placement = importlib.import_module("repro.machine.placement")
    window_cache = importlib.import_module("repro.machine.window_cache")
    memory_system = importlib.import_module("repro.memory.system")
    ledger = importlib.import_module("repro.obs.ledger")
    cache = importlib.import_module("repro.perf.cache")
    fingerprint = importlib.import_module("repro.perf.fingerprint")
    parallel = importlib.import_module("repro.perf.parallel")
    scheduler = importlib.import_module("repro.sched.scheduler")
    service_jobs = importlib.import_module("repro.service.jobs")
    service_server = importlib.import_module("repro.service.server")

    # kernels: registry construction, kernel lookups and every build.
    _patch_function(kreg, "registry", lambda f: span("kernels", f))
    _patch_method(kreg.KernelSpec, "kernel", lambda f: span("kernels", f))
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith("repro.kernels.")
                and hasattr(mod, "build_kernel")
                and hasattr(mod, "workload")):
            short = mod_name.rsplit(".", 1)[-1]
            _patch_function(mod, "build_kernel",
                            lambda f: span("kernels", f,
                                           count="kernels.builds"))
            _patch_function(mod, "workload",
                            lambda f, short=short: span(
                                "workloads", f,
                                after=_workload_counter(short)))

    for name in ("run_fingerprint", "fingerprint_kernel",
                 "fingerprint_records"):
        _patch_function(fingerprint, name,
                        lambda f: span("fingerprint", f,
                                       after=_fingerprint_after))

    _patch_method(cache.RunCache, "get",
                  lambda f: span("cache.get", f, after=_count_cache_get))
    _patch_method(cache.RunCache, "put",
                  lambda f: span("cache.put", f, count="cache.stores"))

    _patch_function(backends_base, "dispatch",
                    lambda f: span("dispatch", f, after=_count_dispatch))

    _patch_function(placement, "place_iterations",
                    lambda f: span("placement", f, count="placement.calls"))
    _patch_method(window_cache.MappedWindowCache, "get_or_map",
                  lambda f: span("window_map", f,
                                 count="window_cache.lookups"))
    _patch_function(mapping, "rebase_window",
                    lambda f: span("window_map", f))
    _patch_function(mapping, "map_window",
                    lambda f: span("window_map", f, count="window_map.maps"))

    _patch_method(dataflow_engine.DataflowEngine, "run",
                  lambda f: span("block_engine", f, after=_count_block))
    _patch_method(mimd_engine.MimdEngine, "run",
                  lambda f: span("mimd_engine", f, after=_count_mimd))
    for name in _public_methods(memory_system.MemorySystem):
        _patch_method(memory_system.MemorySystem, name,
                      lambda f: span("memory", f, count="memory.calls"))

    _patch_function(parallel, "run_points", lambda f: span("parallel", f))
    for name in ("simulate_point", "simulate_point_timed"):
        _patch_function(parallel, name, _pool_worker)

    _patch_method(scheduler.ClaimSession, "enqueue",
                  lambda f: span("sched.enqueue", f))
    _patch_method(scheduler.ClaimSession, "claim",
                  lambda f: span("sched.claim", f, after=_count_claims))
    _patch_method(scheduler.ClaimSession, "complete",
                  lambda f: span("sched.complete", f))

    _patch_method(ledger.LedgerHandle, "record_run",
                  lambda f: span("ledger", f, count="ledger.runs"))
    for name in _public_methods(ledger.RunLedger):
        _patch_method(ledger.RunLedger, name,
                      lambda f, name=name: _ledger_method(name, f))

    _patch_method(service_jobs.JobQueue, "_run_job", _job_scope)
    for name in ("do_GET", "do_POST", "do_DELETE"):
        _patch_method(service_server.ServiceRequestHandler, name,
                      lambda f: span("service.handler", f))

    # harness: the experiment builders and every result's render().
    for name in ("table1", "table2", "table3", "table4", "table5",
                 "table6", "figure1", "figure2", "figure2_measured",
                 "figure3_4", "figure5"):
        _patch_function(experiments, name, lambda f: span("harness", f))
    for value in list(vars(experiments).values()):
        if (isinstance(value, type)
                and value.__module__ == experiments.__name__
                and "render" in vars(value)):
            _patch_method(value, "render", lambda f: span("harness", f))

    os.register_at_fork(after_in_child=_after_fork)


def dump(path: str) -> None:
    """Write the recorder's snapshot to ``path`` atomically."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(REC.snapshot(), fh)
    os.replace(tmp, path)


def load_spool(spool: str) -> list:
    """Every snapshot a forked worker left in ``spool``."""
    snapshots = []
    if not os.path.isdir(spool):
        return snapshots
    for name in sorted(os.listdir(spool)):
        if name.endswith(".json"):
            with open(os.path.join(spool, name), encoding="utf-8") as fh:
                snapshots.append(json.load(fh))
    return snapshots


def merge_threads(snapshots, keep=lambda name: True):
    """Summed self times, counts and top-level time of matching threads."""
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    top = 0.0
    for snap in snapshots:
        for th in snap["threads"]:
            if not keep(th["name"]):
                continue
            for k, v in th["self_s"].items():
                self_s[k] += v
            for k, v in th["counts"].items():
                counts[k] += v
            top += th["top_s"]
    return dict(self_s), dict(counts), top

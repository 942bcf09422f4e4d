"""Cycle-level dataflow execution of a mapped window.

This engine implements the TRIPS-style execution semantics: every mapped
instruction instance waits in its node's reservation stations until all
operands have arrived over the network, nodes issue at most one ready
instruction per cycle (deepest-last — ties broken by age), and results
are routed to consumer nodes with half-cycle hops.  Memory instances
interact with the :class:`~repro.memory.system.MemorySystem`'s ports,
channels and store buffers, so bandwidth contention — register-file
pressure from scalar constants, L1 pressure from lookup tables,
store-drain limits — is measured, not assumed.

Invariant the loop relies on: every operand scheduled during cycle *c*
arrives strictly after *c* (all latencies are >= 1), so arrivals never
need to be re-examined for the current cycle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List

from ..check.sanitizer import SANITIZER
from ..memory.ports import PortQueue
from ..memory.system import MemorySystem
from ..obs.metrics import METRICS
from ..obs.trace import EXEC, TRACE
from .fastcore import dataflow_core as _dataflow_core
from .mapping import COMPUTE, LDI, LMW, LOAD, LUT, STORE, MappedWindow
from .stats import WindowTiming


@dataclass
class EngineStats:
    issued: int = 0
    l1_accesses: int = 0
    lmw_requests: int = 0
    regfile_reads: int = 0
    network_hops: int = 0


class DeadlockError(RuntimeError):
    """The window cannot make progress (a mapping bug)."""


class DataflowEngine:
    """Executes one mapped window against a memory system."""

    def __init__(
        self,
        window: MappedWindow,
        memory: MemorySystem,
        seed: int = 0,
        trace: bool = False,
    ):
        self.window = window
        self.memory = memory
        self.params = window.params
        self._seed = seed
        self.stats = EngineStats()
        #: optional issue trace: (cycle, node, kind, iteration, kernel iid)
        self.trace: List[tuple] = [] if trace else None  # type: ignore

    # ---- address helpers ---------------------------------------------------

    def _route(self, a: int, b: int) -> int:
        hops = self.params.node_distance(a, b)
        self.stats.network_hops += hops
        return self.params.route_delay(hops)

    def _hash(self, inst) -> int:
        """Deterministic pseudo-random stream per instruction instance.

        Independent of issue order, so two configurations mapping the same
        kernel see identical address streams (no measurement jitter).
        """
        x = (inst.iteration * 2654435761 + inst.kernel_iid * 40503
             + self._seed * 97) & 0xFFFFFFFF
        x ^= x >> 16
        x = (x * 2246822519) & 0xFFFFFFFF
        x ^= x >> 13
        return x

    def _lut_address(self, inst) -> int:
        """A lookup address within the instance's table (the index is
        data-dependent; model it as uniform within the table)."""
        kernel = self.window.kernel
        kinst = kernel.body[inst.kernel_iid]
        size = len(kernel.tables[kinst.table])
        return inst.address + self._hash(inst) % size

    def _ldi_address(self, inst) -> int:
        """An irregular access with spatial locality (texture-style): a
        random walk around a per-iteration focus point."""
        size = max(1, inst.words)
        focus = (inst.iteration * 97) % size
        delta = self._hash(inst) % 33 - 16
        return inst.address + (focus + delta) % size

    # ---- main loop -----------------------------------------------------------

    def run(self) -> WindowTiming:
        """Time the window (the production path).

        Runs the structure-of-arrays core
        (:func:`repro.machine.fastcore.dataflow_core.run_array`): the same
        cycle loop as :meth:`run_reference`, over per-uid arrays
        precomputed once per window.  It produces *identical*
        :class:`WindowTiming`, stats and trace; the equivalence suites in
        ``tests/machine/test_engine_equivalence.py`` and
        ``tests/machine/test_fastcore_equivalence.py`` guard that.
        """
        return _dataflow_core.run_array(self)

    def _sanitize_run(
        self,
        trace,
        remaining,
        arrivals,
        store_drain: int,
        last_store_arrival: int,
    ) -> None:
        """Post-run invariant checks (sanitizer-enabled runs only).

        Shared by :meth:`run` and :meth:`run_reference`, so a fuzz case
        checks both loops against the same catalog (DESIGN.md section 8).
        """
        window = self.window
        component = f"{window.kernel.name}|{window.config.name}"
        san = SANITIZER

        # Reservation-station occupancy: the placement must never pack
        # more instances onto a node than it has slots.
        usage = window.placement.max_slot_usage()
        if usage > self.params.slots_per_node:
            san.report(
                "dataflow.slot_occupancy", component,
                "placement exceeds per-node reservation-station capacity",
                max_slot_usage=usage, slots_per_node=self.params.slots_per_node,
            )

        # Operand conservation: at loop exit every scheduled operand has
        # been delivered and every instance consumed exactly its count.
        in_flight = sum(len(uids) for uids in arrivals.values())
        if in_flight:
            san.report(
                "dataflow.operand_conservation", component,
                "operands still in flight after every instance issued",
                in_flight=in_flight,
            )
        over = [uid for uid, left in enumerate(remaining) if left < 0]
        if over:
            san.report(
                "dataflow.operand_conservation", component,
                "instances received more operands than they consume",
                uids=tuple(over[:8]),
            )
        under = [uid for uid, left in enumerate(remaining) if left > 0]
        if under:
            san.report(
                "dataflow.operand_conservation", component,
                "instances issued with operands still outstanding",
                uids=tuple(under[:8]),
            )

        # Monotone per-node issue: one instruction per node per cycle,
        # in non-decreasing simulated time.
        if trace:
            last_by_node: Dict[int, int] = {}
            for entry in trace:
                at, node = entry[0], entry[1]
                prev = last_by_node.get(node)
                if prev is not None and at <= prev:
                    san.report(
                        "dataflow.monotone_node_issue", component,
                        "a node issued twice in one cycle or out of order",
                        node=node, cycle=at, previous=prev,
                    )
                    break
                last_by_node[node] = at

        # Store-drain completion: the buffer cannot finish draining
        # before its last store arrived.
        if store_drain < last_store_arrival:
            san.report(
                "dataflow.store_drain_completion", component,
                "store drain completed before the last store arrived",
                store_drain_cycle=store_drain,
                last_store_arrival=last_store_arrival,
            )

    def _publish_observability(self, trace, cycles: int) -> None:
        """Report this run to :data:`METRICS` / :data:`TRACE` (cold path).

        Called once per :meth:`run` when either instrument is enabled;
        never touched by the hot loop.  ``alu.node_busy_cycles`` counts
        occupied issue slots (each node issues at most one instruction
        per cycle), so ``busy / (nodes * cycles)`` is array occupancy.
        """
        stats = self.stats
        window = self.window
        if METRICS.enabled:
            METRICS.inc("alu.instances_issued", stats.issued)
            METRICS.inc("alu.node_busy_cycles", stats.issued)
            METRICS.inc("net.operand_hops", stats.network_hops)
            METRICS.inc("regfile.reads", stats.regfile_reads)
            METRICS.inc("lmw.requests", stats.lmw_requests)
            if cycles:
                METRICS.gauge_max(
                    "alu.occupancy",
                    stats.issued / (self.params.nodes * cycles),
                )
        if TRACE.enabled and trace:
            # Read the SoA columns instead of touching ``instances``
            # (which would materialize a lazy window just for a trace).
            soa = window._fastcore_soa
            latency_of = {
                (it, kiid): lat for it, kiid, lat
                in zip(soa.iters, soa.kiids, soa.latencies)
            }
            complete = TRACE.complete
            for cycle, node, kind, iteration, kernel_iid in trace:
                complete(
                    EXEC, f"node {node}", kind,
                    ts=cycle,
                    dur=max(1, latency_of.get((iteration, kernel_iid), 1)),
                    args={"iter": iteration, "iid": kernel_iid},
                )

    # ---- reference loop (equivalence guard) --------------------------------

    def run_reference(self) -> WindowTiming:
        """The straightforward (pre-optimization) timing loop.

        Kept as the executable specification of the engine semantics:
        the optimized :meth:`run` must produce byte-identical timings,
        stats and traces on the random-kernel fuzzer corpus.
        """
        window = self.window
        params = self.params
        instances = window.instances
        remaining = [inst.operands for inst in instances]
        sanitize = SANITIZER.enabled
        trace = self.trace
        if trace is None and sanitize:
            trace = []  # the monotone-issue check needs an issue trace

        ready: Dict[int, List] = {}          # node -> heap of (depth, uid)
        active_nodes = set()
        arrivals: Dict[int, List[int]] = {}  # cycle -> operand-delivery uids
        arrival_cycles: List[int] = []       # heap of pending arrival cycles

        def schedule_arrival(uid: int, at: int) -> None:
            at = int(at)
            bucket = arrivals.get(at)
            if bucket is None:
                arrivals[at] = [uid]
                heapq.heappush(arrival_cycles, at)
            else:
                bucket.append(uid)

        def make_ready(uid: int) -> None:
            node = instances[uid].node
            heapq.heappush(
                ready.setdefault(node, []), (instances[uid].depth, uid)
            )
            active_nodes.add(node)

        # Register-file reads deliver scalar constants (unless operand
        # revitalization keeps them alive across revitalizations).
        regfile = PortQueue(params.regfile_read_ports, name="regfile")
        for read in window.const_reads:
            grant = regfile.reserve(0)
            self.stats.regfile_reads += 1
            for cuid in read.consumers:
                node = instances[cuid].node
                schedule_arrival(
                    cuid,
                    grant + params.regfile_latency
                    + params.route_from_regfile(node),
                )

        for inst in instances:
            if inst.operands == 0:
                make_ready(inst.uid)

        cycle = 0
        issued = 0
        total = len(instances)
        last_completion = 0
        store_drain = 0
        last_store_arrival = 0

        while issued < total:
            # Deliver operands that arrive this cycle.
            while arrival_cycles and arrival_cycles[0] <= cycle:
                at = heapq.heappop(arrival_cycles)
                for uid in arrivals.pop(at, ()):
                    remaining[uid] -= 1
                    if remaining[uid] == 0:
                        make_ready(uid)

            # Each node issues at most one ready instruction this cycle.
            for node in list(active_nodes):
                heap = ready.get(node)
                if not heap:
                    active_nodes.discard(node)
                    continue
                _, uid = heapq.heappop(heap)
                if not heap:
                    active_nodes.discard(node)
                inst = instances[uid]
                issued += 1
                self.stats.issued += 1
                if trace is not None:
                    trace.append(
                        (cycle, node, inst.kind, inst.iteration,
                         inst.kernel_iid)
                    )
                completion = self._issue(inst, cycle, schedule_arrival)
                if inst.kind == STORE:
                    store_drain = max(store_drain, completion)
                    if sanitize:
                        arrival = cycle + params.route_to_row_edge(inst.node)
                        if arrival > last_store_arrival:
                            last_store_arrival = arrival
                last_completion = max(last_completion, completion)

            if issued >= total:
                break
            if active_nodes:
                cycle += 1
            elif arrival_cycles:
                cycle = arrival_cycles[0]
            else:
                raise DeadlockError(
                    f"issued {issued}/{total} instances in window of "
                    f"{window.kernel.name}; remaining operand counts are "
                    "unsatisfiable"
                )

        if sanitize:
            self._sanitize_run(
                trace, remaining, arrivals, store_drain, last_store_arrival
            )
        fetch_cycles = -(-window.machine_instructions // params.fetch_bandwidth)
        cycles = max(last_completion, store_drain, 1)
        return WindowTiming(
            iterations=window.iterations,
            machine_instructions=window.machine_instructions,
            cycles=int(cycles),
            issue_done_cycle=int(last_completion),
            store_drain_cycle=int(store_drain),
            fetch_cycles=fetch_cycles,
            detail={
                "network_hops": float(self.stats.network_hops),
                "l1_accesses": float(self.stats.l1_accesses),
                "regfile_reads": float(self.stats.regfile_reads),
                "lmw_requests": float(self.stats.lmw_requests),
            },
        )

    # ---- per-kind issue behaviour -----------------------------------------

    def _issue(self, inst, cycle: int, schedule_arrival) -> int:
        params = self.params
        memory = self.memory
        instances = self.window.instances

        if inst.kind == COMPUTE or (
            inst.kind == LUT and self.window.config.l0_data
        ):
            completion = cycle + inst.latency
            for cuid in inst.consumers:
                schedule_arrival(
                    cuid,
                    completion + self._route(inst.node, instances[cuid].node),
                )
            return completion

        if inst.kind in (LUT, LDI, LOAD):
            # Through the cached L1 path: route to the array edge, access
            # the bank (port arbitration + hit/miss latency), route back.
            if inst.kind == LUT:
                address = self._lut_address(inst)
            elif inst.kind == LDI:
                address = self._ldi_address(inst)
            else:
                address = inst.address
            edge = params.route_to_row_edge(inst.node)
            ready_at = memory.l1_access(address, cycle + edge)
            self.stats.l1_accesses += 1
            back = ready_at + edge
            for cuid in inst.consumers:
                schedule_arrival(
                    cuid, back + self._route(inst.node, instances[cuid].node)
                )
            return back

        if inst.kind == LMW:
            self.stats.lmw_requests += 1
            word_cycles = memory.lmw_deliver(inst.row, cycle + 1, inst.words)
            last = cycle + 1
            for word_cycle, consumers in zip(word_cycles, inst.word_consumers):
                for cuid in consumers:
                    at = word_cycle + self._route(inst.node, instances[cuid].node)
                    schedule_arrival(cuid, at)
                    last = max(last, at)
            return last

        if inst.kind == STORE:
            # Stores always leave through the row's coalescing store buffer
            # (draining to the SMC bank in streaming mode, to the cache
            # hierarchy otherwise) — they never consume L1 read ports.
            edge = params.route_to_row_edge(inst.node)
            done = memory.smc_store(inst.row, inst.address, cycle + edge)
            return math.ceil(done)

        raise ValueError(f"unknown instance kind {inst.kind!r}")

"""Fine-grain MIMD execution: local program counters + L0 instruction stores.

Mechanism 6 of the paper (Section 4.3): each ALU gets a local PC and a
small L0 instruction store; a setup block broadcasts the kernel into
every node's store, after which nodes sequence themselves independently —
"a simple in-order fetch/register-read/execute pipeline" using the
operand buffers as read/write registers.

Model implemented here:

* records are dealt round-robin across the 64 nodes; each node runs its
  records back to back with no global synchronization (MIMD's advantage:
  no revitalization barrier, and *data-dependent loop bounds execute
  their actual trip counts* — dead unrolled iterations are branched past
  rather than nullified);
* each node is an in-order, single-issue pipeline with a value
  scoreboard: an instruction issues when the PC reaches it and all its
  operands are ready, exposing load latency (the paper's stated MIMD
  penalty: "load instructions from each ALU must be routed through the
  network to reach the memory interface");
* regular record fetches are wide loads issued *from the node*, routed
  over the mesh to the row's SMC bank and streamed back — they contend
  with the other seven nodes of the row for the bank port and channel;
* lookup tables live in the per-node L0 data store when configured
  (1-cycle, no contention) and otherwise take the full mesh + L1 round
  trip;
* stores stream out through the row's coalescing store buffer.

Functional note: variable-loop kernels are written in predicated form,
so the engine computes values for the *whole* graph (a real rolled loop
carries its registers implicitly) but charges cycles only for live
instructions — branching past dead iterations costs nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from ..check.sanitizer import SANITIZER
from ..isa.instruction import Const, Immediate, InstResult, RecordInput
from ..isa.kernel import Kernel
from ..memory.system import MemorySystem
from ..obs.metrics import METRICS
from ..obs.trace import CTL, EXEC, TRACE
from ..perf.phases import PHASES, perf_counter
from .config import MachineConfig
from .params import MachineParams
from .stats import RunResult

Number = Union[int, float]


class MimdCapacityError(ValueError):
    """The kernel does not fit the per-node L0 structures."""


@dataclass
class MimdStats:
    instructions_executed: int = 0
    instructions_skipped: int = 0
    load_stall_cycles: int = 0
    lut_l1_trips: int = 0


def rolled_instruction_count(kernel: Kernel) -> int:
    """L0 I-store footprint: the kernel with loops kept rolled.

    MIMD keeps loops as loops ("these programs require far less
    instruction storage"), so an unrolled static loop of T trips occupies
    body/T entries plus the straight-line code; a variable loop occupies
    one iteration's worth.
    """
    straight = sum(1 for i in kernel.body if i.loop_iter is None)
    tagged = len(kernel.body) - straight
    if kernel.loop.variable and kernel.loop.max_trips:
        return straight + math.ceil(tagged / kernel.loop.max_trips)
    trips = kernel.loop.static_trips or 1
    if trips > 1:
        # Paper kernels with static loops have fully-unrolled bodies; the
        # rolled footprint is one trip's worth of the whole body.
        return math.ceil(len(kernel.body) / trips)
    return len(kernel.body)


def check_capacity(kernel: Kernel, config: MachineConfig, params: MachineParams) -> None:
    """Raise MimdCapacityError when the kernel exceeds the L0 stores."""
    rolled = rolled_instruction_count(kernel)
    overhead = math.ceil(kernel.record_in / params.lmw_words) + kernel.record_out
    if rolled + overhead > params.l0_inst_capacity:
        raise MimdCapacityError(
            f"{kernel.name}: {rolled + overhead} instructions exceed the "
            f"{params.l0_inst_capacity}-entry L0 instruction store"
        )
    if config.l0_data:
        entries = kernel.indexed_constant_entries()
        if entries * params.l0_entry_bytes > params.l0_data_bytes:
            raise MimdCapacityError(
                f"{kernel.name}: {entries} table entries exceed the "
                f"{params.l0_data_bytes}B L0 data store"
            )


class _Plan(NamedTuple):
    """One trip count's compiled record schedule (see ``_plan``)."""

    steps: list     # (offset, extra, base, size, multiplier, addend)
    body_end: tuple
    stores: list    # (slot, offset, extra) per kernel output
    final: tuple
    executed: int
    skipped: int
    lut_trips: int
    useful: int


def _split(expr: Dict[int, int]) -> tuple:
    """A compiled time as (offset from the latest anchor, other terms)."""
    top = max(expr)
    return expr[top], tuple((v, c) for v, c in expr.items() if v != top)


def _latest(anchors: List[Number], offset: int, extra: tuple) -> Number:
    """Evaluate a compiled time: ``max(P_v + c)`` over its terms."""
    latest = anchors[-1] + offset
    for v, c in extra:
        if anchors[v] + c > latest:
            latest = anchors[v] + c
    return latest


class MimdEngine:
    """Times (and optionally computes) a MIMD run of a kernel."""

    def __init__(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: MachineParams,
        memory: MemorySystem,
        functional: bool = False,
        nodes: Optional[Sequence[int]] = None,
    ):
        """``nodes`` restricts execution to a subset of the array — the
        paper's partitioned-pipeline mode ("the ALU array can thus be
        partitioned into multiple dynamically issued cores", Section 4.3).
        Default: every node."""
        if not config.local_pc:
            raise ValueError(f"{config.name} is not a MIMD configuration")
        check_capacity(kernel, config, params)
        self.kernel = kernel
        self.config = config
        self.params = params
        self.memory = memory
        self.functional = functional
        self.nodes = list(nodes) if nodes is not None else list(
            range(params.nodes)
        )
        if not self.nodes:
            raise ValueError("MIMD partition needs at least one node")
        if any(not 0 <= n < params.nodes for n in self.nodes):
            raise ValueError(f"node ids out of range 0..{params.nodes - 1}")
        duplicates = sorted(n for n, k in Counter(self.nodes).items() if k > 1)
        if duplicates:
            raise ValueError(f"duplicate node ids {duplicates} in MIMD partition")
        self.stats = MimdStats()
        self._table_base = {tid: 1 << 20 for tid in kernel.tables}
        self._space_base = {
            sid: (1 << 22) + (1 << 18) * i
            for i, sid in enumerate(sorted(kernel.spaces))
        }
        # Per-instruction timing metadata, computed once per engine: an
        # (iid, producer iids, latency, access) tuple where ``access`` is
        # None for fixed-latency ops and (is_lut, base, size, multiplier,
        # addend) for a blocking load through the L1 (record-word and
        # constant operands never delay issue, so they drop out).
        meta = []
        for inst in kernel.body:
            producers = tuple(
                s.producer for s in inst.srcs if isinstance(s, InstResult)
            )
            access = None
            latency = params.latencies[inst.op.opclass]
            if inst.op.name == "LUT" and config.l0_data:
                latency = params.l0_data_latency
            elif inst.op.name == "LUT":
                access = (True, self._table_base[inst.table],
                          len(kernel.tables[inst.table]), 31, inst.iid)
            elif inst.op.name == "LDI":
                access = (False, self._space_base[inst.space],
                          len(kernel.spaces[inst.space]), 97, inst.iid * 13)
            meta.append((inst.iid, producers, latency, access))
        self._meta = meta
        self._chunks = [
            range(c * params.lmw_words,
                  min((c + 1) * params.lmw_words, kernel.record_in))
            for c in range(math.ceil(kernel.record_in / params.lmw_words))
        ]
        self._plans: Dict[int, _Plan] = {}

    def _plan(self, trips: int) -> _Plan:
        """Memoized per-trip-count schedule of one record's timing.

        Anchor ``P_0`` is the PC after the record fetch and anchor
        ``P_j`` the PC after the j-th blocking L1 load.  Every other
        time in :meth:`_run_record_reference` is a max over anchors plus
        constants (record words and load results are ready by the PC
        that follows them), so each compiles to a ``{v: c}`` dict
        meaning ``max(P_v + c)``, stored as an offset from the latest
        anchor plus the other ``(v, c)`` terms.  A term is dropped only
        when a kept later anchor provably dominates it via
        ``bounds[u][v]``, the closure of ``P_j >= issue_j + 1``.
        """
        plan = self._plans.get(trips)
        if plan is not None:
            return plan
        kernel = self.kernel
        live = {i.iid for i in kernel.live_instructions(trips)}
        bounds: List[Dict[int, int]] = [{}]

        def merge(expr, other, shift=0):
            """``expr = max(expr, other + shift)``, term by term."""
            for v, c in other.items():
                if v not in expr or c + shift > expr[v]:
                    expr[v] = c + shift
            return expr

        def prune(expr):
            """Drop the terms a kept later-anchor term dominates."""
            kept: Dict[int, int] = {}
            for v in sorted(expr, reverse=True):
                if all(c + bounds[u][v] < expr[v] for u, c in kept.items()):
                    kept[v] = expr[v]
            return kept

        pc: Dict[int, int] = {0: 0}
        ready: Dict[int, Dict[int, int]] = {}
        steps = []
        lut_trips = 0
        for iid, producers, latency, access in self._meta:
            if iid not in live:
                continue
            issue = dict(pc)
            for p in producers:
                merge(issue, ready.get(p, {}))
            issue = prune(issue)
            pc = merge({}, issue, 1)
            if access is None:
                ready[iid] = merge({}, issue, latency)
                continue
            is_lut, base, size, multiplier, addend = access
            lut_trips += is_lut
            steps.append((*_split(issue), base, size, multiplier, addend))
            bound: Dict[int, int] = {}
            for v, c in issue.items():
                merge(bound, {v: 0, **bounds[v]}, c + 1)
            bounds.append(bound)
            pc = {len(steps): 0}
        body_end = _split(pc)
        stores = []
        for producer, slot in kernel.outputs:
            issue = dict(pc)
            if producer in live:
                issue = prune(merge(issue, ready.get(producer, {})))
            stores.append((slot, *_split(issue)))
            pc = merge({}, issue, 1)
        if kernel.loop.variable:
            pc = merge({}, pc, trips)
        elif (kernel.loop.static_trips or 1) > 1:
            pc = merge({}, pc, kernel.loop.static_trips)
        plan = _Plan(steps, body_end, stores, _split(pc), len(live),
                     len(kernel.body) - len(live), lut_trips,
                     kernel.useful_ops_live(trips))
        self._plans[trips] = plan
        return plan

    # ---- per-record execution on one node ------------------------------------

    def _run_record(
        self, node: int, start: int, record: Sequence[Number], record_index: int
    ) -> tuple:
        """Execute one record on ``node`` starting at cycle ``start``.

        Returns ``(next_free_cycle, outputs)`` where outputs is None in
        timing-only mode.  Functional runs take the reference loop
        (which also computes values); timing-only runs replay the
        record's compiled :meth:`_plan`: the LMW chunk fetches, one L1
        access per live load and one batched store flush, with every
        other cycle an anchor plus a constant.  Both paths produce
        identical cycle times, memory traffic and stats.
        """
        if self.functional:
            return self._run_record_reference(node, start, record,
                                              record_index)
        params = self.params
        memory = self.memory
        stats = self.stats
        row = node // params.cols
        edge = params.route_to_row_edge(node)
        kernel = self.kernel
        (steps, body_end, stores, final, executed, skipped, lut_trips,
         _useful) = self._plan(kernel.trip_count(record))

        phases = PHASES.enabled
        mem_started = perf_counter() if phases else 0.0
        pc_time = start
        smc_stream = self.config.smc_stream
        l1_access = memory.l1_access
        lmw_deliver_fast = memory.lmw_deliver_fast
        load_stalls = 0
        for words in self._chunks:
            request = pc_time + edge
            if smc_stream:
                deliveries = lmw_deliver_fast(
                    row, request, len(words), scattered=True
                )
            else:
                base = (1 << 24) + record_index * kernel.record_in
                deliveries = [l1_access(base + w, request) for w in words]
            chunk_ready = pc_time + 1
            for ready in deliveries:
                back = ready + edge
                if back > chunk_ready:
                    chunk_ready = back
            load_stalls += chunk_ready - (pc_time + 1)
            pc_time = chunk_ready
        if phases:
            PHASES.add("mimd_memory", perf_counter() - mem_started)

        anchors = [pc_time]
        for c, extra, base, size, multiplier, addend in steps:
            issue = _latest(anchors, c, extra) if extra else anchors[-1] + c
            done = l1_access(
                base + (record_index * multiplier + addend) % size,
                issue + edge,
            ) + edge
            anchors.append(done if done > issue + 1 else issue + 1)
        load_stalls += _latest(anchors, *body_end) - pc_time - executed

        # The row store buffer's pushes are order-preserving and their
        # drain times are not consumed here, so the record's stores
        # flush in one batched call.
        if stores:
            out_base = (1 << 26) + record_index * kernel.record_out
            pushes = [
                (out_base + slot, _latest(anchors, c, extra) + edge)
                for slot, c, extra in stores
            ]
            if phases:
                mem_started = perf_counter()
            memory.smc_store_many(row, pushes)
            if phases:
                PHASES.add("mimd_memory", perf_counter() - mem_started)

        stats.load_stall_cycles += load_stalls
        stats.instructions_executed += executed
        stats.instructions_skipped += skipped
        stats.lut_l1_trips += lut_trips
        return _latest(anchors, *final), None

    def _run_record_reference(
        self, node: int, start: int, record: Sequence[Number], record_index: int
    ) -> tuple:
        """Reference per-record loop: the executable spec for
        :meth:`_run_record`, and the path that computes output values in
        functional mode."""
        kernel = self.kernel
        params = self.params
        memory = self.memory
        row = node // params.cols
        edge = params.route_to_row_edge(node)

        trips = kernel.trip_count(record)
        live = {i.iid for i in kernel.live_instructions(trips)}

        pc_time = start
        word_ready: List[int] = [0] * kernel.record_in
        # The record's loads are issued from this node and routed over the
        # mesh to the row bank (the paper's MIMD penalty).  The simple
        # in-order fetch/register-read/execute pipeline blocks on each
        # outstanding load, and the scattered requests forfeit the
        # vector-fetch port amortization of the SIMD schedules.  Without
        # the streamed-memory mechanism configured, records come through
        # the cached L1 hierarchy instead.
        for chunk in range(math.ceil(kernel.record_in / params.lmw_words)):
            words = range(
                chunk * params.lmw_words,
                min((chunk + 1) * params.lmw_words, kernel.record_in),
            )
            request = pc_time + edge  # request routed to the row bank
            if self.config.smc_stream:
                deliveries = memory.lmw_deliver(
                    row, request, len(words), scattered=True
                )
            else:
                base = (1 << 24) + record_index * kernel.record_in
                deliveries = [
                    memory.l1_access(base + w, request) for w in words
                ]
            chunk_ready = pc_time + 1
            for w, ready in zip(words, deliveries):
                word_ready[w] = ready + edge  # data routed back to the node
                chunk_ready = max(chunk_ready, word_ready[w])
            self.stats.load_stall_cycles += chunk_ready - (pc_time + 1)
            pc_time = chunk_ready  # blocking load: stall until data returns

        ready_at: Dict[int, int] = {}
        values: List[Optional[Number]] = [None] * len(kernel.body) \
            if self.functional else []

        def operand_time(src) -> int:
            if isinstance(src, InstResult):
                return ready_at.get(src.producer, start)
            if isinstance(src, RecordInput):
                return word_ready[src.index]
            return 0  # constants live in node registers, immediates encoded

        def operand_value(src) -> Number:
            if isinstance(src, InstResult):
                value = values[src.producer]
                assert value is not None
                return value
            if isinstance(src, RecordInput):
                return record[src.index]
            assert isinstance(src, (Const, Immediate))
            return src.value

        for inst in kernel.body:
            is_live = inst.iid in live
            if self.functional:
                # Predicated graphs compute everywhere (see module note).
                args = [operand_value(s) for s in inst.srcs]
                if inst.op.name == "LUT":
                    table = kernel.tables[inst.table]
                    values[inst.iid] = table[int(args[0]) % len(table)]
                elif inst.op.name == "LDI":
                    space = kernel.spaces[inst.space]
                    values[inst.iid] = space[int(args[0]) % len(space)]
                else:
                    values[inst.iid] = inst.op.semantic(*args)
            if not is_live:
                self.stats.instructions_skipped += 1
                continue

            operands_ready = max(
                (operand_time(s) for s in inst.srcs), default=start
            )
            issue = max(pc_time, operands_ready)
            self.stats.load_stall_cycles += issue - pc_time
            self.stats.instructions_executed += 1
            pc_time = issue + 1

            if inst.op.name == "LUT" and not self.config.l0_data:
                # Mesh round trip to the shared L1 for the lookup.  The
                # simple in-order pipeline has no non-blocking load queue,
                # so remote accesses stall the node until data returns.
                self.stats.lut_l1_trips += 1
                address = self._table_base[inst.table] + (
                    (record_index * 31 + inst.iid) %
                    len(kernel.tables[inst.table])
                )
                done = memory.l1_access(address, issue + edge) + edge
                self.stats.load_stall_cycles += max(0, done - pc_time)
                pc_time = max(pc_time, done)
            elif inst.op.name == "LUT":
                done = issue + params.l0_data_latency
            elif inst.op.name == "LDI":
                space_len = len(kernel.spaces[inst.space])
                address = self._space_base[inst.space] + (
                    (record_index * 97 + inst.iid * 13) % space_len
                )
                done = memory.l1_access(address, issue + edge) + edge
                self.stats.load_stall_cycles += max(0, done - pc_time)
                pc_time = max(pc_time, done)
            else:
                done = issue + params.latencies[inst.op.opclass]
            ready_at[inst.iid] = done

        # Stores stream out through the row store buffer.
        out_values: Optional[List[Number]] = None
        if self.functional:
            out_values = [0] * kernel.record_out
        for producer, slot in kernel.outputs:
            if producer in live:
                issue = max(pc_time, ready_at.get(producer, start))
            else:
                issue = pc_time
            pc_time = issue + 1
            address = (1 << 26) + record_index * kernel.record_out + slot
            memory.smc_store(row, address, issue + edge)
            if self.functional:
                out_values[slot] = values[producer]

        # Loop-control overhead: one branch per executed loop trip.
        if kernel.loop.variable or (kernel.loop.static_trips or 1) > 1:
            pc_time += trips if kernel.loop.variable else (
                kernel.loop.static_trips or 1
            )
        return pc_time, out_values

    # ---- whole-run simulation ---------------------------------------------------

    def run(self, records: Sequence[Sequence[Number]]) -> RunResult:
        kernel = self.kernel
        params = self.params

        # Setup block: broadcast the rolled kernel into every L0 I-store
        # and (if configured) the tables into the L0 data stores.
        rolled = rolled_instruction_count(kernel)
        setup = math.ceil(rolled / params.fetch_bandwidth)
        setup += params.route_delay(params.rows + params.cols)  # broadcast
        if self.config.l0_data:
            entries = kernel.indexed_constant_entries()
            setup += math.ceil(entries / params.smc_dma_words_per_cycle)

        tracing = TRACE.enabled
        if tracing:
            TRACE.complete(
                CTL, "block sequencer", "setup broadcast", ts=0,
                dur=max(1, setup), args={"rolled_instructions": rolled},
            )

        sanitize = SANITIZER.enabled
        component = f"{kernel.name}|{self.config.name}"
        if sanitize:
            executed_before = self.stats.instructions_executed
            skipped_before = self.stats.instructions_skipped
            if self.config.l0_data:
                entries = kernel.indexed_constant_entries()
                if entries > params.l0_data_entries:
                    SANITIZER.report(
                        "mimd.l0_capacity", component,
                        "indexed-constant tables exceed the L0 data store",
                        entries=entries, capacity=params.l0_data_entries,
                    )

        node_time = {node: setup for node in self.nodes}
        outputs: List[Optional[List[Number]]] = []
        useful = 0
        for index, record in enumerate(records):
            node = self.nodes[index % len(self.nodes)]
            start = node_time[node]
            finish, out = self._run_record(node, start, record, index)
            if sanitize and finish < start:
                SANITIZER.report(
                    "mimd.monotone_pc_time", component,
                    "a record finished before its node started it",
                    record=index, start=start, finish=finish,
                )
            node_time[node] = finish
            if tracing:
                TRACE.complete(
                    EXEC, f"node {node}", f"record {index}",
                    ts=start, dur=max(1, finish - start),
                    args={"record": index},
                )
            outputs.append(out)
            useful += self._plan(kernel.trip_count(record)).useful

        drains = [
            self.memory.row_store_drain_cycle(r) for r in range(params.rows)
        ]
        cycles = max(max(node_time.values()), max(drains, default=0), 1)
        if sanitize:
            processed = (
                self.stats.instructions_executed - executed_before
                + self.stats.instructions_skipped - skipped_before
            )
            expected = len(records) * len(kernel.body)
            if processed != expected:
                SANITIZER.report(
                    "mimd.instruction_accounting", component,
                    "executed + skipped does not cover every body "
                    "instruction of every record",
                    processed=processed, expected=expected,
                )
            if cycles < setup:
                SANITIZER.report(
                    "mimd.setup_bound", component,
                    "total cycles fell below the setup broadcast",
                    cycles=int(cycles), setup=setup,
                )
        if METRICS.enabled:
            stats = self.stats
            METRICS.inc(
                "alu.instructions_executed", stats.instructions_executed
            )
            METRICS.inc(
                "alu.instructions_skipped", stats.instructions_skipped
            )
            METRICS.inc("alu.node_busy_cycles", stats.instructions_executed)
            METRICS.inc("alu.load_stall_cycles", stats.load_stall_cycles)
            METRICS.inc("lut.l1_trips", stats.lut_l1_trips)
            METRICS.gauge_max(
                "alu.occupancy",
                stats.instructions_executed / (len(self.nodes) * cycles),
            )
        return RunResult(
            kernel=kernel.name,
            config=self.config.name,
            records=len(records),
            cycles=int(cycles),
            useful_ops=useful,
            setup_cycles=setup,
            detail={
                "executed": float(self.stats.instructions_executed),
                "skipped": float(self.stats.instructions_skipped),
                "load_stalls": float(self.stats.load_stall_cycles),
                "lut_l1_trips": float(self.stats.lut_l1_trips),
            },
            outputs=outputs if self.functional else None,
        )

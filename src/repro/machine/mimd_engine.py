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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

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
        self.stats = MimdStats()
        self._table_base = {tid: 1 << 20 for tid in kernel.tables}
        self._space_base = {
            sid: (1 << 22) + (1 << 18) * i
            for i, sid in enumerate(sorted(kernel.spaces))
        }
        # Hot-loop metadata, computed once per engine: a flat
        # (iid, kind, producer iids, record-word deps, latency, base,
        # len) tuple per instruction replaces per-record isinstance
        # dispatch and table lookups (constants/immediates never delay
        # issue, so they drop out entirely), and live sets / useful-op
        # counts are memoized per trip count (they depend on nothing
        # else).
        meta = []
        for inst in kernel.body:
            producers = tuple(
                s.producer for s in inst.srcs if isinstance(s, InstResult)
            )
            word_deps = tuple(
                s.index for s in inst.srcs if isinstance(s, RecordInput)
            )
            if inst.op.name == "LUT":
                meta.append((inst.iid, 1, producers, word_deps, 0,
                             self._table_base[inst.table],
                             len(kernel.tables[inst.table])))
            elif inst.op.name == "LDI":
                meta.append((inst.iid, 2, producers, word_deps, 0,
                             self._space_base[inst.space],
                             len(kernel.spaces[inst.space])))
            else:
                meta.append((inst.iid, 0, producers, word_deps,
                             params.latencies[inst.op.opclass], 0, 0))
        self._meta = meta
        self._chunks = [
            range(c * params.lmw_words,
                  min((c + 1) * params.lmw_words, kernel.record_in))
            for c in range(math.ceil(kernel.record_in / params.lmw_words))
        ]
        self._live_cache: Dict[int, set] = {}
        self._useful_cache: Dict[int, int] = {}
        self._live_meta_cache: Dict[int, tuple] = {}

    def _live_set(self, trips: int) -> set:
        """Memoized set of live instruction ids for one trip count."""
        live = self._live_cache.get(trips)
        if live is None:
            live = {i.iid for i in self.kernel.live_instructions(trips)}
            self._live_cache[trips] = live
        return live

    def _live_meta(self, trips: int) -> tuple:
        """Memoized per-trip-count view of the hot-loop metadata.

        Filters :attr:`_meta` down to the live instructions for ``trips``
        (so the per-record loop never tests liveness) and precomputes the
        skipped count, the LUT L1-trip count, and the store plan — a
        ``(slot, producer-or-minus-one)`` pair per output.
        """
        entry = self._live_meta_cache.get(trips)
        if entry is None:
            live = self._live_set(trips)
            meta = [m for m in self._meta if m[0] in live]
            luts = sum(1 for m in meta if m[1] == 1)
            outs = [
                (slot, producer if producer in live else -1)
                for producer, slot in self.kernel.outputs
            ]
            entry = (meta, len(self._meta) - len(meta), luts, outs)
            self._live_meta_cache[trips] = entry
        return entry

    def _useful_live(self, trips: int) -> int:
        """Memoized useful-op count for one trip count."""
        useful = self._useful_cache.get(trips)
        if useful is None:
            useful = self.kernel.useful_ops_live(trips)
            self._useful_cache[trips] = useful
        return useful

    # ---- per-record execution on one node ------------------------------------

    def _run_record(
        self, node: int, start: int, record: Sequence[Number], record_index: int
    ) -> tuple:
        """Execute one record on ``node`` starting at cycle ``start``.

        Returns ``(next_free_cycle, outputs)`` where outputs is None in
        timing-only mode.  Functional runs take the straightforward
        reference loop (which also computes values); timing-only runs
        take an optimized loop over the precomputed instruction
        metadata: a whole LMW chunk's SMC-port and channel reservations
        issue in one batched memory call, and the record's stores flush
        through the row store buffer in one batched push.  Both paths
        produce identical cycle times and stats.
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

        trips = kernel.trip_count(record)
        meta, skipped, live_luts, outs = self._live_meta(trips)

        phases = PHASES.enabled
        mem_started = perf_counter() if phases else 0.0
        pc_time = start
        word_ready: List[int] = [0] * kernel.record_in
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
            for w, ready in zip(words, deliveries):
                back = ready + edge
                word_ready[w] = back
                if back > chunk_ready:
                    chunk_ready = back
            load_stalls += chunk_ready - (pc_time + 1)
            pc_time = chunk_ready
        if phases:
            PHASES.add("mimd_memory", perf_counter() - mem_started)

        # ``ready_at`` is a flat list indexed by kernel iid: entries of
        # never-executed producers stay ``start``, matching the
        # reference's ``ready_at.get(producer, start)``.
        ready_at: List[int] = [start] * len(kernel.body)
        l0_data = self.config.l0_data
        l0_latency = params.l0_data_latency
        lut_trips = 0

        for iid, kind, producers, word_deps, latency, mem_base, mem_len in meta:
            # Anything at or before pc_time cannot delay issue, so the
            # reference's ``max(..., default=start)`` reduces to the max
            # operand readiness (constants and absent operands are 0).
            operands_ready = 0
            for p in producers:
                t = ready_at[p]
                if t > operands_ready:
                    operands_ready = t
            for w in word_deps:
                t = word_ready[w]
                if t > operands_ready:
                    operands_ready = t
            issue = pc_time if pc_time >= operands_ready else operands_ready
            load_stalls += issue - pc_time
            pc_time = issue + 1

            if kind == 0:
                done = issue + latency
            elif kind == 1 and l0_data:
                done = issue + l0_latency
            else:
                if kind == 1:
                    address = mem_base + (
                        (record_index * 31 + iid) % mem_len
                    )
                else:
                    address = mem_base + (
                        (record_index * 97 + iid * 13) % mem_len
                    )
                done = l1_access(address, issue + edge) + edge
                if done > pc_time:
                    load_stalls += done - pc_time
                    pc_time = done
            ready_at[iid] = done
        if not l0_data:
            lut_trips = live_luts

        # Stores leave through the row store buffer; the buffer pushes
        # are order-preserving and their drain times are not consumed
        # here, so the whole record's stores flush in one batched call.
        out_base = (1 << 26) + record_index * kernel.record_out
        pushes = []
        for slot, producer in outs:
            if producer >= 0:
                issue = ready_at[producer]
                if pc_time > issue:
                    issue = pc_time
            else:
                issue = pc_time
            pc_time = issue + 1
            pushes.append((out_base + slot, issue + edge))
        if pushes:
            if phases:
                mem_started = perf_counter()
            memory.smc_store_many(row, pushes)
            if phases:
                PHASES.add("mimd_memory", perf_counter() - mem_started)

        if kernel.loop.variable or (kernel.loop.static_trips or 1) > 1:
            pc_time += trips if kernel.loop.variable else (
                kernel.loop.static_trips or 1
            )
        stats.load_stall_cycles += load_stalls
        stats.instructions_executed += len(meta)
        stats.instructions_skipped += skipped
        stats.lut_l1_trips += lut_trips
        return pc_time, None

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
            useful += self._useful_live(kernel.trip_count(record))

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

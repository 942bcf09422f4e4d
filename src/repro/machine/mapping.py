"""Mapping kernels onto the array for block-style (baseline / S-*) execution.

A *mapped window* is the set of kernel iterations resident in the array at
once: the spatially-unrolled iterations of the S-configurations (executed
repeatedly via instruction revitalization), or the in-flight hyperblock
window of the baseline ILP machine.  Mapping expands the architectural
kernel into machine-level instruction instances:

* compute instances (one per kernel instruction per iteration),
* regular-memory access instances — LMW wide loads near the row memory
  interface when the SMC streaming path is configured, or per-word L1
  loads otherwise (the baseline's overhead),
* store instances (store-buffer bound under SMC, L1-bound otherwise),
* scalar-constant register reads (elided when operand revitalization
  keeps constants alive in the reservation stations).

These overhead instances compete for node issue slots and memory ports in
the timing simulation, which is precisely how the paper's bandwidth
arguments become measured cycle counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.instruction import Const, Immediate, InstResult, RecordInput
from ..isa.kernel import Kernel
from ..isa.opcodes import OpClass
from .config import MachineConfig
from .fastcore import map_core as _map_core
from .params import MachineParams
from .placement import Placement, max_unroll, place_iterations, \
    place_iterations_reference

# Instance kinds
COMPUTE = "compute"
LUT = "lut"
LDI = "ldi"
LMW = "lmw"
LOAD = "load"
STORE = "store"


@dataclass(slots=True)
class Instance:
    """One machine-level instruction instance mapped to a node."""

    uid: int
    kind: str
    node: int
    iteration: int
    latency: int = 1
    #: uids notified when this instance's result is produced
    consumers: List[int] = field(default_factory=list)
    #: dataflow operands still outstanding at window start
    operands: int = 0
    useful: bool = False
    #: memory attributes
    row: int = 0
    words: int = 0
    address: int = 0
    #: per-word consumer lists for LMW deliveries
    word_consumers: List[List[int]] = field(default_factory=list)
    #: scheduling priority (negated height-from-sink: critical-path
    #: instructions issue first; lower value = higher priority)
    depth: int = 0
    #: kernel instruction id (compute instances) for traceability
    kernel_iid: int = -1


@dataclass(slots=True)
class ConstRead:
    """One register-file read delivering a scalar constant to consumers."""

    slot: int
    iteration: int
    consumers: List[int]


@dataclass(slots=True)
class _LazyExpansion:
    """Deferred instance materialization: the per-block expansion
    template plus the clone-loop inputs.

    The production expansion (:mod:`repro.machine.fastcore.map_core`)
    derives the engine's structure-of-arrays buffers straight from this
    template and never builds :class:`Instance` objects; the payload
    keeps enough to run the eager expansion's clone loop on demand — the
    reference engine loop, window-corruption tests and ad-hoc
    introspection all still see the exact instance stream
    :func:`map_window_reference` builds eagerly.  Addresses are *relative* (record word index / output
    slot); materialization adds the window's current bases, so a lazy
    window rebased n times materializes exactly like a fresh map at the
    final offset.
    """

    #: (kind, latency, rel consumers, operands, useful, words, address,
    #: depth, kernel iid) per kernel-body position
    body_rows: List[tuple]
    #: (word count, per-word rel consumer lists) per LMW chunk
    lmw_rows: List[tuple]
    #: (record word index, node body-pos, rel consumers) per L1 load
    load_rows: List[tuple]
    #: (output slot, producer body-pos) per store
    store_rows: List[tuple]
    #: (constant slot, rel consumers) per register-file read
    cr_rows: List[tuple]
    #: uids per iteration block
    block: int
    #: issue priority of the memory feeder instances
    top_priority: int


class MappedWindow:
    """Everything the dataflow engine needs to time one window.

    :func:`map_window` returns it *lazy*: the engine's
    structure-of-arrays buffers (``_fastcore_soa``) are the primary
    representation and ``instances`` / ``const_reads`` materialize on
    first touch from the retained expansion template
    (:class:`_LazyExpansion`) — bit-identical to the eager expansion of
    :func:`map_window_reference`.  :meth:`instance_view` serves
    single-instance introspection (traces, sanitizers, tests) without
    forcing materialization.
    """

    def __init__(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: MachineParams,
        iterations: int,
        instances: Optional[List[Instance]],
        const_reads: Optional[List[ConstRead]],
        placement: Placement,
        machine_instructions: int = 0,
        table_bases: Optional[Dict[int, int]] = None,
        space_bases: Optional[Dict[int, int]] = None,
        record_base: int = 0,
        out_base: int = 0,
        record_offset: int = 0,
    ):
        self.kernel = kernel
        self.config = config
        self.params = params
        self.iterations = iterations
        self._instances = instances
        self._const_reads = const_reads
        self.placement = placement
        #: total machine instructions (for fetch-bandwidth accounting)
        self.machine_instructions = machine_instructions
        #: address bases for the L1 paths
        self.table_bases = table_bases if table_bases is not None else {}
        self.space_bases = space_bases if space_bases is not None else {}
        self.record_base = record_base
        self.out_base = out_base
        #: record offset the regular-memory addresses are currently
        #: based at (see :func:`rebase_window`)
        self.record_offset = record_offset
        #: lazily-computed static issue order (uids sorted by
        #: (depth, uid)); a pure function of the instances, so engine
        #: runs share it
        self.issue_order: Optional[List[int]] = None
        #: deferred-expansion template (lazy windows only)
        self._lazy: Optional[_LazyExpansion] = None

    @property
    def useful_per_iteration(self) -> int:
        return self.kernel.useful_ops()

    @property
    def materialized(self) -> bool:
        """Whether the :class:`Instance` lists exist yet."""
        return self._instances is not None

    @property
    def instances(self) -> List[Instance]:
        if self._instances is None:
            self._materialize()
        return self._instances

    @property
    def const_reads(self) -> List[ConstRead]:
        if self._const_reads is None:
            self._materialize()
        return self._const_reads

    def instance_view(self, uid: int):
        """One mapped instance for introspection — the real
        :class:`Instance` when materialized, else a thin
        :class:`InstanceView` over the SoA buffers (no materialization).
        """
        if self._instances is not None:
            return self._instances[uid]
        if getattr(self, "_fastcore_soa", None) is not None:
            return InstanceView(self, uid)
        return self.instances[uid]

    def instance_views(self) -> List:
        """Views for every mapped instance (see :meth:`instance_view`)."""
        soa = getattr(self, "_fastcore_soa", None)
        if self._instances is None and soa is not None:
            return [InstanceView(self, uid) for uid in range(soa.n)]
        return list(self.instances)

    def _materialize(self) -> None:
        """Run the deferred clone loop (identical to the eager
        expansion's, down to list-object allocation order)."""
        lazy = self._lazy
        if lazy is None:
            raise RuntimeError(
                "window has neither instances nor an expansion template"
            )
        kernel = self.kernel
        cols = self.params.cols
        smc = self.config.smc_stream
        record_in = kernel.record_in
        record_out = kernel.record_out
        record_base = self.record_base
        out_base = self.out_base
        node_rows = self.placement.node_rows
        home_rows = self.placement.home_row
        instances: List[Instance] = []
        const_reads: List[ConstRead] = []
        append_instance = instances.append
        append_const = const_reads.append

        for u in range(self.iterations):
            assignment = node_rows[u]
            home_row = home_rows[u]
            base = uid = u * lazy.block
            for (kind, latency, cons, operands, useful, words, address,
                 depth, iid), node in zip(lazy.body_rows, assignment):
                append_instance(Instance(
                    uid, kind, node, u, latency,
                    [base + c for c in cons] if cons else [],
                    operands, useful, node // cols, words, address, [],
                    depth, iid,
                ))
                uid += 1
            if smc:
                interface_node = home_row * cols
                for n_words, wc in lazy.lmw_rows:
                    append_instance(Instance(
                        uid, LMW, interface_node, u, 1, [], 0, False,
                        home_row, n_words, 0,
                        [[base + c for c in cl] for cl in wc],
                        lazy.top_priority, -1,
                    ))
                    uid += 1
            else:
                for w, node_pos, cons in lazy.load_rows:
                    node = assignment[node_pos]
                    append_instance(Instance(
                        uid, LOAD, node, u, 1,
                        [base + c for c in cons] if cons else [],
                        0, False, node // cols, 0,
                        record_base + u * record_in + w,
                        [], lazy.top_priority, -1,
                    ))
                    uid += 1
            for out_slot, ppos in lazy.store_rows:
                node = assignment[ppos]
                append_instance(Instance(
                    uid, STORE, node, u, 1, [], 1, False,
                    home_row if smc else node // cols, 0,
                    out_base + u * record_out + out_slot, [], 0, -1,
                ))
                uid += 1
            for slot, cons in lazy.cr_rows:
                append_const(ConstRead(slot, u, [base + c for c in cons]))

        self._instances = instances
        self._const_reads = const_reads

    def _key(self) -> tuple:
        return (
            self.kernel, self.config, self.params, self.iterations,
            self.instances, self.const_reads, self.placement,
            self.machine_instructions, self.table_bases, self.space_bases,
            self.record_base, self.out_base, self.record_offset,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MappedWindow):
            return NotImplemented
        # Field-for-field, matching the former dataclass semantics
        # (issue_order excluded); comparing instances materializes both
        # sides, so lazy and eager windows compare by content.
        return self._key() == other._key()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "lazy" if self._instances is None else "materialized"
        return (
            f"<MappedWindow {self.kernel.name}|{self.config.name} "
            f"U={self.iterations} offset={self.record_offset} {state}>"
        )


class InstanceView:
    """Read-only :class:`Instance` facade over a lazy window's SoA.

    Field-for-field what materializing and indexing ``instances`` would
    return, read straight out of the window's fused structure-of-arrays
    buffers — O(1), no Instance construction.  Addresses resolve at the
    window's *current* record offset, exactly like rebased instances.
    """

    __slots__ = ("_window", "_soa", "uid")

    def __init__(self, window: MappedWindow, uid: int):
        self._window = window
        self._soa = window._fastcore_soa
        self.uid = uid

    @property
    def kind(self) -> str:
        return self._soa.kinds[self.uid]

    @property
    def node(self) -> int:
        return self._soa.nodes_of[self.uid]

    @property
    def iteration(self) -> int:
        return self._soa.iters[self.uid]

    @property
    def latency(self) -> int:
        return self._soa.latencies[self.uid]

    @property
    def consumers(self) -> List[int]:
        return [cuid for cuid, _delay in self._soa.cons[self.uid]]

    @property
    def operands(self) -> int:
        return self._soa.operands[self.uid]

    @property
    def useful(self) -> bool:
        return self._soa.useful[self.uid]

    @property
    def row(self) -> int:
        return self._soa.rows[self.uid]

    @property
    def words(self) -> int:
        return self._soa.lmw_words[self.uid]

    @property
    def address(self) -> int:
        soa = self._soa
        return int(
            soa.addr_at0[self.uid]
            + self._window.record_offset * soa.addr_stride[self.uid]
        )

    @property
    def word_consumers(self) -> List[List[int]]:
        words = self._soa.lmw_cons[self.uid]
        if not words:
            return []
        return [[cuid for cuid, _delay in word] for word in words]

    @property
    def depth(self) -> int:
        return self._soa.depths[self.uid]

    @property
    def kernel_iid(self) -> int:
        return self._soa.kiids[self.uid]

    def to_instance(self) -> Instance:
        """A real (detached) :class:`Instance` with this view's fields."""
        return Instance(
            self.uid, self.kind, self.node, self.iteration, self.latency,
            list(self.consumers), self.operands, self.useful, self.row,
            self.words, self.address, self.word_consumers, self.depth,
            self.kernel_iid,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Instance, InstanceView)):
            return NotImplemented
        return (
            self.uid == other.uid
            and self.kind == other.kind
            and self.node == other.node
            and self.iteration == other.iteration
            and self.latency == other.latency
            and self.consumers == other.consumers
            and self.operands == other.operands
            and self.useful == other.useful
            and self.row == other.row
            and self.words == other.words
            and self.address == other.address
            and self.word_consumers == other.word_consumers
            and self.depth == other.depth
            and self.kernel_iid == other.kernel_iid
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<InstanceView uid={self.uid} kind={self.kind} "
            f"node={self.node} iter={self.iteration}>"
        )


def overhead_per_iteration(kernel: Kernel, config: MachineConfig, params: MachineParams) -> int:
    """Machine instructions added around the kernel body per iteration."""
    if config.smc_stream:
        n_loads = math.ceil(kernel.record_in / params.lmw_words)
    else:
        n_loads = kernel.record_in
    return n_loads + kernel.record_out


def window_iterations(kernel: Kernel, config: MachineConfig, params: MachineParams) -> int:
    """How many iterations are concurrently resident for this config."""
    per_iter = len(kernel.body) + overhead_per_iteration(kernel, config, params)
    if config.inst_revitalize:
        return max_unroll(
            kernel, params,
            overhead_per_iter=overhead_per_iteration(kernel, config, params),
        )
    # Baseline: the hyperblock in-flight window.  The compiler unrolls at
    # most ``baseline_unroll_cap`` iterations per 128-instruction block and
    # the processor keeps ``baseline_blocks_in_flight`` blocks in flight.
    in_flight = params.baseline_blocks_in_flight * params.baseline_block_insts
    by_capacity = max(1, round(in_flight / per_iter))
    by_unroll = params.baseline_unroll_cap * params.baseline_blocks_in_flight
    return max(1, min(by_capacity, by_unroll))


# Address-space layout for the L1/baseline paths (word addresses).  Data
# regions are spaced so streams, tables and textures never alias.
_TABLE_REGION = 1 << 20
_SPACE_REGION = 1 << 22
_RECORD_REGION = 1 << 24
_OUTPUT_REGION = 1 << 26


def _expansion_plan(kernel: Kernel, config: MachineConfig, params: MachineParams):
    """Per-kernel-instruction expansion plan, classified once instead of
    per iteration: instance template fields plus the operand split
    (producer iids, record-word indices, constant slots).  The operand
    count an instance starts with follows directly — immediates are
    encoded in the instruction and contribute nothing.  Shared by the
    template-cloning expansion in :mod:`repro.machine.fastcore.map_core`
    and the eager expansion of :func:`map_window_reference`.

    Memoized on the kernel instance, keyed by the config/param fields
    the classification can depend on (the plan is iteration-count
    independent, so a kernel swept across configurations classifies
    each body once per distinct key).  The returned structures are
    shared and treated as read-only by both expansions.
    """
    key = (
        config.l0_data, config.operand_revitalize, config.smc_stream,
        params.l0_data_latency, params.lmw_words,
        tuple(sorted(
            ((opclass.name, latency)
             for opclass, latency in params.latencies.items()),
        )),
    )
    memo = kernel.__dict__.setdefault("_expansion_plan_memo", {})
    hit = memo.get(key)
    if hit is not None:
        return hit

    table_bases = {tid: _TABLE_REGION + 4096 * i
                   for i, tid in enumerate(sorted(kernel.tables))}
    space_bases = {sid: _SPACE_REGION + (1 << 18) * i
                   for i, sid in enumerate(sorted(kernel.spaces))}

    # Issue priority: height-from-sink (critical-path first).  Stores and
    # leaves get low priority; memory feeders get the highest.
    heights = [1] * len(kernel.body)
    consumers_map = kernel.consumers()
    for kinst in reversed(kernel.body):
        cons = consumers_map[kinst.iid]
        if cons:
            heights[kinst.iid] = 1 + max(heights[c] for c, _ in cons)
    top_priority = -(max(heights, default=1) + 1)
    lat = params.latencies

    body_plan = []
    for kinst in kernel.body:
        if kinst.op.name == "LUT":
            kind = LUT
            latency = params.l0_data_latency if config.l0_data else 1
            address, words = table_bases[kinst.table], 0
        elif kinst.op.name == "LDI":
            kind = LDI
            latency = 1
            address = space_bases[kinst.space]
            words = len(kernel.spaces[kinst.space])
        else:
            kind = COMPUTE
            latency = lat[kinst.op.opclass]
            address, words = 0, 0
        producers = [s.producer for s in kinst.srcs if isinstance(s, InstResult)]
        rec_srcs = [s.index for s in kinst.srcs if isinstance(s, RecordInput)]
        const_slots = [s.slot for s in kinst.srcs if isinstance(s, Const)]
        operands = len(producers) + len(rec_srcs)
        if not config.operand_revitalize:
            operands += len(const_slots)
        body_plan.append((
            kinst.iid, kind, latency, address, words, kinst.useful,
            -heights[kinst.iid], producers, rec_srcs, const_slots, operands,
        ))

    n_chunks = math.ceil(kernel.record_in / params.lmw_words)
    chunk_words = [
        range(c * params.lmw_words,
              min((c + 1) * params.lmw_words, kernel.record_in))
        for c in range(n_chunks)
    ]
    plan = body_plan, top_priority, table_bases, space_bases, chunk_words
    memo[key] = plan
    return plan


def map_window(
    kernel: Kernel,
    config: MachineConfig,
    params: MachineParams,
    iterations: Optional[int] = None,
    record_offset: int = 0,
) -> MappedWindow:
    """Expand and place one window of ``iterations`` kernel iterations.

    ``record_offset`` advances the regular-memory addresses so consecutive
    windows stream through memory (used to measure warm steady-state
    windows on the cached paths).  The window comes back lazy, built by
    the template-cloned expansion of
    :func:`repro.machine.fastcore.map_core.expand_window`;
    :func:`map_window_reference` is its eager oracle.
    """
    if config.local_pc:
        raise ValueError("MIMD configurations use repro.machine.mimd_engine")
    U = iterations if iterations is not None else window_iterations(kernel, config, params)
    placement = place_iterations(kernel, params, U)
    return _map_core.expand_window(
        kernel, config, params, U, record_offset, placement
    )


def map_window_reference(
    kernel: Kernel,
    config: MachineConfig,
    params: MachineParams,
    iterations: Optional[int] = None,
    record_offset: int = 0,
) -> MappedWindow:
    """Eager expansion: the executable specification of :func:`map_window`.

    Places with :func:`place_iterations_reference` and builds every
    :class:`Instance` up front, iteration by iteration.  The
    equivalence suites pin :func:`map_window` to it field for field.
    """
    if config.local_pc:
        raise ValueError("MIMD configurations use repro.machine.mimd_engine")
    U = iterations if iterations is not None else window_iterations(kernel, config, params)
    placement = place_iterations_reference(kernel, params, U)

    instances: List[Instance] = []
    const_reads: List[ConstRead] = []
    (body_plan, top_priority, table_bases, space_bases,
     chunk_words) = _expansion_plan(kernel, config, params)
    record_base = _RECORD_REGION + record_offset * kernel.record_in
    out_base = _OUTPUT_REGION + record_offset * kernel.record_out
    cols = params.cols
    node_of = placement.node_of
    append_instance = instances.append

    # uid of the compute instance for each kernel iid, per iteration
    uid_rows: List[List[int]] = []

    for u in range(U):
        # ---- compute instances --------------------------------------------
        uid_row = [0] * len(kernel.body)
        in_consumers: List[List[int]] = [[] for _ in range(kernel.record_in)]
        const_consumers: Dict[int, List[int]] = {}
        for (iid, kind, latency, address, words, useful, depth,
             _producers, rec_srcs, const_slots, _operands) in body_plan:
            node = node_of[(u, iid)]
            uid = len(instances)
            append_instance(Instance(
                uid, kind, node, u, latency, [], 0, useful,
                node // cols, words, address, [], depth, iid,
            ))
            uid_row[iid] = uid
            for w in rec_srcs:
                in_consumers[w].append(uid)
            for slot in const_slots:
                const_consumers.setdefault(slot, []).append(uid)
        uid_rows.append(uid_row)

        home_row = placement.home_row[u]
        # ---- regular-memory input instances ---------------------------------
        if config.smc_stream:
            # One LMW per lmw_words-wide chunk, placed at the row interface.
            interface_node = home_row * cols
            for words in chunk_words:
                lmw = Instance(
                    len(instances), LMW, interface_node, u, 1, [], 0, False,
                    home_row, len(words), 0, [in_consumers[w] for w in words],
                    top_priority, -1,
                )
                append_instance(lmw)
        else:
            # Baseline: one L1 load per record word, placed by its first
            # consumer (or the iteration's first node when unconsumed).
            fallback = node_of[(u, 0)]
            for w in range(kernel.record_in):
                consumers = in_consumers[w]
                node = (instances[consumers[0]].node if consumers else fallback)
                load = Instance(
                    len(instances), LOAD, node, u, 1, list(consumers), 0,
                    False, node // cols, 0,
                    record_base + u * kernel.record_in + w, [],
                    top_priority, -1,
                )
                append_instance(load)

        # ---- scalar-constant register reads -----------------------------------
        if not config.operand_revitalize:
            for slot, consumers in sorted(const_consumers.items()):
                const_reads.append(ConstRead(slot, u, list(consumers)))

        # ---- store instances ----------------------------------------------------
        store_row = home_row if config.smc_stream else -1
        for producer, out_slot in kernel.outputs:
            puid = uid_row[producer]
            node = instances[puid].node
            store = Instance(
                len(instances), STORE, node, u, 1, [], 1, False,
                store_row if store_row >= 0 else node // cols, 0,
                out_base + u * kernel.record_out + out_slot, [],
                0, -1,  # stores issue when their value arrives; lowest urgency
            )
            append_instance(store)
            instances[puid].consumers.append(store.uid)

    # ---- dataflow edges -------------------------------------------------------
    for u in range(U):
        uid_row = uid_rows[u]
        for (iid, _kind, _latency, _address, _words, _useful, _depth,
             producers, _rec_srcs, _const_slots, operands) in body_plan:
            cuid = uid_row[iid]
            for producer in producers:
                instances[uid_row[producer]].consumers.append(cuid)
            instances[cuid].operands = operands

    machine_instructions = len(instances) + len(const_reads)
    return MappedWindow(
        kernel=kernel,
        config=config,
        params=params,
        iterations=U,
        instances=instances,
        const_reads=const_reads,
        placement=placement,
        machine_instructions=machine_instructions,
        table_bases=table_bases,
        space_bases=space_bases,
        record_base=record_base,
        out_base=out_base,
        record_offset=record_offset,
    )


def rebase_window(window: MappedWindow, record_offset: int) -> MappedWindow:
    """Re-address a mapped window to a new position in the record stream.

    The mapped *structure* (placement, instances, dataflow edges,
    priorities) is independent of where in the stream the window sits;
    only the regular-memory addresses move — L1 record loads by
    ``record_in`` words per record, stores by ``record_out`` words.
    Table and space addresses (LUT/LDI) are stream-position-independent,
    and LMW instances address their row bank by stream offset implicitly.

    Rebasing mutates ``window`` in place and returns it; the result is
    field-for-field identical to ``map_window(..., record_offset=...)``
    at the new offset (the equivalence suite pins this), at the cost of
    touching only the LOAD/STORE instances instead of rebuilding and
    re-placing the whole window.  Lazy windows rebase in O(1): only the
    bases and offset move, and both deferred materialization and the SoA
    address columns (kept relative to offset 0) resolve through them.
    """
    delta = record_offset - window.record_offset
    if delta == 0:
        return window
    delta_in = delta * window.kernel.record_in
    delta_out = delta * window.kernel.record_out
    if window.materialized:
        for inst in window._instances:
            kind = inst.kind
            if kind == LOAD:
                inst.address += delta_in
            elif kind == STORE:
                inst.address += delta_out
    window.record_base += delta_in
    window.out_base += delta_out
    window.record_offset = record_offset
    return window

"""Structure-of-arrays core for the grid dataflow engine.

This is the production path of :meth:`DataflowEngine.run`.  The
oracle, :meth:`DataflowEngine.run_reference`, walks instance objects and
re-derives routes per delivery; this core hoists all of that into a
one-time structure-of-arrays precompute cached on the window itself
(windows are shared across engine runs and sweep points via
:class:`~repro.machine.window_cache.MappedWindowCache`):

* a dispatch code per instance (compute-like / store / LMW / static-
  address L1 / load), replacing per-issue kind + config tests;
* per-instance consumer lists flattened to ``(consumer uid, route
  delay)`` pairs with the route delays computed in one vectorized
  pass over every producer→consumer edge of the window (the operand
  network as array arithmetic rather than per-delivery dict lookups),
  plus the per-instance network-hop totals the stats need;
* the LUT/LDI address streams evaluated as one vectorized hash per
  engine seed (cached per seed — the cold and warm passes use seeds 1
  and 2 on the same window).

LOAD/STORE addresses are affine in the window's record offset, so they
are evaluated once per offset from the SoA address columns.  The cycle
loop itself keeps the exact control flow of the reference loop — same
heaps, same ``active_nodes`` set add/discard sequence — because the
issue order inside one cycle is observable in the timings: this is a
data-layout rewrite, not a scheduling change, and the equivalence
suite pins it to the oracle bit for bit.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain, islice
from typing import Dict, List

import numpy as np

from ...check.sanitizer import SANITIZER
from ...obs.metrics import METRICS
from ...obs.trace import TRACE
from ..stats import WindowTiming
from . import SOA_COUNTERS


class WindowSoA:
    """Per-window flattened state shared by every engine run over it.

    The LOAD/STORE address columns are *affine in the record offset*:
    ``addr_at0 + record_offset * addr_stride`` is every instance's
    current address, so :func:`~repro.machine.mapping.rebase_window`
    never touches the SoA — the per-offset materialized address lists
    are cached in ``mem_addr_by_offset``.  ``const_deliveries`` holds
    the register-file constant arrivals as precomputed ``(consumer uid,
    cycle)`` pairs (FIFO port grants over a fixed read sequence are a
    pure function of the window), and ``has_l1`` marks windows whose
    issue loop takes the batched L1 path.
    """

    __slots__ = (
        "n", "codes", "nodes_of", "latencies", "rows", "edges", "kinds",
        "iters", "kiids", "operands", "useful", "depths", "zero_uids",
        "cons", "hops_of", "lmw_words", "lmw_cons", "lmw_hops",
        "lut_info", "ldi_info", "addresses_by_seed", "addr_at0",
        "addr_stride", "mem_addr_by_offset", "const_deliveries",
        "n_const_reads", "has_l1", "order", "rank_of",
    )


#: (nodes, cols, hop cycles) -> (hops row table, delay row table).  The
#: operand network is static per machine shape, so the all-pairs
#: manhattan-hop and route-delay matrices are computed once, vectorized,
#: and shared by every window built for that shape.
_ROUTE_TABLES: Dict[tuple, tuple] = {}


def _route_tables(params):
    """All-pairs (hops, delay) matrices for one machine shape."""
    key = (params.nodes, params.cols, params.hop_cycles)
    hit = _ROUTE_TABLES.get(key)
    if hit is None:
        nodes = np.arange(params.nodes, dtype=np.int64)
        r = nodes // params.cols
        c = nodes % params.cols
        hops = (np.abs(r[:, None] - r[None, :])
                + np.abs(c[:, None] - c[None, :]))
        # Elementwise identical to params.route_delay (a half-cycle-hop
        # ceiling) applied to params.node_distance.
        delays = np.ceil(hops * params.hop_cycles).astype(np.int64)
        hit = (hops, delays)
        _ROUTE_TABLES[key] = hit
    return hit


def _wire_edges(nodes_arr, counts, flat_cuids, n, hops_table, delay_table):
    """Per-uid ``(consumer uid, route delay)`` slices and hop totals.

    One vectorized gather over every producer→consumer edge:
    ``nodes_arr`` is the per-uid node column, ``counts`` the per-uid
    consumer-list lengths and ``flat_cuids`` their concatenation (plain
    ints, so the pairs index and hash at native speed downstream).
    """
    if flat_cuids:
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        cuid_arr = np.asarray(flat_cuids, dtype=np.int64)
        src = np.repeat(nodes_arr, counts)
        dst = nodes_arr[cuid_arr]
        edge_hops = hops_table[src, dst]
        hop_csum = np.zeros(len(flat_cuids) + 1, dtype=np.int64)
        np.cumsum(edge_hops, out=hop_csum[1:])
        hops_of = (hop_csum[offsets[1:]] - hop_csum[offsets[:-1]]).tolist()
        # One pass over the edge stream: each uid's row is sliced off
        # the live zip by its consumer count, skipping the intermediate
        # full pairs list (and the n slice copies) entirely.
        pairs_iter = zip(flat_cuids, delay_table[src, dst].tolist())
        take = islice
        counts_list = (
            counts.tolist() if isinstance(counts, np.ndarray) else counts
        )
        cons = [list(take(pairs_iter, c)) for c in counts_list]
    else:
        hops_of = [0] * n
        cons = [[] for _ in range(n)]
    return cons, hops_of


def build_soa(window) -> WindowSoA:
    """Flatten one mapped window into parallel per-uid arrays."""
    # Late import: mapping sits upstream of this module in the package
    # graph (placement pulls in the map core), so binding its kind
    # constants at call time keeps the import order irrelevant.
    from ..mapping import COMPUTE, LDI, LMW, LOAD, LUT, STORE

    params = window.params
    instances = window.instances
    kernel = window.kernel
    n = len(instances)
    edge_of = [params.route_to_row_edge(node) for node in range(params.nodes)]
    hops_table, delay_table = _route_tables(params)

    soa = WindowSoA()
    soa.n = n
    nodes_of = soa.nodes_of = [inst.node for inst in instances]
    soa.latencies = [inst.latency for inst in instances]
    soa.rows = [inst.row for inst in instances]
    soa.edges = [edge_of[node] for node in nodes_of]
    kinds = soa.kinds = [inst.kind for inst in instances]
    soa.iters = [inst.iteration for inst in instances]
    soa.kiids = [inst.kernel_iid for inst in instances]
    operands = soa.operands = [inst.operands for inst in instances]
    soa.useful = [inst.useful for inst in instances]
    soa.depths = [inst.depth for inst in instances]
    soa.lmw_words = [inst.words for inst in instances]
    soa.addresses_by_seed = {}

    code_of = {COMPUTE: 0, STORE: 1, LMW: 2, LOAD: 4,
               LUT: 0 if window.config.l0_data else 3, LDI: 3}
    codes = soa.codes = list(map(code_of.__getitem__, kinds))
    soa.has_l1 = any(code >= 3 for code in codes)

    # LOAD/STORE addresses as offset-0 columns plus an affine per-record
    # stride: subtracting the window's current offset recovers the
    # offset-0 base whatever position the stream sits at, so a window
    # flattened after rebasing carries the same columns as one flattened
    # fresh (and as the template expansion's).
    stride_of = {LOAD: kernel.record_in, STORE: kernel.record_out}
    stride_list = [stride_of.get(kind, 0) for kind in kinds]
    stride = np.asarray(stride_list, dtype=np.int64)
    soa.addr_stride = stride
    soa.addr_at0 = (
        np.fromiter(
            (inst.address for inst in instances), dtype=np.int64, count=n
        )
        - window.record_offset * stride
    )
    soa.mem_addr_by_offset = {}

    # Dataflow edges, wired in one flat vectorized pass: flatten every
    # instance's consumer list, look the per-edge (hops, delay) up with
    # one fancy-indexing gather, and carve the flat pair list back into
    # per-uid slices.  STOREs and LMWs keep empty ``consumers`` lists,
    # so they contribute zero-length slices here.
    nodes_arr = np.asarray(nodes_of, dtype=np.int64)
    counts = np.fromiter(
        (len(inst.consumers) for inst in instances),
        dtype=np.int64, count=n,
    )
    flat_cuids = list(chain.from_iterable(
        inst.consumers for inst in instances
    ))
    cons, hops_of = _wire_edges(
        nodes_arr, counts, flat_cuids, n, hops_table, delay_table
    )
    soa.cons = cons
    soa.hops_of = hops_of

    lmw_cons = soa.lmw_cons = [None] * n
    lmw_hops = soa.lmw_hops = [0] * n
    lut_rows = []  # (uid, base address, table size, iteration, kernel iid)
    ldi_rows = []  # (uid, base address, space size, iteration, kernel iid)
    delay_list = hops_list = None
    for uid, code in enumerate(codes):
        if code < 2:
            continue
        inst = instances[uid]
        if code == 2:
            if delay_list is None:
                delay_list = delay_table.tolist()
                hops_list = hops_table.tolist()
            delay_row = delay_list[nodes_of[uid]]
            hops_row = hops_list[nodes_of[uid]]
            total = 0
            words = []
            for word_cons in inst.word_consumers:
                consumer_nodes = [nodes_of[c] for c in word_cons]
                words.append(tuple(zip(
                    word_cons, [delay_row[cn] for cn in consumer_nodes]
                )))
                total += sum([hops_row[cn] for cn in consumer_nodes])
            lmw_cons[uid] = tuple(words)
            lmw_hops[uid] = total
        elif code == 3:  # LUT (L1 path) or LDI: static per-seed address
            if kinds[uid] == LUT:
                size = len(kernel.tables[kernel.body[inst.kernel_iid].table])
                lut_rows.append((uid, inst.address, size, inst.iteration,
                                 inst.kernel_iid))
            else:
                ldi_rows.append((uid, inst.address, max(1, inst.words),
                                 inst.iteration, inst.kernel_iid))

    soa.zero_uids = [uid for uid, left in enumerate(operands) if left == 0]
    soa.lut_info = _address_info(lut_rows)
    soa.ldi_info = _address_info(ldi_rows)

    # Register-file constant deliveries, precomputed once: the read
    # sequence is fixed per window and every read asks the FIFO regfile
    # ports for cycle 0, so the k-th grant is ``k // ports`` — exactly
    # what the reference loop's register-file prologue computes per run.
    const_reads = window.const_reads
    soa.n_const_reads = len(const_reads)
    deliveries: List[tuple] = []
    ports = params.regfile_read_ports
    latency = params.regfile_latency
    from_regfile = [
        params.route_from_regfile(node) for node in range(params.nodes)
    ]
    for k, read in enumerate(const_reads):
        grant = k // ports
        for cuid in read.consumers:
            deliveries.append((
                cuid, grant + latency + from_regfile[nodes_of[cuid]],
            ))
    soa.const_deliveries = deliveries

    # The static issue order (rank per uid) is a pure function of the
    # window; cache it there (the fused expansion fills it at map time).
    # np.lexsort's last key is primary: sort by depth, break ties by
    # uid — exactly sorted(zip(depth, uid)).
    order = window.issue_order
    if order is None:
        depth_arr = np.fromiter(
            (inst.depth for inst in instances), dtype=np.int64, count=n
        )
        order_arr = np.lexsort((np.arange(n), depth_arr))
        order = order_arr.tolist()
        window.issue_order = order
    else:
        order_arr = np.asarray(order, dtype=np.int64)
    soa.order = order
    rank_arr = np.empty(n, dtype=np.int64)
    rank_arr[order_arr] = np.arange(n)
    soa.rank_of = rank_arr.tolist()
    SOA_COUNTERS["built"] += 1
    if METRICS.enabled:
        METRICS.inc("fastcore.soa_built")
    return soa


def _address_info(rows):
    """Column arrays for the vectorized address hash (None when empty)."""
    if not rows:
        return None
    uids = [row[0] for row in rows]
    bases = np.asarray([row[1] for row in rows], dtype=np.int64)
    sizes = np.asarray([row[2] for row in rows], dtype=np.int64)
    iters = np.asarray([row[3] for row in rows], dtype=np.uint64)
    kiids = np.asarray([row[4] for row in rows], dtype=np.uint64)
    return uids, bases, sizes, iters, kiids


def _hash_stream(iters, kiids, seed):
    """Vectorized DataflowEngine._hash over instance columns."""
    mask = np.uint64(0xFFFFFFFF)
    x = (iters * np.uint64(2654435761) + kiids * np.uint64(40503)
         + np.uint64(seed * 97)) & mask
    x ^= x >> np.uint64(16)
    x = (x * np.uint64(2246822519)) & mask
    x ^= x >> np.uint64(13)
    return x.astype(np.int64)


def _addresses(soa: WindowSoA, seed: int) -> List[int]:
    """Per-uid L1 addresses for one engine seed (cached on the SoA)."""
    cached = soa.addresses_by_seed.get(seed)
    if cached is not None:
        return cached
    addresses = [0] * soa.n
    if soa.lut_info is not None:
        uids, bases, sizes, iters, kiids = soa.lut_info
        values = bases + _hash_stream(iters, kiids, seed) % sizes
        for uid, address in zip(uids, values.tolist()):
            addresses[uid] = address
    if soa.ldi_info is not None:
        uids, bases, sizes, iters, kiids = soa.ldi_info
        focus = (iters.astype(np.int64) * 97) % sizes
        delta = _hash_stream(iters, kiids, seed) % 33 - 16
        values = bases + (focus + delta) % sizes
        for uid, address in zip(uids, values.tolist()):
            addresses[uid] = address
    soa.addresses_by_seed[seed] = addresses
    return addresses


def run_array(engine) -> WindowTiming:
    """The production body of :meth:`DataflowEngine.run`."""
    from ..dataflow_engine import DeadlockError

    window = engine.window
    params = engine.params
    memory = engine.memory
    soa = getattr(window, "_fastcore_soa", None)
    if soa is None:
        soa = build_soa(window)
        window._fastcore_soa = soa
    else:
        SOA_COUNTERS["reused"] += 1
        if METRICS.enabled:
            METRICS.inc("fastcore.soa_reused")

    n = soa.n
    codes = soa.codes
    nodes_of = soa.nodes_of
    latencies = soa.latencies
    rows = soa.rows
    edges = soa.edges
    kinds = soa.kinds
    iters = soa.iters
    kiids = soa.kiids
    cons = soa.cons
    hops_of = soa.hops_of
    lmw_words = soa.lmw_words
    lmw_cons = soa.lmw_cons
    lmw_hops = soa.lmw_hops
    addresses = (
        _addresses(soa, engine._seed)
        if soa.lut_info is not None or soa.ldi_info is not None else None
    )
    # LOAD/STORE addresses at the window's current record offset — one
    # affine evaluation of the SoA columns per offset, cached (the cold
    # and warm passes revisit the same offsets across engine runs).
    offset = window.record_offset
    mem_addrs = soa.mem_addr_by_offset.get(offset)
    if mem_addrs is None:
        mem_addrs = (soa.addr_at0 + offset * soa.addr_stride).tolist()
        soa.mem_addr_by_offset[offset] = mem_addrs
    remaining = list(soa.operands)

    sanitize = SANITIZER.enabled
    trace = engine.trace
    if trace is None and (TRACE.enabled or sanitize):
        trace = []

    order = soa.order
    rank_of = soa.rank_of

    heappush = heapq.heappush
    heappop = heapq.heappop
    ready_heaps: List[List[int]] = [[] for _ in range(params.nodes)]
    active_nodes = set()
    arrivals: Dict[int, List[int]] = {}
    arrival_cycles: List[int] = []
    arrivals_pop = arrivals.pop
    arrivals_get = arrivals.get

    def schedule_arrival(uid: int, at: int) -> None:
        at = int(at)
        bucket = arrivals.get(at)
        if bucket is None:
            arrivals[at] = [uid]
            heappush(arrival_cycles, at)
        else:
            bucket.append(uid)

    # Register-file constant deliveries, replayed from the precomputed
    # (consumer uid, arrival) pairs — same arrivals, same bucket
    # insertion order as the reference loop's register-file prologue.
    stats = engine.stats
    stats.regfile_reads += soa.n_const_reads
    for cuid, at in soa.const_deliveries:
        schedule_arrival(cuid, at)

    for uid in soa.zero_uids:
        node = nodes_of[uid]
        heappush(ready_heaps[node], rank_of[uid])
        active_nodes.add(node)

    cycle = 0
    issued = 0
    total = n
    last_completion = 0
    store_drain = 0
    last_store_arrival = 0
    issued_delta = 0
    hops_delta = 0
    l1_delta = 0
    lmw_delta = 0
    l1_access_batch = memory.l1_access_batch
    smc_store = memory.smc_store
    lmw_deliver_fast = memory.lmw_deliver_fast
    ceil = math.ceil

    def sync_stats() -> None:
        stats.issued += issued_delta
        stats.network_hops += hops_delta
        stats.l1_accesses += l1_delta
        stats.lmw_requests += lmw_delta

    if not soa.has_l1:
      # No L1 round trips in this window (SMC-streamed loads, L0-resident
      # LUTs, no LDIs): the single-pass issue loop, minus the dead branch.
      while issued < total:
        # Deliver operands that arrive this cycle.
        while arrival_cycles and arrival_cycles[0] <= cycle:
            at = heappop(arrival_cycles)
            for uid in arrivals_pop(at, ()):
                left = remaining[uid] - 1
                remaining[uid] = left
                if left == 0:
                    node = nodes_of[uid]
                    heappush(ready_heaps[node], rank_of[uid])
                    active_nodes.add(node)

        # Each node issues at most one ready instruction this cycle.
        for node in list(active_nodes):
            heap = ready_heaps[node]
            if not heap:
                active_nodes.discard(node)
                continue
            uid = order[heappop(heap)]
            if not heap:
                active_nodes.discard(node)
            issued += 1
            issued_delta += 1
            code = codes[uid]
            if trace is not None:
                trace.append(
                    (cycle, node, kinds[uid], iters[uid], kiids[uid])
                )
            if code == 0:  # compute / L0-resident LUT
                completion = cycle + latencies[uid]
                for cuid, delay in cons[uid]:
                    at = completion + delay  # ints: no coercion needed
                    bucket = arrivals_get(at)
                    if bucket is None:
                        arrivals[at] = [cuid]
                        heappush(arrival_cycles, at)
                    else:
                        bucket.append(cuid)
                hops_delta += hops_of[uid]
            elif code == 1:  # store (affine address at the current offset)
                arrival = cycle + edges[uid]
                done = smc_store(rows[uid], mem_addrs[uid], arrival)
                completion = ceil(done)
                if completion > store_drain:
                    store_drain = completion
                if sanitize and arrival > last_store_arrival:
                    last_store_arrival = arrival
            else:  # code == 2: LMW wide load
                lmw_delta += 1
                word_cycles = lmw_deliver_fast(
                    rows[uid], cycle + 1, lmw_words[uid]
                )
                completion = cycle + 1
                for word_cycle, word_cons in zip(word_cycles, lmw_cons[uid]):
                    for cuid, delay in word_cons:
                        at = word_cycle + delay
                        key = int(at)
                        bucket = arrivals_get(key)
                        if bucket is None:
                            arrivals[key] = [cuid]
                            heappush(arrival_cycles, key)
                        else:
                            bucket.append(cuid)
                        if at > completion:
                            completion = at
                hops_delta += lmw_hops[uid]
            if completion > last_completion:
                last_completion = completion

        if issued >= total:
            break
        if active_nodes:
            cycle += 1
        elif arrival_cycles:
            cycle = arrival_cycles[0]
        else:
            sync_stats()
            raise DeadlockError(
                f"issued {issued}/{total} instances in window of "
                f"{window.kernel.name}; remaining operand counts are "
                "unsatisfiable"
            )

    else:
      # Windows with L1 round trips run a two-pass cycle: pass 1 pops
      # this cycle's issues (and traces them) while collecting the L1
      # address stream, which goes through the memory system as ONE
      # batched call; pass 2 schedules every issue's effects in the same
      # per-uid order pass 1 popped them.  Equivalence holds because the
      # batch preserves the relative order of the L1 ops (identical port
      # grants and tag state) and the SMC-side queues (store buffers,
      # LMW ports/channels) are independent of the L1 banks, so moving
      # the L1 calls ahead of same-cycle SMC calls changes no queue's
      # request sequence.
      l1_ready: List[int] = []
      while issued < total:
        # Deliver operands that arrive this cycle.
        while arrival_cycles and arrival_cycles[0] <= cycle:
            at = heappop(arrival_cycles)
            for uid in arrivals_pop(at, ()):
                left = remaining[uid] - 1
                remaining[uid] = left
                if left == 0:
                    node = nodes_of[uid]
                    heappush(ready_heaps[node], rank_of[uid])
                    active_nodes.add(node)

        # Pass 1: each node issues at most one ready instruction this
        # cycle; L1-bound issues contribute to the batch address stream.
        pend: List[int] = []
        pend_append = pend.append
        l1_addrs: List[int] = []
        l1_cycles: List[int] = []
        for node in list(active_nodes):
            heap = ready_heaps[node]
            if not heap:
                active_nodes.discard(node)
                continue
            uid = order[heappop(heap)]
            if not heap:
                active_nodes.discard(node)
            issued += 1
            issued_delta += 1
            if trace is not None:
                trace.append(
                    (cycle, node, kinds[uid], iters[uid], kiids[uid])
                )
            pend_append(uid)
            if codes[uid] >= 3:
                l1_addrs.append(
                    addresses[uid] if codes[uid] == 3 else mem_addrs[uid]
                )
                l1_cycles.append(cycle + edges[uid])

        if l1_addrs:
            l1_ready = l1_access_batch(l1_addrs, l1_cycles)
            l1_delta += len(l1_addrs)
        k = 0

        # Pass 2: schedule each issue's completions and arrivals.
        for uid in pend:
            code = codes[uid]
            if code == 0:  # compute / L0-resident LUT
                completion = cycle + latencies[uid]
                for cuid, delay in cons[uid]:
                    at = completion + delay
                    bucket = arrivals_get(at)
                    if bucket is None:
                        arrivals[at] = [cuid]
                        heappush(arrival_cycles, at)
                    else:
                        bucket.append(cuid)
                hops_delta += hops_of[uid]
            elif code == 1:  # store (affine address at the current offset)
                arrival = cycle + edges[uid]
                done = smc_store(rows[uid], mem_addrs[uid], arrival)
                completion = ceil(done)
                if completion > store_drain:
                    store_drain = completion
                if sanitize and arrival > last_store_arrival:
                    last_store_arrival = arrival
            elif code == 2:  # LMW wide load
                lmw_delta += 1
                word_cycles = lmw_deliver_fast(
                    rows[uid], cycle + 1, lmw_words[uid]
                )
                completion = cycle + 1
                for word_cycle, word_cons in zip(word_cycles, lmw_cons[uid]):
                    for cuid, delay in word_cons:
                        at = word_cycle + delay
                        key = int(at)
                        bucket = arrivals_get(key)
                        if bucket is None:
                            arrivals[key] = [cuid]
                            heappush(arrival_cycles, key)
                        else:
                            bucket.append(cuid)
                        if at > completion:
                            completion = at
                hops_delta += lmw_hops[uid]
            else:  # L1 round trip: LUT/LDI (code 3) or LOAD (code 4)
                back = l1_ready[k] + edges[uid]
                k += 1
                for cuid, delay in cons[uid]:
                    at = int(back + delay)
                    bucket = arrivals_get(at)
                    if bucket is None:
                        arrivals[at] = [cuid]
                        heappush(arrival_cycles, at)
                    else:
                        bucket.append(cuid)
                hops_delta += hops_of[uid]
                completion = back
            if completion > last_completion:
                last_completion = completion

        if issued >= total:
            break
        if active_nodes:
            cycle += 1
        elif arrival_cycles:
            cycle = arrival_cycles[0]
        else:
            sync_stats()
            raise DeadlockError(
                f"issued {issued}/{total} instances in window of "
                f"{window.kernel.name}; remaining operand counts are "
                "unsatisfiable"
            )

    sync_stats()
    if sanitize:
        engine._sanitize_run(
            trace, remaining, arrivals, store_drain, last_store_arrival
        )
    if METRICS.enabled or TRACE.enabled:
        engine._publish_observability(
            trace, int(max(last_completion, store_drain, 1))
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
            "network_hops": float(stats.network_hops),
            "l1_accesses": float(stats.l1_accesses),
            "regfile_reads": float(stats.regfile_reads),
            "lmw_requests": float(stats.lmw_requests),
        },
    )

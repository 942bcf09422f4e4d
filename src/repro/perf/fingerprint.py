"""Stable content fingerprints over simulation inputs.

A simulation point is fully determined by five inputs: the kernel's
dataflow structure, the :class:`~repro.machine.config.MachineConfig`,
the :class:`~repro.machine.params.MachineParams`, the record stream and
the engine seed.  Each gets a canonical JSON encoding hashed with
SHA-256, and :func:`run_fingerprint` combines them into the single
content address used by :class:`~repro.perf.cache.RunCache`.

Canonicalization rules:

* dataclass instances are encoded field by field in declaration order;
* dict keys are sorted (``json.dumps(sort_keys=True)``);
* enum-keyed dicts (``MachineParams.latencies``) use the enum *name*;
* floats rely on ``repr``-exact JSON encoding, so bit-identical inputs
  hash identically and any numeric drift changes the address;
* the kernel's ``trips_fn`` callable cannot be hashed — the kernel
  *name* and the unrolled predicated body stand in for it, and the
  record stream (which drives the trip counts) is hashed separately.

``SCHEMA_VERSION`` is folded into every run fingerprint; bump it
whenever the timing semantics of the engines change so stale on-disk
cache entries can never be replayed against a newer simulator.

Two memos make repeat addressing cheap without changing any address:
:func:`kernel_content_key` keeps the kernel hash on the (immutable)
kernel instance, and :func:`records_content_key` keeps a bounded LRU of
record-stream digests keyed by ``(kernel name, records, seed)`` — sound
because every workload generator is a pure function of its record
count and seed.  The LRU holds 64-character digests only, never
streams.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import fields
from typing import Callable, Optional, Sequence, Tuple

from ..isa.instruction import Const, Immediate, InstResult, RecordInput
from ..isa.kernel import Kernel
from ..machine.config import MachineConfig
from ..machine.params import MachineParams

#: Bump when engine timing semantics change (invalidates disk caches).
#: v2: RunResult.detail gained the memory-system metrics snapshot.
#: v3: the simulation backend identity is folded into every address
#: (``repro.backends``), and results carry a ``detail["backend"]`` tag.
#: v4: the active engine core was folded into every address.
#: v5: each engine has one production path, so the core left the
#: address again; v4 entries never replay.
SCHEMA_VERSION = 5

#: Backend part of a fingerprint when no backend is named: the grid
#: processor, whose parameters are already covered by
#: :func:`fingerprint_params`.  Must equal
#: ``repro.backends.GridBackend.fingerprint_part()`` so addresses
#: computed with and without the backend layer agree.
DEFAULT_BACKEND_PART = "grid"


def _digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode_operand(src) -> list:
    if isinstance(src, InstResult):
        return ["r", src.producer]
    if isinstance(src, RecordInput):
        return ["in", src.index]
    if isinstance(src, Const):
        return ["c", src.slot, src.value]
    if isinstance(src, Immediate):
        return ["imm", src.value]
    raise TypeError(f"unknown operand kind {src!r}")


def fingerprint_kernel(kernel: Kernel) -> str:
    """Content hash of a kernel's complete dataflow structure."""
    body = [
        [
            inst.iid,
            inst.op.name,
            [_encode_operand(s) for s in inst.srcs],
            inst.table,
            inst.space,
            inst.loop_iter,
        ]
        for inst in kernel.body
    ]
    doc = {
        "name": kernel.name,
        "body": body,
        "record_in": kernel.record_in,
        "record_out": kernel.record_out,
        "outputs": [list(pair) for pair in kernel.outputs],
        "tables": {str(tid): values for tid, values in kernel.tables.items()},
        "spaces": {str(sid): values for sid, values in kernel.spaces.items()},
        "loop": [
            kernel.loop.static_trips,
            kernel.loop.variable,
            kernel.loop.max_trips,
        ],
    }
    return _digest(doc)


def kernel_content_key(kernel: Kernel) -> str:
    """The kernel's structure fingerprint, memoized on the instance."""
    key = getattr(kernel, "_content_key", None)
    if key is None:
        key = fingerprint_kernel(kernel)
        kernel._content_key = key  # type: ignore[attr-defined]
    return key


def fingerprint_config(config: MachineConfig) -> str:
    """Content hash of a machine configuration (mechanism selection)."""
    doc = {f.name: getattr(config, f.name) for f in fields(config)}
    return _digest(doc)


def fingerprint_params(params: MachineParams) -> str:
    """Content hash of the substrate parameters (every knob)."""
    doc = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name == "latencies":
            value = {opclass.name: lat for opclass, lat in value.items()}
        doc[f.name] = value
    return _digest(doc)


def fingerprint_records(records: Sequence[Sequence]) -> str:
    """Content hash of a record stream (count and every word)."""
    doc = [len(records), [list(record) for record in records]]
    return _digest(doc)


#: Bound of the record-stream digest memo (entries are 64-char digests).
RECORDS_MEMO_SIZE = 256

_RECORDS_MEMO: "OrderedDict[Tuple[str, int, Optional[int]], str]" = (
    OrderedDict()
)
#: Service worker threads address points concurrently; the lock guards
#: the LRU's check-then-act (never the stream generation).
_RECORDS_LOCK = threading.Lock()


def records_content_key(
    kernel_name: str,
    records: int,
    seed: Optional[int] = None,
    stream: Optional[Callable[[], Sequence[Sequence]]] = None,
) -> str:
    """:func:`fingerprint_records` of a registry workload, memoized.

    The stream is generated only on a memo miss — by ``stream()`` when
    the caller already holds it, else by the kernel's registered
    ``workload(records[, seed])`` (``seed=None`` uses the generator's
    default seed, exactly like :class:`~repro.perf.parallel.SweepPoint`).
    """
    key = (kernel_name, records, seed)
    with _RECORDS_LOCK:
        digest = _RECORDS_MEMO.get(key)
        if digest is not None:
            _RECORDS_MEMO.move_to_end(key)
            return digest
    digest = fingerprint_records(
        stream() if stream is not None
        else generate_workload(kernel_name, records, seed)
    )
    with _RECORDS_LOCK:
        _RECORDS_MEMO[key] = digest
        while len(_RECORDS_MEMO) > RECORDS_MEMO_SIZE:
            _RECORDS_MEMO.popitem(last=False)
    return digest


def generate_workload(
    kernel_name: str, records: int, seed: Optional[int] = None
) -> list:
    """The registry kernel's record stream (``seed=None``: its default)."""
    # Imported lazily, like every registry lookup in repro.perf: this
    # module stays importable without loading the kernel modules.
    from ..kernels.registry import spec

    s = spec(kernel_name)
    if seed is None:
        return s.workload(records)
    return s.workload(records, seed)


def fingerprint_backend(name: str, params=None) -> str:
    """Content hash of a backend identity and its model parameters.

    ``params`` is the backend's own parameter dataclass (e.g.
    ``SimdParams``); enum-keyed dict fields (op-class cycle tables) are
    encoded by enum *name*, mirroring :func:`fingerprint_params`.  Pass
    ``params=None`` for backends whose timing is fully determined by the
    shared :class:`~repro.machine.params.MachineParams`.
    """
    doc = {"backend": name}
    if params is not None:
        encoded = {}
        for f in fields(params):
            value = getattr(params, f.name)
            if isinstance(value, dict):
                value = {
                    getattr(key, "name", str(key)): v
                    for key, v in value.items()
                }
            encoded[f.name] = value
        doc["params"] = encoded
    return f"{name}:{_digest(doc)}"


def combine_fingerprints(
    kernel_fp: str,
    config_fp: str,
    params_fp: str,
    records_fp: str,
    seed: int = 0,
    backend: str = DEFAULT_BACKEND_PART,
) -> str:
    """Combine precomputed part fingerprints into a run's content address.

    Callers that sweep one kernel/workload over many configurations can
    hash the invariant parts once and combine per point — the digest is
    identical to :func:`run_fingerprint` on the full inputs.  ``backend``
    is the simulating backend's :meth:`~repro.backends.Backend.fingerprint_part`
    (default: the grid processor), so results from different machine
    models can never alias in the cache.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "backend": backend,
        "kernel": kernel_fp,
        "config": config_fp,
        "params": params_fp,
        "records": records_fp,
        "seed": seed,
    }
    return _digest(doc)


def run_fingerprint(
    kernel: Kernel,
    config: MachineConfig,
    params: MachineParams,
    records: Sequence[Sequence],
    seed: int = 0,
    backend: str = DEFAULT_BACKEND_PART,
) -> str:
    """The content address of one deterministic simulation point."""
    return combine_fingerprints(
        fingerprint_kernel(kernel),
        fingerprint_config(config),
        fingerprint_params(params),
        fingerprint_records(records),
        seed,
        backend=backend,
    )

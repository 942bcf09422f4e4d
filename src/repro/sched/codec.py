"""Durable encoding of sweep points (the claim table's ``spec`` column).

A :class:`~repro.perf.parallel.SweepPoint` already carries only
reconstructible inputs (registry names, seeds, plain dataclasses), so
it JSON-encodes losslessly: any worker process — on any host sharing
the ledger file — can rebuild the exact simulation from the stored
document.  The only field needing care is
:class:`~repro.machine.params.MachineParams.latencies`, a dict keyed
by :class:`~repro.isa.opcodes.OpClass`; it round-trips through the
enum *names*.

:func:`point_fingerprint` computes the same content address
:func:`~repro.perf.parallel.simulate_point` runs under (including the
``engine_core`` pin), from memoized parts, so claim rows are keyed by
fingerprint before any worker touches them — and cache-hit points
never generate their workload.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional


def encode_point(point, memo: Optional[dict] = None) -> Dict[str, Any]:
    """A JSON-safe document :func:`decode_point` rebuilds the point from.

    Pass one ``memo`` dict across a batch to encode each distinct
    config/params object once (see :func:`_encoded_once`).
    """
    memo = {} if memo is None else memo
    return {
        "kernel": point.kernel,
        "config": _encoded_once(memo, point.config, dataclasses.asdict),
        "params": _encoded_once(memo, point.params, _params_doc),
        "records": point.records,
        "workload_seed": point.workload_seed,
        "cache_dir": point.cache_dir,
        "backend": point.backend,
        "ledger_path": point.ledger_path,
        "engine_core": point.engine_core,
    }


def _params_doc(params) -> Dict[str, Any]:
    doc = dataclasses.asdict(params)
    doc["latencies"] = {
        opclass.name: latency for opclass, latency in params.latencies.items()
    }
    return doc


def _encoded_once(memo: dict, obj, encode) -> Dict[str, Any]:
    """``encode(obj)``, computed once per distinct object in ``memo``.

    Keyed on identity: ``MachineParams`` is unhashable (its
    ``latencies`` dict), and the memo keeps each object alive, so an
    id cannot be reused while the memo lives.  The shared document
    must be treated as read-only.
    """
    entry = memo.get(id(obj))
    if entry is None:
        entry = memo[id(obj)] = (obj, encode(obj))
    return entry[1]


def decode_point(doc: Dict[str, Any], fingerprint: Optional[str] = None):
    """Rebuild a :class:`SweepPoint` from :func:`encode_point` output."""
    from ..isa.opcodes import OpClass
    from ..machine.config import MachineConfig
    from ..machine.params import MachineParams
    from ..perf.parallel import SweepPoint

    params_doc = dict(doc["params"])
    params_doc["latencies"] = {
        OpClass[name]: latency
        for name, latency in params_doc["latencies"].items()
    }
    return SweepPoint(
        kernel=doc["kernel"],
        config=MachineConfig(**doc["config"]),
        params=MachineParams(**params_doc),
        records=doc["records"],
        workload_seed=doc.get("workload_seed"),
        cache_dir=doc.get("cache_dir"),
        backend=doc.get("backend", "grid"),
        ledger_path=doc.get("ledger_path"),
        engine_core=doc.get("engine_core"),
        fingerprint=fingerprint,
    )


def point_fingerprint(point) -> str:
    """The content address the point's simulation will run under.

    Byte-identical to :func:`~repro.perf.fingerprint.run_fingerprint`
    on the full inputs, but built from memoized parts: the kernel hash
    lives on the registry's kernel instance and the record-stream
    digest in the ``(kernel, records, seed)`` LRU, so a point whose
    workload was addressed before generates no stream at all.  A
    pinned ``engine_core`` is passed straight into the address.  With
    the sanitizer on, the memo is cross-checked against a full
    ``run_fingerprint`` over a freshly generated stream.
    """
    from ..backends import get
    from ..check.sanitizer import SANITIZER
    from ..kernels.registry import spec
    from ..perf.fingerprint import (
        combine_fingerprints,
        fingerprint_config,
        fingerprint_params,
        generate_workload,
        kernel_content_key,
        records_content_key,
        run_fingerprint,
    )

    kernel = spec(point.kernel).kernel()
    backend_part = get(point.backend).fingerprint_part()
    fp = combine_fingerprints(
        kernel_content_key(kernel),
        fingerprint_config(point.config),
        fingerprint_params(point.params),
        records_content_key(point.kernel, point.records, point.workload_seed),
        backend=backend_part,
        engine_core=point.engine_core,
    )
    if SANITIZER.enabled:
        full = run_fingerprint(
            kernel, point.config, point.params,
            generate_workload(
                point.kernel, point.records, point.workload_seed
            ),
            backend=backend_part, engine_core=point.engine_core,
        )
        if full != fp:
            SANITIZER.report(
                "fingerprint.memo", point.kernel,
                "memoized point fingerprint differs from run_fingerprint",
                kernel=point.kernel, records=point.records,
                workload_seed=point.workload_seed,
                memoized=fp, full=full,
            )
    return fp


__all__ = ["decode_point", "encode_point", "point_fingerprint"]

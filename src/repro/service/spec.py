"""The validated wire format of one service sweep request.

A :class:`SweepSpec` is what ``POST /jobs`` accepts: kernels × machine
configurations on one backend (and optionally one pinned engine core),
with a record budget and workload seed.  Parsing is strict — unknown
kernels, configurations, backends or engine cores are rejected at
submission time with the full list of valid names, so a queued job can
never die late on a typo.

The spec deliberately reuses the harness's sweep conventions
(:func:`repro.harness.experiments.effective_record_count`,
:func:`repro.harness.experiments.sweep_workload_seed`): a sweep
submitted over HTTP builds byte-for-byte the same
:class:`~repro.perf.parallel.SweepPoint` inputs as the
``repro-experiments`` CLI, so both address the same content-addressed
cache entries and repeat traffic from either side replays for free.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..machine.config import TABLE5_CONFIGS, MachineConfig, named_config
from ..machine.params import MachineParams
from ..perf.parallel import SweepPoint

#: Aliases accepted in the ``kernels`` field.
KERNELS_ALL = "all"

#: Aliases accepted in the ``configs`` field.
CONFIGS_TABLE5 = "table5"


def _as_name_tuple(value, field_name: str) -> Tuple[str, ...]:
    """Normalize a JSON string-or-list field to a tuple of names."""
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value or not all(
        isinstance(v, str) for v in value
    ):
        raise ValueError(
            f"spec field {field_name!r} must be a non-empty string or "
            f"list of strings, got {value!r}"
        )
    return tuple(value)


def _as_int(value, field_name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or (
        value < minimum
    ):
        raise ValueError(
            f"spec field {field_name!r} must be an integer >= {minimum}, "
            f"got {value!r}"
        )
    return value


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: the param grid a job fans out over.

    ``kernels`` and ``configs`` are registry names (``kernels="all"``
    expands to the performance suite, ``configs="table5"`` to the five
    Table 5 configurations plus never ``baseline`` unless asked).
    ``large_kernel_records`` defaults to the CLI rule
    (``max(16, records // 4)``).  ``rows``/``cols`` shape the grid
    substrate exactly like the CLI flags.
    """

    kernels: Tuple[str, ...]
    configs: Tuple[str, ...] = ("baseline",)
    backend: str = "grid"
    records: int = 64
    large_kernel_records: Optional[int] = None
    seed: int = 0
    rows: int = 8
    cols: int = 8
    tag: str = field(default="", compare=False)

    # ---- parsing ------------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: Any) -> "SweepSpec":
        """Parse and validate one JSON submission body.

        Raises :class:`ValueError` with an actionable message on any
        malformed or unknown field; never raises anything else for bad
        input, so the HTTP layer can map it straight to a 400.
        """
        # Imported here: the registries pull in every kernel module and
        # backend; spec parsing must stay importable early.
        from ..backends import backend_names
        from ..kernels.registry import all_specs

        if not isinstance(doc, dict):
            raise ValueError(f"sweep spec must be a JSON object, got {doc!r}")
        known = {
            "kernels", "configs", "backend", "records",
            "large_kernel_records", "seed", "rows", "cols", "tag",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown spec field(s) {unknown}; known: {sorted(known)}"
            )
        if "kernels" not in doc:
            raise ValueError("sweep spec requires a 'kernels' field")

        kernel_names = [s.name for s in all_specs()]
        kernels = _as_name_tuple(doc["kernels"], "kernels")
        if kernels == (KERNELS_ALL,):
            kernels = tuple(
                s.name for s in all_specs(performance_only=True)
            )
        bad = [k for k in kernels if k not in kernel_names]
        if bad:
            raise ValueError(
                f"unknown kernel(s) {bad}; known: {sorted(kernel_names)} "
                f"(or '{KERNELS_ALL}')"
            )

        configs = _as_name_tuple(doc.get("configs", ["baseline"]), "configs")
        if configs == (CONFIGS_TABLE5,):
            configs = tuple(c.name for c in TABLE5_CONFIGS)
        for name in configs:
            try:
                named_config(name)
            except KeyError as exc:
                raise ValueError(str(exc)) from None

        backend = doc.get("backend", "grid")
        if backend not in backend_names():
            raise ValueError(
                f"unknown backend {backend!r}; known: {backend_names()}"
            )

        records = _as_int(doc.get("records", 64), "records")
        large = doc.get("large_kernel_records")
        if large is not None:
            large = _as_int(large, "large_kernel_records")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"spec field 'seed' must be an integer, "
                             f"got {seed!r}")
        rows = _as_int(doc.get("rows", 8), "rows")
        cols = _as_int(doc.get("cols", 8), "cols")
        tag = doc.get("tag", "")
        if not isinstance(tag, str):
            raise ValueError(f"spec field 'tag' must be a string, got {tag!r}")
        return cls(
            kernels=kernels, configs=configs, backend=backend,
            records=records,
            large_kernel_records=large, seed=seed, rows=rows, cols=cols,
            tag=tag,
        )

    # ---- canonical views ----------------------------------------------------

    @property
    def effective_large_kernel_records(self) -> int:
        """The CLI default when unset: ``max(16, records // 4)``."""
        if self.large_kernel_records is not None:
            return self.large_kernel_records
        return max(16, self.records // 4)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON document (what :meth:`from_dict` accepts)."""
        return {
            "kernels": list(self.kernels),
            "configs": list(self.configs),
            "backend": self.backend,
            "records": self.records,
            "large_kernel_records": self.effective_large_kernel_records,
            "seed": self.seed,
            "rows": self.rows,
            "cols": self.cols,
            "tag": self.tag,
        }

    def fingerprint(self) -> str:
        """Content address of the whole spec (the job-identity hash).

        The ``tag`` is annotation, not identity.
        """
        doc = self.to_dict()
        del doc["tag"]
        encoded = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()

    # ---- point building -----------------------------------------------------

    def machine_params(self) -> MachineParams:
        return MachineParams(rows=self.rows, cols=self.cols)

    def build_points(
        self,
        cache_dir: Optional[str] = None,
        ledger_path: Optional[str] = None,
    ) -> Tuple[List[SweepPoint], List[Tuple[str, str]]]:
        """The sweep's :class:`SweepPoint` batch, plus the skipped grid.

        Returns ``(points, skipped)`` where ``skipped`` lists the
        (kernel, config) pairs the backend cannot run (e.g. a kernel
        that does not fit the MIMD morph) — the service reports them in
        the job status instead of failing the whole sweep.
        """
        from ..backends import get as get_backend
        from ..harness.experiments import (
            effective_record_count,
            sweep_workload_seed,
        )
        from ..kernels.registry import spec as kernel_spec

        backend = get_backend(self.backend)
        params = self.machine_params()
        points: List[SweepPoint] = []
        skipped: List[Tuple[str, str]] = []
        for name in self.kernels:
            kernel = kernel_spec(name).kernel()
            records = effective_record_count(
                kernel, self.records, self.effective_large_kernel_records
            )
            for config_name in self.configs:
                config = named_config(config_name)
                if not backend.supports(kernel, config, params):
                    skipped.append((name, config_name))
                    continue
                points.append(SweepPoint(
                    kernel=name,
                    config=config,
                    params=params,
                    records=records,
                    workload_seed=sweep_workload_seed(self.seed),
                    cache_dir=cache_dir,
                    backend=self.backend,
                    ledger_path=ledger_path,
                ))
        return points, skipped


def result_row(backend: str, result) -> dict:
    """One tidy, deterministic result row (the wire format of a point).

    Only simulation-derived fields (never wall times or run ids), so
    identical specs serve *byte-identical* payloads whether the point
    simulated cold, replayed from the run cache, or was adopted from
    another worker's ledger row.
    """
    return {
        "kernel": result.kernel,
        "config": result.config,
        "backend": backend,
        "records": result.records,
        "cycles": result.cycles,
        "useful_ops": result.useful_ops,
        "ops_per_cycle": round(result.ops_per_cycle, 9),
        "cycles_per_record": round(result.cycles_per_record, 9),
    }


def point_rows(points: Sequence[SweepPoint], results: Sequence) -> List[dict]:
    """Tidy, deterministic result rows for a finished point batch."""
    return [
        result_row(point.backend, result)
        for point, result in zip(points, results)
    ]


__all__ = ["SweepSpec", "point_rows", "result_row"]

"""Batch-stepped array cores for the simulator's hot loops.

The block-style pipeline's production paths are structure-of-arrays
kernels over numpy:

* :mod:`.dataflow_core` — the grid dataflow issue loop over flattened
  per-uid arrays with precomputed consumer routes and vectorized
  LUT/LDI address streams, cached on the mapped window
  (:meth:`DataflowEngine.run <repro.machine.dataflow_engine.DataflowEngine.run>`);
* :mod:`.map_core` — template-cloned lazy window expansion and
  array-scored iteration placement (``map_window`` /
  ``place_iterations``).

Each has one object-level oracle (``DataflowEngine.run_reference``,
``map_window_reference``, ``place_iterations_reference``) reachable
only from the tests and ``repro-check``;
``tests/machine/test_fastcore_equivalence.py`` pins production and
oracle bit-exact.  The MIMD engine has no array core: its object
record loop won the interleaved A/B (DESIGN.md section 10).
"""

from __future__ import annotations

from typing import Dict

#: Process-wide SoA lifecycle accounting: ``fused`` windows got their
#: structure-of-arrays buffers straight from the template expansion,
#: ``built`` windows were flattened from instance objects by
#: ``dataflow_core.build_soa``, and ``reused`` counts engine runs that
#: found the buffers already on the window.  Always on (three int
#: increments); mirrored into :data:`repro.obs.metrics.METRICS` under
#: ``fastcore.soa_*`` when metrics collection is enabled, and surfaced
#: in ``repro-bench`` reports.
SOA_COUNTERS: Dict[str, int] = {"fused": 0, "built": 0, "reused": 0}


def soa_counters() -> Dict[str, int]:
    """A snapshot copy of :data:`SOA_COUNTERS`."""
    return dict(SOA_COUNTERS)


def reset_soa_counters() -> None:
    """Zero :data:`SOA_COUNTERS` (bench phases reset between runs)."""
    for key in SOA_COUNTERS:
        SOA_COUNTERS[key] = 0


__all__ = ["SOA_COUNTERS", "reset_soa_counters", "soa_counters"]

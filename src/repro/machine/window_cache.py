"""In-process cache of mapped windows, keyed by simulation content.

Mapping a window (:func:`~repro.machine.mapping.map_window`) is pure:
the result is fully determined by (kernel structure, configuration,
parameters, iteration count) plus the record offset — and the offset
only moves regular-memory addresses, which
:func:`~repro.machine.mapping.rebase_window` adjusts in O(loads+stores)
instead of a full re-map.  :class:`MappedWindowCache` exploits both
facts: :class:`~repro.machine.processor.GridProcessor` maps each
steady-state structure once, rebases it for the warm pass (instead of
running ``map_window`` twice per point), and sweeps over the same
(kernel, config, params, U) reuse the mapped structure across points
in-process.

Keys are content fingerprints (:mod:`repro.perf.fingerprint`).
Fingerprints rather than object identities mean two independently-built
copies of the same kernel share an entry; the kernel fingerprint — the
only expensive one — is memoized on the kernel instance by
:func:`repro.perf.fingerprint.kernel_content_key` (kernels are treated
as immutable everywhere in the simulator, as the run cache already
assumes).

Cached windows are *shared, mutable-by-rebase* structures: engines never
mutate a window they execute, and every cache hit is rebased to the
requested offset before being returned.  Callers that want a private
window (e.g. to corrupt it in a test) should call ``map_window``
directly, which always builds fresh.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from ..isa.kernel import Kernel
from ..obs.metrics import METRICS
from .config import MachineConfig
from .mapping import MappedWindow, map_window, rebase_window
from .params import MachineParams


class MappedWindowCache:
    """Bounded LRU cache of mapped windows by content key."""

    def __init__(self, maxsize: int = 64):
        self.maxsize = maxsize
        self._windows: "OrderedDict[Tuple, MappedWindow]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._windows)

    def get_or_map(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: MachineParams,
        iterations: int,
        record_offset: int = 0,
    ) -> MappedWindow:
        """A window for the point, rebased to ``record_offset``.

        Cache hits rebase the shared structure in place; misses run
        ``map_window`` and insert.  Either way the returned window is
        field-for-field identical to a fresh
        ``map_window(kernel, config, params, iterations, record_offset)``.
        """
        # Imported lazily: repro.perf.fingerprint imports repro.machine,
        # so a module-level import here would close an import cycle.
        from ..perf.fingerprint import (
            fingerprint_config,
            fingerprint_params,
            kernel_content_key,
        )

        key = (
            kernel_content_key(kernel),
            fingerprint_config(config),
            fingerprint_params(params),
            iterations,
        )
        window = self._windows.get(key)
        if window is not None:
            self.hits += 1
            if METRICS.enabled:
                METRICS.inc("windowcache.hits")
            self._windows.move_to_end(key)
            return rebase_window(window, record_offset)
        self.misses += 1
        if METRICS.enabled:
            METRICS.inc("windowcache.misses")
        window = map_window(
            kernel, config, params,
            iterations=iterations, record_offset=record_offset,
        )
        self._windows[key] = window
        while len(self._windows) > self.maxsize:
            self._windows.popitem(last=False)
        return window

    def clear(self) -> None:
        self._windows.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide cache shared by every GridProcessor (windows are pure
#: content-addressed structures, so sharing across processors is safe).
SHARED_WINDOW_CACHE = MappedWindowCache()

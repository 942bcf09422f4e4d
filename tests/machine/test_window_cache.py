"""MappedWindowCache: content keys, rebase-on-hit, LRU bounds, sharing.

The cache is correctness-critical — a stale or mis-keyed window would
silently corrupt cycle counts — so these tests pin the contract stated
in the module docstring: every ``get_or_map`` returns a window
field-for-field identical to a fresh ``map_window`` call at the
requested offset, regardless of hit/miss history.
"""

from repro.kernels import spec
from repro.machine import GridProcessor, MachineConfig, MachineParams, \
    map_window
from repro.machine.window_cache import SHARED_WINDOW_CACHE, MappedWindowCache
from repro.perf.fingerprint import kernel_content_key


def fft_point():
    return spec("fft").kernel(), MachineConfig.S_O(), MachineParams()


class TestContentKeys:
    def test_key_memoized_on_instance(self):
        kernel = spec("fft").build()
        first = kernel_content_key(kernel)
        assert kernel_content_key(kernel) == first
        assert kernel._content_key == first

    def test_independent_builds_share_key(self):
        s = spec("fft")
        assert kernel_content_key(s.build()) == kernel_content_key(s.build())


class TestMappedWindowCache:
    def test_miss_then_hit(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        first = cache.get_or_map(kernel, config, params, 4)
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        second = cache.get_or_map(kernel, config, params, 4)
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        assert second is first  # shared structure, not a copy

    def test_distinct_iterations_are_distinct_entries(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        cache.get_or_map(kernel, config, params, 2)
        cache.get_or_map(kernel, config, params, 4)
        assert (cache.misses, len(cache)) == (2, 2)

    def test_hit_rebases_to_requested_offset(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        cache.get_or_map(kernel, config, params, 4, record_offset=0)
        hit = cache.get_or_map(kernel, config, params, 4, record_offset=12)
        fresh = map_window(kernel, config, params, iterations=4,
                           record_offset=12)
        assert hit.record_offset == 12
        assert hit.record_base == fresh.record_base
        assert hit.out_base == fresh.out_base
        assert hit.instances == fresh.instances

    def test_independent_kernel_builds_share_entry(self):
        """Content addressing: two separately-built copies of the same
        kernel hit one cache line."""
        s = spec("fft")
        config, params = MachineConfig.S_O(), MachineParams()
        cache = MappedWindowCache()
        cache.get_or_map(s.build(), config, params, 4)
        cache.get_or_map(s.build(), config, params, 4)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_is_bounded(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache(maxsize=2)
        for iterations in (1, 2, 3):
            cache.get_or_map(kernel, config, params, iterations)
        assert len(cache) == 2
        # iterations=1 was least recently used: re-requesting it misses.
        cache.get_or_map(kernel, config, params, 1)
        assert cache.misses == 4 and cache.hits == 0

    def test_stale_engine_core_env_shares_the_entry(self, monkeypatch):
        """The key is content only: a leftover ``REPRO_ENGINE_CORE``
        setting selects nothing and must not split the entry."""
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        monkeypatch.delenv("REPRO_ENGINE_CORE", raising=False)
        window = cache.get_or_map(kernel, config, params, 4)
        monkeypatch.setenv("REPRO_ENGINE_CORE", "object")
        assert cache.get_or_map(kernel, config, params, 4) is window
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_clear_resets_counters(self):
        kernel, config, params = fft_point()
        cache = MappedWindowCache()
        cache.get_or_map(kernel, config, params, 4)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


class TestProcessorIntegration:
    def test_processor_defaults_to_shared_cache(self):
        assert GridProcessor().window_cache is SHARED_WINDOW_CACHE

    def test_injected_cache_is_used_and_results_stable(self):
        s = spec("convert")
        kernel, records = s.kernel(), s.workload(8, 5)
        cache = MappedWindowCache()
        processor = GridProcessor(window_cache=cache)
        first = processor.run(kernel, records, MachineConfig.S())
        assert cache.misses == 1
        second = processor.run(kernel, records, MachineConfig.S())
        assert cache.hits >= 1
        assert second == first

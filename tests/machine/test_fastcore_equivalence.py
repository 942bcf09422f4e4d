"""Production engine paths vs their object reference oracles.

Each block-style engine has one production path built on the
structure-of-arrays cores of ``repro.machine.fastcore`` and one oracle
that walks instance objects: ``map_window`` vs ``map_window_reference``,
``place_iterations`` vs ``place_iterations_reference`` and
``DataflowEngine.run`` vs ``DataflowEngine.run_reference``.  These tests
pin each pair bit-exact — identical mapped windows, ``WindowTiming``,
``EngineStats``, traces and ``RunResult`` documents — across the pinned
fuzz corpus and every paper kernel.
"""

import numpy
import pytest

from repro.isa.random_kernels import RandomKernelConfig, random_kernel
from repro.kernels import spec
from repro.kernels.registry import all_specs
from repro.machine import DataflowEngine, GridProcessor, MachineConfig, \
    MachineParams, MimdEngine, map_window
from repro.machine import window_cache as window_cache_mod
from repro.machine.mapping import map_window_reference
from repro.machine.placement import place_iterations, \
    place_iterations_reference
from repro.machine.window_cache import MappedWindowCache
from repro.memory import MemorySystem

CONFIGS = [MachineConfig.baseline(), MachineConfig.S(),
           MachineConfig.S_O(), MachineConfig.S_O_D()]


def corpus_case(seed):
    """One deterministic fuzzer point — the pinned corpus of
    ``test_engine_equivalence`` (kept in sync by construction)."""
    cfg = RandomKernelConfig(
        size=10 + seed % 30,
        record_in=2 + seed % 5,
        record_out=1 + seed % 3,
        integer=seed % 2 == 0,
        n_constants=seed % 4,
        table_size=16 if seed % 3 == 0 else 0,
        space_size=32 if seed % 5 == 0 else 0,
        variable_loop_trips=4 if seed % 7 == 0 else 0,
    )
    kernel = random_kernel(seed, cfg)
    config = CONFIGS[seed % 4]
    iterations = min(8, 1 + seed % 8)
    return kernel, config, iterations


def dataflow_engine(kernel, config, iterations, seed=1, trace=False,
                    mapper=map_window):
    params = MachineParams()
    memory = MemorySystem(params.rows, params.memory_timings())
    memory.configure_smc(config.smc_stream)
    window = mapper(kernel, config, params, iterations=iterations)
    return DataflowEngine(window, memory, seed=seed, trace=trace)


def engine_pair(kernel, config, iterations, trace=False):
    """(production engine, oracle engine) for one corpus point, each on
    the window its own mapping path built."""
    return (
        dataflow_engine(kernel, config, iterations, trace=trace),
        dataflow_engine(kernel, config, iterations, trace=trace,
                        mapper=map_window_reference),
    )


class TestMappedWindowEquivalence:
    """map_window (lazy, template-cloned) vs the eager oracle."""

    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_windows(self, seed):
        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()
        window = map_window(kernel, config, params, iterations=iterations)
        oracle = map_window_reference(kernel, config, params,
                                      iterations=iterations)
        assert window.instances == oracle.instances
        assert window.const_reads == oracle.const_reads
        assert window.placement == oracle.placement
        assert window == oracle

    @pytest.mark.parametrize("name", [s.name for s in all_specs()])
    def test_paper_kernels_identical_windows(self, name):
        kernel = spec(name).kernel()
        params = MachineParams()
        for config in CONFIGS:
            window = map_window(kernel, config, params, record_offset=3)
            oracle = map_window_reference(kernel, config, params,
                                          record_offset=3)
            assert window == oracle

    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_placement(self, seed):
        kernel, _config, iterations = corpus_case(seed)
        params = MachineParams()
        placement = place_iterations(kernel, params, iterations)
        reference = place_iterations_reference(kernel, params, iterations)
        assert placement == reference
        assert placement.node_rows == reference.node_rows

    @pytest.mark.parametrize("placer", [
        place_iterations, place_iterations_reference,
    ], ids=["production", "reference"])
    def test_node_rows_consistent_with_node_of(self, placer):
        """Both placements derive ``node_rows`` (the expansion's view of
        the placement) consistent with the authoritative ``node_of``."""
        kernel, _config, iterations = corpus_case(5)
        params = MachineParams()
        placement = placer(kernel, params, iterations)
        assert len(placement.node_rows) == iterations
        iids = [inst.iid for inst in kernel.body]
        for u, row in enumerate(placement.node_rows):
            assert row == [placement.node_of[(u, iid)] for iid in iids]


class TestDataflowCoreEquivalence:
    """DataflowEngine.run (SoA core) vs run_reference (object loop)."""

    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_timing_and_stats(self, seed):
        kernel, config, iterations = corpus_case(seed)
        fast, reference = engine_pair(kernel, config, iterations)
        t_fast = fast.run()
        t_ref = reference.run_reference()
        assert t_fast == t_ref
        assert fast.stats == reference.stats

    @pytest.mark.parametrize("seed", [0, 3, 5, 9, 12])
    def test_template_soa_matches_build_soa(self, seed):
        """The SoA the template expansion attaches at map time must be
        field-for-field what ``build_soa`` derives from the finished
        window's instances."""
        from repro.machine.fastcore.dataflow_core import WindowSoA, \
            build_soa

        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()
        window = map_window(kernel, config, params, iterations=iterations)
        fused = window._fastcore_soa
        del window._fastcore_soa
        window.issue_order = None
        rebuilt = build_soa(window)
        for name in WindowSoA.__slots__:
            a, b = getattr(fused, name), getattr(rebuilt, name)
            if name in ("lut_info", "ldi_info") and a is not None:
                # (uids, bases, sizes, iters, kiids): numpy columns.
                assert b is not None, name
                assert len(a) == len(b), name
                for col_a, col_b in zip(a, b):
                    assert numpy.array_equal(col_a, col_b), name
            elif isinstance(a, numpy.ndarray):
                # Whole-array slots (addr_at0, addr_stride).
                assert numpy.array_equal(a, b), name
            else:
                assert a == b, name

    # seeds 0/4: baseline configs (all loads through the L1);
    # seed 9: LUTs over a 16-entry table under S; seed 10: LDI space.
    @pytest.mark.parametrize("seed", [0, 4, 9, 10])
    def test_batch_memory_timing_bit_exact(self, seed):
        """Windows whose streams hit the banked L1 (baseline loads, LUT
        and LDI round trips) must time identically whether the core
        batches the per-cycle address stream through
        ``timed_access_batch`` or the oracle issues one ``l1_access``
        per instance — including every hit/miss/eviction and port-grant
        the run publishes in its detail snapshot."""
        kernel, config, iterations = corpus_case(seed)
        fast, reference = engine_pair(kernel, config, iterations)
        t_fast = fast.run()
        t_ref = reference.run_reference()
        assert t_fast == t_ref
        assert fast.stats == reference.stats
        assert (fast.memory.metrics_snapshot()
                == reference.memory.metrics_snapshot())
        assert fast.memory.l1.stats == reference.memory.l1.stats
        assert reference.memory.l1.stats.accesses > 0

    def test_traces_identical(self):
        kernel, config, iterations = corpus_case(9)
        fast, reference = engine_pair(kernel, config, iterations,
                                      trace=True)
        fast.run()
        reference.run_reference()
        assert fast.trace == reference.trace


class TestLazyWindowExpansion:
    """Production windows stay lazy until someone actually needs
    Instance objects — and materialize bit-identically when they do."""

    def setup_window(self, seed=3, offset=0):
        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()
        window = map_window(kernel, config, params, iterations=iterations,
                            record_offset=offset)
        return kernel, config, params, iterations, window

    def test_map_and_run_never_materialize(self):
        kernel, config, iterations = corpus_case(3)
        params = MachineParams()
        window = map_window(kernel, config, params, iterations=iterations)
        assert not window.materialized
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(config.smc_stream)
        timing = DataflowEngine(window, memory, seed=1).run()
        assert timing.cycles > 0
        assert not window.materialized  # the SoA run never touched them

    def test_materialization_matches_object_expansion(self):
        kernel, config, params, iterations, window = self.setup_window()
        eager = map_window_reference(kernel, config, params,
                                     iterations=iterations)
        assert window.instances == eager.instances  # forces the clone loop
        assert window.materialized
        assert window.const_reads == eager.const_reads

    def test_instance_views_match_instances_without_materializing(self):
        kernel, config, params, iterations, window = self.setup_window()
        eager = map_window_reference(kernel, config, params,
                                     iterations=iterations)
        views = window.instance_views()
        assert not window.materialized
        assert len(views) == len(eager.instances)
        for view, inst in zip(views, eager.instances):
            assert view == inst
        assert window.instance_view(0) == eager.instances[0]
        assert not window.materialized

    def test_rebase_lazy_then_materialize_matches_fresh_map(self):
        from repro.machine.mapping import rebase_window

        kernel, config, params, iterations, window = self.setup_window()
        rebase_window(window, 11)
        assert not window.materialized  # lazy rebase is O(1) bookkeeping
        fresh = map_window_reference(kernel, config, params,
                                     iterations=iterations, record_offset=11)
        assert window.instances == fresh.instances
        assert window == fresh


class TestProcessorEquivalence:
    """Full GridProcessor runs: the production pipeline vs the same
    processor with every oracle swapped in (eager mapping with reference
    placement, the reference dataflow loop, the reference MIMD record
    loop) — RunResult documents must be identical."""

    @pytest.mark.parametrize("name,config", [
        ("fft", MachineConfig.S_O()),
        ("convert", MachineConfig.baseline()),
        ("md5", MachineConfig.S_O_D()),
        ("blowfish", MachineConfig.M_D()),
        ("rijndael", MachineConfig.S()),
        ("anisotropic-filter", MachineConfig.baseline()),
    ])
    def test_run_results_identical_across_cores(self, name, config,
                                                 monkeypatch):
        s = spec(name)
        kernel, records = s.kernel(), s.workload(12, 7)
        production = GridProcessor(window_cache=MappedWindowCache()).run(
            kernel, records, config
        )
        monkeypatch.setattr(window_cache_mod, "map_window",
                            map_window_reference)
        monkeypatch.setattr(DataflowEngine, "run",
                            DataflowEngine.run_reference)
        monkeypatch.setattr(MimdEngine, "_run_record",
                            MimdEngine._run_record_reference)
        oracle = GridProcessor(window_cache=MappedWindowCache()).run(
            kernel, records, config
        )
        assert production == oracle
        assert production.detail == oracle.detail

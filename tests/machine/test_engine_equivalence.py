"""Optimized engine hot loops vs their reference implementations.

The performance layer rewrote the inner loops of
:class:`~repro.machine.dataflow_engine.DataflowEngine` and
:class:`~repro.machine.mimd_engine.MimdEngine`; the original loops are
kept as executable specifications (``run_reference`` and
``_run_record_reference``).  These tests pin the cycle-count-equivalence
guard: over a random-kernel fuzzer corpus both paths must produce
identical timings, stats and traces — any divergence is a correctness
bug in the optimization, never an acceptable approximation.
"""

import pytest

from repro.check.fuzz import skewed_params
from repro.isa.random_kernels import RandomKernelConfig, random_kernel
from repro.kernels import spec
from repro.kernels.registry import all_specs
from repro.machine import DataflowEngine, GridProcessor, MachineConfig, \
    MachineParams, MimdEngine, map_window, rebase_window
from repro.machine.dataflow_engine import STORE as STORE_KIND
from repro.machine.dataflow_engine import DeadlockError
from repro.machine.placement import max_unroll, place_iterations, \
    place_iterations_reference
from repro.machine.window_cache import MappedWindowCache
from repro.memory import MemorySystem

CONFIGS = [MachineConfig.baseline(), MachineConfig.S(),
           MachineConfig.S_O(), MachineConfig.S_O_D()]


def corpus_case(seed):
    """One deterministic fuzzer point (kernel, records, config, window)."""
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


def dataflow_pair(kernel, config, iterations, trace=False):
    """Two identical engines for one corpus point."""
    params = MachineParams()
    engines = []
    for _ in range(2):
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(config.smc_stream)
        window = map_window(kernel, config, params, iterations=iterations)
        engines.append(DataflowEngine(window, memory, seed=1, trace=trace))
    return engines


class TestDataflowEquivalence:
    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_timing_and_stats(self, seed):
        kernel, config, iterations = corpus_case(seed)
        fast, reference = dataflow_pair(kernel, config, iterations)
        t_fast = fast.run()
        t_ref = reference.run_reference()
        assert t_fast == t_ref
        assert fast.stats == reference.stats

    def test_traces_identical(self):
        kernel, config, iterations = corpus_case(3)
        fast, reference = dataflow_pair(kernel, config, iterations,
                                        trace=True)
        fast.run()
        reference.run_reference()
        assert fast.trace == reference.trace

    def test_paper_kernel_identical(self):
        params = MachineParams()
        for name, config in [("convert", MachineConfig.S_O()),
                             ("md5", MachineConfig.baseline())]:
            kernel = spec(name).kernel()
            fast, reference = dataflow_pair(kernel, config, 4)
            assert fast.run() == reference.run_reference()

    def test_deadlock_raised_by_both_paths(self):
        kernel, config, iterations = corpus_case(1)
        fast, reference = dataflow_pair(kernel, config, iterations)
        fast.window.instances[-1].operands += 1
        reference.window.instances[-1].operands += 1
        # Out-of-band instance surgery invalidates the cached SoA;
        # rebase_window is the only mutation the cache is transparent
        # to (LOAD/STORE addresses are read from instances at issue).
        for engine in (fast, reference):
            if hasattr(engine.window, "_fastcore_soa"):
                del engine.window._fastcore_soa
        with pytest.raises(DeadlockError):
            fast.run()
        with pytest.raises(DeadlockError):
            reference.run_reference()
        # The guard syncs stats before raising, so both paths agree on
        # how far execution got.
        assert fast.stats == reference.stats


class TestPlacementMemoEquivalence:
    """Memoized ``place_iterations`` vs its un-memoized specification."""

    @pytest.mark.parametrize("seed", range(16))
    def test_fuzz_corpus_identical_placement(self, seed):
        kernel, _config, iterations = corpus_case(seed)
        params = MachineParams()
        memoized = place_iterations(kernel, params, iterations)
        reference = place_iterations_reference(kernel, params, iterations)
        assert memoized == reference

    @pytest.mark.parametrize("name", [s.name for s in all_specs()])
    def test_paper_kernels_at_full_unroll(self, name):
        """Full S-morph unroll wraps the array many times — exactly the
        regime where region signatures recur and replays kick in."""
        kernel = spec(name).kernel()
        params = MachineParams()
        U = max_unroll(kernel, params)
        memoized = place_iterations(kernel, params, U)
        reference = place_iterations_reference(kernel, params, U)
        assert memoized == reference
        assert memoized.max_slot_usage() <= params.slots_per_node

    def test_overflow_raised_by_both_paths(self):
        kernel = spec("md5").kernel()
        params = MachineParams()
        too_many = params.nodes * params.slots_per_node
        with pytest.raises(ValueError):
            place_iterations(kernel, params, too_many)
        with pytest.raises(ValueError):
            place_iterations_reference(kernel, params, too_many)


class TestRebasedWindowEquivalence:
    """``rebase_window`` on a warm window vs a fresh offset map."""

    @pytest.mark.parametrize("seed", [0, 3, 5, 8, 12, 15])
    def test_rebase_matches_fresh_map(self, seed):
        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()
        rebased = map_window(kernel, config, params, iterations=iterations)
        rebase_window(rebased, iterations)
        fresh = map_window(kernel, config, params, iterations=iterations,
                           record_offset=iterations)
        assert rebased.record_base == fresh.record_base
        assert rebased.out_base == fresh.out_base
        assert rebased.record_offset == fresh.record_offset
        assert rebased.instances == fresh.instances
        assert rebased.const_reads == fresh.const_reads
        assert rebased.placement == fresh.placement

    @pytest.mark.parametrize("seed", [2, 6, 9, 13])
    def test_warm_window_timing_matches_reference(self, seed):
        """The engine fast path on a rebased window must reproduce the
        reference path on an independently mapped warm window."""
        kernel, config, iterations = corpus_case(seed)
        params = MachineParams()

        def engine(window, trace):
            memory = MemorySystem(params.rows, params.memory_timings())
            memory.configure_smc(config.smc_stream)
            return DataflowEngine(window, memory, seed=2, trace=trace)

        rebased = map_window(kernel, config, params, iterations=iterations)
        rebase_window(rebased, iterations)
        fresh = map_window(kernel, config, params, iterations=iterations,
                           record_offset=iterations)
        fast = engine(rebased, trace=True)
        reference = engine(fresh, trace=True)
        assert fast.run() == reference.run_reference()
        assert fast.stats == reference.stats
        assert fast.trace == reference.trace

    def test_processor_cache_hit_is_bit_identical(self):
        """A GridProcessor replaying a mapped window from the in-process
        cache (hit + rebase) must match a cold mapping run."""
        s = spec("fft")
        kernel, records = s.kernel(), s.workload(16, 3)
        config = MachineConfig.S_O()
        cold = GridProcessor(window_cache=MappedWindowCache()).run(
            kernel, records, config
        )
        warm_proc = GridProcessor(window_cache=MappedWindowCache())
        first = warm_proc.run(kernel, records, config)
        second = warm_proc.run(kernel, records, config)  # cache hit
        assert warm_proc.window_cache.hits > 0
        assert first == cold
        assert second == cold


def mimd_engine(name, config, functional=False):
    params = MachineParams()
    memory = MemorySystem(params.rows, params.memory_timings())
    memory.configure_smc(True)
    return MimdEngine(spec(name).kernel(), config, params, memory,
                      functional=functional)


MIMD_POINTS = [("fft", "M"), ("md5", "M"), ("blowfish", "M-D"),
               ("rijndael", "M"), ("vertex-skinning", "M-D"),
               ("anisotropic-filter", "M-D")]


class TestMimdEquivalence:
    @pytest.mark.parametrize("name,cfg", MIMD_POINTS)
    def test_fast_path_matches_reference(self, name, cfg):
        config = MachineConfig.M() if cfg == "M" else MachineConfig.M_D()
        records = spec(name).workload(24, 5)
        fast = mimd_engine(name, config)
        reference = mimd_engine(name, config)
        reference._run_record = reference._run_record_reference
        r_fast = fast.run(records)
        r_ref = reference.run(records)
        assert r_fast == r_ref
        assert fast.stats == reference.stats

    def test_functional_mode_uses_reference_loop(self):
        """Functional runs still compute outputs (reference loop)."""
        s = spec("blowfish")
        records = s.workload(4, 5)
        engine = mimd_engine("blowfish", MachineConfig.M_D(),
                             functional=True)
        result = engine.run(records)
        for record, out in zip(records, result.outputs):
            assert out == s.reference(record)


def _mimd_capable_points():
    """Every (kernel, MIMD config) pair that fits the machine."""
    processor = GridProcessor()
    points = []
    for s in all_specs():
        kernel = s.kernel()
        for config in (MachineConfig.M(), MachineConfig.M_D()):
            if processor.supports(kernel, config):
                points.append((s.name, config.name))
    return points


class TestMimdAllKernelsEquivalence:
    """The flattened record loop, swept over every capable benchmark."""

    @pytest.mark.parametrize("name,cfg", _mimd_capable_points())
    def test_batch_loop_matches_reference(self, name, cfg):
        config = MachineConfig.M() if cfg == "M" else MachineConfig.M_D()
        records = spec(name).workload(12, 11)
        fast = mimd_engine(name, config)
        reference = mimd_engine(name, config)
        reference._run_record = reference._run_record_reference
        assert fast.run(records) == reference.run(records)
        assert fast.stats == reference.stats


def mimd_pair(kernel, config, params, nodes=None):
    """A compiled engine and an oracle engine on identical fresh memories."""
    engines = []
    for _ in range(2):
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(config.smc_stream)
        engines.append(MimdEngine(kernel, config, params, memory,
                                  nodes=nodes))
    engines[1]._run_record = engines[1]._run_record_reference
    return engines


#: Local PCs without the streamed-memory mechanism: records come
#: through the cached L1 instead of the SMC channels.
M_L1 = MachineConfig(name="M-L1", local_pc=True)
SCHEDULE_CONFIGS = {"M": MachineConfig.M(), "M-D": MachineConfig.M_D(),
                    "M-L1": M_L1}
SCHEDULE_PARAMS = {"default": MachineParams(), "skewed": skewed_params()}
PARTITIONS = {"all": None, "scattered": [0, 9, 18, 27, 63],
              "one-row": [8, 15]}


def variable_loop_kernel(seed=0):
    """A random float kernel with a variable loop, a table and a space:
    long FP latencies straddle its loads even at default parameters."""
    return random_kernel(seed, RandomKernelConfig(
        size=30, record_in=4, record_out=3, table_size=16, space_size=32,
        variable_loop_trips=4,
    ))


def every_trip_count(kernel, records, trip_word):
    """``records`` repeated once per trip count 0..max_trips."""
    out = []
    for trips in range(kernel.loop.max_trips + 1):
        for record in records:
            record = list(record)
            record[trip_word] = trips
            out.append(record)
    return out


def multi_term_expressions(engine):
    """Compiled expressions that kept more than one anchor term."""
    count = 0
    for plan in engine._plans.values():
        extras = [step[1] for step in plan.steps]
        extras += [store[2] for store in plan.stores]
        extras += [plan.body_end[1], plan.final[1]]
        count += sum(1 for extra in extras if extra)
    return count


class TestMimdCompiledSchedule:
    """The compiled per-trip-count schedule vs ``_run_record_reference``
    where paper kernels at default parameters cannot reach: every trip
    count, L1-fed records, node partitions and skewed timing."""

    def assert_matches(self, kernel, records, cfg, params, nodes="all"):
        fast, reference = mimd_pair(kernel, SCHEDULE_CONFIGS[cfg],
                                    SCHEDULE_PARAMS[params],
                                    PARTITIONS[nodes])
        assert fast.run(records) == reference.run(records)
        assert fast.stats == reference.stats
        return fast

    @pytest.mark.parametrize("params", sorted(SCHEDULE_PARAMS))
    @pytest.mark.parametrize("cfg", sorted(SCHEDULE_CONFIGS))
    def test_vertex_skinning_every_trip_count(self, cfg, params):
        s = spec("vertex-skinning")
        kernel = s.kernel()
        records = every_trip_count(kernel, s.workload(3, 5), 14)
        engine = self.assert_matches(kernel, records, cfg, params)
        assert sorted(engine._plans) == list(
            range(kernel.loop.max_trips + 1))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("params", sorted(SCHEDULE_PARAMS))
    @pytest.mark.parametrize("cfg", sorted(SCHEDULE_CONFIGS))
    def test_variable_loop_kernel_every_trip_count(self, cfg, params, seed):
        kernel = variable_loop_kernel(seed)
        base = [[0, 1.5, 2.25, 3.0], [0, 7.0, 0.5, 11.0]]
        records = every_trip_count(kernel, base, 0)
        engine = self.assert_matches(kernel, records, cfg, params)
        assert sorted(engine._plans) == list(
            range(kernel.loop.max_trips + 1))

    @pytest.mark.parametrize("nodes", sorted(PARTITIONS))
    @pytest.mark.parametrize("name,cfg", [("rijndael", "M"),
                                          ("blowfish", "M"),
                                          ("vertex-skinning", "M-L1"),
                                          ("dct", "M-D")])
    def test_paper_kernels_on_partitions_and_skewed_timing(self, name,
                                                           cfg, nodes):
        s = spec(name)
        self.assert_matches(s.kernel(), s.workload(24, 3), cfg, "skewed",
                            nodes)

    @pytest.mark.parametrize("params", sorted(SCHEDULE_PARAMS))
    def test_pruning_keeps_multi_term_expressions(self, params):
        """Some expression must keep more than one term, or the
        domination pruning would go untested by this class."""
        kernel = variable_loop_kernel()
        records = every_trip_count(kernel, [[0, 1.5, 2.25, 3.0]], 0)
        engine = self.assert_matches(kernel, records, "M", params,
                                     "scattered")
        assert multi_term_expressions(engine) > 0


class TestStoreDrainCeiling:
    @pytest.mark.parametrize("done,expected", [(5.5, 6), (5.0, 5),
                                               (7.25, 8)])
    def test_fractional_store_drain_rounds_up(self, done, expected):
        """A store completing at a fractional cycle occupies the next
        whole cycle — the ceiling, not a truncation (the STORE path once
        used the ``int(-(-done // 1))`` idiom; it now uses math.ceil)."""

        class FractionalMemory:
            """Stub memory whose store buffer drains mid-cycle."""

            def __init__(self, done_at):
                self.done_at = done_at

            def smc_store(self, row, address, cycle):
                return self.done_at

        params = MachineParams()
        kernel = spec("convert").kernel()
        config = MachineConfig.S_O()
        window = map_window(kernel, config, params, iterations=1)
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(True)
        engine = DataflowEngine(window, memory, seed=1)
        engine.memory = FractionalMemory(done)
        store = next(i for i in window.instances
                     if i.kind == STORE_KIND)
        completion = engine._issue(store, 0, lambda uid, at: None)
        assert completion == expected
        assert isinstance(completion, int)

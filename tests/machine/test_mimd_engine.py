"""MIMD engine: functional equivalence, capacity limits, control skipping."""

import pytest

from repro.isa import evaluate_kernel
from repro.kernels import spec
from repro.kernels.registry import all_specs
from repro.machine import (
    MachineConfig,
    MachineParams,
    MimdCapacityError,
    MimdEngine,
    rolled_instruction_count,
)
from repro.machine.mimd_engine import check_capacity
from repro.memory import MemorySystem


def engine_for(name, config, params=None, functional=False):
    params = params or MachineParams()
    memory = MemorySystem(params.rows, params.memory_timings())
    memory.configure_smc(True)
    kernel = spec(name).kernel()
    return MimdEngine(kernel, config, params, memory, functional=functional)


class TestFunctionalExecution:
    @pytest.mark.parametrize("name", ["blowfish", "md5", "rijndael"])
    def test_crypto_outputs_bit_exact(self, name):
        s = spec(name)
        records = s.workload(16)
        engine = engine_for(name, MachineConfig.M_D() if s.kernel().tables
                            else MachineConfig.M(), functional=True)
        result = engine.run(records)
        for record, out in zip(records, result.outputs):
            assert out == s.reference(record)

    def test_variable_loop_outputs_match_evaluator(self):
        s = spec("vertex-skinning")
        records = s.workload(12)
        engine = engine_for("vertex-skinning", MachineConfig.M_D(),
                            functional=True)
        result = engine.run(records)
        for record, out in zip(records, result.outputs):
            assert out == pytest.approx(evaluate_kernel(s.kernel(), record))


class TestControlSkipping:
    def test_dead_iterations_not_charged(self):
        """A 1-bone vertex must run faster than a 4-bone vertex."""
        s = spec("vertex-skinning")
        base = s.workload(1)[0]
        light = list(base)
        light[14] = 1.0
        heavy = list(base)
        heavy[14] = 4.0
        e_light = engine_for("vertex-skinning", MachineConfig.M_D())
        e_heavy = engine_for("vertex-skinning", MachineConfig.M_D())
        t_light = e_light.run([light]).cycles
        t_heavy = e_heavy.run([heavy]).cycles
        assert t_light < t_heavy

    def test_useful_ops_counts_live_work_only(self):
        s = spec("vertex-skinning")
        record = list(s.workload(1)[0])
        record[14] = 2.0
        engine = engine_for("vertex-skinning", MachineConfig.M_D())
        result = engine.run([record])
        assert result.useful_ops == s.kernel().useful_ops_live(2)

    def test_skipped_instruction_stat(self):
        record = list(spec("vertex-skinning").workload(1)[0])
        record[14] = 1.0
        engine = engine_for("vertex-skinning", MachineConfig.M_D())
        engine.run([record])
        assert engine.stats.instructions_skipped > 0


class TestCapacity:
    def test_rolled_count_uses_loop_structure(self):
        dct = spec("dct").kernel()
        assert rolled_instruction_count(dct) == -(-len(dct.body) // 16)
        skin = spec("vertex-skinning").kernel()
        assert rolled_instruction_count(skin) < len(skin.body)

    def test_istore_capacity_enforced(self):
        params = MachineParams(l0_inst_capacity=32)
        with pytest.raises(MimdCapacityError, match="instruction store"):
            check_capacity(spec("md5").kernel(), MachineConfig.M(), params)

    def test_l0_data_capacity_enforced(self):
        params = MachineParams(l0_data_bytes=256)
        with pytest.raises(MimdCapacityError, match="data store"):
            check_capacity(
                spec("blowfish").kernel(), MachineConfig.M_D(), params
            )

    def test_duplicate_node_ids_rejected(self):
        """A node listed twice would run its records once but count
        twice in the occupancy denominator."""
        params = MachineParams()
        memory = MemorySystem(params.rows, params.memory_timings())
        with pytest.raises(ValueError, match=r"duplicate node ids \[3, 9\]"):
            MimdEngine(spec("fft").kernel(), MachineConfig.M(), params,
                       memory, nodes=[3, 9, 3, 5, 9])

    def test_non_mimd_config_rejected(self):
        params = MachineParams()
        memory = MemorySystem(params.rows, params.memory_timings())
        with pytest.raises(ValueError, match="not a MIMD"):
            MimdEngine(spec("fft").kernel(), MachineConfig.S(), params, memory)


class TestTimingShape:
    def test_nodes_share_work_round_robin(self):
        """2x the records on a full grid costs about 2x the cycles."""
        s = spec("fft")
        params = MachineParams()
        e1 = engine_for("fft", MachineConfig.M(), params)
        e2 = engine_for("fft", MachineConfig.M(), params)
        t64 = e1.run(s.workload(64)).cycles
        t128 = e2.run(s.workload(128)).cycles
        assert t128 > t64
        assert t128 < 2.6 * t64

    def test_l0_lookup_beats_remote_l1(self):
        """M-D's local tables beat plain M's mesh-routed L1 lookups."""
        s = spec("blowfish")
        records = s.workload(64)
        m = engine_for("blowfish", MachineConfig.M())
        md = engine_for("blowfish", MachineConfig.M_D())
        assert md.run(records).cycles < m.run(records).cycles


def _mimd_performance_points():
    """Every performance-suite kernel under M and M-D that fits."""
    params = MachineParams()
    points = []
    for s in all_specs(performance_only=True):
        for config in (MachineConfig.M(), MachineConfig.M_D()):
            try:
                check_capacity(s.kernel(), config, params)
            except MimdCapacityError:
                continue
            points.append((s.name, config.name))
    return points


class TestPerRecordWorkShape:
    """A record's compiled schedule does per-record work only for its
    blocking L1 loads: every other instruction is folded into constant
    offsets once per trip count."""

    @pytest.mark.parametrize("name,cfg", _mimd_performance_points())
    def test_memory_steps_equal_live_l1_loads(self, name, cfg):
        config = MachineConfig.M() if cfg == "M" else MachineConfig.M_D()
        engine = engine_for(name, config)
        kernel = engine.kernel
        trip_counts = (range(kernel.loop.max_trips + 1)
                       if kernel.loop.variable else [kernel.trip_count([])])
        for trips in trip_counts:
            live = kernel.live_instructions(trips)
            loads = sum(1 for i in live if i.op.name == "LDI"
                        or (i.op.name == "LUT" and not config.l0_data))
            plan = engine._plan(trips)
            assert len(plan.steps) == loads
            assert plan.executed == len(live)
            assert plan.lut_trips == (0 if config.l0_data else sum(
                1 for i in live if i.op.name == "LUT"))

    @pytest.mark.parametrize("name", ["dct", "md5"])
    @pytest.mark.parametrize("cfg", ["M", "M-D"])
    def test_load_free_kernels_have_no_per_record_steps(self, name, cfg):
        config = MachineConfig.M() if cfg == "M" else MachineConfig.M_D()
        engine = engine_for(name, config)
        kernel = engine.kernel
        assert engine._plan(kernel.trip_count([])).steps == []

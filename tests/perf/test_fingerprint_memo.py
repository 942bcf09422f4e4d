"""The memoized point-fingerprint path: equal addresses, no stray work.

``point_fingerprint`` and ``ExperimentContext.fingerprint`` build
addresses from memoized parts (the kernel hash on the kernel instance,
record-stream digests in a bounded ``(kernel, records, seed)`` LRU).
These tests pin that the memo never changes an address, that cache-hit
points never generate their workload, and that the LRU stays bounded.
"""

import dataclasses
import importlib

import pytest

from repro.check.sanitizer import checking
from repro.harness.experiments import ExperimentContext, sweep_workload_seed
from repro.kernels import all_specs
from repro.machine import MachineConfig, MachineParams
from repro.perf import fingerprint as fpmod
from repro.perf.fingerprint import records_content_key, run_fingerprint
from repro.perf.parallel import SweepPoint, simulate_point
from repro.sched.codec import point_fingerprint

# The package re-exports a ``registry()`` function under the module's name.
kernel_registry = importlib.import_module("repro.kernels.registry")

KERNELS = [s.name for s in all_specs()]


@pytest.fixture()
def empty_memo(monkeypatch):
    """A private, empty record-digest memo for the test."""
    memo = type(fpmod._RECORDS_MEMO)()
    monkeypatch.setattr(fpmod, "_RECORDS_MEMO", memo)
    return memo


@pytest.fixture()
def no_workloads(monkeypatch):
    """Make every registry workload generator raise when called."""
    real_spec = kernel_registry.spec

    def forbidden(*args, **kwargs):
        raise AssertionError("workload generated on a memoized path")

    def spec(name):
        return dataclasses.replace(real_spec(name), workload=forbidden)

    def install():
        monkeypatch.setattr(kernel_registry, "spec", spec)

    return install


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("stale_core", [None, "array", "object"])
@pytest.mark.parametrize("name", KERNELS)
def test_memoized_addresses_equal_full_fingerprint(
    name, stale_core, seed, empty_memo, monkeypatch
):
    """Memoized and full addresses agree, and a leftover
    ``REPRO_ENGINE_CORE`` value (None: unset) changes no address."""
    params = MachineParams()
    config = MachineConfig.S_O()
    ctx = ExperimentContext(params=params, records=8,
                            large_kernel_records=4, seed=seed)
    point = SweepPoint(
        kernel=name, config=config, params=params,
        records=ctx.record_count(name),
        workload_seed=sweep_workload_seed(seed),
    )
    kernel = kernel_registry.spec(name).kernel()
    stream = kernel_registry.spec(name).workload(
        point.records, point.workload_seed
    )
    monkeypatch.delenv("REPRO_ENGINE_CORE", raising=False)
    unset = run_fingerprint(kernel, config, params, stream)
    if stale_core is not None:
        monkeypatch.setenv("REPRO_ENGINE_CORE", stale_core)
    full = run_fingerprint(kernel, config, params, stream)
    assert full == unset
    # Memo miss: point_fingerprint generates and digests the stream.
    assert point_fingerprint(point) == full
    # Context first on an empty memo: its own stream seeds the memo,
    # and point_fingerprint then reads it back.
    empty_memo.clear()
    assert ctx.fingerprint(name, config) == full
    assert point_fingerprint(point) == full


class TestNoWorkloadOnHits:
    def point(self, tmp_path, seed=5):
        return SweepPoint(
            kernel="fft", config=MachineConfig.S(), params=MachineParams(),
            records=8, workload_seed=seed, cache_dir=str(tmp_path),
        )

    def test_seen_point_fingerprints_without_generating(
        self, tmp_path, empty_memo, no_workloads
    ):
        point = self.point(tmp_path)
        fp = point_fingerprint(point)
        no_workloads()
        assert point_fingerprint(point) == fp
        assert point_fingerprint(
            dataclasses.replace(point, config=MachineConfig.M_D())
        ) != fp

    def test_cache_hit_never_generates(
        self, tmp_path, empty_memo, no_workloads
    ):
        point = self.point(tmp_path)
        cold = simulate_point(point)  # miss: simulates and stores
        filled = dataclasses.replace(point, fingerprint=point_fingerprint(point))
        empty_memo.clear()
        no_workloads()
        assert simulate_point(filled) == cold

    def test_memoized_hit_never_generates(
        self, tmp_path, empty_memo, no_workloads
    ):
        point = self.point(tmp_path)
        cold = simulate_point(point)
        no_workloads()
        assert simulate_point(point) == cold

    def test_miss_still_generates(self, tmp_path, empty_memo, no_workloads):
        no_workloads()
        with pytest.raises(AssertionError, match="workload generated"):
            simulate_point(self.point(tmp_path, seed=6))


class TestRecordsMemo:
    def test_lru_stays_at_its_bound(self, empty_memo):
        bound = fpmod.RECORDS_MEMO_SIZE
        for seed in range(bound + 10):
            records_content_key("fft", 1, seed, stream=lambda: [[seed]])
        assert len(empty_memo) == bound
        assert ("fft", 1, 0) not in empty_memo
        assert ("fft", 1, bound + 9) in empty_memo
        assert all(len(digest) == 64 for digest in empty_memo.values())

    def test_hit_refreshes_recency(self, empty_memo):
        bound = fpmod.RECORDS_MEMO_SIZE
        for seed in range(bound):
            records_content_key("fft", 1, seed, stream=lambda: [[seed]])
        records_content_key("fft", 1, 0, stream=lambda: [[0]])
        records_content_key("fft", 1, bound, stream=lambda: [[bound]])
        assert ("fft", 1, 0) in empty_memo
        assert ("fft", 1, 1) not in empty_memo

    def test_sanitizer_reports_a_wrong_memo_entry(self, empty_memo):
        point = SweepPoint(
            kernel="lu", config=MachineConfig.S(), params=MachineParams(),
            records=4, workload_seed=2,
        )
        good = point_fingerprint(point)
        empty_memo[("lu", 4, 2)] = "0" * 64
        with checking() as san:
            bad = point_fingerprint(point)
        assert bad != good
        assert [v.invariant for v in san.violations] == ["fingerprint.memo"]
        assert dict(san.violations[0].context)["full"] == good

    def test_concurrent_callers_keep_the_bound_and_the_digests(
        self, empty_memo, monkeypatch
    ):
        import sys
        import threading

        monkeypatch.setattr(fpmod, "RECORDS_MEMO_SIZE", 2)
        errors, wrong = [], []

        def work(offset):
            try:
                for i in range(3000):
                    seed = (offset + i) % 3
                    got = records_content_key(
                        "fft", 1, seed, stream=lambda: [[seed]]
                    )
                    if got != fpmod.fingerprint_records([[seed]]):
                        wrong.append(seed)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []
        assert len(empty_memo) <= 2

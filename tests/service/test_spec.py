"""SweepSpec parsing, validation and point building."""

import pytest

from repro.harness.experiments import (
    ExperimentContext,
    effective_record_count,
    sweep_workload_seed,
)
from repro.kernels import all_specs
from repro.machine import TABLE5_CONFIGS
from repro.service.spec import SweepSpec


class TestParsing:
    def test_minimal_spec_defaults(self):
        spec = SweepSpec.from_dict({"kernels": ["convert"]})
        assert spec.kernels == ("convert",)
        assert spec.configs == ("baseline",)
        assert spec.backend == "grid"
        assert spec.records == 64
        assert spec.effective_large_kernel_records == 16

    def test_string_fields_promote_to_lists(self):
        spec = SweepSpec.from_dict(
            {"kernels": "fft", "configs": "S-O"}
        )
        assert spec.kernels == ("fft",)
        assert spec.configs == ("S-O",)

    def test_kernels_all_alias(self):
        spec = SweepSpec.from_dict({"kernels": "all"})
        expected = tuple(
            s.name for s in all_specs(performance_only=True)
        )
        assert spec.kernels == expected

    def test_configs_table5_alias(self):
        spec = SweepSpec.from_dict(
            {"kernels": ["convert"], "configs": "table5"}
        )
        assert spec.configs == tuple(c.name for c in TABLE5_CONFIGS)

    @pytest.mark.parametrize("doc,fragment", [
        ({"kernels": ["nope"]}, "unknown kernel"),
        ({"kernels": ["convert"], "configs": ["X"]}, "unknown configuration"),
        ({"kernels": ["convert"], "backend": "abacus"}, "unknown backend"),
        ({"kernels": ["convert"], "engine_core": "object"},
         "field.*'engine_core'"),
        ({"kernels": ["convert"], "records": 0}, "records"),
        ({"kernels": ["convert"], "typo": 1}, "unknown spec field"),
        ({"configs": ["S"]}, "requires a 'kernels'"),
        ({"kernels": []}, "non-empty"),
        ("not a dict", "JSON object"),
    ])
    def test_bad_specs_rejected_with_names(self, doc, fragment):
        with pytest.raises(ValueError, match=fragment):
            SweepSpec.from_dict(doc)

    def test_round_trips_through_to_dict(self):
        spec = SweepSpec.from_dict({
            "kernels": ["convert", "fft"], "configs": ["S", "M-D"],
            "backend": "vector", "records": 32, "seed": 3,
        })
        # to_dict canonicalizes large_kernel_records to its effective
        # value, so the round trip preserves identity (the fingerprint),
        # not raw field equality.
        again = SweepSpec.from_dict(spec.to_dict())
        assert again.fingerprint() == spec.fingerprint()
        assert again.kernels == spec.kernels
        assert again.effective_large_kernel_records == \
            spec.effective_large_kernel_records


class TestFingerprint:
    def test_identical_specs_share_a_fingerprint(self):
        a = SweepSpec.from_dict({"kernels": ["convert"], "records": 32})
        b = SweepSpec.from_dict({"kernels": ["convert"], "records": 32})
        assert a.fingerprint() == b.fingerprint()

    def test_workload_changes_change_it(self):
        base = SweepSpec.from_dict({"kernels": ["convert"], "records": 32})
        for doc in (
            {"kernels": ["convert"], "records": 33},
            {"kernels": ["convert"], "records": 32, "seed": 1},
            {"kernels": ["fft"], "records": 32},
            {"kernels": ["convert"], "records": 32, "backend": "simd"},
        ):
            assert SweepSpec.from_dict(doc).fingerprint() != \
                base.fingerprint()

    def test_tag_is_annotation_not_identity(self):
        a = SweepSpec.from_dict({"kernels": ["convert"], "tag": "alice"})
        b = SweepSpec.from_dict({"kernels": ["convert"], "tag": "bob"})
        assert a.fingerprint() == b.fingerprint()

    def test_stale_engine_core_env_is_not_identity(self, monkeypatch):
        spec = SweepSpec.from_dict({"kernels": ["convert"]})
        monkeypatch.delenv("REPRO_ENGINE_CORE", raising=False)
        unset = spec.fingerprint()
        monkeypatch.setenv("REPRO_ENGINE_CORE", "object")
        assert spec.fingerprint() == unset


class TestBuildPoints:
    def test_grid_partitions_into_points_and_skipped(self):
        spec = SweepSpec.from_dict(
            {"kernels": "all", "configs": ["M"], "records": 8}
        )
        points, skipped = spec.build_points()
        assert len(points) + len(skipped) == len(spec.kernels)
        assert all(p.config.name == "M" for p in points)

    def test_points_match_the_harness_conventions(self):
        """An HTTP sweep must address the CLI's cache entries."""
        spec = SweepSpec.from_dict(
            {"kernels": ["convert", "rijndael"], "records": 512, "seed": 0}
        )
        ctx = ExperimentContext(records=512, large_kernel_records=128)
        points, skipped = spec.build_points()
        assert not skipped
        by_kernel = {p.kernel: p for p in points}
        for name in spec.kernels:
            point = by_kernel[name]
            assert point.records == ctx.record_count(name)
            assert point.workload_seed == sweep_workload_seed(0)

    def test_large_kernel_rule_matches_helper(self):
        spec = SweepSpec.from_dict({"kernels": ["rijndael"], "records": 64})
        points, _ = spec.build_points()
        from repro.kernels.registry import kernel

        assert points[0].records == effective_record_count(
            kernel("rijndael"), 64, 16
        )

    def test_paths_thread_through(self):
        spec = SweepSpec.from_dict({"kernels": ["convert"]})
        points, _ = spec.build_points(
            cache_dir="/tmp/c", ledger_path="/tmp/l.sqlite"
        )
        assert points[0].cache_dir == "/tmp/c"
        assert points[0].ledger_path == "/tmp/l.sqlite"

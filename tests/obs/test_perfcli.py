"""The ``repro-perf`` CLI: history, diff and the regression gate."""

import json

import pytest

from repro.machine import MachineConfig, MachineParams
from repro.obs import perfcli
from repro.obs.ledger import ledger_to
from repro.perf import SweepPoint, run_points


@pytest.fixture()
def populated_ledger(tmp_path):
    """A ledger holding a real 2-point sweep; yields its path."""
    db = tmp_path / "ledger.sqlite"
    params = MachineParams()
    points = [
        SweepPoint(kernel="convert", config=MachineConfig.S(),
                   params=params, records=8, workload_seed=7),
        SweepPoint(kernel="fft", config=MachineConfig.S_O(),
                   params=params, records=8, workload_seed=7),
    ]
    with ledger_to(db) as handle:
        run_points(points, jobs=1)
        run_ids = [row["run_id"] for row in handle.ledger.rows()]
    return str(db), run_ids


class TestHistory:
    def test_lists_recorded_runs(self, populated_ledger, capsys):
        db, _ = populated_ledger
        assert perfcli.main(["--ledger", db, "history"]) == 0
        out = capsys.readouterr().out
        assert "run ledger (newest first)" in out
        assert "convert" in out and "fft" in out
        assert "2 row(s) shown" in out

    def test_filters_by_kernel(self, populated_ledger, capsys):
        db, _ = populated_ledger
        assert perfcli.main(["--ledger", db, "history",
                             "--kernel", "fft"]) == 0
        out = capsys.readouterr().out
        assert "fft" in out and "convert" not in out

    def test_missing_ledger_fails(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.sqlite")
        assert perfcli.main(["--ledger", missing, "history"]) == 2
        assert "no ledger at" in capsys.readouterr().err


class TestDiff:
    def test_diff_by_prefix(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        a, b = run_ids[0][:8], run_ids[1][:8]
        assert perfcli.main(["--ledger", db, "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out
        assert "cycles:" in out
        assert "phase seconds:" in out

    def test_unknown_run_fails(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        code = perfcli.main(
            ["--ledger", db, "diff", run_ids[0][:8], "zzzzzz"]
        )
        assert code == 2
        assert "no ledger row matches" in capsys.readouterr().err

    def test_ambiguous_prefix_fails_with_candidates(self, tmp_path,
                                                    capsys):
        """A prefix matching several runs must error and list them,
        never silently diff whichever row sorted first."""
        from repro.obs.ledger import RunLedger

        db = str(tmp_path / "amb.sqlite")
        ledger = RunLedger(db)
        for suffix in ("aaa", "bbb"):
            ledger.append({
                "run_id": f"feedc0de{suffix}", "created_at": 0.0,
                "kernel": "convert", "backend": "grid", "config": "S",
            })
        code = perfcli.main(
            ["--ledger", db, "diff", "feedc0de", "feedc0debbb"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "feedc0deaaa" in err and "feedc0debbb" in err
        assert "more characters" in err

    def test_exact_id_wins_over_longer_siblings(self, tmp_path, capsys):
        """A full run id that also prefixes another id is not ambiguous."""
        from repro.obs.ledger import RunLedger

        db = str(tmp_path / "exact.sqlite")
        ledger = RunLedger(db)
        for run_id in ("cafe", "cafe99"):
            ledger.append({
                "run_id": run_id, "created_at": 0.0,
                "kernel": "convert", "backend": "grid", "config": "S",
                "cycles": 100,
                "wall_seconds": 0.1, "metrics": json.dumps({}),
            })
        assert perfcli.main(["--ledger", db, "diff", "cafe", "cafe99"]) == 0
        assert "run diff" in capsys.readouterr().out


def report(**overrides):
    doc = {
        "schema": 1,
        "records": 128,
        "backend": "grid",
        "phases_seconds": {
            "cold_serial": 1.0,
            "warm_memory": 0.002,  # below the noise floor
        },
    }
    doc.update(overrides)
    return doc


class TestCompareReports:
    def test_within_tolerance_passes(self):
        fresh = report(phases_seconds={"cold_serial": 1.1,
                                       "warm_memory": 0.002})
        _, regressions = perfcli.compare_reports(report(), fresh, 25.0)
        assert regressions == []

    def test_regression_detected(self):
        fresh = report(phases_seconds={"cold_serial": 2.0,
                                       "warm_memory": 0.002})
        _, regressions = perfcli.compare_reports(report(), fresh, 25.0)
        assert len(regressions) == 1
        assert "cold_serial" in regressions[0]

    def test_noise_floor_skips_tiny_phases(self):
        """A 10x blowup of a 2ms phase is scheduler noise, not signal."""
        fresh = report(phases_seconds={"cold_serial": 1.0,
                                       "warm_memory": 0.02})
        lines, regressions = perfcli.compare_reports(report(), fresh, 25.0)
        assert regressions == []
        assert any("noise floor" in line for line in lines)

    def test_no_shared_phases_is_a_failure(self):
        fresh = report(phases_seconds={"other": 1.0})
        _, regressions = perfcli.compare_reports(report(), fresh, 25.0)
        assert regressions and "no comparable phases" in regressions[0]

    def test_workload_mismatch_noted(self):
        lines, _ = perfcli.compare_reports(
            report(), report(records=32), 25.0
        )
        assert any("records differs" in line for line in lines)


class TestRegressCommand:
    def test_identical_reports_pass(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(report()))
        code = perfcli.main([
            "regress", "--baseline", str(baseline),
            "--fresh", str(baseline), "--tolerance", "10",
        ])
        assert code == 0
        assert "no phase regressed" in capsys.readouterr().out

    def test_slow_fresh_report_fails(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(report()))
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(
            report(phases_seconds={"cold_serial": 3.0})
        ))
        code = perfcli.main([
            "regress", "--baseline", str(baseline),
            "--fresh", str(slow), "--tolerance", "25",
        ])
        assert code == 1
        assert "REGRESSION: cold_serial" in capsys.readouterr().err

    def test_missing_baseline_fails(self, tmp_path, capsys):
        code = perfcli.main([
            "regress", "--baseline", str(tmp_path / "nope.json"),
        ])
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err


class TestPruneCommand:
    def test_keep_last_trims_older_runs(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        code = perfcli.main(["--ledger", db, "prune", "--keep-last", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1 run row(s)" in out
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(db)
        survivors = [row["run_id"] for row in ledger.rows()]
        ledger.close()
        assert len(survivors) == 1
        assert survivors[0] in run_ids

    def test_dry_run_deletes_nothing(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        code = perfcli.main([
            "--ledger", db, "prune", "--keep-last", "1", "--dry-run",
        ])
        assert code == 0
        assert "would prune 1 run row(s)" in capsys.readouterr().out
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(db)
        assert ledger.count() == len(run_ids)
        ledger.close()

    def test_before_accepts_iso_dates(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        code = perfcli.main([
            "--ledger", db, "prune", "--before", "2099-01-01",
        ])
        assert code == 0
        assert f"pruned {len(run_ids)} run row(s)" in (
            capsys.readouterr().out
        )

    def test_without_criteria_is_an_error(self, populated_ledger, capsys):
        db, _ = populated_ledger
        assert perfcli.main(["--ledger", db, "prune"]) == 2
        assert "--keep-last" in capsys.readouterr().err

    def test_bad_date_is_an_error(self, populated_ledger, capsys):
        db, _ = populated_ledger
        code = perfcli.main([
            "--ledger", db, "prune", "--before", "yesterday",
        ])
        assert code == 2
        assert "YYYY-MM-DD" in capsys.readouterr().err

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        code = perfcli.main([
            "--ledger", str(tmp_path / "nope.sqlite"),
            "prune", "--keep-last", "1",
        ])
        assert code == 2
        assert "no ledger at" in capsys.readouterr().err

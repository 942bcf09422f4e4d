"""Command-line entry point: ``repro-perf``.

Reads the durable run ledger (:mod:`repro.obs.ledger`) back out and
turns ``BENCH_perf.json`` from an overwritten snapshot into a real
regression gate.  Subcommands:

* ``history`` — tidy, pandas-free table of ledger rows (newest first),
  filterable by backend/kernel;
* ``diff RUN_A RUN_B`` — per-phase and per-metric deltas between two
  recorded runs (run-id prefixes are accepted);
* ``regress --baseline BENCH_perf.json [--tolerance PCT]`` — measure a
  fresh benchmark (or load one with ``--fresh``) and compare its phase
  wall times against the committed baseline, exiting non-zero when any
  phase regressed past the tolerance — a real perf gate for CI instead
  of a fixed-budget tripwire;
* ``prune --keep-last N`` / ``--before DATE`` — trim old run rows (and
  the terminal claim/job rows that accompanied them) so the default-on
  ledger does not grow without bound; ``--dry-run`` reports what would
  go without deleting anything.

The ledger path resolves ``--ledger`` > ``$REPRO_LEDGER`` >
``.repro_ledger.sqlite`` (the CLIs' default-on database).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .ledger import DEFAULT_LEDGER, LEDGER_ENV, RunLedger

#: Phases whose baseline wall time is below this floor are reported but
#: never gated: at sub-50ms scale scheduler noise dominates any signal.
MIN_GATE_SECONDS = 0.05


def _resolve_ledger_path(flag: Optional[str]) -> str:
    """``--ledger`` > ``$REPRO_LEDGER`` > the conventional default."""
    if flag:
        return flag
    env = os.environ.get(LEDGER_ENV)
    if env:
        return env
    return DEFAULT_LEDGER


def _open_ledger(flag: Optional[str]) -> Optional[RunLedger]:
    """Open the resolved ledger for reading; None (with a complaint)
    when the database file does not exist yet."""
    path = _resolve_ledger_path(flag)
    if not os.path.exists(path):
        print(
            f"no ledger at {path} (set --ledger, $REPRO_LEDGER, or run "
            f"repro-experiments/repro-bench first)",
            file=sys.stderr,
        )
        return None
    return RunLedger(path)


# ---- history ----------------------------------------------------------------


def _fmt_when(stamp: Optional[float]) -> str:
    if not stamp:
        return "-"
    return datetime.datetime.fromtimestamp(stamp).strftime("%Y-%m-%d %H:%M:%S")


def history_table(rows: List[dict]) -> str:
    """The ``repro-perf history`` table for decoded ledger rows."""
    # Imported lazily to keep repro.obs free of harness imports at
    # module level (the harness imports this package).
    from ..harness.reporting import render_table

    table_rows = []
    for row in rows:
        table_rows.append([
            (row["run_id"] or "")[:12],
            _fmt_when(row["created_at"]),
            row["kernel"] or "-",
            row["config"] or "-",
            row["backend"] or "-",
            row["cache"] or "-",
            row["records"] if row["records"] is not None else "-",
            row["cycles"] if row["cycles"] is not None else "-",
            f"{row['wall_seconds']:.3f}" if row["wall_seconds"] is not None
            else "-",
        ])
    return render_table(
        ["run id", "when", "kernel", "config", "backend",
         "cache", "records", "cycles", "wall s"],
        table_rows,
        title="run ledger (newest first)",
        align_left=(0, 1, 2, 3, 4, 5),
    )


def _history(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args.ledger)
    if ledger is None:
        return 2
    rows = ledger.rows(
        limit=args.limit, backend=args.backend, kernel=args.kernel
    )
    if not rows:
        print("ledger is empty (no matching runs)")
        return 0
    print(history_table(rows))
    print(f"\n{len(rows)} row(s) shown from {ledger.path}")
    return 0


# ---- diff -------------------------------------------------------------------


def _delta_rows(
    a: Dict[str, float], b: Dict[str, float]
) -> List[Tuple[str, float, float, float]]:
    """(key, a, b, delta) for the union of two numeric dicts, sorted."""
    rows = []
    for key in sorted(set(a) | set(b)):
        va, vb = float(a.get(key, 0.0)), float(b.get(key, 0.0))
        rows.append((key, va, vb, vb - va))
    return rows


def diff_report(row_a: dict, row_b: dict) -> str:
    """Human-readable phase/metric comparison of two ledger rows."""
    lines = [
        f"run diff: {row_a['run_id'][:12]} -> {row_b['run_id'][:12]}",
        f"  point : {row_a['kernel']}|{row_a['config']}"
        f" ({row_a['backend']})"
        f" -> {row_b['kernel']}|{row_b['config']}"
        f" ({row_b['backend']})",
        f"  cycles: {row_a['cycles']} -> {row_b['cycles']}"
        f" ({(row_b['cycles'] or 0) - (row_a['cycles'] or 0):+d})",
        f"  wall  : {row_a['wall_seconds']:.3f}s -> "
        f"{row_b['wall_seconds']:.3f}s",
    ]
    phases_a = row_a.get("phases") or {}
    phases_b = row_b.get("phases") or {}
    if phases_a or phases_b:
        lines.append("  phase seconds:")
        for key, va, vb, delta in _delta_rows(phases_a, phases_b):
            lines.append(
                f"    {key:<15} {va:9.4f} -> {vb:9.4f}  ({delta:+.4f})"
            )
    metrics_a = row_a.get("metrics") or {}
    metrics_b = row_b.get("metrics") or {}
    numeric_a = {k: v for k, v in metrics_a.items()
                 if isinstance(v, (int, float))}
    numeric_b = {k: v for k, v in metrics_b.items()
                 if isinstance(v, (int, float))}
    changed = [
        row for row in _delta_rows(numeric_a, numeric_b) if row[3] != 0.0
    ]
    if changed:
        lines.append("  metrics (changed only):")
        for key, va, vb, delta in changed:
            lines.append(
                f"    {key:<28} {va:12g} -> {vb:12g}  ({delta:+g})"
            )
    else:
        lines.append("  metrics: identical")
    return "\n".join(lines)


def _diff(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args.ledger)
    if ledger is None:
        return 2
    rows = []
    for prefix in (args.run_a, args.run_b):
        try:
            row = ledger.find(prefix)
        except LookupError as exc:
            print(exc, file=sys.stderr)
            return 2
        if row is None:
            print(f"no ledger row matches {prefix!r}", file=sys.stderr)
            return 2
        rows.append(row)
    print(diff_report(rows[0], rows[1]))
    return 0


# ---- regress ----------------------------------------------------------------


def compare_reports(
    baseline: dict,
    fresh: dict,
    tolerance_pct: float,
    min_seconds: float = MIN_GATE_SECONDS,
) -> Tuple[List[str], List[str]]:
    """Gate a fresh bench report against a baseline.

    Compares every phase in ``phases_seconds`` present in both reports.
    Returns ``(log_lines, regressions)``; a phase regresses when its
    fresh wall time exceeds baseline × (1 + tolerance/100) *and* the
    baseline is above ``min_seconds`` (sub-noise phases are reported
    but never gated).
    """
    lines: List[str] = []
    regressions: List[str] = []
    base_phases = baseline.get("phases_seconds") or {}
    fresh_phases = fresh.get("phases_seconds") or {}
    shared = [name for name in base_phases if name in fresh_phases]
    if not shared:
        regressions.append(
            "no comparable phases between baseline and fresh report"
        )
        return lines, regressions
    factor = 1.0 + tolerance_pct / 100.0
    for name in shared:
        base, now = float(base_phases[name]), float(fresh_phases[name])
        ratio = now / base if base > 0 else float("inf")
        verdict = "ok"
        if base < min_seconds:
            verdict = "skipped (baseline below noise floor)"
        elif now > base * factor:
            verdict = "REGRESSION"
            regressions.append(
                f"{name}: {now:.3f}s vs baseline {base:.3f}s "
                f"({ratio:.2f}x > {factor:.2f}x allowed)"
            )
        lines.append(
            f"  {name:<15} baseline {base:8.3f}s  fresh {now:8.3f}s  "
            f"{ratio:6.2f}x  {verdict}"
        )
    for key in ("records", "backend"):
        if baseline.get(key) != fresh.get(key):
            lines.append(
                f"  note: {key} differs (baseline {baseline.get(key)!r}, "
                f"fresh {fresh.get(key)!r}) — timings may not be comparable"
            )
    return lines, regressions


def _fresh_report(args: argparse.Namespace, baseline: dict) -> dict:
    """The report to gate: ``--fresh FILE`` or a newly measured bench.

    A measured bench inherits the baseline's workload shape (records,
    large-kernel records, backend) so the comparison is like-for-like;
    ``--records`` overrides for quick smoke gates.
    """
    if args.fresh is not None:
        with open(args.fresh, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # Imported lazily: the harness imports repro.obs back.
    from ..harness.bench import bench_experiments

    records = args.records or int(baseline.get("records", 128))
    return bench_experiments(
        records=records,
        large_kernel_records=max(16, records // 4),
        jobs=1,
        backend=str(baseline.get("backend", "grid")),
        repeats=args.repeats,
    )


def _regress(args: argparse.Namespace) -> int:
    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    fresh = _fresh_report(args, baseline)
    lines, regressions = compare_reports(
        baseline, fresh, args.tolerance, min_seconds=args.min_seconds
    )
    print(
        f"perf regression gate: baseline {args.baseline}, "
        f"tolerance {args.tolerance:g}%"
    )
    for line in lines:
        print(line)
    if regressions:
        print()
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 1
    print("no phase regressed past tolerance")
    return 0


# ---- prune ------------------------------------------------------------------


def _parse_before(value: str) -> float:
    """``YYYY-MM-DD`` (or ISO datetime) to a ``time.time()`` stamp."""
    try:
        when = datetime.datetime.fromisoformat(value)
    except ValueError:
        raise ValueError(
            f"--before wants YYYY-MM-DD (or an ISO datetime), got "
            f"{value!r}"
        ) from None
    return when.timestamp()


def _prune(args: argparse.Namespace) -> int:
    if args.keep_last is None and args.before is None:
        print("prune needs --keep-last N and/or --before DATE",
              file=sys.stderr)
        return 2
    try:
        before = None if args.before is None else _parse_before(args.before)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    ledger = _open_ledger(args.ledger)
    if ledger is None:
        return 2
    counts = ledger.prune(
        keep_last=args.keep_last, before=before, dry_run=args.dry_run
    )
    verb = "would prune" if args.dry_run else "pruned"
    print(
        f"{verb} {counts['runs']} run row(s), {counts['points']} point "
        f"row(s), {counts['jobs']} job row(s) from {ledger.path}"
    )
    return 0


# ---- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description=(
            "Inspect the durable run ledger and gate performance "
            "against the committed BENCH_perf.json baseline."
        ),
    )
    parser.add_argument(
        "--ledger", default=None, metavar="DB",
        help="ledger database (default: $REPRO_LEDGER or "
             f"{DEFAULT_LEDGER})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    history = sub.add_parser(
        "history", help="list recorded runs, newest first"
    )
    history.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="rows to show (default 20; 0 for all)",
    )
    history.add_argument(
        "--backend", default=None, help="only runs on this backend")
    history.add_argument(
        "--kernel", default=None, help="only runs of this kernel")

    diff = sub.add_parser(
        "diff", help="per-phase / per-metric deltas between two runs"
    )
    diff.add_argument("run_a", help="first run id (prefix accepted)")
    diff.add_argument("run_b", help="second run id (prefix accepted)")

    regress = sub.add_parser(
        "regress",
        help="measure a fresh bench and gate it against a baseline report",
    )
    regress.add_argument(
        "--baseline", default="BENCH_perf.json", metavar="FILE",
        help="committed baseline report (default BENCH_perf.json)",
    )
    regress.add_argument(
        "--tolerance", type=float, default=25.0, metavar="PCT",
        help="allowed slowdown per phase in percent (default 25)",
    )
    regress.add_argument(
        "--min-seconds", type=float, default=MIN_GATE_SECONDS,
        metavar="S",
        help="baseline phases shorter than this are never gated "
             f"(default {MIN_GATE_SECONDS}s: sub-noise)",
    )
    regress.add_argument(
        "--fresh", default=None, metavar="FILE",
        help="gate this existing report instead of measuring a new bench",
    )
    regress.add_argument(
        "--records", type=int, default=None, metavar="N",
        help="records for the fresh bench (default: the baseline's)",
    )
    regress.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="cold-phase repeats for the fresh bench (default 1)",
    )

    prune = sub.add_parser(
        "prune",
        help="trim old ledger rows (runs + terminal points/jobs)",
    )
    prune.add_argument(
        "--keep-last", type=int, default=None, metavar="N",
        help="keep only the N newest run rows",
    )
    prune.add_argument(
        "--before", default=None, metavar="DATE",
        help="delete rows created before this date (YYYY-MM-DD or ISO "
             "datetime, local time)",
    )
    prune.add_argument(
        "--dry-run", action="store_true",
        help="report row counts without deleting anything",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "history":
            return _history(args)
        if args.command == "diff":
            return _diff(args)
        if args.command == "prune":
            return _prune(args)
        return _regress(args)
    except BrokenPipeError:  # e.g. `repro-perf history | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

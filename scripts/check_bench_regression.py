#!/usr/bin/env python3
"""CI throughput regression gate for the e6 benchmark JSON.

Compares the requests_per_second of each (policy, cost, tenants, shards,
threads) cell in one or more fresh BENCH_*.json files against the committed
baseline and fails when any cell drops by more than the tolerance (default
25%, see bench/baselines/README.md for why the bar is that wide on shared
runners). Rows without shards/threads (the unsharded cells) count as one
shard and one thread. The gate is one-sided — improvements never fail — but
a cell running at more than 2x its committed number is flagged as a stale
baseline (console warning + a dedicated step-summary section, still exit 0):
an undersized baseline silently widens the band a later regression can hide
in.

`--current` may be repeated: the bench-smoke job measures the
eviction-pressure cells and the hit-path serving cells in separate
e6_throughput invocations (they use different workload shapes), and the
gate compares their union against the single committed baseline. A cell
key that appears twice — in more than one current file, or twice inside
one file — is a hard input error: the union would silently prefer one
measurement over the other.

Also sanity-checks the perf plumbing the ratios are built on: a cell whose
wall_seconds is missing or non-positive fails the gate outright (a zero
denominator means a dropped counter field upstream, not a fast run), a
baseline cell missing from every current file is a failure (a silently
dropped cell is how a gate rots), and a non-positive baseline rps is a
hard input error rather than an automatic pass (the old `inf` ratio waved
through any cell with a corrupt baseline).

When $GITHUB_STEP_SUMMARY is set (always, inside a GitHub Actions step),
the same comparison is appended there as a markdown table so the verdict
is readable from the run's summary page without digging through logs.
Rows that carry latency quantiles (BENCH_server: end-to-end p50/p99/p999
plus per-stage attribution from in-process runs) get a second,
informational table — p99 moves with runner noise far more than
throughput does, so latency is reported next to the verdicts but never
thresholded.

Usage:
  check_bench_regression.py --baseline bench/baselines/BENCH_throughput.baseline.json \
                            --current BENCH_throughput.json \
                            [--current BENCH_hitpath.json ...] \
                            [--tolerance 0.25] \
                            [--current-obs BENCH_throughput.obs.json]

`--current-obs` additionally validates an observability snapshot emitted by
`e6_throughput --obs`: it must parse as JSON and contain a non-empty
`ccc_step_latency_ns` histogram.

Exit status: 0 = within tolerance, 1 = regression or missing cells,
2 = bad invocation / unreadable input / corrupt baseline or snapshot.
"""

import argparse
import json
import os
import sys


# A current cell at more than this multiple of its committed baseline
# marks the baseline stale: reported (step summary + stderr), never fatal.
STALE_BASELINE_RATIO = 2.0


class DuplicateCell(ValueError):
    """A cell key measured twice — the comparison would be ambiguous."""


def row_key(row):
    return (row["policy"], row["cost"], row["tenants"],
            row.get("shards", 1), row.get("threads", 1))


def cell_label(key):
    policy, cost, tenants, shards, threads = key
    label = f"{policy}/{cost}/n={tenants}"
    if (shards, threads) != (1, 1):
        label += f"/s={shards}/t={threads}"
    return label


def comparable_rows(doc, path):
    """Measured, unaudited cells only — audit twins and skips aren't perf."""
    rows = {}
    for row in doc.get("results", []):
        if row.get("skipped") or row.get("audit"):
            continue
        if "requests_per_second" not in row:
            continue
        key = row_key(row)
        if key in rows:
            raise DuplicateCell(f"cell {cell_label(key)} appears more than "
                                f"once in {path}")
        rows[key] = row
    return rows


def check_obs_snapshot(path):
    """Validates an e6 --obs JSON snapshot; returns an error string or None."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return f"cannot read obs snapshot: {e}"
    families = {m.get("name"): m for m in doc.get("metrics", [])}
    latency = families.get("ccc_step_latency_ns")
    if latency is None:
        return "obs snapshot has no ccc_step_latency_ns histogram"
    samples = latency.get("samples", [])
    if not samples or all(s.get("count", 0) <= 0 for s in samples):
        return "ccc_step_latency_ns histogram is empty (observer not attached?)"
    return None


def latency_summary(baseline, current):
    """Markdown section for per-cell latency quantiles — informational.

    Never contributes to the gate verdict: stage mix shifts with batch
    shape and p99 with runner load, so a threshold here would only flake.
    """
    keys = [k for k in sorted(current) if "p50_us" in current[k]]
    if not keys:
        return []
    lines = [
        "",
        "### Request latency (informational, not gated)",
        "",
        "| cell | p50 µs | p99 µs | p999 µs | baseline p99 µs |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for key in keys:
        label = cell_label(key)
        row = current[key]
        base = baseline.get(key, {})
        base_p99 = base.get("p99_us")
        base_cell = f"{base_p99:.1f}" if base_p99 is not None else "—"
        lines.append(
            f"| `{label}` | {row['p50_us']:.1f} | {row['p99_us']:.1f} "
            f"| {row['p999_us']:.1f} | {base_cell} |")
        base_stages = base.get("stage_latency_us", {})
        for stage, q in sorted(row.get("stage_latency_us", {}).items()):
            stage_p99 = base_stages.get(stage, {}).get("p99_us")
            stage_cell = f"{stage_p99:.1f}" if stage_p99 is not None else "—"
            lines.append(
                f"| `{label}` · stage `{stage}` | {q['p50_us']:.1f} "
                f"| {q['p99_us']:.1f} | {q['p999_us']:.1f} "
                f"| {stage_cell} |")
    return lines


def write_step_summary(lines):
    """Appends markdown lines to the GitHub Actions step summary, if any."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        # The summary is a nicety; never fail the gate over it.
        print(f"check_bench_regression: cannot write step summary: {e}",
              file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument(
        "--current",
        required=True,
        action="append",
        help="current-run JSON; repeat for multi-invocation sweeps",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="maximum allowed fractional throughput drop (default 0.25)",
    )
    parser.add_argument(
        "--current-obs",
        help="optional e6 --obs JSON snapshot to sanity-check",
    )
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = comparable_rows(json.load(f), args.baseline)
        current = {}
        for path in args.current:
            with open(path) as f:
                rows = comparable_rows(json.load(f), path)
            overlap = sorted(set(rows) & set(current))
            if overlap:
                raise DuplicateCell(
                    f"cell {cell_label(overlap[0])} appears in more than "
                    f"one --current file ({path}) — ambiguous union")
            current.update(rows)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: cannot read input: {e}", file=sys.stderr)
        return 2
    except DuplicateCell as e:
        print(f"check_bench_regression: {e}", file=sys.stderr)
        return 2

    if not baseline:
        print("check_bench_regression: baseline has no comparable rows",
              file=sys.stderr)
        return 2

    current_all = dict(current)  # the gate loop pops; latency table needs all
    failures = []
    stale = []
    summary = [
        "### Throughput regression gate",
        "",
        "| cell | baseline req/s | current req/s | ratio | verdict |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    print(f"{'cell':<44} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for key, base_row in sorted(baseline.items()):
        label = cell_label(key)
        base_rps = base_row["requests_per_second"]
        cur_row = current.pop(key, None)
        if cur_row is None:
            failures.append(f"{label}: cell missing from current run")
            print(f"{label:<44} {base_rps:>12.0f} {'MISSING':>12} {'-':>7}")
            summary.append(
                f"| `{label}` | {base_rps:,.0f} | — | — | ❌ missing |")
            continue
        if base_rps <= 0:
            print(f"check_bench_regression: baseline rps for {label} is "
                  f"{base_rps} — corrupt baseline file", file=sys.stderr)
            return 2
        cur_rps = cur_row["requests_per_second"]
        if cur_row.get("wall_seconds", 0) <= 0:
            failures.append(
                f"{label}: current wall_seconds is non-positive — a perf "
                f"counter was dropped somewhere upstream")
            print(f"{label:<44} {base_rps:>12.0f} {'BAD WALL':>12} {'-':>7}")
            summary.append(
                f"| `{label}` | {base_rps:,.0f} | — | — | ❌ bad wall |")
            continue
        ratio = cur_rps / base_rps
        flag = ""
        verdict = "✅ pass"
        if ratio < 1.0 - args.tolerance:
            failures.append(
                f"{label}: {cur_rps:.0f} req/s is "
                f"{(1.0 - ratio) * 100:.1f}% below baseline {base_rps:.0f}"
            )
            flag = "  << REGRESSION"
            verdict = f"❌ −{(1.0 - ratio) * 100:.1f}%"
        elif ratio > STALE_BASELINE_RATIO:
            # The gate is one-sided by design (improvements never fail),
            # but a cell running at >2x its committed number means the
            # baseline no longer describes this runner/build and the
            # effective tolerance band has silently widened. Surface it.
            stale.append((label, base_rps, cur_rps, ratio))
            flag = "  << STALE BASELINE"
            verdict = f"⚠️ +{(ratio - 1.0) * 100:.0f}% (stale baseline)"
        print(f"{label:<44} {base_rps:>12.0f} {cur_rps:>12.0f} "
              f"{ratio:>7.2f}{flag}")
        summary.append(f"| `{label}` | {base_rps:,.0f} | {cur_rps:,.0f} "
                       f"| {ratio:.2f} | {verdict} |")

    # Cells measured but absent from the baseline are not gated; surface
    # them so a forgotten baseline refresh is visible, not silent.
    for key in sorted(current):
        label = cell_label(key)
        cur_rps = current[key]["requests_per_second"]
        print(f"{label:<44} {'(no baseline)':>12} {cur_rps:>12.0f} {'-':>7}")
        summary.append(
            f"| `{label}` | — | {cur_rps:,.0f} | — | ⚠️ not in baseline |")

    if stale:
        summary.extend([
            "",
            "### ⚠️ Stale baseline cells (informational — gate still "
            "one-sided)",
            "",
            "These cells ran at more than "
            f"{STALE_BASELINE_RATIO:.0f}x their committed baseline. The "
            "gate only catches *drops*, so an undersized baseline quietly "
            "widens the band a future regression can hide in — refresh "
            "`bench/baselines/` from a clean run of this runner class.",
            "",
            "| cell | baseline req/s | current req/s | ratio |",
            "| --- | ---: | ---: | ---: |",
        ])
        for label, base_rps, cur_rps, ratio in stale:
            summary.append(f"| `{label}` | {base_rps:,.0f} "
                           f"| {cur_rps:,.0f} | {ratio:.2f} |")
        print(f"\nwarning: {len(stale)} cell(s) ran at >"
              f"{STALE_BASELINE_RATIO:.0f}x their committed baseline — "
              f"refresh bench/baselines/ (gate unaffected)",
              file=sys.stderr)

    summary.extend(latency_summary(baseline, current_all))

    if args.current_obs:
        error = check_obs_snapshot(args.current_obs)
        if error is not None:
            print(f"check_bench_regression: {error}", file=sys.stderr)
            return 2
        print(f"obs snapshot {args.current_obs} OK")

    summary.append("")
    if failures:
        summary.append(f"**FAILED** (tolerance {args.tolerance:.0%}): "
                       f"{len(failures)} cell(s)")
        write_step_summary(summary)
        print(f"\nthroughput regression gate FAILED "
              f"(tolerance {args.tolerance:.0%}):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    summary.append(f"**Passed** (tolerance {args.tolerance:.0%})")
    write_step_summary(summary)
    print(f"\nthroughput regression gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

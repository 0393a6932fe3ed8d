#!/usr/bin/env python3
"""Compare Google Benchmark JSON snapshots and flag perf regressions.

Typical uses:

    # CI trajectory check: fresh run vs the in-repo snapshots
    tools/compare_bench.py bench/snapshots bench-results

    # Gate mode: non-zero exit when any benchmark regressed >10%
    tools/compare_bench.py bench/snapshots bench-results --strict

    # Single pair of files
    tools/compare_bench.py old/BENCH_bench_kms.json new/BENCH_bench_kms.json

    # Scaling curves: rows of Arg-swept benchmarks from one snapshot set
    tools/compare_bench.py bench-results --series bm_kms_sharded_sweep \
        --series bm_obs_alert_evaluate_sweep

A series row whose ``shards`` counter exceeds its snapshot's ``num_cpus``
is marked "unmeasured": its shards shared CPUs, so its time says nothing
about parallel scaling.

Inputs are files or directories of ``BENCH_*.json`` as written by
``--benchmark_out_format=json`` (the CI bench-examples job and the
"refreshing the snapshots" recipe in DESIGN.md use identical flags).
Benchmarks are matched by (file stem, benchmark name); comparison is on
``real_time`` normalised to nanoseconds via each entry's ``time_unit``.
A snapshot run with ``--benchmark_repetitions`` holds one entry per
repetition under one name: the comparison takes their median, and each
reported line prints the repetitions' min-max spread beside it.

Only matched names are compared: added or removed benchmarks are listed
informationally and never fail the run (the corpus is expected to grow).
Pure table-printing entries (aggregates with no timing) are skipped.

Each bench binary stamps its snapshot's context with the build type and
C++ flags it was compiled with (bench/bench_util.hpp, stamp_context). Two
stamped snapshots of one binary that differ in either are not comparable:
the run exits non-zero naming the field. Snapshots written before the
stamp compare as before, with a one-line note.

stdlib-only on purpose — runs anywhere python3 exists, no installs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Context fields that must agree for two snapshots to be compared.
STAMP_FIELDS = ("qkd_build_type", "qkd_cxx_flags")


def snapshot_files(path: Path):
    """The BENCH_*.json files behind `path` (a dir or a single file), with
    a clean one-line error — not a traceback — when it does not exist."""
    if not path.exists():
        raise SystemExit(f"error: snapshot path does not exist: {path}")
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no BENCH_*.json under {path}")
    return files


def load_snapshots(path: Path):
    """(file stem, benchmark name) -> the real_time of each repetition in
    ns, in file order, and file stem -> the snapshot's context object."""
    files = snapshot_files(path)
    results = {}
    contexts = {}
    for file in files:
        try:
            doc = json.loads(file.read_text())
        except json.JSONDecodeError as err:
            raise SystemExit(f"error: {file}: not valid JSON ({err})")
        stem = file.stem
        contexts[stem] = doc.get("context", {})
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue  # compare raw repetitions only, not mean/stddev rows
            name = bench.get("name")
            real_time = bench.get("real_time")
            if name is None or real_time is None:
                continue
            unit = TIME_UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
            results.setdefault((stem, name), []).append(real_time * unit)
    return results, contexts


def describe_runs(runs):
    """The median in ns, then the min-max spread when there are several
    repetitions."""
    text = f"{statistics.median(runs):.0f}ns"
    if len(runs) > 1:
        text += f" [{min(runs):.0f}-{max(runs):.0f}, n={len(runs)}]"
    return text


def check_stamps(base_contexts, cand_contexts, stems):
    """Exits non-zero, naming the field, when two stamped snapshots of one
    binary were built differently; notes any unstamped pair."""
    unstamped = []
    for stem in sorted(stems):
        base, cand = base_contexts[stem], cand_contexts[stem]
        if not all(f in base and f in cand for f in STAMP_FIELDS):
            unstamped.append(stem)
            continue
        for field in STAMP_FIELDS:
            if base[field] != cand[field]:
                raise SystemExit(
                    f"error: {stem}: {field} differs "
                    f"({base[field]!r} vs {cand[field]!r}); "
                    "refusing to compare snapshots of different builds")
    if unstamped:
        print(f"note: {len(unstamped)} unstamped snapshot pair(s), build "
              f"not checked: {', '.join(unstamped)}")


def load_series(path: Path, prefix: str):
    """One row per ``prefix/<arg>``: (arg, real_time ns, items/s,
    measured), each the median over the Arg's repetitions. A row is
    unmeasured when its ``shards`` counter exceeds the snapshot's
    ``num_cpus``: its shards then shared CPUs, so its time is not the
    parallel sweep's."""
    files = snapshot_files(path)
    runs = {}
    for file in files:
        try:
            doc = json.loads(file.read_text())
        except json.JSONDecodeError as err:
            raise SystemExit(f"error: {file}: not valid JSON ({err})")
        num_cpus = doc.get("context", {}).get("num_cpus")
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name", "")
            if not name.startswith(prefix + "/"):
                continue
            try:
                arg = int(name[len(prefix) + 1:].split("/")[0])
            except ValueError:
                continue
            unit = TIME_UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
            shards = bench.get("shards")
            measured = (shards is None or num_cpus is None
                        or shards <= num_cpus)
            runs.setdefault(arg, []).append(
                (bench.get("real_time", 0.0) * unit,
                 bench.get("items_per_second"), measured))
    rows = []
    for arg, reps in sorted(runs.items()):
        items = [rep[1] for rep in reps if rep[1] is not None]
        rows.append((arg, statistics.median(rep[0] for rep in reps),
                     statistics.median(items) if items else None,
                     all(rep[2] for rep in reps)))
    return rows


def print_series(path: Path, prefix: str) -> int:
    """The scaling curve: one row per Arg, speedup relative to the first."""
    rows = load_series(path, prefix)
    if not rows:
        print(f"error: no '{prefix}/<arg>' benchmarks under {path}",
              file=sys.stderr)
        return 1
    print(f"series {prefix} ({len(rows)} points)")
    print(f"  {'arg':>6} {'time':>12} {'items/s':>12} {'speedup':>8}")
    base_items = rows[0][2]
    base_time = rows[0][1]
    for arg, time_ns, items, measured in rows:
        if items is not None and base_items:
            speedup = items / base_items
        else:
            speedup = base_time / time_ns if time_ns else float("nan")
        items_text = f"{items:,.0f}" if items is not None else "-"
        note = "" if measured else "  unmeasured (shards > num_cpus)"
        print(f"  {arg:>6} {time_ns / 1e6:>10.2f}ms {items_text:>12} "
              f"{speedup:>7.2f}x{note}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Flag >N%% benchmark real_time regressions "
        "between two snapshot sets."
    )
    parser.add_argument("baseline", type=Path,
                        help="snapshot dir or file (the committed reference)")
    parser.add_argument("candidate", type=Path, nargs="?",
                        help="snapshot dir or file (the fresh run); "
                        "omitted in --series mode")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if any benchmark regresses past the "
                        "threshold (default: report only)")
    parser.add_argument("--series", metavar="PREFIX", action="append",
                        help="print the scaling curve of one Arg-swept "
                        "benchmark (rows PREFIX/<arg>) from a single "
                        "snapshot set instead of comparing two; repeatable "
                        "for several curves in one invocation")
    args = parser.parse_args(argv)

    if args.series:
        status = 0
        for i, prefix in enumerate(args.series):
            if i:
                print()
            status = max(status,
                         print_series(args.candidate or args.baseline,
                                      prefix))
        return status
    if args.candidate is None:
        parser.error("candidate is required unless --series is given")

    base_runs, base_contexts = load_snapshots(args.baseline)
    cand_runs, cand_contexts = load_snapshots(args.candidate)
    base = {key: statistics.median(runs) for key, runs in base_runs.items()}
    cand = {key: statistics.median(runs) for key, runs in cand_runs.items()}

    matched = sorted(set(base) & set(cand))
    check_stamps(base_contexts, cand_contexts, {stem for stem, _ in matched})
    added = sorted(set(cand) - set(base))
    removed = sorted(set(base) - set(cand))

    regressions = []
    improvements = []
    for key in matched:
        delta_pct = (cand[key] - base[key]) / base[key] * 100.0
        if delta_pct > args.threshold:
            regressions.append((key, delta_pct))
        elif delta_pct < -args.threshold:
            improvements.append((key, delta_pct))

    def describe(key):
        stem, name = key
        return f"{stem}:{name}"

    print(f"compared {len(matched)} benchmarks "
          f"(threshold {args.threshold:.0f}%)")
    for key, delta in sorted(regressions, key=lambda r: -r[1]):
        print(f"  REGRESSED  {describe(key)}  +{delta:.1f}%  "
              f"({describe_runs(base_runs[key])} -> "
              f"{describe_runs(cand_runs[key])})")
    for key, delta in sorted(improvements, key=lambda r: r[1]):
        print(f"  improved   {describe(key)}  {delta:.1f}%  "
              f"({describe_runs(base_runs[key])} -> "
              f"{describe_runs(cand_runs[key])})")
    if added:
        print(f"  new (not compared): {len(added)}")
        for key in added:
            print(f"    + {describe(key)}")
    if removed:
        print(f"  missing from candidate: {len(removed)}")
        for key in removed:
            print(f"    - {describe(key)}")
    if not regressions:
        print("  no regressions past threshold")

    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

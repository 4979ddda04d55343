#!/usr/bin/env python3
"""Diff two `lacc_bench --json-dir` output directories.

Prints per-experiment deltas of the simulated headline metrics
(completion time, total energy, functional errors) and run counts, so
a PR's artifact can be compared against the previous commit's artifact
at a glance. Runs are matched by label so grid reorderings are detected
rather than misattributed. The wall clock is printed for information
only and never affects the exit status; simulator speed is measured by
perfbench/ (python3 perfbench/run.py), not from these documents.

Experiments present in only one directory are skipped with a printed
note and never count as drift: a PR that adds (or retires) an
experiment would otherwise permanently fail the perf-smoke comparison
against the previous commit's artifact at the PR boundary.

Exit codes:
  0  both directories parsed and every common experiment matched
     within --tolerance
  1  simulated metrics drifted beyond --tolerance, or a common
     experiment's run grids disagree
  2  usage / IO error

Typical usage:
  python3 tools/compare_bench_json.py prev-json bench-json
"""

import argparse
import json
import sys
from pathlib import Path


def load_dir(directory):
    docs = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            print(f"ERROR {path}: unparseable JSON: {e}")
            return None
        docs[doc.get("experiment", path.stem)] = doc
    if not docs:
        print(f"ERROR: no BENCH_*.json files in {directory}")
        return None
    return docs


def fmt_delta(old, new):
    if old == new:
        return "unchanged"
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        if old:
            return f"{old} -> {new} ({(new - old) / old * +100.0:+.3f}%)"
        return f"{old} -> {new}"
    return f"{old!r} -> {new!r}"


def rel_delta(old, new):
    if old == new:
        return 0.0
    if old is None or new is None or not old:
        # A missing metric (schema drift) is always a reportable diff.
        return float("inf")
    return abs(new - old) / abs(old)


def duplicate_labels(runs):
    seen, dups = set(), set()
    for r in runs:
        label = r["label"]
        (dups if label in seen else seen).add(label)
    return sorted(dups)


def compare_runs(name, runs_a, runs_b, tolerance):
    """Compare matched runs; returns (drift_count, lines)."""
    lines = []
    drift = 0
    # Labels are the matching key; a duplicate silently shadows a run
    # in the dicts below, so treat it as drift rather than skip it.
    for side, runs in (("OLD", runs_a), ("NEW", runs_b)):
        for label in duplicate_labels(runs):
            lines.append(
                f"    duplicate label in {side} (shadowed runs not"
                f" compared): {label}")
            drift += 1
    by_label_a = {r["label"]: r for r in runs_a}
    by_label_b = {r["label"]: r for r in runs_b}
    only_a = [l for l in by_label_a if l not in by_label_b]
    only_b = [l for l in by_label_b if l not in by_label_a]
    for label in only_a:
        lines.append(f"    run only in OLD: {label}")
        drift += 1
    for label in only_b:
        lines.append(f"    run only in NEW: {label}")
        drift += 1

    for label, ra in by_label_a.items():
        rb = by_label_b.get(label)
        if rb is None:
            continue
        # Schema-v3 failed runs (watchdog timeout, unrecoverable
        # injected fault) carry placeholder results: comparing them
        # would flag meaningless deltas, and a status flip itself is
        # a visible note rather than drift (fault experiments abort
        # by design).
        sa = ra.get("status", "ok")
        sb = rb.get("status", "ok")
        if sa != sb:
            lines.append(
                f"    {label}: status {sa} -> {sb} (skipped; failed"
                " runs carry no comparable metrics)")
            continue
        if sa == "failed":
            lines.append(f"    {label}: failed in both (skipped)")
            continue
        for key in ("completion_time", "energy_total",
                    "functional_errors"):
            va = ra["result"].get(key)
            vb = rb["result"].get(key)
            if rel_delta(va, vb) > tolerance:
                lines.append(
                    f"    {label}: {key} {fmt_delta(va, vb)}")
                drift += 1
    return drift, lines


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_dir", help="baseline --json-dir output")
    parser.add_argument("new_dir", help="candidate --json-dir output")
    parser.add_argument(
        "--tolerance", type=float, default=0.0,
        help="relative drift allowed in simulated metrics"
             " (default 0: bit-identical)")
    args = parser.parse_args(argv[1:])

    old_docs = load_dir(args.old_dir)
    new_docs = load_dir(args.new_dir)
    if old_docs is None or new_docs is None:
        return 2

    drift = 0
    only_old = sorted(set(old_docs) - set(new_docs))
    only_new = sorted(set(new_docs) - set(old_docs))
    for name in only_old:
        print(f"SKIP {name}: experiment only in {args.old_dir}"
              " (skipped; not counted as drift)")
    for name in only_new:
        print(f"NEW  {name}: experiment only in {args.new_dir}"
              " (skipped; not counted as drift)")

    for name in sorted(set(old_docs) & set(new_docs)):
        da, db = old_docs[name], new_docs[name]
        lines = []
        exp_drift = 0

        if da.get("op_scale") != db.get("op_scale"):
            lines.append(
                f"    op_scale {fmt_delta(da.get('op_scale'), db.get('op_scale'))}"
                " (directories ran at different scales; metric deltas"
                " below are not meaningful)")
            exp_drift += 1
        if da.get("jobs") != db.get("jobs"):
            lines.append(
                f"    jobs {fmt_delta(da.get('jobs'), db.get('jobs'))}")
            exp_drift += 1
        else:
            run_drift, run_lines = compare_runs(
                name, da.get("runs", []), db.get("runs", []),
                args.tolerance)
            exp_drift += run_drift
            lines.extend(run_lines)

        wall = fmt_delta(round(da.get("wall_seconds", 0.0), 2),
                         round(db.get("wall_seconds", 0.0), 2))
        status = "DIFF" if exp_drift else "ok  "
        print(f"{status} {name}: {len(da.get('runs', []))} runs,"
              f" wall {wall} (informational)")
        for line in lines:
            print(line)
        drift += exp_drift

    if drift:
        print(f"DRIFT: {drift} simulated-metric difference(s) beyond"
              f" tolerance {args.tolerance}")
        return 1
    print("PASS: all common experiments match"
          + (f" within tolerance {args.tolerance}"
             if args.tolerance else " bit-identically"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

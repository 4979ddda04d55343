#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts emitted by `lacc_bench --json-dir`.

Used by the perf-smoke CI job: fails (exit 1) on missing, empty,
unparseable, or schema-violating documents so malformed artifacts never
get archived as a "good" perf record. Schema v4 (v3 without the
throughput fields repeat / wall_ms / ops_per_sec and the per-run copy
of sim_ops) is documented in docs/BENCHMARKS.md. Runs recorded as
"failed" (watchdog timeout, unrecoverable injected fault) are noted
and skipped: a failed run is a legitimate resilience datum, not a
malformed artifact.
"""

import json
import sys
from pathlib import Path

SCHEMA_VERSION = 4

# Config-only tables legitimately run zero simulations.
NO_SWEEP_EXPERIMENTS = {"table1", "table2"}

TOP_LEVEL_KEYS = {
    "schema_version",
    "experiment",
    "title",
    "description",
    "op_scale",
    "jobs",
    "wall_seconds",
    "sim_ops",
    "figure",
    "runs",
}

# Optional "profile" object of a --profile run (sim/profiler.hh).
PROFILE_KEYS = {"total_ns", "buckets"}
PROFILE_BUCKETS = {"workload", "cache", "protocol", "network", "dram"}
PROFILE_BUCKET_KEYS = {"ns", "calls", "share"}

RUN_KEYS = {
    "label",
    "bench",
    "wall_seconds",
    "status",
    "config",
    "result",
}

# Throughput fields schema v4 retired; their return is a regression.
RETIRED_TOP_LEVEL_KEYS = {"repeat", "wall_ms", "ops_per_sec"}
RETIRED_RUN_KEYS = {"sim_ops", "wall_ms", "ops_per_sec"}

CONFIG_KEYS = {
    "num_cores",
    "pct",
    "classifier",
    "directory",
    "network",
    "seed",
    "faults",
    "fault_rate",
    "fault_seed",
}

RESULT_KEYS = {
    "completion_time",
    "energy_total",
    "functional_errors",
    "sim_ops",
    "stats",
}

STATS_KEYS = {
    "cores",
    "completion_time",
    "latency",
    "energy",
    "misses",
    "l1d",
    "l2",
    "network",
    "protocol",
    "eviction_util",
    "invalidation_util",
    "faults",
}


def fail(path, message):
    print(f"FAIL {path}: {message}")
    return False


def check_document(path):
    text = path.read_text()
    if not text.strip():
        return fail(path, "empty file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return fail(path, f"unparseable JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")

    missing = TOP_LEVEL_KEYS - doc.keys()
    if missing:
        return fail(path, f"missing top-level keys: {sorted(missing)}")
    retired = RETIRED_TOP_LEVEL_KEYS & doc.keys()
    if retired:
        return fail(path, f"retired top-level keys: {sorted(retired)}")
    if doc["schema_version"] != SCHEMA_VERSION:
        return fail(
            path,
            f"schema_version {doc['schema_version']} != {SCHEMA_VERSION}",
        )

    name = doc["experiment"]
    if path.name != f"BENCH_{name}.json":
        return fail(path, f"experiment '{name}' mismatches filename")
    if not isinstance(doc["figure"], dict) or (
        not doc["figure"] and name not in NO_SWEEP_EXPERIMENTS
    ):
        return fail(path, "figure payload empty")

    runs = doc["runs"]
    if not isinstance(runs, list):
        return fail(path, "runs is not an array")
    if len(runs) != doc["jobs"]:
        return fail(path, f"jobs={doc['jobs']} but {len(runs)} runs")
    if not runs and name not in NO_SWEEP_EXPERIMENTS:
        return fail(path, "sweep experiment recorded zero runs")

    if not (isinstance(doc["op_scale"], (int, float)) and doc["op_scale"] > 0):
        return fail(path, f"bad op_scale {doc['op_scale']!r}")
    ok_runs = [r for r in runs if r.get("status") == "ok"]
    if ok_runs and name not in NO_SWEEP_EXPERIMENTS:
        if not (isinstance(doc["sim_ops"], int) and doc["sim_ops"] > 0):
            return fail(path, f"bad sim_ops {doc['sim_ops']!r}")

    profile = doc.get("profile")
    if profile is not None:
        missing = PROFILE_KEYS - profile.keys()
        if missing:
            return fail(path, f"profile missing keys: {sorted(missing)}")
        buckets = profile["buckets"]
        if set(buckets) != PROFILE_BUCKETS:
            return fail(
                path, f"profile buckets {sorted(buckets)} !="
                f" {sorted(PROFILE_BUCKETS)}"
            )
        for bucket, payload in buckets.items():
            missing = PROFILE_BUCKET_KEYS - payload.keys()
            if missing:
                return fail(
                    path,
                    f"profile.buckets.{bucket} missing keys:"
                    f" {sorted(missing)}",
                )

    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        missing = RUN_KEYS - run.keys()
        if missing:
            return fail(path, f"{where} missing keys: {sorted(missing)}")
        retired = RETIRED_RUN_KEYS & run.keys()
        if retired:
            return fail(path, f"{where} retired keys: {sorted(retired)}")
        missing = CONFIG_KEYS - run["config"].keys()
        if missing:
            return fail(
                path, f"{where}.config missing keys: {sorted(missing)}"
            )
        if run["status"] == "failed":
            reason = run.get("fail_reason", "<missing fail_reason>")
            print(f"note {path}: {where} failed ({reason}); skipped")
            continue
        if run["status"] != "ok":
            return fail(path, f"{where} has bad status {run['status']!r}")
        missing = RESULT_KEYS - run["result"].keys()
        if missing:
            return fail(
                path, f"{where}.result missing keys: {sorted(missing)}"
            )
        missing = STATS_KEYS - run["result"]["stats"].keys()
        if missing:
            return fail(
                path,
                f"{where}.result.stats missing keys: {sorted(missing)}",
            )
        if run["result"]["completion_time"] <= 0:
            return fail(path, f"{where} has zero completion_time")

    print(f"ok   {path}: {name}, {len(runs)} runs")
    return True


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} <json-dir>")
        return 2
    directory = Path(argv[1])
    files = sorted(directory.glob("BENCH_*.json"))
    if not files:
        print(f"FAIL: no BENCH_*.json files in {directory}")
        return 1
    ok = all([check_document(path) for path in files])
    print(f"{'PASS' if ok else 'FAIL'}: {len(files)} documents checked")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

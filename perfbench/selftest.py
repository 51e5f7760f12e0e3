#!/usr/bin/env python3
"""Small-scale self-test of the serving benchmark.

Runs every workload of BENCHMARK.json for a few seconds on one-university
datasets, untraced and traced, and checks that the result line carries
exactly the metrics BENCHMARK.json names, with their units, that every
answer matched the saturation oracle (error_rate == 0), and that the detail
line carries the provenance stamp and the read-write-only layer metrics.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SECONDS = "4"  # Long enough for the traced read-write slices to update.
PROVENANCE = {"workload", "seed", "nproc", "build_type", "compiler",
              "git_sha", "source_sha256", "data_triples"}
READ_WRITE_LAYERS = {"service.read_p99_overlapping_update_ms",
                     "service.reads_overlapping_update"}


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", SECONDS,
               "--trace", trace, "--small"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=600)
    if result.returncode != 0:
        raise AssertionError(f"exit {result.returncode}: {result.stderr}")
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload, trace, spec):
    detail, final = run(workload, trace)
    expected = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}, final
    assert final["correct"] is True and final["failed"] == 0, final
    assert final["attempted"] >= 1, final
    metrics = final["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (
        set(metrics) ^ {m["name"] for m in expected})
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert math.isfinite(got["value"]), (m, got)
    assert detail["context"]["error_rate"]["value"] == 0, detail["context"]
    assert PROVENANCE <= set(detail["provenance"]), detail["provenance"]
    profile = detail["profile"]
    for field in ("tuple_us_per_row", "materialization_us_per_row",
                  "union_term_overhead_us"):
        assert profile[field] == 0, profile
    if workload == "lubm-read-write":
        assert "bench.writer_lag_ms" in detail["context"], detail["context"]
        if trace == "1":
            assert READ_WRITE_LAYERS <= set(detail["layer_context"]), detail
    return final["attempted"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            try:
                attempted = check(workload, trace, spec)
                print(f"ok   {workload} trace={trace}: {attempted} "
                      f"operations checked")
            except (AssertionError, subprocess.TimeoutExpired,
                    json.JSONDecodeError, IndexError, KeyError) as error:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {error}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

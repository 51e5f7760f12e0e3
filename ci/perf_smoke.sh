#!/usr/bin/env bash
# Executor perf smoke: runs the headline batch-engine benchmark
# (BM_ExecutePlannedJucq), the hierarchy-range collapse pair
# (BM_ExecuteScanRangeJucq vs BM_ExecuteUnionOfScansJucq), and the
# materialized-view pair (BM_ExecuteViewScanJucq vs BM_ExecuteViewsOffJucq),
# and fails if the executor regresses more than the budget against the
# checked-in sidecar (BENCH_baseline.json).
#
# The baseline was recorded on a different machine, so an absolute
# comparison would be noise; instead the gate is relative to the recorded
# batch-vs-tuple ratio: the batch engine must stay a large multiple faster
# than the tuple engine measured in the same process, and may drift at most
# RDFOPT_PERF_BUDGET_PCT (default 20) from the baseline's recorded ratio.
#
# When RDFOPT_PERF_UNCHECKED_DIR names a second build tree configured with
# -DRDFOPT_DISABLE_CHECKS=ON, the script additionally measures the cost of
# the always-on RDFOPT_CHECK contracts: BM_ExecutePlannedJucq from both
# trees runs back-to-back on this host, and the checked build may be at
# most RDFOPT_CHECK_BUDGET_PCT (default 2) slower.
#
# Usage: ci/perf_smoke.sh [build_dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_micro"
BASELINE="${RDFOPT_PERF_BASELINE:-BENCH_baseline.json}"
BUDGET_PCT="${RDFOPT_PERF_BUDGET_PCT:-20}"
OUT="${RDFOPT_PERF_OUT:-$BUILD_DIR/perf_smoke.json}"

if [[ ! -x "$BENCH" ]]; then
  echo "perf_smoke: $BENCH not built" >&2
  exit 1
fi
if [[ ! -f "$BASELINE" ]]; then
  echo "perf_smoke: baseline $BASELINE not found" >&2
  exit 1
fi

"$BENCH" \
  --benchmark_filter='BM_ExecutePlannedJucq(Tuple)?$|BM_Execute(ScanRange|UnionOfScans|ViewScan|ViewsOff)Jucq$' \
  --benchmark_out="$OUT" --benchmark_out_format=json

python3 - "$BASELINE" "$OUT" "$BUDGET_PCT" <<'EOF'
import json
import sys

baseline_path, out_path, budget_pct = sys.argv[1], sys.argv[2], sys.argv[3]
budget = float(budget_pct) / 100.0

def times(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_smoke: FAIL: cannot read benchmark JSON {path}: {e}",
              file=sys.stderr)
        sys.exit(1)
    if "benchmarks" not in doc:
        print(f"perf_smoke: FAIL: {path} has no 'benchmarks' array — "
              f"not a google-benchmark JSON sidecar?", file=sys.stderr)
        sys.exit(1)
    return {b["name"]: float(b["real_time"]) for b in doc["benchmarks"]}

base = times(baseline_path)
now = times(out_path)

failures = []

def require(name):
    # A benchmark absent from the smoke run means the filter regex and the
    # bench binary disagree (renamed/deleted benchmark, stale build). That is
    # a gate failure, not a skip: otherwise a rename silently disables the
    # perf gate.
    if name not in now:
        failures.append(
            f"{name}: missing from the smoke run output "
            f"(filter regex matched {sorted(now)}; "
            f"renamed benchmark or stale bench binary?)")
        return None
    return now[name]

def baseline_ratio(num_name, den_name):
    # Missing baseline columns are a warning, not a failure: the checked-in
    # sidecar may predate a newly added benchmark until it is regenerated.
    missing = [n for n in (num_name, den_name) if n not in base]
    if missing:
        print(f"perf_smoke: warning: {', '.join(missing)} missing from "
              f"baseline {baseline_path}; using the static floor only")
        return None
    return base[num_name] / base[den_name]

batch = require("BM_ExecutePlannedJucq")
tuple_t = require("BM_ExecutePlannedJucqTuple")
range_t = require("BM_ExecuteScanRangeJucq")
union_t = require("BM_ExecuteUnionOfScansJucq")
view_t = require("BM_ExecuteViewScanJucq")
no_view_t = require("BM_ExecuteViewsOffJucq")

# Gate 1: the in-process batch-vs-tuple executor ratio. Machine-independent:
# both sides ran seconds apart on the same host.
if batch and tuple_t:
    ratio = tuple_t / batch
    base_ratio = baseline_ratio("BM_ExecutePlannedJucqTuple",
                                "BM_ExecutePlannedJucq")
    # Never below the PR's acceptance bar of 5x, and within budget of the
    # recorded ratio when the baseline has both columns.
    floor = 5.0
    if base_ratio is not None:
        floor = max(floor, base_ratio * (1.0 - budget))
    print(f"perf_smoke: batch {batch/1e6:.2f} ms, tuple {tuple_t/1e6:.2f} ms, "
          f"ratio {ratio:.1f}x (floor {floor:.1f}x)")
    if ratio < floor:
        failures.append(
            f"BM_ExecutePlannedJucq: batch/tuple ratio {ratio:.1f}x below "
            f"the floor {floor:.1f}x (budget {budget_pct}%)")

# Gate 3: the hierarchy-range collapse. The ScanRange plan for the
# fine-grained LUBM Professor query must stay a large multiple faster than
# the equivalent union-of-scans plan measured in the same process. Floor is
# the acceptance bar of 3x, tightened by the baseline's recorded ratio.
if range_t and union_t:
    ratio = union_t / range_t
    base_ratio = baseline_ratio("BM_ExecuteUnionOfScansJucq",
                                "BM_ExecuteScanRangeJucq")
    floor = 3.0
    if base_ratio is not None:
        floor = max(floor, base_ratio * (1.0 - budget))
    print(f"perf_smoke: scan-range {range_t/1e3:.0f} us, "
          f"union-of-scans {union_t/1e3:.0f} us, "
          f"ratio {ratio:.1f}x (floor {floor:.1f}x)")
    if ratio < floor:
        failures.append(
            f"BM_ExecuteScanRangeJucq: range/union ratio {ratio:.1f}x below "
            f"the floor {floor:.1f}x (budget {budget_pct}%)")

# Gate 5: materialized views. Executing the fine-grained Professor query's
# plan with its component served from a view (an execution-time catalog
# hit) must stay a large multiple faster than re-evaluating its
# union-of-scans plan in the same process. Floor is the acceptance bar of 3x, tightened by the
# baseline's recorded ratio.
if view_t and no_view_t:
    ratio = no_view_t / view_t
    base_ratio = baseline_ratio("BM_ExecuteViewsOffJucq",
                                "BM_ExecuteViewScanJucq")
    floor = 3.0
    if base_ratio is not None:
        floor = max(floor, base_ratio * (1.0 - budget))
    print(f"perf_smoke: view-scan {view_t/1e3:.0f} us, "
          f"views-off {no_view_t/1e3:.0f} us, "
          f"ratio {ratio:.1f}x (floor {floor:.1f}x)")
    if ratio < floor:
        failures.append(
            f"BM_ExecuteViewScanJucq: view/union ratio {ratio:.1f}x below "
            f"the floor {floor:.1f}x (budget {budget_pct}%)")

if failures:
    for f in failures:
        print(f"perf_smoke: FAIL: {f}", file=sys.stderr)
    sys.exit(1)
print("perf_smoke: OK")
EOF

# Gate 4 (optional): RDFOPT_CHECK overhead. Needs a sibling build tree with
# the contracts compiled out (-DRDFOPT_DISABLE_CHECKS=ON); both binaries run
# the headline benchmark back-to-back in this process's environment, so the
# comparison is machine-independent. Medians over repetitions keep a single
# noisy run from tripping a 2% budget.
UNCHECKED_DIR="${RDFOPT_PERF_UNCHECKED_DIR:-}"
if [[ -n "$UNCHECKED_DIR" ]]; then
  CHECK_BUDGET_PCT="${RDFOPT_CHECK_BUDGET_PCT:-2}"
  UNCHECKED_BENCH="$UNCHECKED_DIR/bench/bench_micro"
  if [[ ! -x "$UNCHECKED_BENCH" ]]; then
    echo "perf_smoke: FAIL: RDFOPT_PERF_UNCHECKED_DIR set but" \
         "$UNCHECKED_BENCH not built" >&2
    exit 1
  fi
  CHECKED_OUT="$BUILD_DIR/perf_smoke_checked.json"
  UNCHECKED_OUT="$BUILD_DIR/perf_smoke_unchecked.json"
  for pass in checked unchecked; do
    if [[ "$pass" == checked ]]; then bin="$BENCH"; out="$CHECKED_OUT";
    else bin="$UNCHECKED_BENCH"; out="$UNCHECKED_OUT"; fi
    "$bin" --benchmark_filter='BM_ExecutePlannedJucq$' \
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
      --benchmark_out="$out" --benchmark_out_format=json
  done
  python3 - "$CHECKED_OUT" "$UNCHECKED_OUT" "$CHECK_BUDGET_PCT" <<'EOF'
import json
import sys

checked_path, unchecked_path, budget_pct = sys.argv[1], sys.argv[2], sys.argv[3]

def median(path):
    with open(path) as f:
        doc = json.load(f)
    for b in doc.get("benchmarks", []):
        if b.get("aggregate_name") == "median":
            return float(b["real_time"])
    print(f"perf_smoke: FAIL: no median aggregate in {path}", file=sys.stderr)
    sys.exit(1)

checked = median(checked_path)
unchecked = median(unchecked_path)
overhead = (checked - unchecked) / unchecked * 100.0
print(f"perf_smoke: RDFOPT_CHECK overhead on BM_ExecutePlannedJucq: "
      f"checked {checked/1e6:.3f} ms, unchecked {unchecked/1e6:.3f} ms, "
      f"{overhead:+.2f}% (budget {budget_pct}%)")
if overhead > float(budget_pct):
    print(f"perf_smoke: FAIL: always-on contract overhead {overhead:.2f}% "
          f"exceeds the {budget_pct}% budget — a check landed on the "
          f"per-row hot path; demote it to RDFOPT_DCHECK", file=sys.stderr)
    sys.exit(1)
print("perf_smoke: check-overhead OK")
EOF
fi

#!/usr/bin/env bash
# Telemetry smoke test: starts rdfopt_server on a small LUBM dataset, drives
# a few queries over the line protocol, scrapes the Prometheus endpoint
# (`!prom`) and the slow-query log (`!slowlog`), and validates both formats.
#
# Usage: ci/prom_smoke.sh [build_dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/examples/rdfopt_server"
PORT="${RDFOPT_SMOKE_PORT:-18094}"

if [[ ! -x "$SERVER" ]]; then
  echo "prom_smoke: $SERVER not built" >&2
  exit 1
fi

# --slow-ms 0: every request qualifies for the slow-query log, so the scrape
# below is guaranteed lines to validate.
"$SERVER" --port "$PORT" --slow-ms 0 --lubm 1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true' EXIT

python3 - "$PORT" <<'EOF'
import json
import socket
import sys
import time

port = int(sys.argv[1])

# Wait for the listener.
for attempt in range(100):
    try:
        probe = socket.create_connection(("127.0.0.1", port), timeout=1)
        probe.close()
        break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("server never started listening")

sock = socket.create_connection(("127.0.0.1", port), timeout=30)
reader = sock.makefile("r", encoding="utf-8")

def send(line):
    sock.sendall((line + "\n").encode("utf-8"))

def read_line():
    line = reader.readline()
    if not line:
        sys.exit("server closed the connection")
    return line.rstrip("\n")

def read_until_eof():
    lines = []
    while True:
        line = read_line()
        if line == "# EOF":
            return lines
        lines.append(line)

query = ("PREFIX ub: <http://lubm.example.org/univ#> "
         "SELECT ?x ?d WHERE { ?x ub:worksFor ?d . "
         "?x ub:doctoralDegreeFrom ?u . }")

# A couple of queries: one miss, one cache hit.
for expect_hit in (False, True):
    send(query)
    response = json.loads(read_line())
    assert response["ok"], response
    assert response["cache_hit"] == expect_hit, response
    assert response["row_count"] > 0, response

# --- !prom: Prometheus text exposition ---------------------------------
send("!prom")
prom = read_until_eof()
assert prom, "empty !prom response"
seen_types = {}
for line in prom:
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ")
        assert kind in ("counter", "gauge", "summary"), line
        seen_types[name] = kind
        continue
    assert not line.startswith("#"), f"unexpected comment: {line}"
    # Every sample line is "name[{labels}] value".
    head, _, value = line.rpartition(" ")
    float(value)  # Must parse as a number.
    name = head.split("{", 1)[0]
    assert name, line
    for c in name:
        assert c.isalnum() or c in "_:", f"bad metric name char: {line}"
    assert name.startswith("rdfopt_"), f"unprefixed metric: {line}"

# The queries above must have left their marks.
prom_text = "\n".join(prom)
for required in (
    "rdfopt_service_queries",
    "rdfopt_service_total_ms_window",
    "rdfopt_engine_evaluate_ms",
    "rdfopt_cost_estimate_drift",
    "rdfopt_service_slow_queries",
    "rdfopt_views_lookups",
    "rdfopt_views_hits",
    "rdfopt_views_bytes",
    "rdfopt_service_view_hits_on_cache_hit",
    "rdfopt_service_view_hits_on_cache_miss",
    "rdfopt_optimizer_disjuncts_priced",
    "rdfopt_optimizer_atom_store_counts",
    "rdfopt_cost_feedback_key_builds",
):
    assert required in prom_text, f"missing metric: {required}"

# --- !views: the materialized-view catalog ------------------------------
send("!views")
views = json.loads(read_line())
assert views["enabled"] is True, views
for key in ("lookups", "hits", "offers", "admitted", "bytes", "entries"):
    assert key in views, f"!views missing {key}: {views}"
assert views["offers"] >= 1, f"no view was ever offered: {views}"
for entry in views["entries"]:
    for key in ("signature", "pinned", "resident", "rows", "observations"):
        assert key in entry, f"!views entry missing {key}: {entry}"

# --- !slowlog: JSON lines ----------------------------------------------
send("!slowlog")
slow = read_until_eof()
assert len(slow) >= 2, f"expected >=2 slow-log lines, got {len(slow)}"
for line in slow:
    record = json.loads(line)
    for key in ("canonical", "status", "plan_digest", "cache_hit", "epoch",
                "total_ms", "eval", "nodes"):
        assert key in record, f"slow-log line missing {key}: {line}"
    assert record["status"] == "ok", line
    int(record["plan_digest"], 16)
    assert record["nodes"], f"no per-node stats: {line}"
    for node in record["nodes"]:
        assert "kind" in node and "rows" in node and "ms" in node, line
# Miss first, hit second.
assert json.loads(slow[0])["cache_hit"] is False
assert json.loads(slow[1])["cache_hit"] is True
assert (json.loads(slow[0])["plan_digest"]
        == json.loads(slow[1])["plan_digest"]), "digest changed across cache"

send("!shutdown")
print("prom_smoke: OK "
      f"({len(prom)} exposition lines, {len(slow)} slow-log lines)")
EOF

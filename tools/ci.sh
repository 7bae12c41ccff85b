#!/bin/sh
# CI entry point: full build, the complete test suite, the examples, and
# benchmark smoke runs whose machine-readable results are written to and
# checked in a scratch directory, so the committed BENCH_PR*.json files
# are never rewritten.
set -eu

cd "$(dirname "$0")/.."

bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir"' EXIT
export BENCH_DIR="$bench_dir"

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== optimizer differential tests =="
dune exec test/test_opt.exe

echo "== parallel-vs-Reference differential tests =="
dune exec test/test_par_diff.exe

echo "== examples =="
dune exec examples/quickstart.exe > /dev/null
dune exec examples/wordcount.exe -- 20000 > /dev/null

echo "== stenoc analyze (annotated plans, all backends) =="
dune exec bin/stenoc.exe -- analyze redundant -n 2000 > /dev/null

echo "== stenoc lint (static checks over the demo gallery) =="
dune exec bin/stenoc.exe -- lint --all -n 2000

echo "== stenoc verify (translation validation over the demo gallery) =="
dune exec bin/stenoc.exe -- verify --all -n 2000

echo "== translation-validator suite =="
dune exec test/test_verify.exe

echo "== adaptive-optimization suite (incl. 200-pipeline differential) =="
dune exec test/test_adaptive.exe

echo "== stenoc cost (profiler-to-optimizer loop) =="
cost_out=$(dune exec bin/stenoc.exe -- cost needle -n 20000 --reps 3)
for needle in \
    'stats-where-reorder' \
    'reordered: ' \
    'selectivity'
do
  if ! printf '%s\n' "$cost_out" | grep -qF "$needle"; then
    echo "missing from stenoc cost output: $needle" >&2
    exit 1
  fi
done

echo "== stenoc metrics (OpenMetrics dump) =="
metrics_dump=$(dune exec bin/stenoc.exe -- metrics -n 2000)
for family in \
    'TYPE steno_run_ms histogram' \
    'TYPE steno_verify counter' \
    'steno_verify_total{result="accepted"}' \
    'TYPE steno_runs counter' \
    'TYPE steno_operator_rows counter' \
    'TYPE steno_operator_calls counter' \
    'TYPE steno_cache_entries gauge' \
    'TYPE steno_partition_rows histogram' \
    'TYPE steno_agg_merge_ms histogram' \
    'TYPE check_diagnostics counter' \
    'TYPE steno_pcache_hits counter' \
    'TYPE steno_pcache_misses counter' \
    'TYPE steno_pcache_evictions counter' \
    'TYPE steno_tier_promotions counter' \
    'TYPE steno_adaptive counter' \
    'steno_adaptive_total{decision="reorder"}' \
    '# EOF'
do
  if ! printf '%s\n' "$metrics_dump" | grep -qF "$family"; then
    echo "missing from metrics dump: $family" >&2
    exit 1
  fi
done

echo "== server concurrency suite =="
dune exec test/test_server.exe

echo "== plugin-cache persistence + tiering suite =="
dune exec test/test_pcache.exe

echo "== stenoc serve (per-tenant metric labels) =="
serve_dump=$(dune exec bin/stenoc.exe -- serve --clients 6 --requests 3 -n 2000)
for needle in \
    'client="tenant-0"' \
    'TYPE steno_server_requests counter' \
    'TYPE steno_server_queue_ms histogram'
do
  if ! printf '%s\n' "$serve_dump" | grep -qF "$needle"; then
    echo "missing from serve metrics dump: $needle" >&2
    exit 1
  fi
done
# With a native toolchain, 18 identical concurrent requests must cost
# exactly one compiler run (plugin cache + single-flight dedup).
if printf '%s\n' "$serve_dump" | grep -q 'backend="native"'; then
  if ! printf '%s\n' "$serve_dump" | \
      grep -qF 'steno_compile_total{result="ok"} 1'; then
    echo "serve: expected exactly one native compile" >&2
    exit 1
  fi
fi

echo "== bench smoke (scale 0.01) =="
dune exec bench/main.exe -- --scale 0.01 --json "$bench_dir/BENCH_PR2.json"

echo "== profiling overhead (scale 0.01) =="
dune exec bench/main.exe -- --scale 0.01 --json-profile "$bench_dir/BENCH_PR3.json"

echo "== partitioned aggregation (scale 0.01) =="
dune exec bench/main.exe -- --scale 0.01 --json-par "$bench_dir/BENCH_PR5.json"
python3 -m json.tool "$bench_dir/BENCH_PR5.json" > /dev/null

echo "== serving-layer stress smoke (8 clients x 4 requests) =="
dune exec bench/main.exe -- serve --scale 0.01 --clients 8 --requests 4 \
  --json-serve "$bench_dir/BENCH_PR6.json"
python3 -m json.tool "$bench_dir/BENCH_PR6.json" > /dev/null
for key in throughput_rps p50_ms p99_ms queue_p99_ms dedup_joins \
    rejected compiles max_inflight workers
do
  if ! grep -qF "\"$key\"" "$bench_dir/BENCH_PR6.json"; then
    echo "missing from BENCH_PR6.json: $key" >&2
    exit 1
  fi
done

echo "== tiering + persistent-cache smoke (scale 0.01) =="
dune exec bench/main.exe -- tier --scale 0.01 --json-tier "$bench_dir/BENCH_PR7.json"
python3 -m json.tool "$bench_dir/BENCH_PR7.json" > /dev/null
for key in compile_cold_prepare_ms pcache_cold_prepare_ms \
    pcache_warm_prepare_ms pcache_speedup pcache_warm_compiles \
    promoted promotion_ms diverged warmup_curve
do
  if ! grep -qF "\"$key\"" "$bench_dir/BENCH_PR7.json"; then
    echo "missing from BENCH_PR7.json: $key" >&2
    exit 1
  fi
done
# With a native toolchain: the warm persistent cache must make a cold
# prepare at least 10x cheaper than compiling, with zero compiler runs;
# the tiering curve must start fused, promote, and never diverge.
if grep -qF '"native_available": true' "$bench_dir/BENCH_PR7.json"; then
  python3 - <<'EOF'
import json, os, sys
r = json.load(open(os.path.join(os.environ["BENCH_DIR"], "BENCH_PR7.json")))
ok = True
def need(cond, msg):
    global ok
    if not cond:
        print("BENCH_PR7.json: " + msg, file=sys.stderr)
        ok = False
need(r["pcache_speedup"] >= 10.0,
     "pcache_speedup %.1f < 10x" % r["pcache_speedup"])
need(r["pcache_warm_compiles"] == 0, "warm prepare invoked the compiler")
need(r["pcache_warm_is_hit"], "warm prepare was not a cache hit")
need(r["pcache_hits"] >= 1, "no pcache hit recorded")
need(r["promoted"], "tiered preparation never promoted to native")
need(not r["diverged"], "results diverged across the tier swap")
curve = r["warmup_curve"]
need(curve and curve[0]["tier"] == "fused", "warm-up curve must start fused")
need(any(p["tier"] == "native" for p in curve),
     "warm-up curve never reached native")
sys.exit(0 if ok else 1)
EOF
fi

echo "== adaptive reorder bench (statically pessimal filter order) =="
dune exec bench/main.exe -- --scale 0.25 --json-adaptive "$bench_dir/BENCH_PR10.json"
python3 -m json.tool "$bench_dir/BENCH_PR10.json" > /dev/null
for key in static_order_ms adaptive_order_ms speedup reordered decisions
do
  if ! grep -qF "\"$key\"" "$bench_dir/BENCH_PR10.json"; then
    echo "missing from BENCH_PR10.json: $key" >&2
    exit 1
  fi
done
# The adaptive second preparation must actually reorder, and the
# measured win on the adversarial ordering must be real (the expensive
# predicate is ~30x the cheap one, so 1.2x is a loose floor).
python3 - <<'EOF'
import json, os, sys
r = json.load(open(os.path.join(os.environ["BENCH_DIR"], "BENCH_PR10.json")))
ok = True
def need(cond, msg):
    global ok
    if not cond:
        print("BENCH_PR10.json: " + msg, file=sys.stderr)
        ok = False
need(r["reordered"], "adaptive preparation never reordered the filters")
need(r["speedup"] >= 1.2, "speedup %.2fx < 1.2x floor" % r["speedup"])
need(any(d.startswith("reordered: ") for d in r["decisions"]),
     "no reorder decision string surfaced")
sys.exit(0 if ok else 1)
EOF

echo "== tracing + ops-plane suite =="
dune exec test/test_trace.exe

echo "== admin endpoints (stenoc serve --admin-port) =="
serve_log=$(mktemp)
dune exec bin/stenoc.exe -- serve --clients 4 --requests 2 -n 2000 \
  --admin-port 0 --hold 30 > "$serve_log" 2>&1 &
serve_pid=$!
admin_url=""
for _ in $(seq 1 100); do
  admin_url=$(sed -n 's/^# admin listening on //p' "$serve_log")
  [ -n "$admin_url" ] && break
  sleep 0.2
done
if [ -z "$admin_url" ]; then
  echo "stenoc serve never announced the admin listener" >&2
  cat "$serve_log" >&2
  exit 1
fi
if [ "$(curl -fsS "$admin_url/healthz")" != "ok" ]; then
  echo "admin /healthz did not answer ok" >&2
  exit 1
fi
admin_metrics=$(curl -fsS "$admin_url/metrics")
for family in \
    'TYPE steno_server_requests counter' \
    'TYPE steno_server_queue_ms histogram' \
    'TYPE steno_trace_dropped counter' \
    'steno_trace_dropped_total' \
    'steno_traces_total'
do
  if ! printf '%s\n' "$admin_metrics" | grep -qF "$family"; then
    echo "missing from admin /metrics: $family" >&2
    exit 1
  fi
done
curl -fsS "$admin_url/traces" > /dev/null
curl -fsS "$admin_url/slow" > /dev/null
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
rm -f "$serve_log"

echo "== trace export (Chrome trace_event JSON) =="
dune exec bin/stenoc.exe -- trace export -n 2000 > trace_export.json
python3 - <<'EOF'
import json, sys
r = json.load(open("trace_export.json"))
events = r["traceEvents"]
ok = True
def need(cond, msg):
    global ok
    if not cond:
        print("trace export: " + msg, file=sys.stderr)
        ok = False
need(len(events) >= 1, "no events exported")
# Group complete events by trace (= pid) and demand at least one trace
# holding the request root, the run span, and the background promotion
# span — the cross-domain attribution the trace layer exists for.
by_pid = {}
for e in events:
    if e.get("ph") in ("X", "i"):
        by_pid.setdefault(e["pid"], set()).add(e["name"])
need(any({"request", "run", "tier.promote"} <= names
         for names in by_pid.values()),
     "no trace pairs request+run with its background tier.promote")
need(any("trace_id" in e.get("args", {}) for e in events),
     "no root span carries a trace_id")
sys.exit(0 if ok else 1)
EOF
rm -f trace_export.json

echo "== trace overhead (8 clients x 4 requests, sample 1.0) =="
dune exec bench/main.exe -- serve --scale 0.01 --clients 8 --requests 4 \
  --trace-sample 1.0 --json-trace "$bench_dir/BENCH_PR8.json"
python3 -m json.tool "$bench_dir/BENCH_PR8.json" > /dev/null
for key in trace_sample serve_off serve_traced traces trace_dropped \
    serve_throughput_delta_pct hot_run_off_ms hot_run_traced_ms \
    hot_overhead_pct
do
  if ! grep -qF "\"$key\"" "$bench_dir/BENCH_PR8.json"; then
    echo "missing from BENCH_PR8.json: $key" >&2
    exit 1
  fi
done
# The hot-path tax of full tracing must stay under 10% (negative values
# are measurement noise and fine).
python3 - <<'EOF'
import json, os, sys
r = json.load(open(os.path.join(os.environ["BENCH_DIR"], "BENCH_PR8.json")))
pct = r["hot_overhead_pct"]
if pct >= 10.0:
    print("BENCH_PR8.json: hot-path tracing overhead %.1f%% >= 10%%" % pct,
          file=sys.stderr)
    sys.exit(1)
if r["serve_traced"]["traces"] < 1:
    print("BENCH_PR8.json: traced serve run recorded no traces",
          file=sys.stderr)
    sys.exit(1)
EOF

echo "== ok =="

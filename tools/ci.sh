#!/bin/sh
# CI entry point: full build, the complete test suite, the examples, the
# stenoc surfaces, and the bench/main.exe experiments that carry a gate.
# Every check is a test assertion, a grep over a command's output, or an
# experiment's exit status; scratch files go to a temporary directory
# that is removed on exit, so a run leaves the working tree untouched.
set -eu

cd "$(dirname "$0")/.."

work_dir=$(mktemp -d)
serve_pid=""
cleanup() {
  if [ -n "$serve_pid" ]; then
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$work_dir"
}
trap cleanup EXIT

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== examples =="
dune exec examples/quickstart.exe > /dev/null
dune exec examples/wordcount.exe -- 20000 > /dev/null

echo "== native -> fused fallback (no assembler on PATH) =="
dune build bin/stenoc.exe
# Plugins build in a resident compile worker that runs as and ld from
# its PATH; without them it answers "unavailable" and stenoc falls back.
if env PATH=/nonexistent sh -c 'command -v as' > /dev/null; then
  echo "(skipped: an assembler is on PATH=/nonexistent)"
else
  native_out=$(./_build/default/bin/stenoc.exe run sumsq -n 50000)
  fallback_out=$(env PATH=/nonexistent ./_build/default/bin/stenoc.exe \
    run sumsq -n 50000)
  if ! printf '%s\n' "$fallback_out" | \
      grep -qF 'fell back from native to fused: native compiler unavailable'; then
    echo "stenoc without an assembler on PATH did not report the fused fallback" >&2
    printf '%s\n' "$fallback_out" >&2
    exit 1
  fi
  if [ "$(printf '%s\n' "$native_out" | head -1)" != \
       "$(printf '%s\n' "$fallback_out" | head -1)" ]; then
    echo "stenoc sumsq: the fused fallback's result differs from native's" >&2
    printf '%s\n---\n%s\n' "$native_out" "$fallback_out" >&2
    exit 1
  fi
fi

echo "== plugins build without starting ocamlopt =="
# ocamlopt and ocamlopt.opt first on PATH fail; the compile worker never
# starts them, so join still runs on Native and agrees with Fused.
fake_bin="$work_dir/fake-ocamlopt"
mkdir -p "$fake_bin"
for tool in ocamlopt ocamlopt.opt; do
  printf '#!/bin/sh\nexit 1\n' > "$fake_bin/$tool"
  chmod +x "$fake_bin/$tool"
done
join_native=$(env PATH="$fake_bin:$PATH" ./_build/default/bin/stenoc.exe \
  run join -n 2000)
join_fused=$(./_build/default/bin/stenoc.exe run join -n 2000 -b fused)
if printf '%s\n' "$join_native" | grep -qF 'fell back'; then
  echo "stenoc join fell back with ocamlopt failing on PATH" >&2
  printf '%s\n' "$join_native" >&2
  exit 1
fi
if [ "$(printf '%s\n' "$join_native" | head -1)" != \
     "$(printf '%s\n' "$join_fused" | head -1)" ]; then
  echo "stenoc join: native and fused results differ" >&2
  printf '%s\n---\n%s\n' "$join_native" "$join_fused" >&2
  exit 1
fi

echo "== one assembler run per plugin =="
# On Linux/amd64 the compile worker assembles a plugin's unit and its
# startup code together: an as that counts its runs, first on PATH, runs
# once for join's plugin, and join still agrees with Fused.
real_as=$(command -v as || true)
if [ "$(uname -sm)" != "Linux x86_64" ] || [ -z "$real_as" ]; then
  echo "(skipped: not a Linux/amd64 host with an assembler)"
else
  count_bin="$work_dir/count-as"
  mkdir -p "$count_bin"
  printf '#!/bin/sh\necho run >> "%s"\nexec "%s" "$@"\n' \
    "$work_dir/as-runs" "$real_as" > "$count_bin/as"
  chmod +x "$count_bin/as"
  join_counted=$(env PATH="$count_bin:$PATH" ./_build/default/bin/stenoc.exe \
    run join --size 2000)
  if printf '%s\n' "$join_counted" | grep -qF 'native compiler unavailable'; then
    echo "(skipped: stenoc reports no Native backend)"
  else
    if printf '%s\n' "$join_counted" | grep -qF 'fell back'; then
      echo "stenoc join fell back with a counting as on PATH" >&2
      printf '%s\n' "$join_counted" >&2
      exit 1
    fi
    as_runs=$(cat "$work_dir/as-runs" 2>/dev/null | wc -l)
    if [ "$as_runs" -ne 1 ]; then
      echo "stenoc join: as ran $as_runs times for one plugin, expected 1" >&2
      exit 1
    fi
    if [ "$(printf '%s\n' "$join_counted" | head -1)" != \
         "$(printf '%s\n' "$join_fused" | head -1)" ]; then
      echo "stenoc join: native (one as run) and fused results differ" >&2
      printf '%s\n---\n%s\n' "$join_counted" "$join_fused" >&2
      exit 1
    fi
  fi
fi

echo "== native under BUILD_PATH_PREFIX_MAP =="
# The compile worker starts as without a shell and passes the map's
# --debug-prefix-map pairs as separate arguments; with a map set, join
# still runs on Native and agrees with Fused.
join_mapped=$(env BUILD_PATH_PREFIX_MAP="/steno-src=$PWD" \
  ./_build/default/bin/stenoc.exe run join -n 2000)
if printf '%s\n' "$join_mapped" | grep -qF 'native compiler unavailable'; then
  echo "(skipped: stenoc reports no Native backend)"
else
  if printf '%s\n' "$join_mapped" | grep -qF 'fell back'; then
    echo "stenoc join fell back with BUILD_PATH_PREFIX_MAP set" >&2
    printf '%s\n' "$join_mapped" >&2
    exit 1
  fi
  if [ "$(printf '%s\n' "$join_mapped" | head -1)" != \
       "$(printf '%s\n' "$join_fused" | head -1)" ]; then
    echo "stenoc join: native (prefix map set) and fused results differ" >&2
    printf '%s\n---\n%s\n' "$join_mapped" "$join_fused" >&2
    exit 1
  fi
fi

echo "== type-specialized hash tables and dense key tables in generated code =="
# histogram's key, x mod 16, lies in [-15, 15]: an array indexes it.
# join's keys (Fst of a pair) have no bounded range: Steno_rt.Int_tbl.
for demo in histogram join; do
  plugin_src=$(./_build/default/bin/stenoc.exe show "$demo" -n 2000)
  case $demo in
    histogram) want='Stdlib.Array.make 31 None'; unwanted='Steno_rt.Int_tbl' ;;
    join) want='Steno_rt.Int_tbl'; unwanted='Stdlib.Array.make' ;;
  esac
  if ! printf '%s\n' "$plugin_src" | grep -qF "$want"; then
    echo "stenoc show $demo: generated code lacks $want" >&2
    exit 1
  fi
  if printf '%s\n' "$plugin_src" | grep -qF "$unwanted"; then
    echo "stenoc show $demo: generated code uses $unwanted" >&2
    exit 1
  fi
  # Polymorphic min/max (not max_int) and the option-allocating probe.
  for banned in 'Stdlib\.Hashtbl\.find_opt' 'Stdlib\.(min|max) '; do
    if printf '%s\n' "$plugin_src" | grep -qE "$banned"; then
      echo "stenoc show $demo: generated code matches $banned" >&2
      exit 1
    fi
  done
done

echo "== branch-free filters feeding a count =="
plugin_src=$(./_build/default/bin/stenoc.exe show where3 -n 2000)
if ! printf '%s\n' "$plugin_src" | grep -qF 'Stdlib.Bool.to_int'; then
  echo "stenoc show where3: the filters are not masked" >&2
  exit 1
fi
if printf '%s\n' "$plugin_src" | grep -qF 'then begin'; then
  echo "stenoc show where3: the filters still branch" >&2
  exit 1
fi

echo "== stenoc analyze (annotated plans, all backends) =="
dune exec bin/stenoc.exe -- analyze redundant -n 2000 > /dev/null

echo "== stenoc lint (static checks over the demo gallery) =="
dune exec bin/stenoc.exe -- lint --all -n 2000

echo "== stenoc verify (translation validation over the demo gallery) =="
dune exec bin/stenoc.exe -- verify --all -n 2000

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

echo "== stenoc serve (per-tenant metric labels) =="
serve_clients=6
serve_requests=3
serve_dump=$(dune exec bin/stenoc.exe -- serve --clients "$serve_clients" \
  --requests "$serve_requests" -n 2000)
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
# exactly one compiler run (plugin cache + single-flight dedup), and the
# plan memo must serve some of them: every request is one memo hit or
# one memo miss.
if printf '%s\n' "$serve_dump" | grep -q 'backend="native"'; then
  if ! printf '%s\n' "$serve_dump" | \
      grep -qF 'steno_compile_total{result="ok"} 1'; then
    echo "serve: expected exactly one native compile" >&2
    exit 1
  fi
  memo_hit=$(printf '%s\n' "$serve_dump" | \
    sed -n 's/^steno_plan_memo_total{result="hit"} //p')
  memo_miss=$(printf '%s\n' "$serve_dump" | \
    sed -n 's/^steno_plan_memo_total{result="miss"} //p')
  if [ -z "$memo_hit" ] || [ -z "$memo_miss" ] || [ "$memo_hit" -le 0 ] ||
      [ $((memo_hit + memo_miss)) -ne $((serve_clients * serve_requests)) ]
  then
    echo "serve: expected plan-memo hits and hit + miss =" \
      "$((serve_clients * serve_requests)) (hit=$memo_hit miss=$memo_miss)" >&2
    exit 1
  fi
fi

echo "== admin endpoints (stenoc serve --admin-port) =="
serve_log="$work_dir/serve.log"
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
serve_pid=""

echo "== trace export (Chrome trace_event JSON) =="
dune exec bin/stenoc.exe -- trace export -n 2000 > "$work_dir/trace_export.json"
python3 - "$work_dir/trace_export.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
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

echo "== bench smoke (scale 0.01) =="
dune exec bench/main.exe -- --scale 0.01 fig1 optimizer profiling par-agg tier

echo "== tracing hot-path overhead (fails at >= 10%) =="
dune exec bench/main.exe -- trace

echo "== adaptive reorder (fails without a reorder or below 1.2x) =="
dune exec bench/main.exe -- --scale 0.25 adaptive

echo "== ok =="

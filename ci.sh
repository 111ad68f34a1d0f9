#!/usr/bin/env sh
# CI entry point: the tier-1 verify in Release, then a Debug build with
# ASan+UBSan. Both jobs run the full ctest suite.
set -eu

jobs="$(nproc 2>/dev/null || echo 2)"

echo "==> Release"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
# A clean build, so the log holds every translation unit's warnings.
cmake --build build-release -j "$jobs" --clean-first >build-release/build.log 2>&1 || {
  cat build-release/build.log
  exit 1
}
cat build-release/build.log
# The project's own code builds warning-free under -Wall -Wextra. Warnings
# reported at a system-header path (libstdc++'s -Wrestrict false positive
# in char_traits.h) are outside the check.
echo "==> no compiler warnings in src/ examples/ bench/ tests/"
if grep -E "^($(pwd)/)?(src|examples|bench|tests)/[^:]+:[0-9]+:([0-9]+:)? warning:" \
     build-release/build.log; then
  echo "ERROR: the Release build warns in the project's own code" >&2
  exit 1
fi
ctest --test-dir build-release --output-on-failure -j "$jobs"

# The golden-regression binaries are the contract that perf refactors never
# change results; a build misconfiguration that silently drops them from the
# suite must fail CI, not pass vacuously.
for required in test_golden_regression test_sh_training test_transfer_matrix \
                test_defense test_scenario_fuzz test_campaign_serde \
                test_service test_service_faults; do
  count="$(ctest --test-dir build-release -N -R "$required" | grep -c "Test *#" || true)"
  if [ "$count" -lt 1 ]; then
    echo "ERROR: required golden test binary '$required' missing from the suite" >&2
    exit 1
  fi
done

# Smoke-run the guided examples so they cannot silently rot: quickstart
# (trains or loads the cached oracles), the scenario-registry showcase
# (registers a custom family + grid campaign; hermetic, few runs), and the
# perception, DS-2 attack and oracle-training walkthroughs (each a few
# seconds at most).
echo "==> example smoke runs"
./build-release/examples/quickstart
./build-release/examples/scenario_showcase 3
./build-release/examples/defense_demo 4
./build-release/examples/perception_pipeline_demo
./build-release/examples/pedestrian_crossing_attack
./build-release/examples/train_safety_hijacker

# Smoke-run the transfer-matrix driver so the curriculum-training +
# transfer path is exercised on every build (2 campaign runs per cell
# keeps the full 8x8 matrix to a few seconds).
echo "==> fig_transfer smoke run"
./build-release/bench/fig_transfer --runs 2 \
  --csv build-release/fig_transfer_smoke.csv \
  --json build-release/fig_transfer_smoke.json

# Release bench smoke with machine-readable records: BENCH_campaign.json is
# the repository's perf trajectory — campaign-grid throughput from the
# table2 driver, plus the scheduler/NN microbenchmarks when google-benchmark
# is available. Single-threaded so runs/sec is comparable across PRs on the
# 4-core CI host.
#
# The driver runs twice, untraced and traced (--trace): the CSVs must be
# byte-identical (tracing is passive or it is broken), the trace must parse
# under the strict linter and contain the campaign spans, and both perf
# records land in BENCH_campaign.json so the traced-vs-untraced overhead is
# tracked across PRs.
echo "==> bench smoke (BENCH_campaign.json, traced + untraced)"
./build-release/bench/table2_attack_summary --runs 8 --threads 1 \
  --json BENCH_campaign_untraced.json --csv build-release/table2_untraced.csv
./build-release/bench/table2_attack_summary --runs 8 --threads 1 \
  --json BENCH_campaign_traced.json --csv build-release/table2_traced.csv \
  --trace build-release/table2_trace.json
cmp build-release/table2_untraced.csv build-release/table2_traced.csv || {
  echo "ERROR: arming the tracer changed the table2 result bytes" >&2
  exit 1
}
# Strict parse + required spans: the table2 path runs the campaign grid
# (grid_request, campaign_cell).
./build-release/examples/trace_lint build-release/table2_trace.json \
  grid_request campaign_cell
# Merge both records into the canonical BENCH_campaign.json and check the
# overhead: warn past the 3% budget, fail only at a loose 25% bound (the
# shared 4-core CI host is noisy at --runs 8).
grep -h '"bench"' BENCH_campaign_untraced.json BENCH_campaign_traced.json \
  | sed 's/,$//' \
  | awk 'BEGIN{print "["} {l[NR]=$0} END{for(i=1;i<=NR;i++) print l[i] (i<NR?",":""); print "]"}' \
  >BENCH_campaign.json
rm -f BENCH_campaign_untraced.json BENCH_campaign_traced.json
cat BENCH_campaign.json
untraced_rps="$(sed -n 's/.*table2_campaign_grid".*"runs_per_sec": \([0-9.]*\).*/\1/p' BENCH_campaign.json)"
traced_rps="$(sed -n 's/.*table2_campaign_grid_traced".*"runs_per_sec": \([0-9.]*\).*/\1/p' BENCH_campaign.json)"
awk -v u="$untraced_rps" -v t="$traced_rps" 'BEGIN{
  if (u <= 0 || t <= 0) { print "ERROR: missing table2 perf records" > "/dev/stderr"; exit 1 }
  overhead = (u - t) / u * 100.0
  printf "table2 traced overhead: %.1f%% (untraced %.1f r/s, traced %.1f r/s)\n", overhead, u, t
  if (overhead > 25) { print "ERROR: tracing overhead exceeds the 25% hard bound" > "/dev/stderr"; exit 1 }
  if (overhead > 3) printf "WARNING: tracing overhead %.1f%% exceeds the 3%% budget\n", overhead
}'

# The attack-vs-defense matrix: smoke the full scenario x mode x monitor
# grid (2 runs per cell keeps all 8 families to a few seconds) and track
# its throughput next to the campaign numbers.
echo "==> table_defense smoke (BENCH_defense.json)"
./build-release/bench/table_defense --runs 2 --threads 1 \
  --json BENCH_defense.json >/dev/null
cat BENCH_defense.json

# A cell's three monitor variants share one drive: the grid simulates each
# run once and hands its frames to every variant's monitor stack. The CSV
# must not depend on the thread or forked-worker count, and both the
# in-process and the forked-worker run must simulate exactly one drive per
# three delivered cells (the parent counts what its workers deliver).
echo "==> table_defense drives (1 and 4 threads, 2 workers)"
drives_dir="build-release/defense_drives"
rm -rf "$drives_dir"
mkdir -p "$drives_dir"
./build-release/bench/table_defense --runs 2 --threads 1 \
  --csv "$drives_dir/t1.csv" >/dev/null
./build-release/bench/table_defense --runs 2 --threads 4 \
  --csv "$drives_dir/t4.csv" --metrics "$drives_dir/t4.prom" >/dev/null
./build-release/bench/table_defense --runs 2 --workers 2 \
  --csv "$drives_dir/w2.csv" --metrics "$drives_dir/w2.prom" >/dev/null
for run in t4 w2; do
  cmp "$drives_dir/t1.csv" "$drives_dir/$run.csv" || {
    echo "ERROR: table_defense CSV at $run differs from 1 thread" >&2
    exit 1
  }
done
for run in t4 w2; do
  cells="$(sed -n 's/^rt_campaign_cells_total \([0-9]*\)$/\1/p' "$drives_dir/$run.prom")"
  drives="$(sed -n 's/^rt_campaign_drives_total \([0-9]*\)$/\1/p' "$drives_dir/$run.prom")"
  if [ -z "$cells" ] || [ -z "$drives" ] || [ "$drives" -eq 0 ] ||
     [ "$((drives * 3))" -ne "$cells" ]; then
    echo "ERROR: table_defense at $run simulated ${drives:-?} drives for ${cells:-?} cells, want one per three" >&2
    exit 1
  fi
  echo "table_defense at $run: $cells cells from $drives drives"
done

# Bounded fuzz smoke: the coverage-guided scenario search plus the clean-run
# invariant sweep over its frontier. The driver exits nonzero if any frontier
# sample violates an invariant, so CI catches generator regressions that the
# pinned corpus alone would miss.
echo "==> table_fuzz smoke (BENCH_fuzz.json)"
./build-release/bench/table_fuzz --runs 2 --threads 1 \
  --json BENCH_fuzz.json >/dev/null
cat BENCH_fuzz.json
# Grid drivers honour the service flags: fig7 runs its grid through the
# campaign service, so a second pass on the same --cache-dir must be all
# hits with a byte-identical CSV; a traced, uncached pass must match too and
# leave a trace with the service and cell spans plus a metrics snapshot. An
# in-process-only driver must refuse the service flags rather than ignore
# them.
echo "==> grid drivers honour service flags"
flags_dir="build-release/service_flags"
rm -rf "$flags_dir"
mkdir -p "$flags_dir"
./build-release/bench/fig7_kprime --runs 2 --threads 1 \
  --cache-dir "$flags_dir/cache" --csv "$flags_dir/a.csv" \
  >"$flags_dir/pass1.out"
./build-release/bench/fig7_kprime --runs 2 --threads 1 \
  --cache-dir "$flags_dir/cache" --csv "$flags_dir/b.csv" \
  >"$flags_dir/pass2.out"
grep -q 'cache: hits=4 misses=0 ' "$flags_dir/pass2.out" || {
  echo "ERROR: fig7_kprime second pass was not 4 cache hits" >&2
  cat "$flags_dir/pass2.out" >&2
  exit 1
}
cmp "$flags_dir/a.csv" "$flags_dir/b.csv" || {
  echo "ERROR: fig7_kprime cached CSV differs from the computed one" >&2
  exit 1
}
./build-release/bench/fig7_kprime --runs 2 --threads 1 \
  --csv "$flags_dir/c.csv" --trace "$flags_dir/trace.json" \
  --metrics "$flags_dir/metrics.txt" >/dev/null
cmp "$flags_dir/a.csv" "$flags_dir/c.csv" || {
  echo "ERROR: arming the tracer changed the fig7_kprime result bytes" >&2
  exit 1
}
./build-release/examples/trace_lint "$flags_dir/trace.json" \
  grid_request campaign_cell
grep -q '^rt_service_requests_total 1$' "$flags_dir/metrics.txt" || {
  echo "ERROR: fig7_kprime --metrics did not record its grid request" >&2
  exit 1
}
status=0
./build-release/bench/ablation_fusion --cache-dir "$flags_dir/cache" \
  >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "ERROR: ablation_fusion accepted --cache-dir (exit $status, want 2)" >&2
  exit 1
}

# Campaign service: the cold/warm cache driver is its own gate (it exits
# nonzero unless the warm pass is 100% hits, bit-identical, and >=10x
# faster), and its records are the service-layer perf trajectory.
echo "==> table_service smoke (BENCH_service.json)"
./build-release/bench/table_service --runs 4 --threads 1 \
  --json BENCH_service.json
cat BENCH_service.json
# The same cold/warm/chaos contract (bit-identity included) with two
# forked shard workers on striped shards — the only step that forks one.
# No --json: BENCH_service.json stays the 1-thread record.
echo "==> table_service forked workers"
./build-release/bench/table_service --runs 4 --workers 2

# A cold oracle set-up is reproducible: two campaign_server start-ups, each
# on a fresh oracle directory, must train and save the same three oracle
# files, byte for byte, and leave nothing else there.
echo "==> campaign_server cold oracle set-up"
setup_dir="build-release/cold_setup"
rm -rf "$setup_dir"
for pass in 1 2; do
  mkdir -p "$setup_dir/$pass"
  printf 'quit\n' | ROBOTACK_DATA_DIR="$setup_dir/$pass" \
    ./build-release/examples/campaign_server \
    >/dev/null 2>"$setup_dir/server$pass.log"
done
oracles1="$(ls "$setup_dir/1")"
oracles2="$(ls "$setup_dir/2")"
if [ "$oracles1" != "$oracles2" ] ||
   [ "$(printf '%s\n' "$oracles1" | grep -c '^sh_oracle_.*\.txt$')" -ne 3 ] ||
   [ "$(printf '%s\n' "$oracles1" | wc -l)" -ne 3 ]; then
  echo "ERROR: cold set-ups wrote different oracle files, or not three" >&2
  printf 'first:\n%s\nsecond:\n%s\n' "$oracles1" "$oracles2" >&2
  exit 1
fi
for oracle in $oracles1; do
  cmp "$setup_dir/1/$oracle" "$setup_dir/2/$oracle" || {
    echo "ERROR: cold set-ups trained different $oracle" >&2
    exit 1
  }
done

# Batch server determinism gate: run the same grid request twice against one
# cache directory. The second pass must report 100% cache hits and produce a
# byte-identical CSV, or the content-hash cache has broken bit-determinism.
echo "==> campaign_server cache determinism"
server_req='run scenarios=DS-1,DS-2 vectors=Disappear modes=RwoSH,Golden runs=3 seed=11'
server_cache="build-release/server_cache_smoke"
rm -rf "$server_cache"
printf '%s\nquit\n' "$server_req" | ./build-release/examples/campaign_server \
  --no-oracles --cache-dir "$server_cache" \
  >build-release/server_pass1.csv 2>build-release/server_pass1.log
printf '%s\nquit\n' "$server_req" | ./build-release/examples/campaign_server \
  --no-oracles --cache-dir "$server_cache" \
  >build-release/server_pass2.csv 2>build-release/server_pass2.log
cmp build-release/server_pass1.csv build-release/server_pass2.csv || {
  echo "ERROR: campaign_server CSV not byte-identical across cache passes" >&2
  exit 1
}
grep -q '"event":"cache_summary","hits":4,"misses":0' \
  build-release/server_pass2.log || {
  echo "ERROR: campaign_server warm pass was not 100% cache hits" >&2
  cat build-release/server_pass2.log >&2
  exit 1
}

# Second request: the spec parts whose key handling the first request never
# exercises, a monitor stack and a parameter sweep (16 specs). Its warm pass
# must be all hits and its CSV byte-equal to the cold pass.
axes_req='run scenarios=DS-1,DS-2 vectors=Disappear modes=RwoSH,Golden runs=3 seed=17 monitors=innovation-gate,sensor-consistency sweep=target_speed_kph:24,30'
axes_cache="build-release/server_cache_axes"
rm -rf "$axes_cache"
for pass in 1 2; do
  printf '%s\nquit\n' "$axes_req" | ./build-release/examples/campaign_server \
    --no-oracles --cache-dir "$axes_cache" \
    >build-release/server_axes$pass.csv 2>build-release/server_axes$pass.log
done
cmp build-release/server_axes1.csv build-release/server_axes2.csv || {
  echo "ERROR: monitored sweep CSV not byte-identical across cache passes" >&2
  exit 1
}
grep -q '"event":"cache_summary","hits":16,"misses":0' \
  build-release/server_axes2.log || {
  echo "ERROR: monitored sweep warm pass was not 16 hits and 0 misses" >&2
  cat build-release/server_axes2.log >&2
  exit 1
}

# A third warm pass of the first request, with the `stats` verb: the
# metrics registry must agree with the JSONL cache summary — 4 cache hits,
# 0 misses, visible through the exporter and not just the log line. `--metrics` must write the same
# registry as Prometheus text, like every bench driver's.
printf '%s\nstats\nquit\n' "$server_req" | ./build-release/examples/campaign_server \
  --no-oracles --cache-dir "$server_cache" \
  --metrics build-release/server_pass3.prom \
  >build-release/server_pass3.out 2>build-release/server_pass3.log
grep -q '"rt_campaign_cache_hits_total": 4' build-release/server_pass3.out || {
  echo "ERROR: stats verb did not report 4 cache hits" >&2
  grep -v '^spec,' build-release/server_pass3.out >&2 || true
  exit 1
}
grep -q '"rt_campaign_cache_misses_total": 0' build-release/server_pass3.out || {
  echo "ERROR: stats verb reported cache misses on a warm cache" >&2
  exit 1
}
grep -q '"rt_service_requests_total": 1' build-release/server_pass3.out || {
  echo "ERROR: stats verb did not count the request" >&2
  exit 1
}
grep -q '^rt_service_requests_total 1$' build-release/server_pass3.prom || {
  echo "ERROR: campaign_server --metrics did not write Prometheus text" >&2
  exit 1
}

# Oracle-keyed cache gate: an entry stored by a server without oracles must
# never answer an oracle-equipped server on the same cache directory. The
# second pass must serve no cache hit and match an uncached oracle run byte
# for byte (the quickstart step above has already cached the default
# oracles).
echo "==> campaign_server cache keyed by oracles"
oracle_req='run scenarios=DS-1 vectors=Disappear modes=R runs=20 seed=5'
oracle_cache="build-release/server_cache_oracles"
rm -rf "$oracle_cache"
printf '%s\nquit\n' "$oracle_req" | ./build-release/examples/campaign_server \
  --no-oracles --cache-dir "$oracle_cache" \
  >build-release/server_bare.csv 2>build-release/server_bare.log
printf '%s\nquit\n' "$oracle_req" | ./build-release/examples/campaign_server \
  --cache-dir "$oracle_cache" \
  >build-release/server_oracles.csv 2>build-release/server_oracles.log
printf '%s\nquit\n' "$oracle_req" | ./build-release/examples/campaign_server \
  >build-release/server_uncached.csv 2>build-release/server_uncached.log
grep -q '"event":"request","id":1,"specs":1,"hits":0,' \
  build-release/server_oracles.log || {
  echo "ERROR: oracle server was answered from a no-oracle cache entry" >&2
  cat build-release/server_oracles.log >&2
  exit 1
}
cmp build-release/server_oracles.csv build-release/server_uncached.csv || {
  echo "ERROR: oracle server on a shared cache differs from an uncached run" >&2
  exit 1
}

# Concurrent-server determinism gate: one long-lived server on a Unix
# socket, two requests run serially and then from two simultaneous clients.
# Concurrent responses must be byte-identical to the serial ones (the
# single-executor barrier is what makes the service deterministic under
# concurrency), and the SIGTERM drain must exit 0 and unlink the socket.
echo "==> campaign_server concurrent determinism"
server_sock="/tmp/rt_ci_server_$$.sock"
req_a='run scenarios=DS-1 modes=RwoSH runs=3 seed=11'
req_b='run scenarios=DS-1 modes=Golden runs=3 seed=22'
rm -f "$server_sock"
./build-release/examples/campaign_server --no-oracles \
  --socket "$server_sock" 2>build-release/server_socket.log &
server_pid=$!
for _ in $(seq 1 200); do
  [ -S "$server_sock" ] && break
  sleep 0.05
done
[ -S "$server_sock" ] || { echo "ERROR: server socket never appeared" >&2; exit 1; }
./build-release/examples/campaign_client --socket "$server_sock" \
  "$req_a" >build-release/serial_a.csv
./build-release/examples/campaign_client --socket "$server_sock" \
  "$req_b" >build-release/serial_b.csv
./build-release/examples/campaign_client --socket "$server_sock" \
  "$req_a" >build-release/conc_a.csv &
client_a=$!
./build-release/examples/campaign_client --socket "$server_sock" \
  "$req_b" >build-release/conc_b.csv &
client_b=$!
wait "$client_a" && wait "$client_b" || {
  echo "ERROR: concurrent campaign_client failed" >&2
  exit 1
}
cmp build-release/serial_a.csv build-release/conc_a.csv || {
  echo "ERROR: concurrent response A differs from serial" >&2
  exit 1
}
cmp build-release/serial_b.csv build-release/conc_b.csv || {
  echo "ERROR: concurrent response B differs from serial" >&2
  exit 1
}
# The server answers every line but quit/shutdown, so the client must read
# a reply after `stats` too: the stats JSON and `end`, then the run's CSV
# header, its one row and `end`. A client that skipped the stats reply
# would print it as the run's reply and hang up on the real one, which
# the server logs as a client_drop.
./build-release/examples/campaign_client --socket "$server_sock" stats \
  'run scenarios=DS-1 modes=Golden runs=1 seed=1' \
  >build-release/client_stats_run.out || {
  echo "ERROR: campaign_client failed on a stats + run session" >&2
  exit 1
}
awk 'NR == 1 && !/^\{.*\}$/ { bad = 1 }
     NR == 2 && $0 != "end" { bad = 1 }
     NR == 3 && !/^name,/ { bad = 1 }
     NR == 4 && !/^DS-1-Golden,/ { bad = 1 }
     NR == 5 && $0 != "end" { bad = 1 }
     END { exit (bad || NR != 5) }' build-release/client_stats_run.out || {
  echo "ERROR: campaign_client did not print the stats and the run replies" >&2
  cat build-release/client_stats_run.out >&2
  exit 1
}
kill -TERM "$server_pid"
wait "$server_pid" || {
  echo "ERROR: campaign_server did not exit 0 on SIGTERM" >&2
  exit 1
}
[ ! -e "$server_sock" ] || {
  echo "ERROR: campaign_server left its socket behind" >&2
  exit 1
}
if grep -q '"event":"client_drop"' build-release/server_socket.log; then
  echo "ERROR: campaign_server dropped a client that was still reading" >&2
  cat build-release/server_socket.log >&2
  exit 1
fi

# Drain on signal: a reply goes out before its cache entries are durable,
# and SIGTERM must commit every staged entry before the server exits. Send
# one miss request to a socket server on a fresh cache directory and
# SIGTERM it the moment the reply's `end` arrives: its cache_summary must
# count one store per spec, and a restarted server on the same directory
# must answer the repeat from the cache alone, with identical bytes.
echo "==> campaign_server drains its cache commits on SIGTERM"
drain_cache="build-release/server_cache_drain"
drain_sock="/tmp/rt_ci_drain_$$.sock"
rm -rf "$drain_cache"
for pass in 1 2; do
  rm -f "$drain_sock"
  ./build-release/examples/campaign_server --no-oracles --workers 2 \
    --cache-dir "$drain_cache" --socket "$drain_sock" \
    2>"build-release/server_drain$pass.log" &
  drain_pid=$!
  for _ in $(seq 1 200); do
    [ -S "$drain_sock" ] && break
    sleep 0.05
  done
  [ -S "$drain_sock" ] || { echo "ERROR: drain server socket never appeared" >&2; exit 1; }
  ./build-release/examples/campaign_client --socket "$drain_sock" \
    "$server_req" >"build-release/server_drain$pass.csv"
  kill -TERM "$drain_pid"
  wait "$drain_pid" || {
    echo "ERROR: campaign_server did not exit 0 on SIGTERM (pass $pass)" >&2
    exit 1
  }
done
grep -q '"event":"cache_summary","hits":0,"misses":4,"stale":0,"corrupt":0,"stores":4,' \
  build-release/server_drain1.log || {
  echo "ERROR: SIGTERM did not commit one cache entry per spec" >&2
  cat build-release/server_drain1.log >&2
  exit 1
}
grep -q '"event":"cache_summary","hits":4,"misses":0,' \
  build-release/server_drain2.log || {
  echo "ERROR: the restarted server was not answered from the cache alone" >&2
  cat build-release/server_drain2.log >&2
  exit 1
}
cmp build-release/server_drain1.csv build-release/server_drain2.csv || {
  echo "ERROR: the cached reply differs from the computed one" >&2
  exit 1
}

if [ -x build-release/bench/bench_perception ]; then
  ./build-release/bench/bench_perception \
    --benchmark_filter='BM_CampaignSchedulerThroughput/1|BM_KalmanPredictUpdate|BM_TrackBirth' \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --json BENCH_perception.json >/dev/null
  cat BENCH_perception.json
fi
if [ -x build-release/bench/bench_nn ]; then
  ./build-release/bench/bench_nn \
    --benchmark_filter='BM_OracleInference|BM_SafetyHijackerDecision|BM_TrainingEpoch' \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --json BENCH_nn.json >/dev/null
  cat BENCH_nn.json
fi

# Benchmark gate smoke: every perfbench workload, untraced and traced, on a
# short budget. run.py exits nonzero when perfbench no longer compiles
# against src/, a grid digest moves off its pin, a traced cell is not
# byte-identical to its untraced twin, or stage coverage falls below 0.90.
echo "==> perfbench gate smoke"
for workload in table2_1t defense_2t service_mixed; do
  for trace in 0 1; do
    log="build-release/perfbench_${workload}_trace${trace}.log"
    python3 perfbench/run.py --workload "$workload" --seconds 4 \
      --trace "$trace" >"$log" 2>&1 || {
      cat "$log" >&2
      echo "ERROR: perfbench $workload --trace $trace failed" >&2
      exit 1
    }
    tail -n 1 "$log"
  done
done

echo "==> Debug + ASan/UBSan"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DROBOTACK_SANITIZE=ON
cmake --build build-asan -j "$jobs"
# The fuzz sweep's closed-loop sample counts are sized for Release; under
# the sanitizers run it separately with a reduced RT_FUZZ_SAMPLES (the test
# floors the per-template count at 2, so every family is still exercised).
# Same deal for the chaos suite: RT_FAULT_SEEDS=1 keeps the fault-matrix
# seed set to one per (site, type) pair under ASan.
ctest --test-dir build-asan --output-on-failure -j "$jobs" -LE 'fuzz|chaos'
RT_FUZZ_SAMPLES=4 ctest --test-dir build-asan --output-on-failure -L fuzz
RT_FAULT_SEEDS=1 ctest --test-dir build-asan --output-on-failure -L chaos

echo "==> OK"

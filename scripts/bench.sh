#!/usr/bin/env sh
# bench.sh — the repo's performance trajectory snapshot. Runs the fast
# simulation-path benchmarks and writes BENCH_fleet.json at the repo
# root so successive PRs can diff engine throughput:
#
#   1. 3golfleet -json            — city-scale engine run (wall time,
#      homes/sec, memory envelope, evaluation aggregates)
#   2. 3golbench fig11a -json     — the speedup-CDF experiment's wall
#      time and rows (speedup quantiles, paper anchors)
#   3. BenchmarkFleetThroughput   — go test -bench -benchmem engine
#      scaling (homes/s + allocs/op at shard widths 1, 4, 16, NumCPU)
#   4. BenchmarkFleetInnerLoop    — the engine's per-home hot path over
#      a warmed scratch; must report exactly 0 allocs/op
#   5. million-home run           — 3golfleet at ≥1M homes × 1 day via
#      -scale, gated at 10 s wall; archived as bench-fleet-1m.json for
#      CI artifact upload and embedded as fleet_report_1m
#   6. 3golvet -json              — analyzer wall time over the whole
#      module (vet_seconds), so pass regressions show up in the diff
#
# The script is also the engine's perf ratchet: before overwriting
# BENCH_fleet.json it compares the fresh numbers against the committed
# ones and fails on a real regression — homes/s falling below half the
# previous figure at any width (wide tolerance: widths run for seconds,
# but machines differ), allocs/op growing past 2x + 16 (allocation
# counts are stable, so the slack only covers iteration-count rounding),
# the 16-shard/1-shard scaling ratio dropping under 12x, or the inner
# loop allocating at all. Fields absent from the old file (first run
# after a schema change) skip their comparison rather than fail.
#
# It also writes BENCH_chaos.json: the chaos harness run under the
# hostile scenario, tracking the fault-injection engine's wall time and
# the resilience counters (requeues, stall aborts, breaker opens) so a
# PR that regresses recovery behaviour shows up as a diff.
#
# And BENCH_permit.json: 3golpermitload drives 100k simulated clients
# against a real sharded 3golpermitd over HTTP — running durable
# (-wal), so the WAL append sits in the measured hot path — tracking
# decisions/sec, grant ratio and p50/p99 RPC latency so a PR that
# regresses the permit plane's hot path shows up as a diff. A second,
# chaos run SIGKILLs the daemon mid-load and records recovery_seconds,
# outage_seconds and the phase-split client error counters; recovery
# time is ratcheted against the committed figure (5x + 0.5 s slack) so
# a replay regression fails the bench.
#
# And BENCH_dataplane.json: the live 3GOL paths as `go run ./bench`
# measures them — the benchmark BENCHMARK.json declares, run the way its
# driver runs it: each workload once, in a fresh process, never two at a
# time — keeping the five end-to-end metrics of each workload's closing
# JSON line. alloc_MB_per_op is the steady witness (it repeats to three
# digits on a shared host) and is ratcheted against the committed figure
# at the bound BENCHMARK.json gives it; the wall-clock and CPU rows move
# ±10 % with the neighbours on a 2-vCPU host, so they are printed beside
# the committed ones and never gated.
#
# Apart from that stage only simulation-path work runs here: the
# prototype-path experiments (fig6–fig9) drive real sockets for seconds
# per rep and belong to manual runs, not the perf trajectory.
#
# Usage: ./scripts/bench.sh   (from anywhere; cd's to the repo root)
set -eu

cd "$(dirname "$0")/.."

command -v jq > /dev/null || { echo "bench.sh: jq is required to compose BENCH_fleet.json" >&2; exit 1; }

fleet=$(mktemp)
fleet1m=$(mktemp)
sim=$(mktemp)
bench=$(mktemp)
tput=$(mktemp)
inner=$(mktemp)
innertp=$(mktemp)
chaos=$(mktemp)
vet=$(mktemp)
fresh=$(mktemp)
trap 'rm -f "$fleet" "$fleet1m" "$sim" "$bench" "$tput" "$inner" "$innertp" "$chaos" "$vet" "$fresh"' EXIT

echo '==> 3golvet -json (analyzer wall time)'
# The analyzer's own latency is part of the perf trajectory: check.sh
# runs it on every push, so a pass that regresses from seconds to
# minutes is a real cost. elapsed_seconds comes from the tool's report.
go run ./cmd/3golvet -json "$vet" ./...

echo '==> 3golfleet -json (engine throughput + aggregates)'
go run ./cmd/3golfleet -homes 18000 -days 1 -shards 8 -json > "$fleet"
go run ./cmd/3golfleet -validate < "$fleet"

echo '==> 3golbench fig11a -json'
go run ./cmd/3golbench fig11a -json > "$sim"

echo '==> go test -bench BenchmarkFleetThroughput -benchmem'
# 2 s per width so the scratch pool warms past its cold first iteration
# (the ratchet compares steady-state throughput, not startup).
go test -run '^$' -bench '^BenchmarkFleetThroughput$' -benchtime 2s -benchmem . | tee "$bench"

# Reduce the go-test bench lines to {name, homes_per_sec, allocs_per_op}
# records: each custom or -benchmem metric value precedes its unit token.
awk '
    /^BenchmarkFleetThroughput/ {
        hs = ""; al = ""
        for (i = 1; i <= NF; i++) {
            if ($i == "homes/s") hs = $(i-1)
            if ($i == "allocs/op") al = $(i-1)
        }
        if (hs != "" && al != "")
            printf "{\"name\":\"%s\",\"homes_per_sec\":%s,\"allocs_per_op\":%s}\n", $1, hs, al
    }' "$bench" > "$tput"

echo '==> go test -bench BenchmarkFleetInnerLoop -benchmem (zero-alloc gate)'
go test -run '^$' -bench '^BenchmarkFleetInnerLoop$' -benchtime 200x -benchmem ./internal/fleet | tee "$inner"
awk '
    /^BenchmarkFleetInnerLoop/ {
        hs = ""; al = ""
        for (i = 1; i <= NF; i++) {
            if ($i == "homes/s") hs = $(i-1)
            if ($i == "allocs/op") al = $(i-1)
        }
        if (hs != "" && al != "")
            printf "{\"homes_per_sec\":%s,\"allocs_per_op\":%s}\n", hs, al
    }' "$inner" > "$innertp"
inner_allocs=$(jq '.allocs_per_op' "$innertp")
if [ "$inner_allocs" != "0" ]; then
    echo "bench.sh: FAIL — per-home inner loop allocates ($inner_allocs allocs/op, want 0)" >&2
    exit 1
fi

echo '==> 3golfleet -scale 56 (million-home run, 10 s wall budget)'
# The headline scale point: ≥1M homes × 1 day through the streaming
# merge. -scale grows homes and shards together (56 × 18000 = 1,008,000
# homes over 448 shards), so per-shard memory stays flat and the run
# exercises the same shard size as the DSLAM-scale report above.
go run ./cmd/3golfleet -scale 56 -days 1 -seed 1 -workers 16 -json > "$fleet1m"
go run ./cmd/3golfleet -validate < "$fleet1m"
wall_1m=$(jq '.wall_seconds' "$fleet1m")
if [ "$(awk -v w="$wall_1m" 'BEGIN { print (w > 10) ? 1 : 0 }')" = "1" ]; then
    echo "bench.sh: FAIL — million-home run took ${wall_1m}s, budget 10s" >&2
    exit 1
fi
cp "$fleet1m" bench-fleet-1m.json
echo "bench.sh: wrote bench-fleet-1m.json (${wall_1m}s wall)"

jq -n \
    --slurpfile fleet "$fleet" \
    --slurpfile fleet1m "$fleet1m" \
    --slurpfile sim "$sim" \
    --slurpfile tput "$tput" \
    --slurpfile inner "$innertp" \
    --slurpfile vet "$vet" \
    '{generated_by: "scripts/bench.sh",
      vet_seconds: $vet[0].elapsed_seconds,
      fleet_throughput: $tput,
      fleet_inner_loop: $inner[0],
      scaling_16x: (
        ([$tput[] | select(.name | startswith("BenchmarkFleetThroughput/shards=16-"))] | first) as $wide
        | ([$tput[] | select(.name | startswith("BenchmarkFleetThroughput/shards=1-"))] | first) as $one
        | if $wide and $one then ($wide.homes_per_sec / $one.homes_per_sec) else null end),
      fleet_report: $fleet[0],
      fleet_report_1m: $fleet1m[0],
      fig11a: $sim[0]}' > "$fresh"

# --- perf ratchet: compare against the committed BENCH_fleet.json ---
ratio=$(jq '.scaling_16x // empty' "$fresh")
if [ -n "$ratio" ] && [ "$(awk -v r="$ratio" 'BEGIN { print (r < 12) ? 1 : 0 }')" = "1" ]; then
    echo "bench.sh: FAIL — 16-shard scaling is ${ratio}x single-shard throughput, want >= 12x" >&2
    exit 1
fi
if [ -f BENCH_fleet.json ]; then
    jq -n --slurpfile old BENCH_fleet.json --slurpfile new "$fresh" '
        [ $new[0].fleet_throughput[] as $n
          | ($old[0].fleet_throughput // [])[]
          | select(.name == $n.name)
          | {name,
             hs_regressed: (($n.homes_per_sec < .homes_per_sec * 0.5)),
             allocs_regressed: ((.allocs_per_op != null)
                                and ($n.allocs_per_op > .allocs_per_op * 2 + 16)),
             old_hs: .homes_per_sec, new_hs: $n.homes_per_sec,
             old_allocs: .allocs_per_op, new_allocs: $n.allocs_per_op}
          | select(.hs_regressed or .allocs_regressed) ]
        | if length > 0 then (. | tostring | halt_error(1)) else empty end' \
    || { echo "bench.sh: FAIL — fleet throughput or allocs/op regressed vs committed BENCH_fleet.json (see record above)" >&2; exit 1; }
fi
mv "$fresh" BENCH_fleet.json
fresh=$(mktemp) # the EXIT trap still removes a fresh temp

echo "bench.sh: wrote BENCH_fleet.json"

echo '==> 3golfleet -chaos hostile -json (fault-injection engine)'
go run ./cmd/3golfleet -chaos hostile -homes 4096 -seed 1 -json > "$chaos"
go run ./cmd/3golfleet -validate < "$chaos"

jq -n \
    --slurpfile chaos "$chaos" \
    '{generated_by: "scripts/bench.sh",
      chaos_report: $chaos[0]}' > BENCH_chaos.json

echo "bench.sh: wrote BENCH_chaos.json"

echo '==> 3golpermitload vs sharded 3golpermitd (permit plane)'
# A real daemon on a loopback port, fed the same cell population the
# harness simulates (utilisation cycles 0.0–0.9 across cell-0..255),
# running with -deny-unknown so the feed is load-bearing. The harness
# waits for the port to come up, then drives 100k clients; the final
# kill exercises the daemon's graceful drain.
# Fail fast if the port is occupied: otherwise the fresh daemon dies on
# bind, the harness silently measures whatever stale process answers,
# and the snapshot lies.
if ss -tln 2> /dev/null | grep -q ':7391 '; then
    echo "bench.sh: port 7391 already in use — kill the stale listener first (ss -tlnp | grep 7391)" >&2
    exit 1
fi
permit=$(mktemp)
permitchaos=$(mktemp)
feed=$(mktemp)
permitd_bin=$(mktemp)
wal_dir=$(mktemp -d)
trap 'rm -f "$fleet" "$sim" "$bench" "$tput" "$chaos" "$vet" "$permit" "$permitchaos" "$feed" "$permitd_bin"; rm -rf "$wal_dir"' EXIT
awk 'BEGIN { for (i = 0; i < 256; i++) printf "cell-%d %.1f\n", i, (i % 10) / 10 }' > "$feed"
go build -o "$permitd_bin" ./cmd/3golpermitd
"$permitd_bin" -listen 127.0.0.1:7391 -shards 4 -deny-unknown -stdin-feed -wal "$wal_dir" < "$feed" &
permitd_pid=$!
timeout 120 go run ./cmd/3golpermitload \
    -backend http://127.0.0.1:7391 -clients 100000 -duration 300 -json "$permit"
kill "$permitd_pid"
wait "$permitd_pid" 2> /dev/null || true

echo '==> 3golpermitload -chaos (kill -9 / recovery trajectory)'
# A real daemon SIGKILLed mid-load: the harness independently replays
# the WAL, restarts the daemon on the same port, and cross-checks every
# shard's recovered state hash, exiting non-zero on any divergence.
# The lifecycle eventlog lands at chaos-permit-events.jsonl for CI.
timeout 120 go run ./cmd/3golpermitload -chaos -permitd "$permitd_bin" \
    -clients 20000 -cells 256 -duration 300 -timescale 30 \
    -events chaos-permit-events.jsonl -json "$permitchaos"

# --- recovery ratchet: replay time must not blow up across PRs ---
new_rec=$(jq '.chaos.recovery_seconds' "$permitchaos")
if [ -f BENCH_permit.json ]; then
    old_rec=$(jq '.chaos_report.chaos.recovery_seconds // empty' BENCH_permit.json)
    if [ -n "$old_rec" ] && [ "$(awk -v n="$new_rec" -v o="$old_rec" 'BEGIN { print (n > o * 5 + 0.5) ? 1 : 0 }')" = "1" ]; then
        echo "bench.sh: FAIL — WAL recovery took ${new_rec}s, committed figure ${old_rec}s (ratchet: 5x + 0.5s)" >&2
        exit 1
    fi
fi

jq -n \
    --slurpfile permit "$permit" \
    --slurpfile pchaos "$permitchaos" \
    '{generated_by: "scripts/bench.sh",
      permit_report: $permit[0],
      chaos_report: $pchaos[0]}' > BENCH_permit.json

echo "bench.sh: wrote BENCH_permit.json (chaos recovery ${new_rec}s)"

echo '==> go run ./bench (data plane and permit plane, end to end)'
# BENCHMARK.json names the workloads, the window, the metrics and their
# bounds; a run exits non-zero when an op fails verification, so every
# figure kept here is of verified work.
dp=$(mktemp -d)
trap 'rm -f "$fleet" "$sim" "$bench" "$tput" "$chaos" "$vet" "$permit" "$permitchaos" "$feed" "$permitd_bin"; rm -rf "$wal_dir" "$dp"' EXIT
dp_seconds=$(jq '.run_seconds' BENCHMARK.json)
for wl in $(jq -r '.workloads[].name' BENCHMARK.json); do
    go run ./bench -workload "$wl" -seed 42 -seconds "$dp_seconds" -trace 0 > "$dp/$wl.out"
    sed '$d' "$dp/$wl.out"
    tail -n 1 "$dp/$wl.out" | jq --arg wl "$wl" \
        '{key: $wl, value: ({attempted, failed} + (.metrics | map_values(.value)))}' >> "$dp/runs"
done
jq -s --argjson seconds "$dp_seconds" \
    '{generated_by: "scripts/bench.sh", command: "go run ./bench -workload W -seed 42 -seconds \($seconds) -trace 0",
      workloads: from_entries}' "$dp/runs" > "$dp/fresh"

# --- alloc ratchet; every other row is reported, not gated ---
if [ -f BENCH_dataplane.json ]; then
    jq -r -n --slurpfile old BENCH_dataplane.json --slurpfile new "$dp/fresh" --slurpfile contract BENCHMARK.json '
        $new[0].workloads | to_entries[] | .key as $wl | .value as $now
        | $contract[0].end_to_end[]
        | ($old[0].workloads[$wl][.name] // empty) as $was
        | "\($wl) \(.name) \($was) \($now[.name]) \(if .name == "alloc_MB_per_op" then .bound else -1 end)"' \
    | awk 'BEGIN { printf "%-14s %-16s %12s %12s %8s\n", "workload", "metric", "committed", "now", "change" }
           { over = $5 >= 0 && $4 > $3 * (1 + $5); if (over) failed = 1
             printf "%-14s %-16s %12.4f %12.4f %+7.1f%%%s\n", $1, $2, $3, $4, ($3 > 0 ? 100 * ($4 / $3 - 1) : 0),
                 ($5 < 0 ? "" : over ? "  OVER its bound" : "  (ratcheted)") }
           END { exit failed }' \
    || { echo "bench.sh: FAIL — alloc_MB_per_op grew past its bound vs committed BENCH_dataplane.json (rows marked above); the fast guards are go test -count=1 -run TestBoostVoDAllocBudget ./internal/core on the vod workloads and -run TestUploadPhotosAllocBudget on upload_shaped" >&2; exit 1; }
fi
mv "$dp/fresh" BENCH_dataplane.json

echo "bench.sh: wrote BENCH_dataplane.json"

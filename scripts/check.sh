#!/usr/bin/env sh
# check.sh — the repo's Tier-1 verification gate. Runs the full static
# and dynamic check pipeline, failing fast at the first broken stage:
#
#   1. gofmt       — tree must be canonically formatted
#   2. go vet      — stdlib static checks
#   3. free lists  — no sync.Pool in non-test Go under internal/ and cmd/
#      outside internal/fleet: buffers are reused through
#      freelist.List, which the collector does not empty between uses
#      (fleet's pool holds per-shard scratch, checked out once a shard)
#   4. one device  — no proxy.Server{ or discovery.Beacon{ literal in
#      non-test Go under internal/ and cmd/ outside
#      internal/core/device.go and the two packages' own files: 3gold,
#      the emulated home and the tests all build their device component
#      with core.NewDevice, so they run one admission rule
#   5. one event loop — no sync.Cond and no //3golvet:allow directive
#      in non-test Go under internal/scheduler: the live driver is one
#      loop that owns the core and the report, and its attempts send it
#      their outcomes, so nothing there needs a lock kept by hand
#   6. go build    — everything compiles
#   7. 3golvet     — repo-specific determinism/concurrency analyzers
#      (type-aware; any finding fails, a deliberate one is kept only by
#      a //3golvet:allow directive at the site; emits vet-report.json
#      for CI artifact upload)
#   8. go test -race — full suite under the race detector
#   9. fuzz        — ten seconds of FuzzCore: the scheduler's decision
#      core under byte-scripted event sequences from a model driver
#      (all four policies, equal timestamps allowed; every breaker
#      opening, hold, probe and re-closing held to a reference breaker
#      the model keeps per path; every piece, sized at assignment or
#      cut from an attempt, held to the pool of windows the model keeps
#      per item), starting from the
#      seed corpus in internal/scheduler/testdata/fuzz; then ten seconds
#      of FuzzBatchCodec: arbitrary bytes into the /permits/batch
#      request and response decoders against encoding/json on the plain
#      structs (same error-ness, equal values, the server's parse taking
#      devices in place and cells from a table; the response encoder
#      writing back encoding/json's bytes), from the corpus in
#      internal/permitplane/testdata/fuzz; then ten seconds of
#      FuzzReplay: fuzzed bytes as a shard's wal.log beside a fuzzed,
#      validly framed snapshot payload (Replay never panics, and the
#      state it returns passes State.Check), and a log written from a
#      fuzzed record script cut at every frame boundary (each prefix
#      replays to the fold of its records), from the corpus in
#      internal/permitplane/wal/testdata/fuzz; then ten seconds of
#      FuzzFeed: fuzzed bytes as the utilisation feed (ReadFeed never
#      fails on a reader that does not, stores only finite values ≥ 0,
#      and fills the table a line-by-line reference parse does; an
#      overlong line is skipped, not the end of the feed); then ten
#      seconds of FuzzPermitQuery: fuzzed device and cell IDs to GET
#      /permit on a durable plane (never a 5xx; a missing cell or an
#      oversized ID is a 400 that records no decision and no WAL record;
#      a 200 is one decision, its body a permit.Response), from the
#      corpus in internal/permitplane/testdata/fuzz; then ten seconds of
#      FuzzParse: fuzzed bytes as an m3u8 playlist (Parse
#      never panics, accepts only finite durations between 0 and a day,
#      and a playlist it accepts encodes to a fixed point after one
#      round), from the corpus in internal/hls/testdata/fuzz; then ten
#      seconds of FuzzTraceHeader: fuzzed X-3gol-Trace values (extracting
#      never panics, an accepted trace and span are at most 64 bytes of
#      [0-9A-Za-z_-], and injecting an extracted context writes a header
#      that extracts to it again), from the corpus in
#      internal/obs/eventlog/testdata/fuzz; then ten seconds of
#      FuzzReadJSONL: fuzzed bytes as the event stream 3goltrace -check
#      reads (reading, Check, Assemble, FindAnomalies, CriticalPath and
#      WriteChromeTrace never panic, and a stream Check accepts reads
#      back equal after WriteJSONL), from the same corpus directory;
#      then ten seconds of FuzzAnnouncement: fuzzed datagrams as the
#      discovery beacon (the decoder never panics, accepts only a Name
#      and Cell of at most 64 bytes of [0-9A-Za-z_.-], a host:port
#      ProxyAddr with a port in 1-65535 and a non-negative allowance,
#      and an accepted announcement survives a JSON round trip), from
#      the corpus in internal/discovery/testdata/fuzz; then ten seconds
#      of FuzzContentRange: fuzzed Content-Range headers against fuzzed
#      requested windows (DownloadPath's parser never panics, accepts
#      only the window it asked for inside a declared size, and only a
#      header that the accepted values print back to), from the corpus
#      in internal/transfer/testdata/fuzz; then ten seconds of
#      FuzzPieceWindow: fuzzed Content-Range headers of an uploaded
#      piece (the upload server's parser never panics, accepts only a
#      non-empty window inside its file, and only a header its values
#      print back to), from the corpus in internal/upload/testdata/fuzz.
#      A failing input is written beside its corpus for the fix to
#      commit
#  10. alloc and link-rate budgets — without the race detector (the
#      race stage skips them). TestBoostVoDAllocBudget: a boosted BipBop
#      q4 session at steady state allocates under 0.78 MB, the ratchet
#      on the segment-buffer recycling of the client proxy and on the
#      home's shared transports.
#      TestUploadPhotosAllocBudget: a boosted upload of 12 photos over
#      an unshaped home (every hop still a netem.Conn) allocates under
#      24.2 KB per photo at steady state, the ratchet on the upload
#      path's copies (a declared-length body, the shaped conn's ReadFrom
#      and the upload server's reused reader and hash buffer) and on the
#      home's shared transports.
#      TestServeBatchAllocBudget: a warmed 512-request batch allocates
#      under 8 KB in the permit plane's handler and under 32 KB per
#      BatchClient round trip, the ratchet on the batch path's codec
#      and pooled buffers and on the client's chunked request body (a
#      declared length cost a body-sized copy buffer per request);
#      TestParseBatchRequestAllocFree: its warmed parse allocates
#      nothing (IDs read in place, cells from a table);
#      TestParseBatchResponseAllocFree: a warmed parse of a
#      512-decision response into a slice of exactly 512 allocates
#      nothing (the client sizes its decisions slice to the batch).
#      TestRecordDecisionsAllocFree: a warmed 128-decision
#      refresh-and-deny slice through a durable grant store allocates
#      nothing, and a first grant only its key, its device string and
#      its *Grant, the ratchet on "one lookup and an update in place per
#      decision". TestWriteSnapshotAllocBudget: a warmed WAL snapshot of
#      2 048 grants allocates under 4 KB (no sort, a kept buffer).
#      TestLinkRateBudget: 3 MB in 4 KB writes over
#      the HSPA uplink at TimeScale 150, on the system clock, finishes
#      within 1.25 × its ideal link time, the ratchet on netem's
#      byte-clocked pacing (one timer-floor sleep per write took 6 ×).
#      TestZeroMetricsAllocFree: one event through permitplane's zero
#      Metrics allocates nothing, the ratchet on "instrumentation costs
#      nothing when disabled"
#  11. experiments loop — go test -bench BenchmarkExperiments -short
#      -benchtime 1x at the repo root: one sub-benchmark per entry of
#      internal/experiments' table; every entry 3golbench lists as sim
#      must report a result line and every one it lists as live must be
#      skipped
#  12. fleet smoke — 3golfleet city-scale engine run inside a time
#      budget, with its -json report validated for shape
#  13. trace smoke — 3golfleet -events flight-recorder capture piped
#      through 3goltrace -check (stream invariants)
#  14. chaos smoke — 3golfleet -chaos runs the fault-injection harness
#      under a hostile scenario and under blackout-all; the command
#      exits non-zero if any resilience invariant (exactly-once
#      delivery, duplicate-waste bound, ADSL-only completion) breaks,
#      and -validate checks the hostile run's -json report
#  15. chaos at scale — the hostile scenario again at 100k homes: the
#      invariants must hold, and the run must fit the time budget, at a
#      population three orders of magnitude above the race-detector
#      tests (which cap at tens of homes for wall-time reasons)
#  16. permit smoke — 3golpermitload -smoke drives a few thousand
#      simulated clients through an in-process sharded permit plane
#      over real HTTP and asserts the decision invariants (no errors,
#      every client served, mixed grant/deny split); the JSON report is
#      left at bench-permit-smoke.json for CI artifact upload
#  17. permit chaos smoke — 3golpermitload -chaos spawns a real
#      3golpermitd with a WAL, SIGKILLs it mid-load, copies the WAL,
#      restarts the daemon and recovers every shard's copy with the
#      daemon's own OpenGrantStore at its recovery instant, which must
#      match the daemon's state hash and counts; the command exits
#      non-zero on any recovery-invariant violation. The lifecycle
#      eventlog is left at chaos-permit-events.jsonl for CI artifact
#      upload and piped through 3goltrace -check
#  18. metrics docs — METRICS.md must match the live registry
#      (3golobs gen-docs -check)
#  19. package docs — every package must carry a godoc comment
#      (go list's .Doc field is empty otherwise)
#  20. code size — BENCH_codesize.json must match scripts/codesize.sh
#      (lines of Go, packages, binaries), so every PR's size change is
#      in its diff
#
# Usage: ./scripts/check.sh   (from anywhere; cd's to the repo root)
set -eu

cd "$(dirname "$0")/.."

echo '==> gofmt'
# Fixture files under testdata deliberately contain unidiomatic code but
# are still kept gofmt-clean; no exclusions needed.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '==> go vet ./...'
go vet ./...

echo '==> free lists (no sync.Pool outside internal/fleet)'
# A sync.Pool loses what it holds across two collections, which makes an
# allocation metric read one of two values from run to run; comment lines
# may still name it.
pools=$(grep -rn --include='*.go' --exclude='*_test.go' 'sync\.Pool' internal cmd |
    grep -v '^internal/fleet/' | grep -v '^[^:]*:[0-9]*:[[:space:]]*//' || true)
if [ -n "$pools" ]; then
    echo "check.sh: sync.Pool outside internal/fleet; reuse buffers through freelist.List:" >&2
    echo "$pools" >&2
    exit 1
fi

echo '==> one device (proxy.Server and discovery.Beacon built only in internal/core/device.go)'
# The device component is a proxy and a beacon gated by one admission
# rule; a second assembly of them is a second rule. Comment lines may
# still name them.
devices=$(grep -rn --include='*.go' --exclude='*_test.go' -e 'proxy\.Server{' -e 'discovery\.Beacon{' internal cmd |
    grep -v -e '^internal/core/device\.go:' -e '^internal/proxy/' -e '^internal/discovery/' |
    grep -v '^[^:]*:[0-9]*:[[:space:]]*//' || true)
if [ -n "$devices" ]; then
    echo "check.sh: a device component assembled outside internal/core/device.go; build it with core.NewDevice:" >&2
    echo "$devices" >&2
    exit 1
fi

echo '==> one event loop (no sync.Cond or //3golvet:allow in internal/scheduler)'
# The live driver's state belongs to its loop; a condition variable or a
# lock discipline the analyzers must be told to accept is a second owner.
owners=$(grep -rn --include='*.go' --exclude='*_test.go' -e 'sync\.Cond' -e 'sync\.NewCond' -e '//3golvet:allow' internal/scheduler || true)
if [ -n "$owners" ]; then
    echo "check.sh: shared state in internal/scheduler; let the driver's loop own it:" >&2
    echo "$owners" >&2
    exit 1
fi

echo '==> go build ./...'
go build ./...

echo '==> go run ./cmd/3golvet -json vet-report.json ./...'
# Type-aware determinism/concurrency analyzers: any finding fails; an
# intentional keep carries a //3golvet:allow directive with its reason.
# The JSON report is left at the repo root for CI to upload.
go run ./cmd/3golvet -json vet-report.json ./...

echo '==> go test -race ./...'
# The prototype-path experiments run at gentler time scales under the
# race detector (see the race_test.go files), which lengthens wall time;
# give the slowest package headroom beyond the default 10m.
go test -race -timeout 20m ./...

echo '==> fuzz (go test -fuzz FuzzCore -fuzztime 10s ./internal/scheduler)'
# The race stage above already replays the seed corpus; this stage lets
# the mutator look for ten seconds more. -run '^$' keeps it to fuzzing.
go test -run '^$' -fuzz '^FuzzCore$' -fuzztime 10s ./internal/scheduler

echo '==> fuzz (go test -fuzz FuzzBatchCodec -fuzztime 10s ./internal/permitplane)'
go test -run '^$' -fuzz '^FuzzBatchCodec$' -fuzztime 10s ./internal/permitplane

echo '==> fuzz (go test -fuzz FuzzReplay -fuzztime 10s ./internal/permitplane/wal)'
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 10s ./internal/permitplane/wal

echo '==> fuzz (go test -fuzz FuzzFeed -fuzztime 10s ./internal/permitplane)'
go test -run '^$' -fuzz '^FuzzFeed$' -fuzztime 10s ./internal/permitplane

echo '==> fuzz (go test -fuzz FuzzPermitQuery -fuzztime 10s ./internal/permitplane)'
go test -run '^$' -fuzz '^FuzzPermitQuery$' -fuzztime 10s ./internal/permitplane

echo '==> fuzz (go test -fuzz FuzzParse -fuzztime 10s ./internal/hls)'
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/hls

echo '==> fuzz (go test -fuzz FuzzTraceHeader -fuzztime 10s ./internal/obs/eventlog)'
go test -run '^$' -fuzz '^FuzzTraceHeader$' -fuzztime 10s ./internal/obs/eventlog

echo '==> fuzz (go test -fuzz FuzzReadJSONL -fuzztime 10s ./internal/obs/eventlog)'
go test -run '^$' -fuzz '^FuzzReadJSONL$' -fuzztime 10s ./internal/obs/eventlog

echo '==> fuzz (go test -fuzz FuzzAnnouncement -fuzztime 10s ./internal/discovery)'
go test -run '^$' -fuzz '^FuzzAnnouncement$' -fuzztime 10s ./internal/discovery

echo '==> fuzz (go test -fuzz FuzzContentRange -fuzztime 10s ./internal/transfer)'
go test -run '^$' -fuzz '^FuzzContentRange$' -fuzztime 10s ./internal/transfer

echo '==> fuzz (go test -fuzz FuzzPieceWindow -fuzztime 10s ./internal/upload)'
go test -run '^$' -fuzz '^FuzzPieceWindow$' -fuzztime 10s ./internal/upload

echo '==> alloc and link-rate budgets (TestBoostVoDAllocBudget, TestUploadPhotosAllocBudget, TestServeBatchAllocBudget, TestParseBatchRequestAllocFree, TestParseBatchResponseAllocFree, TestRecordDecisionsAllocFree, TestWriteSnapshotAllocBudget, TestLinkRateBudget, TestZeroMetricsAllocFree; no -race)'
# Allocation counts and wall-clock link time mean nothing under the race
# detector, so the stage above skips these tests; -count=1 keeps a
# cached pass from standing in.
go test -count=1 -run 'TestBoostVoDAllocBudget$|TestUploadPhotosAllocBudget$' ./internal/core
go test -count=1 -run 'TestServeBatchAllocBudget$|TestParseBatchRequestAllocFree$|TestParseBatchResponseAllocFree$|TestRecordDecisionsAllocFree$|TestZeroMetricsAllocFree$' ./internal/permitplane
go test -count=1 -run 'TestWriteSnapshotAllocBudget$' ./internal/permitplane/wal
go test -count=1 -run 'TestLinkRateBudget$' ./internal/netem

echo '==> experiments loop (go test -bench BenchmarkExperiments -benchtime 1x -short .)'
# The root benchmark runs the paper's evaluation table once. The entries
# and their sim/live marks come from 3golbench's own listing (its usage
# lines), so a new entry is held to this stage without editing it.
out=$(go test -v -run '^$' -bench '^BenchmarkExperiments$' -benchtime 1x -short .)
table=$(go run ./cmd/3golbench 2>&1 | awk '/^  / { print $1, $2 }')
if [ -z "$table" ]; then
    echo "check.sh: 3golbench listed no experiments" >&2
    exit 1
fi
bad=$(printf '%s\n' "$table" | while read -r name kind; do
    case $kind in
    sim) printf '%s\n' "$out" | grep -Eq "^BenchmarkExperiments/$name(-[0-9]+)?[[:space:]]" ||
        echo "$name: no result line" ;;
    live) printf '%s\n' "$out" | grep -qx -- "--- SKIP: BenchmarkExperiments/$name" ||
        echo "$name: not skipped under -short" ;;
    *) echo "$name: unknown kind $kind" ;;
    esac
done)
if [ -n "$bad" ]; then
    echo "check.sh: BenchmarkExperiments does not match 3golbench's table:" >&2
    echo "$bad" >&2
    exit 1
fi

echo '==> fleet smoke (3golfleet -json inside a time budget)'
# A small city-scale run must finish inside the time budget (a hang or
# quadratic regression in the engine trips the timeout) and must emit a
# report that -validate accepts (malformed JSON or out-of-range metrics
# fail the gate).
smoke=$(mktemp)
events=$(mktemp)
trap 'rm -f "$smoke" "$events"' EXIT
timeout 180 go run ./cmd/3golfleet -homes 2000 -days 1 -shards 4 -json > "$smoke"
go run ./cmd/3golfleet -validate < "$smoke"

echo '==> trace smoke (3golfleet -events | 3goltrace -check)'
# The flight recorder must capture a small run and the stream must pass
# the analyzer's structural invariants (per-shard ordering, span
# pairing) — the same stream internal/fleet pins byte-identical across
# worker counts.
timeout 180 go run ./cmd/3golfleet -homes 500 -days 1 -shards 4 -events "$events" > /dev/null
go run ./cmd/3goltrace -check "$events"

echo '==> chaos smoke (3golfleet -chaos invariants)'
# The chaos harness replays the hostile scenario (every fault class
# layered) and total 3G blackout across a small fleet; 3golfleet itself
# asserts the resilience invariants and exits non-zero on any violation.
# The -json report goes through -validate, which rejects an unhealthy,
# incomplete or truncated one (sh has no pipefail: the check is on the
# report, not the producer's status). The captured eventlog must also
# pass the trace analyzer's checks.
timeout 180 go run ./cmd/3golfleet -chaos hostile -homes 256 -seed 1 -json |
    go run ./cmd/3golfleet -validate
timeout 180 go run ./cmd/3golfleet -chaos blackout-all -homes 128 -seed 1 -events "$events" > /dev/null
go run ./cmd/3goltrace -check "$events"

echo '==> chaos at scale (3golfleet -chaos hostile, 100k homes)'
# The same invariants at a 100,000-home population: every transaction
# exactly-once under the full hostile fault stack, inside a time budget
# that a scheduling or merge regression would blow. Runs without the
# race detector — the scale, not the interleaving, is what this stage
# adds over the go test chaos suite.
timeout 300 go run ./cmd/3golfleet -chaos hostile -homes 100000 -shards 32 -seed 1 -json |
    go run ./cmd/3golfleet -validate

echo '==> permit smoke (3golpermitload -smoke)'
# The permit-plane load harness runs a small population against an
# in-process sharded backend and asserts its own invariants, exiting
# non-zero on any violation. The report is kept for CI upload.
timeout 120 go run ./cmd/3golpermitload -smoke -json bench-permit-smoke.json

echo '==> permit chaos smoke (3golpermitload -chaos kill/recover invariants)'
# Process-level durability: kill -9 a loaded daemon, verify the WAL
# replays to exactly the pre-kill grant state (modulo TTL expiries),
# and that the client fleet rides through the outage without crashes or
# double-counted outcomes. The harness exits non-zero on any violation.
# Its lifecycle eventlog must pass the trace analyzer's checks too.
permitd=$(mktemp)
go build -o "$permitd" ./cmd/3golpermitd
timeout 120 go run ./cmd/3golpermitload -chaos -smoke -permitd "$permitd" \
    -events chaos-permit-events.jsonl > /dev/null
rm -f "$permitd"
go run ./cmd/3goltrace -check chaos-permit-events.jsonl

echo '==> metrics docs (3golobs gen-docs -check)'
# METRICS.md is rendered from the live metric registry; adding, renaming
# or relabelling a metric without regenerating the reference fails here.
go run ./cmd/3golobs gen-docs -check

echo '==> package docs (every package carries a godoc comment)'
# godoc renders the first comment ahead of the package clause; a package
# without one shows up blank on pkg.go.dev and in go doc. go list's .Doc
# field holds that comment, so an empty field names the offender.
undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)
if [ -n "$undocumented" ]; then
    echo "check.sh: packages missing a package-level doc comment:" >&2
    echo "$undocumented" >&2
    exit 1
fi

echo '==> code size (BENCH_codesize.json matches scripts/codesize.sh)'
# The committed snapshot is how a reviewer sees whether a PR grew or
# shrank the tree; a stale file hides that.
if ! ./scripts/codesize.sh | cmp -s - BENCH_codesize.json; then
    echo "check.sh: BENCH_codesize.json is stale; run ./scripts/codesize.sh > BENCH_codesize.json" >&2
    exit 1
fi

echo 'check.sh: all stages passed'

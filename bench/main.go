// Command bench is the repository's one repeatable benchmark of the live
// 3GOL paths: the data plane (player → client proxy → GRD scheduler →
// phone proxies → shaped links → origin, and the photo uploader) and the
// operator's permit plane. Four closed-loop workloads each cycle a fixed
// population, so a run measures a stationary state; five end-to-end
// metrics are the same on every workload; a traced mode times each
// layer's exported API from outside and attributes an op's wall time to
// the layers it crossed. README.md in this directory has the metric and
// interaction tables; BENCHMARK.json at the repository root is the
// contract later performance claims are held to.
//
// Usage:
//
//	go run ./bench                       # the whole set, one fresh process per workload
//	go run ./bench -trace 1              # the set, then the per-layer table of each workload
//	go run ./bench -repeat 5             # the set five times: min / median / max, spread ÷ bound
//	go run ./bench -workload vod_shaped -seed 7 -seconds 20 -trace 0
//
// A run of one workload prints every metric by name, with its unit and
// sample count, and ends with one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"threegol/internal/clock"
)

// Production sizing. Tests shrink these through runConfig; nothing else
// changes between a test run and a measured one.
const (
	defaultSeconds = 20
	// setupRepeats is how many times a run builds and warms the system
	// before the window opens; setup_s is the median, so one slow build
	// (a cold page cache, a late GC) does not set the number.
	setupRepeats = 3
	// layerBudget is how long each per-layer microbenchmark is timed
	// once it has made minLayerCalls calls.
	layerBudget   = 250 * time.Millisecond
	minLayerCalls = 200
	// outDir holds everything a run writes: span files and the permit
	// plane's WAL directories (removed when the run ends).
	outDir = ".bench_out"
)

// runConfig is one run's sizing.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// setups and warmDiv scale the set-up phase: setups repeats it,
	// warmDiv divides each workload's warm-up count (minimum one op).
	setups  int
	warmDiv int
	// layerBudget and layerCalls size the per-layer microbenchmarks.
	layerBudget time.Duration
	layerCalls  int
	outDir      string
}

// now and since read the real clock — a benchmark measures elapsed wall
// time — through the repository's one sanctioned accessor.
func now() time.Time                  { return clock.System.Now() }
func since(t time.Time) time.Duration { return clock.System.Since(t) }

func main() {
	start := now() // setup_s is counted from here
	workloadName := flag.String("workload", "", "run one workload in this process; empty runs the whole set, one child process each")
	seed := flag.Int64("seed", 42, "seed for every generated input")
	seconds := flag.Float64("seconds", defaultSeconds, "measured window per workload, in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics instead of the end-to-end ones")
	repeat := flag.Int("repeat", 0, "run the whole set N times and report min / median / max and spread ÷ bound per end-to-end metric")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: setupRepeats, warmDiv: 1,
		layerBudget: layerBudget, layerCalls: minLayerCalls,
		outDir: outDir,
	}
	var err error
	switch {
	case *workloadName != "":
		err = runOne(ctx, os.Stdout, *workloadName, cfg, start)
	case *repeat > 0:
		err = runRepeat(ctx, os.Stdout, cfg, *repeat)
	default:
		err = runOnce(ctx, os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

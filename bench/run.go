package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"threegol/internal/stats"
)

// workload is one closed-loop traffic mix over a fixed population.
type workload struct {
	name string
	why  string
	// clients is the closed-loop client count: each issues its next op
	// only when the previous one has been answered and verified.
	clients int
	// warmOps is the fixed warm-up, in ops per client, that set-up ends
	// with; it is a count, not a duration, so set-up cost is comparable
	// between commits.
	warmOps int
	// build makes the fixtures and the system under test from the seed.
	// A non-nil tracer installs the harness's decorators.
	build func(cfg runConfig, t *tracer) (instance, error)
}

// instance is a built system a window can be run against.
type instance interface {
	// op runs one user transaction for the given client and verifies
	// its output; an error is a failed op.
	op(ctx context.Context, client int) (opInfo, error)
	// check verifies what only holds once every client is quiet.
	check() error
	// describe is one line about the fixture (sizes, rates, wal_fs).
	describe() string
	close()
}

// opInfo is what a verified op reports beyond its latency; the fields a
// workload has no notion of stay zero.
type opInfo struct {
	payloadBytes int64         // verified bytes delivered end to end
	startup      time.Duration // first-frame delay, wall clock
	items        int           // scheduler items in the transaction
	duplicates   int           // endgame replica launches
	wastedBytes  int64         // bytes moved by losing replicas
	movedBytes   int64         // all bytes moved over all paths
	ceilingBps   float64       // Σ shaped path rates, wall-clock bits/s
}

var workloads = []workload{
	{
		name: "vod_unshaped", clients: 1, warmOps: 32,
		why:   "CPU-bound ceiling of the gateway path: relay copies, the transfer cache, HTTP transports and scheduler bookkeeping do the work, so a data-plane copy or alloc optimisation must show here",
		build: buildVoD(false),
	},
	{
		name: "vod_shaped", clients: 1, warmOps: 4,
		why:   "the same session over loc1's shaped links: link-bound, so copy and alloc gains move CPU and alloc but not latency, while scheduler policy, duplicate waste and shaping accuracy do",
		build: buildVoD(true),
	},
	{
		name: "upload_shaped", clients: 1, warmOps: 3,
		why:   "the scheduler, transfer, proxy and netem layers in the write direction (multipart bodies up, SHA-256 ingest), so a download-side gain that costs uploads shows",
		build: buildUpload,
	},
	{
		name: "permit_batch", clients: permitClients, warmOps: 800,
		why:   "the operator's hot path (JSON codec, shard fan-out, shard lock, WAL append, snapshots) at a fixed half-write half-read mix; it runs no data-plane code, so it is the control for data-plane changes",
		build: buildPermit,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one completed, verified op; times are offsets from the
// window start.
type sample struct {
	start, end time.Duration
	info       opInfo
}

// window is what one measured interval yields.
type window struct {
	samples  []sample // in completion order
	failed   int
	firstErr error
	wall     time.Duration // window start → last completion
	cpu      time.Duration // user+sys over the window, whole process
	alloc    uint64        // TotalAlloc delta
}

func (w *window) attempted() int { return len(w.samples) + w.failed }

// opMS returns the op latencies in milliseconds.
func (w *window) opMS() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = float64(s.end-s.start) / 1e6
	}
	return out
}

// driftPct compares the throughput of the window's two halves: ops that
// completed before the midpoint against those after it, each over the
// time they actually spanned, so a half is not charged for the op that
// straddles its edge.
func (w *window) driftPct() float64 {
	mid := w.wall / 2
	n1 := sort.Search(len(w.samples), func(i int) bool { return w.samples[i].end > mid })
	n2 := len(w.samples) - n1
	if n1 == 0 || n2 == 0 {
		return 0
	}
	t1 := w.samples[n1-1].end
	t2 := w.wall - t1
	if t1 <= 0 || t2 <= 0 {
		return 0
	}
	r1 := float64(n1) / t1.Seconds()
	r2 := float64(n2) / t2.Seconds()
	return 100 * (r2 - r1) / r1
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// drive runs the closed loop: every client issues ops back to back until
// stop says otherwise. stop sees the number of ops the client has
// finished and the time since the loop started.
func drive(ctx context.Context, inst instance, clients int, t *tracer, opName string,
	stop func(done int, since time.Duration) bool) window {
	var (
		mu sync.Mutex
		w  window
		wg sync.WaitGroup
	)
	t0 := now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for done := 0; ctx.Err() == nil && !stop(done, since(t0)); done++ {
				start := since(t0)
				opCtx, root := t.startOp(ctx, opName)
				info, err := inst.op(opCtx, c)
				root.end()
				end := since(t0)
				mu.Lock()
				if err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
				} else {
					w.samples = append(w.samples, sample{start: start, end: end, info: info})
				}
				if end > w.wall {
					w.wall = end
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return w
}

// warm runs the fixed-count warm-up and fails on the first failed op: a
// system that cannot complete its warm-up has nothing to measure.
func warm(ctx context.Context, inst instance, wl workload, cfg runConfig) error {
	n := wl.warmOps / cfg.warmDiv
	if n < 1 {
		n = 1
	}
	w := drive(ctx, inst, wl.clients, nil, "", func(done int, _ time.Duration) bool { return done >= n })
	if w.firstErr != nil {
		return fmt.Errorf("warm-up: %w", w.firstErr)
	}
	return ctx.Err()
}

// measure runs one window of d against a warmed instance.
func measure(ctx context.Context, inst instance, wl workload, t *tracer, d time.Duration) window {
	t.reset()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	w := drive(ctx, inst, wl.clients, t, wl.name, func(_ int, since time.Duration) bool { return since >= d })
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	w.alloc = m1.TotalAlloc - m0.TotalAlloc
	return w
}

// slice is one build of the system: its set-up time, the window run
// against it, and the check made once its clients were quiet.
type slice struct {
	setupSecs float64
	window
	checkErr error
	about    string
}

// runSlice builds and warms the system, measures it for d and tears it
// down. Set-up is timed from t0, so the first build of a process can be
// charged from the first line of main.
func runSlice(ctx context.Context, wl workload, cfg runConfig, t *tracer, d time.Duration, t0 time.Time) (slice, error) {
	inst, err := wl.build(cfg, t)
	if err != nil {
		return slice{}, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	defer inst.close()
	if err := warm(ctx, inst, wl, cfg); err != nil {
		return slice{}, fmt.Errorf("%s: %w", wl.name, err)
	}
	sl := slice{setupSecs: since(t0).Seconds(), about: inst.describe()}
	sl.window = measure(ctx, inst, wl, t, d)
	sl.checkErr = inst.check()
	if err := ctx.Err(); err != nil {
		return slice{}, err
	}
	if len(sl.samples) == 0 {
		return slice{}, fmt.Errorf("%s: no op completed: %v", wl.name, sl.firstErr)
	}
	return sl, nil
}

// tally adds a slice's ops to the result and prints its failures. A
// failed end-of-window check counts as a failed op.
func (sl *slice) tally(out io.Writer, res *result) {
	res.Attempted += sl.attempted()
	res.Failed += sl.failed
	if sl.firstErr != nil {
		fmt.Fprintf(out, "  FAILED op (first of %d): %v\n", sl.failed, sl.firstErr)
	}
	if sl.checkErr != nil {
		fmt.Fprintf(out, "  FAILED end-of-window check: %v\n", sl.checkErr)
		res.Attempted++
		res.Failed++
	}
}

// runOne runs one workload in this process and prints its metrics and
// the final JSON line. The returned error makes the process exit
// non-zero: a failed op, a failed end-of-window check, or a harness
// fault.
func runOne(ctx context.Context, out io.Writer, name string, cfg runConfig, processStart time.Time) error {
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(out, "workload %s  seed=%d  window=%gs  closed loop, %d client(s)  GOMAXPROCS=%d  trace=%t\n",
		wl.name, cfg.seed, cfg.seconds, wl.clients, runtime.GOMAXPROCS(0), cfg.trace)
	fmt.Fprintf(out, "  why: %s\n", wl.why)

	run := runEndToEnd
	if cfg.trace {
		run = runTraced
	}
	res, err := run(ctx, out, wl, cfg, processStart)
	if err != nil {
		return err
	}
	if err := writeResult(out, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or the end-of-window check did not hold", wl.name, res.Failed, res.Attempted)
	}
	return nil
}

// runEndToEnd measures the five end-to-end metrics. The window is split
// evenly over cfg.setups builds of the system, each set up and warmed
// afresh, and every metric is the median of the per-build values: on the
// shared 2-vCPU sizing sandbox a build of a CPU-bound workload settles
// at its own level, ±10 % from the next one's, so a single build per run
// would report that level and not the code's.
func runEndToEnd(ctx context.Context, out io.Writer, wl workload, cfg runConfig, processStart time.Time) (result, error) {
	d := time.Duration(cfg.seconds * float64(time.Second) / float64(cfg.setups))
	var res result
	per := map[string][]float64{}
	ops := 0
	for i := 0; i < cfg.setups; i++ {
		t0 := now()
		if i == 0 {
			t0 = processStart
		}
		sl, err := runSlice(ctx, wl, cfg, nil, d, t0)
		if err != nil {
			return result{}, err
		}
		if i == 0 {
			fmt.Fprintf(out, "  fixture: %s\n", sl.about)
		}
		sl.tally(out, &res)
		n := float64(len(sl.samples))
		ops += len(sl.samples)
		per["op_ms_p50"] = append(per["op_ms_p50"], median(sl.opMS()))
		per["ops_per_s"] = append(per["ops_per_s"], n/sl.wall.Seconds())
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], float64(sl.cpu)/1e6/n)
		per["alloc_MB_per_op"] = append(per["alloc_MB_per_op"], float64(sl.alloc)/1e6/n)
		per["setup_s"] = append(per["setup_s"], sl.setupSecs)
		per["drift"] = append(per["drift"], sl.driftPct())
		per["p90"] = append(per["p90"], stats.Quantile(sl.opMS(), 0.9))
	}
	vs := values{}
	for _, spec := range endToEnd {
		n := ops
		if spec.Name == "setup_s" {
			n = cfg.setups
		}
		vs.set(spec.Name, median(per[spec.Name]), n)
	}
	// The contract's result line carries the end-to-end metrics and
	// nothing else; what the set and -repeat modes need besides goes on
	// a line of its own.
	diag, err := json.Marshal(diagnostics{DriftPct: median(per["drift"]), PeakRSSMB: peakRSSMB(), OpMSP90: median(per["p90"])})
	if err != nil {
		return result{}, fmt.Errorf("encoding diagnostics: %w", err)
	}
	fmt.Fprintf(out, "%s%s\n", diagnosticsPrefix, diag)
	res.Metrics, err = emit(out, endToEnd, vs)
	res.Correct = res.Failed == 0
	return res, err
}

// runTraced produces the per-layer metrics. The window is split in two:
// the first half runs untraced and yields the figures the per-layer
// table reads off an end-to-end run, the second half runs a fresh build
// with the harness's decorators in place, and the microbenchmarks follow.
func runTraced(ctx context.Context, out io.Writer, wl workload, cfg runConfig, processStart time.Time) (result, error) {
	d := time.Duration(cfg.seconds * float64(time.Second) / 2)
	plain, err := runSlice(ctx, wl, cfg, nil, d, processStart)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "  fixture: %s\n", plain.about)
	var res result
	plain.tally(out, &res)
	vs := values{}
	fromEndToEnd(vs, &plain.window)

	t := newTracer()
	traced, err := runSlice(ctx, wl, cfg, t, d, now())
	if err != nil {
		return result{}, err
	}
	traced.tally(out, &res)
	spans := t.snapshot()
	a := attribute(spans)
	for dd := depthClient; dd < numDepths; dd++ {
		vs.set("trace."+depthNames[dd]+"_self_ms", a.selfMS[dd], a.ops)
	}
	vs.set("trace.overrun_pct", a.overrunPC, a.ops)
	plainP50 := median(plain.opMS())
	vs.set("bench.trace_overhead_pct", 100*(median(traced.opMS())-plainP50)/plainP50, len(traced.samples))
	spanFile := filepath.Join(cfg.outDir, "spans-"+wl.name+".jsonl")
	if err := writeSpans(spanFile, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "  traced: %d ops, %d spans (%d orphaned) → %s; op %.3f ms = %s\n",
		a.ops, len(spans), a.orphans, spanFile, a.opMS, a.describe())

	if err := layerBenches(ctx, vs, cfg); err != nil {
		return result{}, err
	}
	vs.set("bench.ops", float64(len(plain.samples)), 0)
	vs.set("bench.failed_ops", float64(res.Failed), 0)
	vs.set("bench.peak_rss_MB", peakRSSMB(), 0)
	res.Metrics, err = emit(out, perLayer, vs)
	res.Correct = res.Failed == 0
	return res, err
}

// diagnostics is what an untraced run reports besides its end-to-end
// metrics: never gated, read by the set and -repeat modes.
type diagnostics struct {
	DriftPct  float64 `json:"bench.drift_pct"`
	PeakRSSMB float64 `json:"bench.peak_rss_MB"`
	OpMSP90   float64 `json:"bench.op_ms_p90"`
}

const diagnosticsPrefix = "  diagnostics "

// describe renders the per-op attribution as one line.
func (a attribution) describe() string {
	s := ""
	for d := depthClient; d < numDepths; d++ {
		if d > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%s %.3f", depthNames[d], a.selfMS[d])
	}
	return s + fmt.Sprintf("; spans overran their op by %.1f %% of its wall time", a.overrunPC)
}

// fromEndToEnd computes the per-layer metrics that are read off the
// untraced run rather than timed in isolation.
func fromEndToEnd(vs values, w *window) {
	n := len(w.samples)
	var payload, wasted, moved int64
	var busy, ceiling float64
	var items, dups int
	startup := make([]float64, 0, n)
	for _, s := range w.samples {
		payload += s.info.payloadBytes
		wasted += s.info.wastedBytes
		moved += s.info.movedBytes
		items += s.info.items
		dups += s.info.duplicates
		busy += (s.end - s.start).Seconds()
		ceiling = s.info.ceilingBps
		startup = append(startup, float64(s.info.startup)/1e6)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	vs.set("core.goodput_ratio", ratio(ratio(float64(payload)*8, busy), ceiling), n)
	vs.set("hls.startup_ms_p50", median(startup), n)
	vs.set("scheduler.dup_ratio", ratio(float64(dups), float64(items)), n)
	vs.set("scheduler.waste_frac", ratio(float64(wasted), float64(moved)), n)
	vs.set("bench.op_ms_p90", stats.Quantile(w.opMS(), 0.9), n)
	vs.set("bench.drift_pct", w.driftPct(), n)
}

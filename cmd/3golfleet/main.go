// Command 3golfleet runs the sharded fleet-simulation engine at city
// scale and reports the paper's §6 evaluation aggregates — the speedup
// CDF anchors, backhaul crossings and traffic increases — together with
// engine throughput (wall time, homes/sec).
//
// The run is deterministic in (-homes, -days, -shards, -seed): the
// -workers flag only sets concurrency and can never change results.
// -scale multiplies -homes and -shards together — the population scale
// axis from one DSLAM (-scale 1) to a million-home city (-scale 56) —
// and the -json report carries the memory envelope (peak RSS, heap
// totals) next to wall time so both regress visibly in CI.
//
//	3golfleet -homes 18000 -days 1 -shards 8 -workers 8 -json
//	3golfleet -scale 56 -workers 16 -json        # ≈1M homes, 448 shards
//
// With -validate it instead reads a -json report (fleet or -chaos) from
// stdin and exits non-zero if it is malformed or out of range — the CI
// smoke gate. With -events FILE the run also records the deterministic
// flight recorder and writes the merged event log as JSON Lines for
// cmd/3goltrace.
//
// With -chaos SCENARIO the command runs the chaos harness instead: every
// home executes one virtual-time transaction under the named fault
// scenario (see internal/fault) and the merged report asserts the
// resilience invariants — exactly-once delivery, the (N−1)·Sm
// duplicate-waste bound, and 100% completion over ADSL when every phone
// is dead. The exit status is non-zero if any invariant broke, so the
// command doubles as the CI chaos gate:
//
//	3golfleet -chaos hostile -homes 64 -seed 1 -json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"threegol/internal/fault"
	"threegol/internal/fleet"
	"threegol/internal/obs/eventlog"
)

// fleetReport is the -json document: the engine's evaluation report plus
// the run's performance envelope.
type fleetReport struct {
	Experiment  string    `json:"experiment"`
	Shards      int       `json:"shards"`
	Workers     int       `json:"workers"`
	Seed        int64     `json:"seed"`
	WallSecs    float64   `json:"wall_seconds"`
	HomesPerSec float64   `json:"homes_per_sec"`
	Mem         memReport `json:"mem"`
	fleet.Report
	// Metrics is the merged obs registry dump (-metrics); unlike the
	// wall-time fields it is bit-identical across worker counts.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

func main() {
	var (
		homes    = flag.Int("homes", 18000, "households to simulate")
		days     = flag.Int("days", 1, "days of demand per household")
		shards   = flag.Int("shards", 8, "logical shards (part of the population definition)")
		scale    = flag.Int("scale", 1, "multiply -homes and -shards by this factor (one DSLAM at -scale 1, a city at -scale 56 ≈ 1M homes)")
		workers  = flag.Int("workers", runtime.NumCPU(), "concurrent shard simulations (never affects results)")
		seed     = flag.Int64("seed", 1, "seed deriving every shard's RNG stream")
		asJSON   = flag.Bool("json", false, "emit the machine-readable report")
		metrics  = flag.Bool("metrics", false, "run with obs instrumentation and dump the merged registry")
		events   = flag.String("events", "", "run with the flight recorder and write the merged event log (JSONL) to this file; \"-\" = stdout")
		validate = flag.Bool("validate", false, "validate a -json report read from stdin and exit")
		chaos    = flag.String("chaos", "", "run the chaos harness under this fault scenario instead of the fleet simulation (\"list\" prints the catalogue)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memprof  = flag.String("memprofile", "", "write an allocation profile after the run to this file (inspect with go tool pprof)")
	)
	flag.Parse()

	if *scale < 1 || *shards < 1 || *workers < 1 || *days < 1 {
		fmt.Fprintln(os.Stderr, "3golfleet: -scale, -shards, -workers and -days must be ≥ 1")
		os.Exit(2)
	}
	// -scale grows population and partition together so per-shard work —
	// and with it the memory envelope per worker — stays constant along
	// the scale axis. (Changing shards changes the RNG streams, so runs
	// at different scales are different populations, not refinements.)
	*homes *= *scale
	*shards *= *scale
	// The engine never runs more shards than homes; report what it ran.
	*shards = len(fleet.Shards(fleet.Config{Homes: *homes, Shards: *shards}))

	if *validate {
		if err := validateReport(os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: invalid report:", err)
			os.Exit(1)
		}
		fmt.Println("report ok")
		return
	}

	stopProf := startProfiles(*cpuprof, *memprof)

	if *chaos != "" {
		runChaos(*chaos, *homes, *shards, *seed, *workers, *asJSON, *events, stopProf)
		return
	}

	cfg := fleet.Config{Homes: *homes, Days: *days, Shards: *shards, Seed: *seed,
		Metrics: *metrics, Events: *events != ""}
	start := time.Now() //3golvet:allow wallclock — measuring real engine throughput
	res, err := fleet.Run(cfg, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3golfleet:", err)
		os.Exit(1)
	}
	wall := time.Since(start) //3golvet:allow wallclock — measuring real engine throughput
	stopProf()

	if *events != "" {
		if err := writeEventLog(res.EventLog(), *events); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: writing events:", err)
			os.Exit(1)
		}
	}

	rep := fleetReport{
		Experiment:  "fleet",
		Shards:      *shards,
		Workers:     *workers,
		Seed:        *seed,
		WallSecs:    wall.Seconds(),
		HomesPerSec: float64(*homes) / wall.Seconds(),
		Mem:         readMem(),
		Report:      res.Report(),
	}
	if r := res.MetricsRegistry(); r != nil {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: dumping metrics:", err)
			os.Exit(1)
		}
		rep.Metrics = json.RawMessage(buf.Bytes())
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet:", err)
			os.Exit(1)
		}
		return
	}
	printHuman(rep)
	if rep.Metrics != nil {
		fmt.Println("metrics:")
		_, _ = os.Stdout.Write(rep.Metrics) // stdout write failure is fatal anyway
		fmt.Println()
	}
}

// memReport is the run's memory envelope, reported alongside wall time
// so a throughput regression and a footprint regression are caught by
// the same artifact (scripts/bench.sh archives these documents).
type memReport struct {
	// PeakRSSBytes is the process high-water resident set (VmHWM); 0 on
	// platforms without /proc.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// TotalAllocBytes and Mallocs are runtime.MemStats cumulative heap
	// counters: bytes ever allocated and the number of heap objects. The
	// streaming merge keeps both near-flat along the -scale axis.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	// HeapSysBytes is the heap memory held from the OS at report time.
	HeapSysBytes uint64 `json:"heap_sys_bytes"`
}

// readMem snapshots the process memory envelope after a run.
func readMem() memReport {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memReport{
		PeakRSSBytes:    readPeakRSS(),
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		HeapSysBytes:    ms.HeapSys,
	}
}

// readPeakRSS reads the process's peak resident set from
// /proc/self/status (VmHWM, reported in kB), falling back to the current
// resident set (VmRSS) on kernels that omit the high-water mark. Returns
// 0 when neither is available (non-Linux), so callers treat the field as
// best-effort.
func readPeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var rss int64
	for _, line := range strings.Split(string(data), "\n") {
		hwm := strings.HasPrefix(line, "VmHWM:")
		if !hwm && !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		if hwm {
			return kb * 1024 // the true high-water mark wins outright
		}
		rss = kb * 1024
	}
	return rss
}

// chaosReport is the -chaos -json document.
type chaosReport struct {
	Experiment string    `json:"experiment"`
	Shards     int       `json:"shards"`
	Workers    int       `json:"workers"`
	Seed       int64     `json:"seed"`
	WallSecs   float64   `json:"wall_seconds"`
	Mem        memReport `json:"mem"`
	Healthy    bool      `json:"healthy"`
	fleet.ChaosReport
}

// startProfiles turns on the requested pprof captures and returns the
// function that finishes them: it stops the CPU profile and writes the
// allocation profile (after a GC, so the live-heap numbers are exact).
// Call it exactly once, right after the timed run — both paths do it
// before composing their report so the profiles cover only engine work.
func startProfiles(cpuprof, memprof string) func() {
	if cpuprof != "" {
		f, err := os.Create(cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: cpuprofile:", err)
			os.Exit(1)
		}
	}
	return func() {
		if cpuprof != "" {
			pprof.StopCPUProfile()
		}
		if memprof == "" {
			return
		}
		f, err := os.Create(memprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: memprofile:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: memprofile:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: memprofile:", err)
			os.Exit(1)
		}
	}
}

// runChaos executes the chaos harness and exits non-zero when any
// resilience invariant broke — the CI chaos gate.
func runChaos(scenario string, homes, shards int, seed int64, workers int, asJSON bool, events string, stopProf func()) {
	if scenario == "list" {
		for _, s := range fault.Scenarios() {
			fmt.Println(s)
		}
		return
	}
	sc, err := fault.ParseScenario(scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3golfleet:", err)
		fmt.Fprintln(os.Stderr, "3golfleet: known scenarios:", fault.Scenarios())
		os.Exit(2)
	}
	cfg := fleet.ChaosConfig{Homes: homes, Shards: shards, Seed: seed,
		Scenario: sc, Events: events != ""}
	start := time.Now() //3golvet:allow wallclock — measuring real engine throughput
	res, err := fleet.RunChaos(cfg, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3golfleet:", err)
		os.Exit(1)
	}
	wall := time.Since(start) //3golvet:allow wallclock — measuring real engine throughput
	stopProf()
	if events != "" {
		if err := writeEventLog(res.EventLog(), events); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet: writing events:", err)
			os.Exit(1)
		}
	}
	rep := chaosReport{
		Experiment:  "chaos",
		Shards:      shards,
		Workers:     workers,
		Seed:        seed,
		WallSecs:    wall.Seconds(),
		Mem:         readMem(),
		ChaosReport: res.Report(sc),
	}
	rep.Healthy = rep.ChaosReport.Healthy()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "3golfleet:", err)
			os.Exit(1)
		}
	} else {
		printChaos(rep)
	}
	if !rep.Healthy {
		fmt.Fprintln(os.Stderr, "3golfleet: chaos invariants violated")
		os.Exit(1)
	}
}

func printChaos(rep chaosReport) {
	fmt.Printf("chaos: scenario %s, %d homes, %d shards on %d workers, seed %d (%.2fs wall)\n",
		rep.Scenario, rep.Homes, rep.Shards, rep.Workers, rep.Seed, rep.WallSecs)
	fmt.Printf("  delivery   %d/%d items (adsl %d, phones %d), %d failed transactions\n",
		rep.Delivered, rep.Items, rep.ADSLItems, rep.PhoneItems, rep.Failed)
	fmt.Printf("  resilience %d requeues, %d duplicates, %d stall aborts, %d breaker opens\n",
		rep.Requeues, rep.Duplicates, rep.StallAborts, rep.BreakerOpens)
	fmt.Printf("  waste      %d duplicate bytes (worst completion %d), %d failure bytes; mean elapsed %.1fs\n",
		rep.DuplicateWaste, rep.MaxComplWaste, rep.FailureWaste, rep.MeanElapsedSecs)
	verdict := "all invariants held"
	if !rep.Healthy {
		verdict = fmt.Sprintf("VIOLATIONS: %d not-exactly-once, %d waste-bound",
			rep.NotExactlyOnce, rep.WasteBoundBreak)
	}
	fmt.Printf("  invariants %s\n", verdict)
}

// writeEventLog dumps a merged flight-recorder stream as JSON Lines —
// the capture surface cmd/3goltrace ingests. The bytes depend only on
// the run config, never on -workers.
func writeEventLog(log *eventlog.Log, dest string) error {
	if dest == "-" {
		return log.WriteJSONL(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := log.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printHuman(rep fleetReport) {
	fmt.Printf("fleet: %d homes (%d viewers), %d day(s), %d shards on %d workers, seed %d\n",
		rep.Homes, rep.Viewers, rep.Days, rep.Shards, rep.Workers, rep.Seed)
	fmt.Printf("  engine     %.2fs wall, %.0f homes/sec\n", rep.WallSecs, rep.HomesPerSec)
	fmt.Printf("  memory     %.0f MB peak RSS, %.0f MB allocated over %d objects\n",
		float64(rep.Mem.PeakRSSBytes)/(1<<20), float64(rep.Mem.TotalAllocBytes)/(1<<20), rep.Mem.Mallocs)
	fmt.Printf("  sessions   %d total, %d boosted, %.2f MB onloaded per home-day\n",
		rep.Sessions, rep.BoostedSessions, rep.OnloadedMBPerH)
	fmt.Printf("  speedup    p50 %.2fx  p90 %.2fx  p99 %.2fx  (%.0f%% of homes ≥1.2x)\n",
		rep.SpeedupP50, rep.SpeedupP90, rep.SpeedupP99, 100*rep.FracSpeedup12)
	fmt.Printf("  backhaul   %.1f Mbps; budgeted peak %.1f Mbps crosses %d bins, unlimited %.1f Mbps crosses %d\n",
		rep.BackhaulMbps, rep.BudgetedPeakMbps, rep.BudgetedCrossBins,
		rep.UnlimitedPeakMbps, rep.UnlimitedCross)
	fmt.Printf("  3G load    +%.0f%% total, +%.0f%% at the mobile peak hour\n",
		100*rep.TotalIncrease, 100*rep.PeakIncrease)
}

// validateReport checks that r holds one 3golfleet -json document — a
// fleet report or a -chaos report — with the fields CI depends on, all
// in range.
func validateReport(r io.Reader) error {
	doc, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var head struct {
		Experiment      string
		Shards, Workers int
	}
	if err := json.Unmarshal(doc, &head); err != nil {
		return err
	}
	if head.Shards <= 0 || head.Workers <= 0 {
		return fmt.Errorf("shards = %d, workers = %d, want both > 0", head.Shards, head.Workers)
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	switch head.Experiment {
	case "fleet":
		return validateFleet(dec)
	case "chaos":
		return validateChaos(dec)
	}
	return fmt.Errorf("experiment = %q, want \"fleet\" or \"chaos\"", head.Experiment)
}

// validateChaos checks a -chaos report: every invariant held and every
// item arrived.
func validateChaos(dec *json.Decoder) error {
	var rep chaosReport
	if err := dec.Decode(&rep); err != nil {
		return err
	}
	switch {
	case !rep.Healthy:
		return fmt.Errorf("healthy = false")
	case rep.Items <= 0 || rep.Delivered != rep.Items:
		return fmt.Errorf("delivered %d of %d items", rep.Delivered, rep.Items)
	}
	return nil
}

// validateFleet checks a fleet report's evaluation and engine figures.
func validateFleet(dec *json.Decoder) error {
	var rep fleetReport
	if err := dec.Decode(&rep); err != nil {
		return err
	}
	switch {
	case rep.Homes <= 0:
		return fmt.Errorf("homes = %d, want > 0", rep.Homes)
	case rep.Viewers <= 0 || rep.Viewers > rep.Homes:
		return fmt.Errorf("viewers = %d outside (0, homes]", rep.Viewers)
	case rep.Sessions <= 0:
		return fmt.Errorf("sessions = %d, want > 0", rep.Sessions)
	case rep.WallSecs <= 0:
		return fmt.Errorf("wall_seconds = %v, want > 0", rep.WallSecs)
	case rep.HomesPerSec <= 0:
		return fmt.Errorf("homes_per_sec = %v, want > 0", rep.HomesPerSec)
	case rep.Mem.TotalAllocBytes == 0 || rep.Mem.Mallocs == 0:
		return fmt.Errorf("mem counters empty: total_alloc_bytes=%d mallocs=%d",
			rep.Mem.TotalAllocBytes, rep.Mem.Mallocs)
	case rep.SpeedupP50 < 1:
		return fmt.Errorf("speedup_p50 = %v, want ≥ 1", rep.SpeedupP50)
	case rep.BackhaulMbps <= 0:
		return fmt.Errorf("backhaul_mbps = %v, want > 0", rep.BackhaulMbps)
	}
	return nil
}

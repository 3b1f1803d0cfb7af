package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// childRun is what the parent keeps of one workload's process.
type childRun struct {
	result
	diagnostics
}

// runChild runs one workload in a fresh process of this same binary,
// echoes what it printed and returns the result its last line carries.
// Workloads never share a process or run concurrently: each starts from
// a cold heap and has the machine to itself.
func runChild(ctx context.Context, out io.Writer, name string, cfg runConfig, trace bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, fmt.Errorf("locating own binary: %w", err)
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", traceArg)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimRight(stdout, "\n"), []byte("\n"))
	var run childRun
	if last := lines[len(lines)-1]; json.Unmarshal(last, &run.result) == nil && run.Metrics != nil {
		lines = lines[:len(lines)-1]
	} else if runErr == nil {
		runErr = errors.New("no result line")
	}
	for _, l := range lines {
		if d, ok := bytes.CutPrefix(l, []byte(diagnosticsPrefix)); ok && json.Unmarshal(d, &run.diagnostics) == nil {
			continue
		}
		fmt.Fprintf(out, "%s\n", l)
	}
	if runErr != nil {
		return run, fmt.Errorf("%s: %w", name, runErr)
	}
	if !trace {
		fmt.Fprintf(out, "  drift %+.2f %% (second half of the window vs first)  p90 %.3f ms  peak RSS %.0f MB\n",
			run.DriftPct, run.OpMSP90, run.PeakRSSMB)
	}
	return run, nil
}

// runSet runs every workload once, in declaration order, and returns
// the untraced runs by workload name.
func runSet(ctx context.Context, out io.Writer, cfg runConfig) (map[string]childRun, error) {
	runs := make(map[string]childRun, len(workloads))
	for _, wl := range workloads {
		run, err := runChild(ctx, out, wl.name, cfg, false)
		if err != nil {
			return nil, err
		}
		runs[wl.name] = run
		if cfg.trace {
			if _, err := runChild(ctx, out, wl.name, cfg, true); err != nil {
				return nil, err
			}
		}
		fmt.Fprintln(out)
	}
	return runs, nil
}

// runOnce is the default mode: the whole set, then the stationarity
// guard on each workload.
func runOnce(ctx context.Context, out io.Writer, cfg runConfig) error {
	runs, err := runSet(ctx, out, cfg)
	if err != nil {
		return err
	}
	drifts := make(map[string][]float64, len(runs))
	for name, run := range runs {
		drifts[name] = []float64{run.DriftPct}
	}
	return checkDrift(drifts)
}

// checkDrift is the stationarity guard: a workload whose median drift
// over the sets run exceeds maxDriftPct is measuring how long it ran.
func checkDrift(drifts map[string][]float64) error {
	var over []string
	for _, wl := range workloads {
		if d := median(drifts[wl.name]); math.Abs(d) > maxDriftPct {
			over = append(over, fmt.Sprintf("%s (%+.1f %%)", wl.name, d))
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("not stationary, drift above %d %%: %v", maxDriftPct, over)
	}
	return nil
}

// runRepeat runs the whole set n times, each with another seed as the
// benchmark's driver does, and prints per workload and end-to-end
// metric min / median / max and the quartile spread as a share of the
// metric's bound. It fails when a spread exceeds its bound: such a
// benchmark cannot tell a regression from noise.
func runRepeat(ctx context.Context, out io.Writer, cfg runConfig, n int) error {
	cfg.trace = false
	series := make(map[string]map[string][]float64) // workload → metric → one value per set
	drifts := make(map[string][]float64)
	for i := 0; i < n; i++ {
		fmt.Fprintf(out, "=== set %d of %d, seed %d ===\n", i+1, n, cfg.seed)
		set, err := runSet(ctx, out, cfg)
		if err != nil {
			return err
		}
		for name, run := range set {
			if series[name] == nil {
				series[name] = make(map[string][]float64)
			}
			for metric, v := range run.Metrics {
				series[name][metric] = append(series[name][metric], v.Value)
			}
			drifts[name] = append(drifts[name], run.DriftPct)
		}
		cfg.seed++
	}

	fmt.Fprintf(out, "=== %d sets: spread is (Q3 − Q1) ÷ median ===\n", n)
	fmt.Fprintf(out, "%-14s %-16s %12s %12s %12s %9s %9s\n", "workload", "metric", "min", "median", "max", "spread", "÷ bound")
	var over []string
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			xs := append([]float64(nil), series[wl.name][spec.Name]...)
			sort.Float64s(xs)
			spread := quartileSpread(xs)
			fmt.Fprintf(out, "%-14s %-16s %12.4f %12.4f %12.4f %8.2f%% %9.2f\n",
				wl.name, spec.Name, xs[0], median(xs), xs[len(xs)-1], 100*spread, spread/spec.Bound)
			// setup_s is held to its median between sets, not to its spread.
			if spread > spec.Bound && spec.Name != "setup_s" {
				over = append(over, wl.name+"/"+spec.Name)
			}
		}
		fmt.Fprintf(out, "%-14s %-16s %12s %11.2f%%\n", wl.name, "bench.drift_pct", "", median(drifts[wl.name]))
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound on %v", over)
	}
	return checkDrift(drifts)
}

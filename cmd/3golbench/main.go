// Command 3golbench regenerates every table and figure of the paper's
// evaluation. Each experiment returns rows — a key, a value, its unit
// and, where the paper states one, the paper's figure — and one writer
// renders them as a text table or, with -json, as a list of
// {experiment, title, wall_seconds, rows}. The mapping to the paper is
// documented in DESIGN.md and EXPERIMENTS.md.
//
// Usage:
//
//	3golbench <experiment> [flags]
//	3golbench sim [flags]
//
// Run without arguments, it lists the experiments. sim runs every
// experiment not marked live; a live one drives the prototype path or
// the live scheduler in wall-clock time, so its rows vary between runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"threegol/internal/capacity"
	"threegol/internal/cellular"
	"threegol/internal/diurnal"
	"threegol/internal/dsl"
	"threegol/internal/evalwild"
	"threegol/internal/hls"
	"threegol/internal/linksim"
	"threegol/internal/measure"
	"threegol/internal/mptcp"
	"threegol/internal/quota"
	"threegol/internal/scheduler"
	"threegol/internal/traces"
	"threegol/internal/tracesim"
)

// config is what the flags set; every experiment takes all of it.
type config struct {
	evalwild.Setup  // Seed for every experiment; Reps and TimeScale for the prototype path
	users, mnoUsers int
}

// row is one result value. Paper is the paper's figure for it, as the
// paper states it, when there is one.
type row struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Paper string  `json:"paper,omitempty"`
}

// experiment is one entry of the evaluation. sim runs every entry that
// is not live.
type experiment struct {
	name, title string
	live        bool
	run         func(config) ([]row, error)
}

// experiments is the evaluation, in the paper's order. It is read-only.
var experiments = []experiment{
	{"context", "§2.1 capacity comparison (paper assumptions)", false, runContext},
	{"fig1", "Fig 1: normalised diurnal traffic, mobile vs wired", false, runFig1},
	{"table1", "Table 1: synthetic stand-ins for the paper's data sources", false, runTable1},
	{"fig3", "Fig 3: aggregate throughput vs number of devices", false, runFig3},
	{"fig4", "Fig 4: per-device throughput by hour (5-day campaign)", false, runFig4},
	{"fig5", "Fig 5: single-device throughput per base station", false, runFig5},
	{"table2", "Table 2: DSL vs 3-device 3G throughput and 3GOL speedup", false, runTable2},
	{"table3", "Table 3: per-device throughput by cluster size", false, runTable3},
	{"table4", "Table 4: evaluation locations", false, runTable4},
	{"fig6", "Fig 6: scheduler comparison (200 s HLS video, 2 Mbps ADSL)", true, runFig6},
	{"fig7", "Fig 7: pre-buffer gain (GRD scheduler)", true, runFig7},
	{"fig8", "Fig 8: full-video download time reduction", true, runFig8},
	{"fig9", "Fig 9: 30-photo upload time (0ph is the ADSL alone)", true, runFig9},
	{"fig10", "Fig 10: CDF of fraction of cap used", false, runFig10},
	{"estimator", "§6 estimator back-test: 3GOLa(t) = F̄u(t) − α·σ̄u(t)", false, runEstimator},
	{"fig11a", "Fig 11(a): per-user DSL/3GOL latency ratio, 40 MB/day budget", false, runFig11a},
	{"fig11b", "Fig 11(b): onloaded cellular load, 5-min bins, 2 towers × 40 Mbps backhaul", false, runFig11b},
	{"fig11c", "Fig 11(c): relative 3G traffic increase vs 3GOL adoption", false, runFig11c},
	{"mptcp", "§5.2 MPTCP note: coupled vs uncoupled congestion control", false, runMPTCP},
	{"lte", "§2.3 outlook: powerboost with 3G vs 4G devices (loc4, q4, 20% pre-buffer)", true, runLTE},
	{"ablation", "scheduler ablations: GRD endgame duplication (3 items, 4:1 paths), MIN α (9 items), " +
		"playout-aware endgame (12 one-second segments, prebuffer 2)", true, runAblation},
}

func main() {
	if len(os.Args) < 2 || len(selectExperiments(os.Args[1])) == 0 {
		usage()
		os.Exit(2)
	}
	cfg, asJSON := parseFlags(os.Args[1], os.Args[2:])
	results, err := runExperiments(selectExperiments(os.Args[1]), cfg)
	if err == nil {
		err = write(os.Stdout, results, asJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "3golbench:", err)
		os.Exit(1)
	}
}

// parseFlags reads the flags that follow the experiment name.
func parseFlags(name string, args []string) (cfg config, asJSON bool) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Int64Var(&cfg.Seed, "seed", 42, "random seed")
	fs.IntVar(&cfg.Reps, "reps", 3, "repetitions per configuration (prototype-path experiments)")
	fs.Float64Var(&cfg.TimeScale, "timescale", 60, "emulation acceleration factor (prototype-path experiments)")
	fs.IntVar(&cfg.users, "users", 18000, "DSLAM subscriber population")
	fs.IntVar(&cfg.mnoUsers, "mno-users", 20000, "MNO subscriber population")
	fs.BoolVar(&asJSON, "json", false, "emit the rows as one JSON list instead of tables")
	fs.Parse(args)
	return cfg, asJSON
}

// selectExperiments returns the named experiment or, for "sim", every
// experiment that is not live; none for an unknown name.
func selectExperiments(name string) []experiment {
	var out []experiment
	for _, e := range experiments {
		if e.name == name || (name == "sim" && !e.live) {
			out = append(out, e)
		}
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: 3golbench <experiment>|sim [flags]")
	kind := map[bool]string{false: "sim", true: "live"}
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-10s %-4s  %s\n", e.name, kind[e.live], e.title)
	}
}

// result is one experiment's run, as -json writes it.
type result struct {
	Experiment  string  `json:"experiment"`
	Title       string  `json:"title"`
	WallSeconds float64 `json:"wall_seconds"`
	Rows        []row   `json:"rows"`
}

func runExperiments(exps []experiment, cfg config) ([]result, error) {
	results := make([]result, 0, len(exps))
	for _, e := range exps {
		start := time.Now() //3golvet:allow wallclock — reporting real experiment wall time
		rows, err := e.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		wall := time.Since(start) //3golvet:allow wallclock — reporting real experiment wall time
		results = append(results, result{e.name, e.title, wall.Seconds(), rows})
	}
	return results, nil
}

// write renders results as one JSON list, or as a table of rows under
// each experiment's title.
func write(w io.Writer, results []result, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, res := range results {
		fmt.Fprintf(tw, "\n════════ %s ════════\n%s\n", res.Experiment, res.Title)
		for _, r := range res.Rows {
			fmt.Fprintf(tw, "  %s\t%.6g %s", r.Key, r.Value, r.Unit)
			if r.Paper != "" {
				fmt.Fprintf(tw, "\t(paper: %s)", r.Paper)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

func runContext(config) ([]row, error) {
	r := capacity.PaperDefaults().Compute()
	return []row{
		{"area_km2", r.AreaKm2, "km²", ""},
		{"subscribers", r.Subscribers, "count", "4375"},
		{"adsl_lines", r.ADSLLines, "count", "875"},
		{"wired_down_gbps", r.WiredDownGbps, "Gbps", "5.863"},
		{"wired_up_gbps", r.WiredUpGbps, "Gbps", ""},
		{"cell_gbps", r.CellGbps, "Gbps", ""},
		{"down_ratio", r.DownRatio, "×", ""},
		{"down_orders", r.OrdersOfMagnitude(), "orders of magnitude", "1–2"},
		{"up_ratio", r.UpRatio, "×", ""},
	}, nil
}

func runFig1(config) (rows []row, err error) {
	for h := 0; h < 24; h++ {
		rows = append(rows,
			row{fmt.Sprintf("%02dh.mobile", h), diurnal.Mobile.At(float64(h)), "norm", ""},
			row{fmt.Sprintf("%02dh.wired", h), diurnal.Wired.At(float64(h)), "norm", ""})
	}
	return append(rows,
		row{"mobile.peak_hour", float64(diurnal.Mobile.PeakHour()), "h", ""},
		row{"wired.peak_hour", float64(diurnal.Wired.PeakHour()), "h", "misaligned with mobile"}), nil
}

func runTable1(cfg config) ([]row, error) {
	tr := traces.GenerateDSLAM(traces.DSLAMConfig{Users: cfg.users}, cfg.Seed)
	mno := traces.GenerateMNO(traces.MNOConfig{Users: cfg.mnoUsers}, cfg.Seed)
	return []row{
		{"dslam.lines", float64(tr.NumUsers), "count", ""},
		{"dslam.video_sessions", float64(len(tr.Sessions)), "count", ""},
		{"dslam.viewers", float64(tr.Viewers()), "count", ""},
		{"dslam.viewer_frac", float64(tr.Viewers()) / float64(tr.NumUsers), "frac", ""},
		{"mno.subscribers", float64(len(mno)), "count", ""},
		{"mno.mean_daily_leftover_mb", traces.MeanDailyLeftoverBytes(mno) / traces.MB, "MB", ""},
		{"measurement_locations", float64(len(cellular.MeasurementLocations)), "count", ""},
		{"eval_locations", float64(len(cellular.EvalLocations)), "count", ""},
	}, nil
}

func runFig3(cfg config) (rows []row, err error) {
	for _, name := range []string{"loc1", "loc2", "loc3", "loc4"} {
		p, _ := cellular.FindLocation(cellular.MeasurementLocations, name)
		rows = append(rows, row{name + ".hour", p.Hour, "h", ""})
		for _, a := range measure.Fig3(p, 10, 4, cfg.Seed) {
			k := fmt.Sprintf("%s.n=%d.", name, a.Devices)
			rows = append(rows, row{k + "down", a.DownMbps, "Mbps", ""}, row{k + "up", a.UpMbps, "Mbps", ""})
		}
	}
	return rows, nil
}

func runFig4(cfg config) (rows []row, err error) {
	for _, name := range []string{"loc1", "loc2", "loc4"} {
		p, _ := cellular.FindLocation(cellular.MeasurementLocations, name)
		var loc []row
		for _, pt := range measure.Fig4(measure.Campaign(p, 5, []int{5, 3, 1}, cfg.Seed)) {
			if pt.Group != 3 && pt.Hour%4 == 2 {
				k := fmt.Sprintf("%s.group=%d.%s.%02dh", name, pt.Group, pt.Dir, pt.Hour)
				loc = append(loc, row{k, pt.MeanMbps, "Mbps", ""})
			}
		}
		// Fig4 aggregates through a map; the keys give the rows an order.
		sort.Slice(loc, func(i, j int) bool { return loc[i].Key < loc[j].Key })
		rows = append(rows, loc...)
	}
	return rows, nil
}

func runFig5(cfg config) (rows []row, err error) {
	for _, name := range []string{"loc1", "loc3", "loc4"} {
		p, _ := cellular.FindLocation(cellular.MeasurementLocations, name)
		violins := measure.Fig5(measure.Campaign(p, 5, []int{1}, cfg.Seed), 12)
		key := func(v measure.BSViolin) string { return fmt.Sprintf("%s.%s.", v.BS, v.Dir) }
		// Fig5 aggregates through a map; the keys give the violins an order.
		sort.Slice(violins, func(i, j int) bool { return key(violins[i]) < key(violins[j]) })
		for _, v := range violins {
			k := key(v)
			rows = append(rows,
				row{k + "n", float64(v.Violin.Summary.N), "count", ""},
				row{k + "q1", v.Violin.Q1, "Mbps", ""},
				row{k + "median", v.Violin.Q2, "Mbps", ""},
				row{k + "q3", v.Violin.Q3, "Mbps", ""},
				row{k + "min", v.Violin.Summary.Min, "Mbps", ""},
				row{k + "max", v.Violin.Summary.Max, "Mbps", ""})
		}
	}
	p := cellular.DefaultParams()
	return append(rows,
		row{"dedicated_floor.downlink", p.DLDedicatedFloor / linksim.Mbps, "Mbps", "360 kbps"},
		row{"dedicated_floor.uplink", p.ULDedicatedFloor / linksim.Mbps, "Mbps", "64 kbps"}), nil
}

func runTable2(cfg config) (rows []row, err error) {
	for _, r := range measure.Table2(cellular.MeasurementLocations, 4, cfg.Seed) {
		k := r.Location + "."
		rows = append(rows,
			row{k + "hour", r.Hour, "h", ""},
			row{k + "dsl_down", r.DSLDown, "Mbps", ""},
			row{k + "dsl_up", r.DSLUp, "Mbps", ""},
			row{k + "3g_down", r.ThreeGDown, "Mbps", fmt.Sprint(r.PaperDown)},
			row{k + "3g_up", r.ThreeGUp, "Mbps", fmt.Sprint(r.PaperUp)},
			row{k + "speedup_down", r.SpeedupDown, "×", ""},
			row{k + "speedup_up", r.SpeedupUp, "×", ""})
	}
	return rows, nil
}

func runTable3(cfg config) (rows []row, err error) {
	var samples []measure.Sample
	for _, p := range cellular.MeasurementLocations {
		samples = append(samples, measure.Campaign(p, 5, []int{5, 3, 1}, cfg.Seed)...)
	}
	cols := []string{"up_mean", "up_max", "up_sd", "down_mean", "down_max", "down_sd"}
	paper := map[int][]string{
		1: {"1.09", "2.32", "0.72", "1.61", "2.65", "0.57"},
		3: {"0.90", "2.47", "0.60", "1.33", "2.32", "0.51"},
		5: {"0.65", "2.44", "0.50", "1.16", "3.44", "0.56"},
	}
	for _, r := range measure.Table3(samples) {
		for i, v := range []float64{r.UpMean, r.UpMax, r.UpSd, r.DownMean, r.DownMax, r.DownSd} {
			k := fmt.Sprintf("cluster=%d.%s", r.Cluster, cols[i])
			rows = append(rows, row{k, v, "Mbps", paper[r.Cluster][i]})
		}
	}
	return rows, nil
}

func runTable4(config) (rows []row, err error) {
	for _, p := range cellular.EvalLocations {
		rows = append(rows,
			row{p.Name + ".dsl_down", p.DSLDown / linksim.Mbps, "Mbps", ""},
			row{p.Name + ".dsl_up", p.DSLUp / linksim.Mbps, "Mbps", ""},
			row{p.Name + ".signal", p.SignalDBm, "dBm", ""})
	}
	return rows, nil
}

// rrcStart names a prototype-path run's RRC start as the paper does:
// idle ("3G") or already connected ("H").
func rrcStart(warm bool) string {
	if warm {
		return "H"
	}
	return "3G"
}

func runFig6(cfg config) (rows []row, err error) {
	res, err := evalwild.Fig6(cfg.Setup)
	for _, r := range res {
		k := fmt.Sprintf("%dph.%s.%s.", r.Phones, r.Quality, r.Scheme)
		rows = append(rows,
			row{k + "mean", r.Mean.Seconds(), "s", ""},
			row{k + "std", r.Std.Seconds(), "s", ""})
	}
	return rows, err
}

func runFig7(cfg config) (rows []row, err error) {
	res, err := evalwild.Fig7(cfg.Setup, nil, nil, nil)
	for _, r := range res {
		k := fmt.Sprintf("%s.%dph.%s.%s.prebuffer=%.0f%%",
			r.Location, r.Phones, rrcStart(r.Warm), r.Quality, r.Prebuffer*100)
		rows = append(rows, row{k, r.GainSec, "s", ""})
	}
	return rows, err
}

func runFig8(cfg config) (rows []row, err error) {
	res, err := evalwild.Fig8(cfg.Setup, nil)
	for _, r := range res {
		k := fmt.Sprintf("%s.%dph.%s", r.Location, r.Phones, rrcStart(r.Warm))
		rows = append(rows, row{k, r.ReductionPct, "%", ""})
	}
	return rows, err
}

func runFig9(cfg config) (rows []row, err error) {
	res, err := evalwild.Fig9(cfg.Setup, 30)
	for _, r := range res {
		rows = append(rows, row{fmt.Sprintf("%s.%dph", r.Location, r.Phones), r.Mean.Seconds(), "s", ""})
	}
	return rows, err
}

func runFig10(cfg config) (rows []row, err error) {
	users := traces.GenerateMNO(traces.MNOConfig{Users: cfg.mnoUsers}, cfg.Seed)
	cdf := tracesim.Fig10(users)
	paper := map[float64]string{0.1: "0.40", 0.5: "0.75"}
	for _, x := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
		rows = append(rows, row{fmt.Sprintf("p_frac_le_%g", x), cdf.At(x), "frac", paper[x]})
	}
	leftover := traces.MeanDailyLeftoverBytes(users) / traces.MB
	return append(rows, row{"mean_daily_leftover_mb", leftover, "MB", "≈20 MB"}), nil
}

func runEstimator(cfg config) (rows []row, err error) {
	users := traces.GenerateMNO(traces.MNOConfig{Users: cfg.mnoUsers}, cfg.Seed)
	series := make([][]float64, len(users))
	for i, u := range users {
		series[i] = u.FreeSeries()
	}
	paper := map[quota.Estimator][2]string{{Tau: 5, Alpha: 4}: {"≈65%", "<1 day"}}
	for _, est := range []quota.Estimator{
		{Tau: 5, Alpha: 4}, {Tau: 5, Alpha: 2}, {Tau: 5, Alpha: 1},
		{Tau: 3, Alpha: 4}, {Tau: 8, Alpha: 4},
	} {
		res := est.Evaluate(series)
		k := fmt.Sprintf("tau=%d,alpha=%g.", est.Tau, est.Alpha)
		rows = append(rows,
			row{k + "utilised_frac", res.UtilizedFraction, "frac", paper[est][0]},
			row{k + "overrun_days_per_month", res.OverrunDaysPerMonth, "days", paper[est][1]})
	}
	return rows, nil
}

func runFig11a(cfg config) (rows []row, err error) {
	tr := traces.GenerateDSLAM(traces.DSLAMConfig{Users: cfg.users}, cfg.Seed)
	outcomes := tracesim.Fig11a(tr, tracesim.Config{})
	cdf := tracesim.SpeedupCDF(outcomes)
	onloaded := tracesim.MeanOnloadedBytesPerUser(outcomes) / traces.MB
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		rows = append(rows, row{fmt.Sprintf("speedup_p%.0f", q*100), cdf.Quantile(q), "×", ""})
	}
	rows = append(rows,
		row{"frac_speedup_ge_1.2", 1 - cdf.At(1.2), "frac", "≥0.50"},
		row{"mean_onloaded_mb", onloaded, "MB/user/day", "29.78"})

	// Extension: the same analysis over a heterogeneous loop plant (the
	// paper's uniform 3 Mbps population replaced by dsl rate-reach
	// populations) — rural lines see the larger tail speedups.
	for _, pop := range []struct {
		key string
		p   dsl.Population
	}{
		{"urban_adsl2+_0.6km", dsl.Population{Technology: dsl.ADSL2Plus, MeanLoopMetres: 600}},
		{"rural_adsl_3km", dsl.Population{Technology: dsl.ADSL1, MeanLoopMetres: 3000}},
	} {
		rates := tracesim.AssignLineRates(tr, pop.p, cfg.Seed)
		het := tracesim.SpeedupCDF(tracesim.Fig11aHeterogeneous(tr, rates, tracesim.Config{}))
		rows = append(rows,
			row{pop.key + ".speedup_p50", het.Quantile(0.5), "×", ""},
			row{pop.key + ".speedup_p90", het.Quantile(0.9), "×", ""})
	}
	return rows, nil
}

func runFig11b(cfg config) ([]row, error) {
	tr := traces.GenerateDSLAM(traces.DSLAMConfig{Users: cfg.users}, cfg.Seed)
	ls := tracesim.Fig11b(tr, tracesim.Config{}, 300)
	firstVideo := tracesim.MeanOnloadedFirstVideoBytes(tr, tracesim.Config{}) / traces.MB
	rows := []row{
		{"backhaul_mbps", ls.BackhaulMbps, "Mbps", ""},
		{"budgeted_peak_mbps", tracesim.PeakMbps(ls.BudgetedMbps), "Mbps", ""},
		{"unlimited_peak_mbps", tracesim.PeakMbps(ls.UnlimitedMbps), "Mbps", ""},
		{"first_video_onloaded_mb", firstVideo, "MB/user/day", "29.78"},
	}
	for h := 0; h < 24; h += 2 {
		rows = append(rows,
			row{fmt.Sprintf("%02dh.budgeted", h), ls.BudgetedMbps[h*12], "Mbps", ""},
			row{fmt.Sprintf("%02dh.unlimited", h), ls.UnlimitedMbps[h*12], "Mbps", ""})
	}
	return rows, nil
}

func runFig11c(cfg config) (rows []row, err error) {
	users := traces.GenerateMNO(traces.MNOConfig{Users: cfg.mnoUsers}, cfg.Seed)
	for _, p := range tracesim.Fig11c(users, []float64{0.1, 0.25, 0.5, 0.75, 1.0}, 20*traces.MB) {
		k := fmt.Sprintf("adoption=%.0f%%.", p.Fraction*100)
		rows = append(rows,
			row{k + "total_increase", p.TotalIncrease, "frac", ""},
			row{k + "peak_increase", p.PeakIncrease, "frac", ""})
	}
	return rows, nil
}

func runMPTCP(cfg config) (rows []row, err error) {
	paths := mptcp.ADSLPlus3G()
	for _, cc := range []mptcp.CongestionControl{mptcp.Uncoupled, mptcp.Coupled} {
		res := mptcp.Simulate(cc, paths, 50000, cfg.Seed)
		rows = append(rows, row{cc.String() + ".aggregate", res.Aggregate, "pkts/round", ""})
		for i, p := range paths {
			k := cc.String() + "." + p.Name
			rows = append(rows,
				row{k, res.Goodput[i], "pkts/round", ""},
				row{k + ".util", res.Utilization[i], "frac", ""})
		}
	}
	adslOnly := mptcp.Simulate(mptcp.Uncoupled, paths[:1], 50000, cfg.Seed)
	paper := "coupled MPTCP adds little"
	return append(rows, row{"adsl_only_tcp.aggregate", adslOnly.Aggregate, "pkts/round", paper}), nil
}

func runLTE(cfg config) (rows []row, err error) {
	res, err := evalwild.LTEComparison(cfg.Setup, "loc4")
	paper := map[string]string{"4G (LTE)": "the powerboost window \"might be extremely short\""}
	for _, r := range res {
		k := r.Tech + "."
		rows = append(rows,
			row{k + "per_device_down", r.PhoneDown / linksim.Mbps, "Mbps", ""},
			row{k + "rrc_promotion", r.RRCPromotion.Seconds(), "s", ""},
			row{k + "baseline_startup", r.BaselineStartup.Seconds(), "s", ""},
			row{k + "boosted_startup", r.BoostedStartup.Seconds(), "s", paper[r.Tech]},
			row{k + "full_download", r.BoostedTotal.Seconds(), "s", ""})
	}
	return rows, err
}

// ratePath is a synthetic path moving its rate in bytes per second; the
// ablations use it to isolate scheduler behaviour from HTTP.
type ratePath float64

func (p ratePath) Name() string { return fmt.Sprintf("%gB/s", float64(p)) }

func (p ratePath) Transfer(ctx context.Context, item scheduler.Item) (int64, error) {
	select {
	case <-time.After(time.Duration(float64(item.Size) / float64(p) * float64(time.Second))):
		return item.Size, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func runAblation(config) (rows []row, err error) {
	items := func(n int, size int64) []scheduler.Item {
		items := make([]scheduler.Item, n)
		for i := range items {
			items[i] = scheduler.Item{ID: i, Name: fmt.Sprintf("i%d", i), Size: size}
		}
		return items
	}
	ctx, twoPaths := context.Background(), []scheduler.Path{ratePath(2e6), ratePath(500e3)}

	for _, dup := range []bool{true, false} {
		opts := scheduler.Options{DisableDuplication: !dup}
		rep, err := scheduler.Run(ctx, scheduler.Greedy, items(3, 400_000), twoPaths, opts)
		if err != nil {
			return nil, err
		}
		k := fmt.Sprintf("endgame.duplication=%v.", dup)
		rows = append(rows,
			row{k + "transaction", rep.Elapsed.Seconds(), "s", ""},
			row{k + "wasted", float64(rep.WastedBytes), "B", ""})
	}

	paper := map[float64]string{0.75: "α=0.75"}
	for _, alpha := range []float64{0.25, 0.5, 0.75, 0.95} {
		opts := scheduler.Options{MinAlpha: alpha}
		rep, err := scheduler.Run(ctx, scheduler.MinTime, items(9, 200_000), twoPaths, opts)
		if err != nil {
			return nil, err
		}
		k := fmt.Sprintf("min.α=%.2f.transaction", alpha)
		rows = append(rows, row{k, rep.Elapsed.Seconds(), "s", paper[alpha]})
	}

	threePaths := []scheduler.Path{ratePath(1e6), ratePath(300e3), ratePath(250e3)}
	for _, algo := range []scheduler.Algo{scheduler.Greedy, scheduler.Playout} {
		rep, err := scheduler.Run(ctx, algo, items(12, 120_000), threePaths, scheduler.Options{})
		if err != nil {
			return nil, err
		}
		st := hls.SimulatePlayout(rep.ItemDone, 1.0, 2)
		k := fmt.Sprintf("playout.%s.", algo)
		rows = append(rows,
			row{k + "startup", st.Startup.Seconds(), "s", ""},
			row{k + "stalls", float64(st.Stalls), "count", ""},
			row{k + "stall_time", st.StallTime.Seconds(), "s", ""},
			row{k + "total", st.Finished.Seconds(), "s", ""})
	}
	return rows, nil
}

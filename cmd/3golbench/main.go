// Command 3golbench regenerates every table and figure of the paper's
// evaluation: it runs entries of internal/experiments' table and prints
// their rows — a key, a value, its unit and, where the paper states one,
// the paper's figure — as a text table or, with -json, as a list of
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
	"flag"
	"fmt"
	"os"

	"threegol/internal/experiments"
)

func main() {
	if len(os.Args) < 2 || len(experiments.Select(os.Args[1])) == 0 {
		usage()
		os.Exit(2)
	}
	cfg, asJSON := parseFlags(os.Args[1], os.Args[2:])
	results, err := experiments.Run(experiments.Select(os.Args[1]), cfg)
	if err == nil {
		err = experiments.Write(os.Stdout, results, asJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "3golbench:", err)
		os.Exit(1)
	}
}

// parseFlags reads the flags that follow the experiment name.
func parseFlags(name string, args []string) (cfg experiments.Config, asJSON bool) {
	cfg = experiments.DefaultConfig()
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.Reps, "reps", cfg.Reps, "repetitions per configuration (prototype-path experiments)")
	fs.Float64Var(&cfg.TimeScale, "timescale", cfg.TimeScale, "emulation acceleration factor (prototype-path experiments)")
	fs.IntVar(&cfg.Users, "users", cfg.Users, "DSLAM subscriber population")
	fs.IntVar(&cfg.MNOUsers, "mno-users", cfg.MNOUsers, "MNO subscriber population")
	fs.BoolVar(&asJSON, "json", false, "emit the rows as one JSON list instead of tables")
	fs.Parse(args)
	return cfg, asJSON
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: 3golbench <experiment>|sim [flags]")
	kind := map[bool]string{false: "sim", true: "live"}
	for _, e := range experiments.Table {
		fmt.Fprintf(os.Stderr, "  %-10s %-4s  %s\n", e.Name, kind[e.Live], e.Title)
	}
}

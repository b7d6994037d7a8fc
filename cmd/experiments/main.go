// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                       # everything, paper-scale (500 faults)
//	experiments -exp table1           # one experiment
//	experiments -exp table3 -format csv > table3.csv
//	experiments -faults 100           # faster, smaller fault sample
//
// Experiments: table1, table2, table3, table4, figure3, figure5,
// baselines, noise, all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: baselines|tamwidth|transition|noise|table1|table2|table3|table4|figure3|figure5|all")
	faults := flag.Int("faults", 500, "stuck-at faults sampled per circuit or per faulty core")
	seed := flag.Int64("seed", 1, "fault sampling seed")
	format := flag.String("format", "text", "output format: text|csv (csv not available for figure3)")
	rf := cli.RegisterRunFlags(flag.CommandLine)
	for name, usage := range map[string]string{
		"workers": "goroutines per fault sweep (0 = all CPUs, 1 = serial; results are identical)",
		"timeout": "wall-clock budget for the whole invocation (0 = none); on expiry in-flight work drains and completed experiments are kept",
		"cachemb": "artifact-cache budget in MiB (0 = unbounded); least-recently-used builds are evicted past it",
	} {
		flag.Lookup(name).Usage = usage
	}
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q\n", *format)
		os.Exit(1)
	}
	known := []string{"all", "figure3", "table1", "table2", "table3", "table4",
		"figure5", "baselines", "tamwidth", "transition", "noise"}
	if !slices.Contains(known, *exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (expected one of %s)\n",
			*exp, strings.Join(known, "|"))
		os.Exit(2)
	}
	if *faults < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -faults must be at least 1, got %d\n", *faults)
		os.Exit(2)
	}
	if err := rf.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	stopProfiles, err := rf.StartProfiles("experiments")
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	// The run is cancellable two ways: a -timeout deadline and Ctrl-C.
	// Either stops the fault sweeps at batch granularity, drains in-flight
	// work, and keeps every experiment that completed.
	ctx, stop := cli.SignalContext(rf.Timeout)
	defer stop()

	// One artifact cache spans every experiment of the invocation, so
	// drivers revisiting a circuit (or plan) reuse its build artifacts;
	// -cachemb bounds its resident footprint.
	cache := cli.NewCache(rf.CacheMB)
	if rf.CacheDir != "" {
		if err := cache.AttachDir(rf.CacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			fmt.Fprintf(os.Stderr, "experiments: %s\n", cache.Stats())
		}()
	}
	cfg := experiments.Config{Faults: *faults, FaultSeed: *seed, Workers: rf.Workers, Lanes: rf.Lanes, Cache: cache}
	completed := 0
	run := func(name string, f func() (rows any, text string, err error)) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		rows, text, err := f()
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted (%v) after %v; %d experiment(s) completed before it\n",
					name, err, time.Since(start).Round(time.Millisecond), completed)
				stopProfiles()
				os.Exit(0)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		completed++
		if *format == "csv" && rows != nil {
			if err := experiments.WriteCSV(os.Stdout, rows); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
		fmt.Println(text)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("figure3", func() (any, string, error) {
		r, err := experiments.Figure3()
		if err != nil {
			return nil, "", err
		}
		return nil, experiments.FormatFigure3(r), nil
	})
	run("table1", func() (any, string, error) {
		rows, err := experiments.Table1(ctx, cfg)
		return rows, experiments.FormatTable1(rows), err
	})
	run("table2", func() (any, string, error) {
		rows, err := experiments.Table2(ctx, cfg)
		return rows, experiments.FormatTable2(rows), err
	})
	run("table3", func() (any, string, error) {
		rows, err := experiments.Table3(ctx, cfg)
		return rows, experiments.FormatSOCTable(
			"Table 3: SOC1 diagnostic resolution, single meta scan chain\n"+
				"(8 partitions, 32 groups, 128 patterns/session, one faulty core at a time)", rows), err
	})
	run("table4", func() (any, string, error) {
		rows, err := experiments.Table4(ctx, cfg)
		return rows, experiments.FormatSOCTable(
			"Table 4: SOC2 (d695 variant) diagnostic resolution, 8 meta scan chains\n"+
				"(8 partitions, 8 groups/chain, 128 patterns/session, one faulty core at a time)", rows), err
	})
	run("figure5", func() (any, string, error) {
		rows, err := experiments.Figure5(ctx, cfg)
		return rows, experiments.FormatFigure5(rows), err
	})
	run("baselines", func() (any, string, error) {
		rows, err := experiments.Baselines(ctx, cfg)
		return rows, experiments.FormatBaselines(rows), err
	})
	run("tamwidth", func() (any, string, error) {
		rows, err := experiments.TAMWidth(ctx, cfg)
		return rows, experiments.FormatTAMWidth(rows), err
	})
	run("transition", func() (any, string, error) {
		rows, err := experiments.Transition(ctx, cfg)
		return rows, experiments.FormatTransition(rows), err
	})
	run("noise", func() (any, string, error) {
		rows, err := experiments.NoiseSweep(ctx, cfg)
		return rows, experiments.FormatNoiseSweep(rows), err
	})
}

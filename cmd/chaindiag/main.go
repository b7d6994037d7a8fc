// Command chaindiag locates a stuck-at defect in a scan chain's shift
// path: it injects the fault into a simulated device and runs the
// load–capture–observe diagnosis, reporting the candidate positions.
//
// Usage:
//
//	chaindiag -circuit s953 -position 12 -stuck 1
//	chaindiag -circuit s5378 -sweep        # inject every position, report accuracy
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"

	"repro/internal/benchgen"
	"repro/internal/chaindiag"
	"repro/internal/circuit"
	"repro/internal/cli"
	"repro/internal/drc"
	"repro/internal/pipeline"
	"repro/internal/pipeline/diskstore"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() {
	var (
		name     = flag.String("circuit", "s953", "built-in benchmark profile")
		position = flag.Int("position", 0, "chain position of the injected shift-path fault")
		stuck    = flag.Int("stuck", 0, "stuck value of the injected fault (0 or 1)")
		healthy  = flag.Bool("healthy", false, "diagnose a fault-free chain instead")
		sweep    = flag.Bool("sweep", false, "inject a fault at every position and summarise accuracy")
		workers  = flag.Int("workers", 0, "goroutines for -sweep (0 = all CPUs, 1 = serial; results are identical)")
		lanes    = flag.Int("lanes", 0, "fault lanes per batch, 0-256; accepted for CLI consistency — chain diagnosis runs one shift-path fault at a time and never batches")
		drcCheck = flag.Bool("drc", false, "run the static design-rule checker on the netlist before diagnosing")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for -sweep (0 = none); on expiry the partial accuracy summary is reported")
		cacheMB    = flag.Int64("cachemb", 0, "artifact-cache budget in MiB (0 = unbounded); accepted for CLI consistency — chain diagnosis builds no cacheable artifacts")
		cacheDir   = flag.String("cachedir", "", "artifact store directory; chaindiag only opens and reports it (no artifacts are built)")
		connect    = flag.String("connect", "", "comma-separated sharddiag worker addresses (host:port, or unix:/path); shard -sweep across them instead of running in-process")
		shards     = flag.Int("shards", 0, "shards to split the injection sweep into when -connect is set (0 = 4 per worker)")
	)
	flag.Parse()

	if *stuck != 0 && *stuck != 1 {
		usageError(fmt.Errorf("-stuck must be 0 or 1, got %d", *stuck))
	}
	if *position < 0 {
		usageError(fmt.Errorf("-position must not be negative, got %d", *position))
	}
	if *workers < 0 {
		usageError(fmt.Errorf("-workers must be non-negative, got %d", *workers))
	}
	if *lanes < 0 || *lanes > sim.MaxBatchLanes {
		usageError(fmt.Errorf("-lanes %d out of range 0..%d", *lanes, sim.MaxBatchLanes))
	}
	if *timeout < 0 {
		usageError(fmt.Errorf("-timeout must be non-negative, got %v", *timeout))
	}
	if err := cli.ValidateCacheMB(*cacheMB); err != nil {
		usageError(err)
	}
	if *cacheDir != "" {
		// Chain diagnosis is pure shift-path simulation with no cacheable
		// build artifacts; honor the shared flag by opening (and creating)
		// the store so scripted pipelines can pass one -cachedir everywhere.
		ds, err := diskstore.Open(*cacheDir, diskstore.Options{})
		if err != nil {
			fatal(err)
		}
		entries, err := ds.List()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chaindiag: artifact store %s holds %d entries (unused by chain diagnosis)\n", ds.Dir(), len(entries))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer cli.WriteMemProfile("chaindiag", *memprofile)

	p, ok := benchgen.ProfileByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown circuit %q", *name))
	}
	c, err := benchgen.Generate(p)
	if err != nil {
		fatal(err)
	}
	if *drcCheck && !cli.ReportDRC("chaindiag", 9, c.Name, drc.Check(c)) {
		os.Exit(2)
	}
	if !*healthy && !*sweep && *position >= c.NumDFFs() {
		usageError(fmt.Errorf("-position %d outside the %d-cell chain of %s", *position, c.NumDFFs(), *name))
	}
	order := scan.NaturalOrder(c.NumDFFs())
	fmt.Printf("circuit: %s (chain of %d cells)\n", c.Stats(), c.NumDFFs())

	if *sweep {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
		if *connect != "" {
			runShardedSweep(ctx, c, *name, order, *connect, *shards)
		} else {
			runSweep(ctx, c, order, *workers)
		}
		return
	}
	if *connect != "" {
		usageError(fmt.Errorf("-connect applies only to -sweep (single injections run locally)"))
	}

	var fault *chaindiag.ChainFault
	if !*healthy {
		fault = &chaindiag.ChainFault{Position: *position, Stuck: uint8(*stuck)}
		fmt.Printf("injected: %v\n", *fault)
	} else {
		fmt.Println("injected: none (healthy chain)")
	}
	dut, err := chaindiag.NewDevice(c, order, fault)
	if err != nil {
		fatal(err)
	}
	cands, err := chaindiag.Diagnose(c, order, dut.LoadCaptureObserve)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("candidates (%d):\n", len(cands))
	for _, cand := range cands {
		fmt.Printf("  %v\n", cand)
	}
}

func runSweep(ctx context.Context, c *circuit.Circuit, order []int, workers int) {
	n := c.NumDFFs()
	// One injection per (position, stuck) pair; each job is independent,
	// so the sweep fans out over an Executor and aggregates afterwards. On
	// a -timeout deadline or Ctrl-C the pool drains its in-flight claims
	// and the summary covers the contiguous prefix of injections finished.
	type outcome struct {
		located, exact bool
		cands          int
		err            error
		done           bool
	}
	results := make([]outcome, 2*n)
	runErr := pipeline.Executor{Workers: workers}.RunContext(ctx, len(results), func() func(int) error {
		return func(i int) error {
			truth := chaindiag.ChainFault{Position: i / 2, Stuck: uint8(i % 2)}
			dut, err := chaindiag.NewDevice(c, order, &truth)
			if err != nil {
				return err
			}
			cands, err := chaindiag.Diagnose(c, order, dut.LoadCaptureObserve)
			if err != nil {
				return err
			}
			results[i].cands = len(cands)
			for _, cand := range cands {
				if cand.Fault != nil && *cand.Fault == truth {
					results[i].located = true
					results[i].exact = len(cands) == 1
					break
				}
			}
			results[i].done = true
			return nil
		}
	})
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		fatal(runErr)
	}
	runs := 0
	for runs < len(results) && results[runs].done {
		runs++
	}
	if runs == 0 {
		fatal(fmt.Errorf("sweep interrupted (%v) before any injection finished", runErr))
	}
	exact, located, totalCands := 0, 0, 0
	for _, r := range results[:runs] {
		totalCands += r.cands
		if r.located {
			located++
		}
		if r.exact {
			exact++
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "chaindiag: sweep interrupted (%v): %d of %d injections finished; summarising the prefix\n",
			runErr, runs, len(results))
	}
	fmt.Printf("injected %d shift-path faults:\n", runs)
	fmt.Printf("  located:         %d (%.1f%%)\n", located, 100*float64(located)/float64(runs))
	fmt.Printf("  exactly (1 cand): %d (%.1f%%)\n", exact, 100*float64(exact)/float64(runs))
	fmt.Printf("  avg candidates:  %.2f\n", float64(totalCands)/float64(runs))
}

// runShardedSweep fans the injection sweep out to sharddiag workers.
// Verdicts are per-injection and independent, so the summary matches
// runSweep's exactly on a complete run; on a partial failure the
// non-failed injections are summarised (a sound subset).
func runShardedSweep(ctx context.Context, c *circuit.Circuit, name string, order []int, connect string, shards int) {
	conns, err := shard.DialAll(ctx, strings.Split(connect, ","))
	if err != nil {
		fatal(err)
	}
	defer func() {
		for _, wc := range conns {
			wc.Close()
		}
	}()
	co := &shard.Coordinator{Conns: conns, Shards: shards}
	outs, runErr := co.RunChain(ctx, shard.ProfileRef(name, 0, 1, c), order, 2*c.NumDFFs())
	runs, located, exact, totalCands := 0, 0, 0, 0
	for _, out := range outs {
		if out == nil {
			continue
		}
		runs++
		totalCands += out.Cands
		if out.Located {
			located++
		}
		if out.Exact {
			exact++
		}
	}
	if runs == 0 {
		fatal(fmt.Errorf("sweep interrupted (%v) before any injection finished", runErr))
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "chaindiag: sweep interrupted (%v): %d of %d injections finished; summarising those\n",
			runErr, runs, len(outs))
	}
	fmt.Printf("injected %d shift-path faults:\n", runs)
	fmt.Printf("  located:         %d (%.1f%%)\n", located, 100*float64(located)/float64(runs))
	fmt.Printf("  exactly (1 cand): %d (%.1f%%)\n", exact, 100*float64(exact)/float64(runs))
	fmt.Printf("  avg candidates:  %.2f\n", float64(totalCands)/float64(runs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaindiag:", err)
	os.Exit(1)
}

// usageError reports a bad flag combination: the error, then the flag
// summary, then a non-zero exit (2, matching flag's own parse failures).
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "chaindiag:", err)
	flag.Usage()
	os.Exit(2)
}

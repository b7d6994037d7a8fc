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

	"repro/internal/benchgen"
	"repro/internal/chaindiag"
	"repro/internal/circuit"
	"repro/internal/cli"
	"repro/internal/drc"
	"repro/internal/pipeline"
	"repro/internal/pipeline/diskstore"
	"repro/internal/scan"
	"repro/internal/shard"
)

func main() {
	var (
		name     = flag.String("circuit", "s953", "built-in benchmark profile")
		position = flag.Int("position", 0, "chain position of the injected shift-path fault")
		stuck    = flag.Int("stuck", 0, "stuck value of the injected fault (0 or 1)")
		healthy  = flag.Bool("healthy", false, "diagnose a fault-free chain instead")
		sweep    = flag.Bool("sweep", false, "inject a fault at every position and summarise accuracy")
		drcCheck = flag.Bool("drc", false, "run the static design-rule checker on the netlist before diagnosing")
		run      = cli.RegisterRunFlags(flag.CommandLine)
		remote   = cli.RegisterShardFlags(flag.CommandLine)
	)
	for name, usage := range map[string]string{
		"workers":  "goroutines for -sweep (0 = all CPUs, 1 = serial; results are identical)",
		"lanes":    "fault lanes per batch, 0-256; accepted for CLI consistency — chain diagnosis runs one shift-path fault at a time and never batches",
		"timeout":  "wall-clock budget for -sweep (0 = none); on expiry the partial accuracy summary is reported",
		"cachemb":  "artifact-cache budget in MiB (0 = unbounded); accepted for CLI consistency — chain diagnosis builds no cacheable artifacts",
		"cachedir": "artifact store directory; chaindiag only opens and reports it (no artifacts are built)",
		"connect":  "comma-separated sharddiag worker addresses (host:port, or unix:/path); shard -sweep across them instead of running in-process",
		"shards":   "shards to split the injection sweep into when -connect is set (0 = 4 per worker)",
	} {
		flag.Lookup(name).Usage = usage
	}
	flag.Parse()

	if *stuck != 0 && *stuck != 1 {
		usageError(fmt.Errorf("-stuck must be 0 or 1, got %d", *stuck))
	}
	if *position < 0 {
		usageError(fmt.Errorf("-position must not be negative, got %d", *position))
	}
	if err := run.Validate(); err != nil {
		usageError(err)
	}
	if err := remote.Validate(); err != nil {
		usageError(err)
	}
	if run.CacheDir != "" {
		// Chain diagnosis is pure shift-path simulation with no cacheable
		// build artifacts; honor the shared flag by opening (and creating)
		// the store so scripted pipelines can pass one -cachedir everywhere.
		ds, err := diskstore.Open(run.CacheDir, diskstore.Options{})
		if err != nil {
			fatal(err)
		}
		entries, err := ds.List()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chaindiag: artifact store %s holds %d entries (unused by chain diagnosis)\n", ds.Dir(), len(entries))
	}

	stopProfiles, err := run.StartProfiles("chaindiag")
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

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
		ctx, stop := cli.SignalContext(run.Timeout)
		defer stop()
		if remote.Connect != "" {
			runShardedSweep(ctx, c, *name, order, remote)
		} else {
			runSweep(ctx, c, order, run.Workers)
		}
		return
	}
	if remote.Connect != "" {
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
	// One injection per (position, stuck) pair; each job is independent,
	// so the sweep fans out over an Executor and aggregates afterwards. On
	// a -timeout deadline or Ctrl-C the pool drains its in-flight claims
	// and the summary covers the contiguous prefix of injections finished.
	outs := make([]*chaindiag.Outcome, 2*c.NumDFFs())
	runErr := pipeline.Executor{Workers: workers}.RunContext(ctx, len(outs), func() func(int) error {
		return func(i int) error {
			out, err := chaindiag.Inject(c, order, i)
			if err != nil {
				return err
			}
			outs[i] = &out
			return nil
		}
	})
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		fatal(runErr)
	}
	runs := 0
	for runs < len(outs) && outs[runs] != nil {
		runs++
	}
	summarise(outs[:runs], len(outs), runErr, "the prefix")
}

// runShardedSweep fans the injection sweep out to sharddiag workers.
// Verdicts are per-injection and independent, so the summary matches
// runSweep's exactly on a complete run; on a partial failure the
// non-failed injections are summarised (a sound subset).
func runShardedSweep(ctx context.Context, c *circuit.Circuit, name string, order []int, remote *cli.ShardFlags) {
	co, hangUp, err := remote.Dial(ctx)
	if err != nil {
		fatal(err)
	}
	defer hangUp()
	outs, runErr := co.RunChain(ctx, shard.ProfileRef(name, 0, 1, c), order, 2*c.NumDFFs())
	summarise(outs, len(outs), runErr, "those")
}

// summarise prints the accuracy summary over the finished injections
// (nil entries did not finish) of a sweep that scheduled scheduled of
// them; which names the finished set in the interruption note.
func summarise(outs []*chaindiag.Outcome, scheduled int, runErr error, which string) {
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
		fmt.Fprintf(os.Stderr, "chaindiag: sweep interrupted (%v): %d of %d injections finished; summarising %s\n",
			runErr, runs, scheduled, which)
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

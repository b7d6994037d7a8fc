// Command scandiag runs partition-based failing-scan-cell diagnosis on a
// full-scan circuit: it injects sampled stuck-at faults, runs the
// multi-session scan-BIST flow under the chosen partitioning scheme, and
// reports per-fault candidates and the aggregate diagnostic resolution.
//
// Usage:
//
//	scandiag -circuit s953 -scheme two-step -groups 4 -partitions 8
//	scandiag -bench mydesign.bench -scheme random -faults 100 -verbose
//	scandiag -circuit s1423 -intermittent 0.3 -flip 0.02 -abort 0.02 -retries 8 -vote 2
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
	"repro/internal/bist"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/noise"
	"repro/internal/pipeline"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() {
	var (
		name         = flag.String("circuit", "s953", "built-in benchmark profile to generate")
		benchPath    = flag.String("bench", "", "path to an ISCAS-89 .bench netlist (overrides -circuit)")
		schemeName   = flag.String("scheme", "two-step", "partitioning scheme: two-step|random|interval|fixed")
		groups       = flag.Int("groups", 4, "groups per partition")
		partitions   = flag.Int("partitions", 8, "number of partitions")
		patterns     = flag.Int("patterns", 128, "pseudorandom patterns per BIST session")
		faults       = flag.Int("faults", 500, "stuck-at faults to sample")
		seed         = flag.Int64("seed", 1, "fault sampling seed")
		workers      = flag.Int("workers", 0, "goroutines for the fault sweep (0 = all CPUs, 1 = serial; results are identical)")
		lanes        = flag.Int("lanes", 0, "fault lanes per batch, 1-256 (0 = engine default 256; above 64 engages the wide-word kernel)")
		chains       = flag.Int("chains", 1, "number of balanced scan chains")
		order        = flag.String("order", "natural", "scan order: natural|random|reverse")
		ideal        = flag.Bool("ideal", false, "bypass the MISR (alias-free compaction)")
		drcCheck     = flag.Bool("drc", false, "run the static design-rule checker on the netlist and refuse to simulate on violations")
		verbose      = flag.Bool("verbose", false, "print each fault's candidate set")
		intermittent = flag.Float64("intermittent", 1, "probability the fault is active on a given pattern (1 = deterministic fault)")
		flip         = flag.Float64("flip", 0, "probability the tester flips a session's pass/fail verdict")
		abort        = flag.Float64("abort", 0, "probability a session execution aborts and yields no signature")
		retries      = flag.Int("retries", 0, "extra executions per session; completed executions vote on the verdict")
		vote         = flag.Int("vote", 1, "prune a cell only if its group passed in at least this many partitions")
		noiseSeed    = flag.Uint64("noise-seed", 7, "seed for the unreliable-tester noise streams")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file after the run")
		timeout      = flag.Duration("timeout", 0, "wall-clock budget for the sweep (0 = none); on expiry the partial study is reported")
		cacheMB      = flag.Int64("cachemb", 0, "artifact-cache budget in MiB (0 = unbounded)")
		cacheDir     = flag.String("cachedir", "", "persist build artifacts under this directory and reuse them across runs (warm start)")
		connect      = flag.String("connect", "", "comma-separated sharddiag worker addresses (host:port, or unix:/path); shard the sweep across them instead of running in-process")
		shards       = flag.Int("shards", 0, "shards to split the fault list into when -connect is set (0 = 4 per worker)")
	)
	flag.Parse()

	if *groups < 1 {
		usageError(fmt.Errorf("-groups must be at least 1, got %d", *groups))
	}
	if *partitions < 1 {
		usageError(fmt.Errorf("-partitions must be at least 1, got %d", *partitions))
	}
	if *patterns < 1 {
		usageError(fmt.Errorf("-patterns must be at least 1, got %d", *patterns))
	}
	if *faults < 1 {
		usageError(fmt.Errorf("-faults must be at least 1, got %d", *faults))
	}
	if *chains < 1 {
		usageError(fmt.Errorf("-chains must be at least 1, got %d", *chains))
	}
	if *retries < 0 {
		usageError(fmt.Errorf("-retries must not be negative, got %d", *retries))
	}
	if *vote < 1 || *vote > *partitions {
		usageError(fmt.Errorf("-vote must be in [1, %d], got %d", *partitions, *vote))
	}
	if *workers < 0 {
		usageError(fmt.Errorf("-workers must be non-negative, got %d", *workers))
	}
	if *timeout < 0 {
		usageError(fmt.Errorf("-timeout must be non-negative, got %v", *timeout))
	}
	if err := cli.ValidateCacheMB(*cacheMB); err != nil {
		usageError(err)
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
	defer cli.WriteMemProfile("scandiag", *memprofile)

	c, err := cli.LoadCircuit(*benchPath, *name)
	if errors.Is(err, cli.ErrUnknownCircuit) {
		err = fmt.Errorf("%w (try one of %v)", err, profileNames())
	}
	if err != nil {
		fatal(err)
	}
	if *drcCheck && !cli.ReportDRC("scandiag", 10, c.Name, drc.Check(c)) {
		os.Exit(2)
	}
	scheme, err := cli.SchemeByName(*schemeName)
	if err != nil {
		fatal(err)
	}
	// A -timeout deadline and Ctrl-C both cancel the sweep at batch
	// granularity: in-flight batches drain and the contiguous prefix of
	// diagnosed faults is reported as a partial study.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	opts := core.Options{
		Scheme:        scheme,
		Groups:        *groups,
		Partitions:    *partitions,
		Patterns:      *patterns,
		Chains:        *chains,
		Ideal:         *ideal,
		Workers:       *workers,
		Lanes:         *lanes,
		Noise:         noise.Model{Intermittent: *intermittent, Flip: *flip, Abort: *abort, Seed: *noiseSeed},
		Retry:         bist.RetryPolicy{MaxRetries: *retries},
		VoteThreshold: *vote,
		StrictDRC:     *drcCheck,
	}
	if *cacheMB > 0 {
		opts.Cache = pipeline.NewCacheWithBudget(pipeline.Budget{MaxBytes: *cacheMB << 20})
	}
	opts.CacheDir = *cacheDir
	if *lanes < 0 || *lanes > sim.MaxBatchLanes {
		usageError(fmt.Errorf("-lanes %d out of range 0..%d", *lanes, sim.MaxBatchLanes))
	}
	if err := opts.Noise.Validate(); err != nil {
		usageError(err)
	}
	switch *order {
	case "natural":
	case "random":
		opts.ScanOrder = scan.RandomOrder(c.NumDFFs(), 1)
	case "reverse":
		opts.ScanOrder = scan.ReverseOrder(c.NumDFFs())
	default:
		usageError(fmt.Errorf("unknown scan order %q", *order))
	}

	b, err := core.NewCircuitBench(c, opts)
	if err != nil {
		fatal(err)
	}
	stats := c.Stats()
	fmt.Printf("circuit:  %s\n", stats)
	fmt.Printf("plan:     %s, %d groups x %d partitions, %d patterns/session, %d chains\n",
		scheme.Name(), *groups, *partitions, *patterns, *chains)
	if opts.Noise.Enabled() {
		fmt.Printf("tester:   intermittent p=%.2f, flip q=%.3f, abort %.3f, %d retries/session, vote threshold %d\n",
			*intermittent, *flip, *abort, *retries, *vote)
	}

	sample := sim.SampleFaults(b.Faults(), *faults, *seed)
	var observe func(*core.FaultDiagnosis)
	if *verbose {
		observe = func(fd *core.FaultDiagnosis) {
			if !fd.Detected {
				fmt.Printf("  %-24s undetected\n", fd.Fault.Describe(c))
				return
			}
			fmt.Printf("  %-24s failing=%v candidates=%v pruned=%v\n",
				fd.Fault.Describe(c), fd.Actual.Elems(),
				fd.Result.Candidates.Elems(), fd.Result.Pruned.Elems())
		}
	}
	var study *core.Study
	var runErr error
	if *connect != "" {
		// Sharded run: identical per-fault verdicts and study aggregates,
		// merged slot-major from the workers' deltas, so stdout below is
		// byte-identical to the in-process sweep (the batch-plan "sched:"
		// line, which legitimately differs, is verbose-only).
		conns, err := shard.DialAll(ctx, strings.Split(*connect, ","))
		if err != nil {
			fatal(err)
		}
		defer func() {
			for _, wc := range conns {
				wc.Close()
			}
		}()
		co := &shard.Coordinator{Conns: conns, Shards: *shards}
		if *verbose {
			co.Progress = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "scandiag: "+format+"\n", args...)
			}
		}
		ref := shard.ProfileRef(*name, 0, 1, c)
		if *benchPath != "" {
			ref = shard.BenchFileRef(*benchPath, c)
		}
		study, runErr = co.RunCircuit(ctx, ref, opts, sample, shard.StuckAtCosts(c, sample), observe)
	} else {
		study, runErr = b.RunObservedContext(ctx, sample, observe)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "scandiag: sweep interrupted (%v): diagnosed %d of %d scheduled faults; reporting the partial study\n",
			runErr, study.Completeness.Observed, study.Completeness.Scheduled)
	}
	cost := b.Cost()
	fmt.Printf("cost:     %d sessions, %d shift clocks total, %d golden-signature bits, %d selection-register bits\n",
		cost.Sessions, cost.TotalClocks, cost.SignatureBits, cost.SelectionRegisterBits)
	if *verbose {
		// Verbose-only so default stdout stays byte-identical between cold
		// and warm runs (the CI warm-start check diffs it).
		fmt.Printf("sched:    %d fault batches, %.1f%% lane fill\n", study.PlanBatches, 100*study.PlanFill)
	}
	fmt.Printf("\nfaults:    %d sampled, %d diagnosed, %d undetected by scan cells\n",
		len(sample), study.Diagnosed, study.Undetected)
	if !study.Completeness.Complete() {
		fmt.Printf("partial:   %d of %d faults observed (%.0f%%) before the deadline\n",
			study.Completeness.Observed, study.Completeness.Scheduled, 100*study.Completeness.Fraction())
	}
	fmt.Printf("DR:        %.4f without pruning\n", study.Full.Value())
	fmt.Printf("DR:        %.4f with pruning\n", study.Pruned.Value())
	if opts.Noise.Enabled() {
		fmt.Printf("\nrobust:    %d misses (faults whose pruned set lost a truly failing cell)\n", study.Misses)
		fmt.Printf("baseline:  %d misses, DR %.4f (hard intersection over the same noisy verdicts)\n",
			study.BaselineMisses, study.BaselineFull.Value())
		fmt.Printf("tester:    %s\n", &study.Reliability)
	}
	fmt.Println("\nDR by number of partitions (without pruning):")
	for k, dr := range study.ByPartition {
		fmt.Printf("  %2d: %.4f\n", k+1, dr.Value())
	}
	// Cache traffic goes to stderr so warm and cold runs keep identical
	// stdout — that invariance is what the CI warm-start check diffs.
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "scandiag: %s\n", b.Opts.Cache.Stats())
	}
}

func profileNames() []string {
	var names []string
	for _, p := range benchgen.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scandiag:", err)
	os.Exit(1)
}

// usageError reports a bad flag combination: the error, then the flag
// summary, then a non-zero exit (2, matching flag's own parse failures).
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "scandiag:", err)
	flag.Usage()
	os.Exit(2)
}

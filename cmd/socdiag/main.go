// Command socdiag runs failing-scan-cell diagnosis on a core-based SOC
// tested through a TestRail: it injects stuck-at faults into one core,
// runs the multi-session scan-BIST flow over the meta scan chains, and
// reports where the candidate cells land.
//
// Usage:
//
//	socdiag -soc 1 -core s13207 -scheme two-step
//	socdiag -soc 2 -chains 8 -groups 8 -core s38417
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/soc"
)

func main() {
	var (
		socNum     = flag.Int("soc", 1, "crafted SOC to test: 1 (six largest, single chain) or 2 (d695 variant)")
		coreName   = flag.String("core", "", "faulty core name (default: the first core)")
		schemeName = flag.String("scheme", "two-step", "partitioning scheme: two-step|random|interval|fixed")
		groups     = flag.Int("groups", 0, "groups per partition (default: 32 for SOC1, 8 for SOC2)")
		partitions = flag.Int("partitions", 8, "number of partitions")
		patterns   = flag.Int("patterns", 128, "pseudorandom patterns per BIST session")
		chains     = flag.Int("chains", 0, "meta scan chains (default: 1 for SOC1, 8 for SOC2)")
		faults     = flag.Int("faults", 500, "stuck-at faults to sample in the faulty core")
		drcCheck   = flag.Bool("drc", false, "run the static design-rule checker on every core and the TAM before simulating")
		seed       = flag.Int64("seed", 1, "fault sampling seed")
		workers    = flag.Int("workers", 0, "goroutines for the fault sweep (0 = all CPUs, 1 = serial; results are identical)")
		lanes      = flag.Int("lanes", 0, "fault lanes per batch, 1-256 (0 = engine default 256; above 64 engages the wide-word kernel)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the sweep (0 = none); on expiry the partial study is reported")
		cacheMB    = flag.Int64("cachemb", 0, "artifact-cache budget in MiB (0 = unbounded)")
		cacheDir   = flag.String("cachedir", "", "persist build artifacts under this directory and reuse them across runs (warm start)")
		preset     = flag.String("preset", "", "SOC preset name (soc1|soc2|soc1m|socmini); overrides -soc")
		connect    = flag.String("connect", "", "comma-separated sharddiag worker addresses (host:port, or unix:/path); shard the sweep across them instead of running in-process")
		shards     = flag.Int("shards", 0, "shards to split the fault list into when -connect is set (0 = 4 per worker)")
	)
	flag.Parse()

	if *groups < 0 {
		usageError(fmt.Errorf("-groups must not be negative, got %d", *groups))
	}
	if *partitions < 1 {
		usageError(fmt.Errorf("-partitions must be at least 1, got %d", *partitions))
	}
	if *patterns < 1 {
		usageError(fmt.Errorf("-patterns must be at least 1, got %d", *patterns))
	}
	if *chains < 0 {
		usageError(fmt.Errorf("-chains must not be negative, got %d", *chains))
	}
	if *faults < 1 {
		usageError(fmt.Errorf("-faults must be at least 1, got %d", *faults))
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
	defer cli.WriteMemProfile("socdiag", *memprofile)

	presetName := *preset
	if presetName == "" {
		switch *socNum {
		case 1:
			presetName = "soc1"
		case 2:
			presetName = "soc2"
		default:
			fatal(fmt.Errorf("unknown SOC %d", *socNum))
		}
	}
	s, err := soc.Preset(presetName)
	if err != nil {
		fatal(err)
	}
	// Per-preset defaults: the paper's SOC1 runs 32 groups on a single
	// chain, SOC2 8 groups on 8 chains; other presets get the SOC2 group
	// count on a single chain.
	if *groups == 0 {
		if presetName == "soc1" {
			*groups = 32
		} else {
			*groups = 8
		}
	}
	if *chains == 0 {
		if presetName == "soc2" {
			*chains = 8
		} else {
			*chains = 1
		}
	}

	faultyCore := 0
	if *coreName != "" {
		i, ok := s.CoreByName(*coreName)
		if !ok {
			fatal(fmt.Errorf("SOC %s has no core %q", s.Name, *coreName))
		}
		faultyCore = i
	}
	scheme, err := cli.SchemeByName(*schemeName)
	if err != nil {
		fatal(err)
	}
	if *drcCheck && !cli.ReportDRC("socdiag", 10, s.Name, drc.CheckSOC(s, *chains)) {
		os.Exit(2)
	}

	opts := core.Options{
		Scheme:     scheme,
		Groups:     *groups,
		Partitions: *partitions,
		Patterns:   *patterns,
		Chains:     *chains,
		Workers:    *workers,
		Lanes:      *lanes,
		StrictDRC:  *drcCheck,
		CacheDir:   *cacheDir,
	}
	if *cacheMB > 0 {
		opts.Cache = pipeline.NewCacheWithBudget(pipeline.Budget{MaxBytes: *cacheMB << 20})
	}
	b, err := core.NewSOCBench(s, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("SOC:      %s, %d cores, %d scan cells, %d meta chain(s)\n",
		s.Name, s.NumCores(), s.NumCells(), *chains)
	for i, c := range s.Cores {
		lo, hi := s.CellRange(i)
		marker := " "
		if i == faultyCore {
			marker = "*"
		}
		fmt.Printf("  %s core %-9s cells [%5d, %5d)\n", marker, c.Name, lo, hi)
	}
	fmt.Printf("plan:     %s, %d groups x %d partitions, %d patterns/session\n",
		scheme.Name(), *groups, *partitions, *patterns)

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

	sample := sim.SampleFaults(b.CoreFaults(faultyCore), *faults, *seed)
	var study *core.Study
	var runErr error
	if *connect != "" {
		// Sharded run: per-fault verdicts and study aggregates are merged
		// slot-major from the workers' deltas, bit-identical to the
		// in-process sweep, so stdout below does not depend on -connect.
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
		cc := s.Cores[faultyCore].Circuit
		study, runErr = co.RunSOCCore(ctx, shard.SOCRef(presetName, s), faultyCore, opts, sample,
			shard.StuckAtCosts(cc, sample), nil)
	} else {
		study, runErr = b.RunCoreContext(ctx, faultyCore, sample)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "socdiag: sweep interrupted (%v): diagnosed %d of %d scheduled faults; reporting the partial study\n",
			runErr, study.Completeness.Observed, study.Completeness.Scheduled)
	}
	fmt.Printf("\nfaults:   %d sampled in %s, %d diagnosed, %d undetected\n",
		len(sample), s.Cores[faultyCore].Name, study.Diagnosed, study.Undetected)
	if !study.Completeness.Complete() {
		fmt.Printf("partial:  %d of %d faults observed (%.0f%%) before the deadline\n",
			study.Completeness.Observed, study.Completeness.Scheduled, 100*study.Completeness.Fraction())
	}
	fmt.Printf("DR:       %.4f without pruning\n", study.Full.Value())
	fmt.Printf("DR:       %.4f with pruning\n", study.Pruned.Value())
	if k := study.PartitionsToReachDR(0.5); k > 0 {
		fmt.Printf("DR<=0.5 reached after %d partition(s)\n", k)
	} else {
		fmt.Printf("DR<=0.5 not reached within %d partitions\n", *partitions)
	}
	// Cache traffic goes to stderr so warm and cold runs keep identical
	// stdout.
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "socdiag: %s\n", b.Opts.Cache.Stats())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "socdiag:", err)
	os.Exit(1)
}

// usageError reports a bad flag combination: the error, then the flag
// summary, then a non-zero exit (2, matching flag's own parse failures).
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "socdiag:", err)
	flag.Usage()
	os.Exit(2)
}

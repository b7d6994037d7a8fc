// Command sharddiag runs the coordinator/worker runtime that shards a
// diagnosis sweep across processes. A worker serves shard jobs over the
// length-prefixed binary protocol; a coordinator splits a fault list
// into cost-balanced shards, fans them out, and merges the verdict
// deltas into exactly the study a single-process sweep would produce.
//
// Usage:
//
//	sharddiag serve -listen 127.0.0.1:9731 -cachedir /shared/artifacts
//	sharddiag coordinate -connect host1:9731,host2:9731 -circuit s13207
//	sharddiag coordinate -connect unix:/tmp/w.sock -soc socmini -core s953
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/retry"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/soc"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "coordinate":
		coordinate(os.Args[2:])
	case "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sharddiag: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sharddiag <subcommand> [flags]

subcommands:
  serve        run a shard worker: accept jobs, execute them, stream results
  coordinate   split a sweep into shards and dispatch them to workers

run "sharddiag <subcommand> -h" for the subcommand's flags
`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sharddiag:", err)
	os.Exit(1)
}

// usageError reports a bad flag combination: the error, the
// subcommand's flag reference, then exit status 2 (the conventional
// usage-error code, matching the other CLIs).
func usageError(fs *flag.FlagSet, err error) {
	fmt.Fprintln(os.Stderr, "sharddiag:", err)
	fs.Usage()
	os.Exit(2)
}

// listen opens the worker's accept socket: "host:port" for TCP, or
// "unix:/path/to.sock" for a Unix socket (stale socket files from a
// previous run are removed first).
func listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		os.Remove(path)
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

func serve(args []string) {
	fs := flag.NewFlagSet("sharddiag serve", flag.ExitOnError)
	var (
		listenAddr = fs.String("listen", "127.0.0.1:9731", "address to accept coordinator connections on (host:port, or unix:/path/to.sock)")
		node       = fs.String("node", "", "worker name reported to coordinators (default: hostname)")
		workers    = fs.Int("workers", 0, "goroutines per shard's local sweep (0 = all CPUs)")
		cacheDir   = fs.String("cachedir", "", "shared artifact-store directory; workers fetch-or-build content-addressed artifacts here")
		cacheMB    = fs.Int64("cachemb", 0, "in-memory artifact-cache budget in MiB (0 = unbounded)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
		verbose    = fs.Bool("v", false, "log each connection, shard, and timing to stderr")
	)
	fs.Parse(args)
	if *workers < 0 {
		usageError(fs, fmt.Errorf("-workers must be non-negative, got %d", *workers))
	}
	if err := cli.ValidateCacheMB(*cacheMB); err != nil {
		usageError(fs, err)
	}

	cfg := shard.ServerConfig{Node: *node, Workers: *workers, CacheDir: *cacheDir}
	if *cacheMB > 0 {
		cfg.Cache = pipeline.NewCacheWithBudget(pipeline.Budget{MaxBytes: *cacheMB << 20})
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sharddiag: %s %s\n",
				time.Now().Format("15:04:05.000"), fmt.Sprintf(format, args...))
		}
	}

	if *pprofAddr != "" {
		// The default mux already carries the pprof handlers via the
		// side-effect import; failures are fatal so a mistyped address
		// doesn't silently run without profiling.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fatal(fmt.Errorf("pprof listener: %w", err))
			}
		}()
		fmt.Fprintf(os.Stderr, "sharddiag: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	ln, err := listen(*listenAddr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sharddiag: worker listening on %s (workers=%d cachedir=%q)\n",
		ln.Addr(), *workers, *cacheDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := shard.NewServer(cfg).Serve(ctx, ln); err != nil && err != context.Canceled {
		fatal(err)
	}
}

func coordinate(args []string) {
	fs := flag.NewFlagSet("sharddiag coordinate", flag.ExitOnError)
	var (
		connect      = fs.String("connect", "", "comma-separated worker addresses (host:port, or unix:/path/to.sock)")
		shards       = fs.Int("shards", 0, "shards to split the fault list into (0 = 4 per worker)")
		shardTimeout = fs.Duration("shard-timeout", 0, "per-shard round-trip deadline (0 = none); timed-out shards are retried elsewhere")
		retries      = fs.Int("retries", 0, "dispatch attempts per shard on transient failure (0 = default 3)")
		circuitName  = fs.String("circuit", "", "built-in benchmark profile to diagnose")
		benchPath    = fs.String("bench", "", "path to an ISCAS-89 .bench netlist (must be readable by every worker too)")
		socPreset    = fs.String("soc", "", "SOC preset to diagnose instead of a circuit: soc1|soc2|soc1m|socmini")
		coreName     = fs.String("core", "", "faulty core name for -soc (default: the first core)")
		schemeName   = fs.String("scheme", "two-step", "partitioning scheme: two-step|random|interval|fixed")
		groups       = fs.Int("groups", 4, "groups per partition")
		partitions   = fs.Int("partitions", 8, "number of partitions")
		patterns     = fs.Int("patterns", 128, "pseudorandom patterns per BIST session")
		chains       = fs.Int("chains", 1, "number of balanced scan chains")
		faults       = fs.Int("faults", 500, "stuck-at faults to sample")
		seed         = fs.Int64("seed", 1, "fault sampling seed")
		lanes        = fs.Int("lanes", 0, "fault lanes per batch on the workers, 1-256 (0 = engine default)")
		timeout      = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); on expiry the partial study is reported")
		verbose      = fs.Bool("v", false, "log shard dispatch, worker progress, and connection events to stderr")
	)
	fs.Parse(args)
	if *connect == "" {
		usageError(fs, fmt.Errorf("missing -connect: need at least one worker address"))
	}
	if *circuitName == "" && *benchPath == "" && *socPreset == "" {
		usageError(fs, fmt.Errorf("nothing to diagnose: set -circuit, -bench, or -soc"))
	}
	if *socPreset != "" && (*circuitName != "" || *benchPath != "") {
		usageError(fs, fmt.Errorf("-soc excludes -circuit and -bench"))
	}
	if *groups < 1 || *partitions < 1 || *patterns < 1 || *chains < 1 {
		usageError(fs, fmt.Errorf("-groups, -partitions, -patterns, and -chains must all be at least 1"))
	}
	if *faults < 1 {
		usageError(fs, fmt.Errorf("-faults must be at least 1, got %d", *faults))
	}
	if *lanes < 0 || *lanes > sim.MaxBatchLanes {
		usageError(fs, fmt.Errorf("-lanes %d out of range 0..%d", *lanes, sim.MaxBatchLanes))
	}
	scheme, err := cli.SchemeByName(*schemeName)
	if err != nil {
		usageError(fs, err)
	}
	opts := core.Options{
		Scheme:     scheme,
		Groups:     *groups,
		Partitions: *partitions,
		Patterns:   *patterns,
		Chains:     *chains,
		Lanes:      *lanes,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	conns, err := shard.DialAll(ctx, strings.Split(*connect, ","))
	if err != nil {
		fatal(err)
	}
	defer func() {
		for _, wc := range conns {
			wc.Close()
		}
	}()
	nshards := *shards
	if nshards == 0 {
		nshards = shard.DefaultShards(len(conns))
	}
	co := &shard.Coordinator{
		Conns:        conns,
		Shards:       nshards,
		ShardTimeout: *shardTimeout,
		Retry:        retry.Policy{MaxAttempts: *retries},
	}
	if *verbose {
		co.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sharddiag: "+format+"\n", args...)
		}
		for _, wc := range conns {
			h := wc.Hello()
			fmt.Fprintf(os.Stderr, "sharddiag: worker %s: pid %d, %d workers, cachedir %q\n",
				wc.Node(), h.Pid, h.Workers, h.CacheDir)
		}
	}

	var (
		study  *core.Study
		runErr error
		label  string
		total  int
	)
	if *socPreset != "" {
		s, err := soc.Preset(*socPreset)
		if err != nil {
			fatal(err)
		}
		faultyCore := 0
		if *coreName != "" {
			i, ok := s.CoreByName(*coreName)
			if !ok {
				fatal(fmt.Errorf("SOC %s has no core %q", s.Name, *coreName))
			}
			faultyCore = i
		}
		cc := s.Cores[faultyCore].Circuit
		sample := sim.SampleFaults(sim.CollapseFaults(cc, sim.FullFaultList(cc)), *faults, *seed)
		total = len(sample)
		label = fmt.Sprintf("%s core %s", s.Name, s.Cores[faultyCore].Name)
		fmt.Printf("target:   %s (%d cores, %d scan cells), faulty core %s\n",
			s.Name, s.NumCores(), s.NumCells(), s.Cores[faultyCore].Name)
		study, runErr = co.RunSOCCore(ctx, shard.SOCRef(*socPreset, s), faultyCore, opts, sample,
			shard.StuckAtCosts(cc, sample), nil)
	} else {
		c, err := cli.LoadCircuit(*benchPath, *circuitName)
		if err != nil {
			fatal(err)
		}
		sample := sim.SampleFaults(sim.CollapseFaults(c, sim.FullFaultList(c)), *faults, *seed)
		total = len(sample)
		label = c.Name
		fmt.Printf("target:   %s\n", c.Stats())
		ref := shard.ProfileRef(*circuitName, 0, 1, c)
		if *benchPath != "" {
			ref = shard.BenchFileRef(*benchPath, c)
		}
		study, runErr = co.RunCircuit(ctx, ref, opts, sample, shard.StuckAtCosts(c, sample), nil)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "sharddiag: run degraded (%v): diagnosed %d of %d scheduled faults; reporting the partial study\n",
			runErr, study.Completeness.Observed, study.Completeness.Scheduled)
	}
	fmt.Printf("plan:     %s, %d groups x %d partitions, %d patterns/session, %d chains\n",
		scheme.Name(), *groups, *partitions, *patterns, *chains)
	fmt.Printf("workers:  %d connection(s), %d shard(s)\n", len(conns), co.Shards)
	fmt.Printf("\nfaults:   %d sampled in %s, %d diagnosed, %d undetected\n",
		total, label, study.Diagnosed, study.Undetected)
	if !study.Completeness.Complete() {
		fmt.Printf("partial:  %d of %d faults observed (%.0f%%)\n",
			study.Completeness.Observed, study.Completeness.Scheduled, 100*study.Completeness.Fraction())
	}
	fmt.Printf("DR:       %.4f without pruning\n", study.Full.Value())
	fmt.Printf("DR:       %.4f with pruning\n", study.Pruned.Value())
	if runErr != nil {
		os.Exit(1)
	}
}

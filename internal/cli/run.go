package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/sim"
)

// RunFlags are the run flags the diagnosis commands share: sweep
// parallelism and lane cap, the wall-clock budget, the artifact cache
// and the profiles. A command whose help text for one of them differs
// sets flag.Lookup(name).Usage after registering.
type RunFlags struct {
	Workers    int
	Lanes      int
	Timeout    time.Duration
	CacheMB    int64
	CacheDir   string
	CPUProfile string
	MemProfile string
}

// RegisterRunFlags declares -workers -lanes -timeout -cachemb -cachedir
// -cpuprofile -memprofile on fs.
func RegisterRunFlags(fs *flag.FlagSet) *RunFlags {
	r := &RunFlags{}
	fs.IntVar(&r.Workers, "workers", 0, "goroutines for the fault sweep (0 = all CPUs, 1 = serial; results are identical)")
	fs.IntVar(&r.Lanes, "lanes", 0, "fault lanes per batch, 1-256 (0 = engine default 256; above 64 engages the wide-word kernel)")
	fs.DurationVar(&r.Timeout, "timeout", 0, "wall-clock budget for the sweep (0 = none); on expiry the partial study is reported")
	fs.Int64Var(&r.CacheMB, "cachemb", 0, "artifact-cache budget in MiB (0 = unbounded)")
	fs.StringVar(&r.CacheDir, "cachedir", "", "persist build artifacts under this directory and reuse them across runs (warm start)")
	fs.StringVar(&r.CPUProfile, "cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	fs.StringVar(&r.MemProfile, "memprofile", "", "write a heap profile to this file after the run")
	return r
}

// Validate checks the run flags, in the order -workers, -lanes,
// -timeout, -cachemb.
func (r *RunFlags) Validate() error {
	if err := NonNegative("workers", r.Workers); err != nil {
		return err
	}
	if err := ValidateLanes(r.Lanes); err != nil {
		return err
	}
	if err := NonNegativeDuration("timeout", r.Timeout); err != nil {
		return err
	}
	return ValidateCacheMB(r.CacheMB)
}

// StartProfiles starts the -cpuprofile CPU profile. The returned stop
// writes the -memprofile heap profile (errors go to stderr, prefixed
// with prog) and then stops the CPU profile.
func (r *RunFlags) StartProfiles(prog string) (stop func(), err error) {
	stopCPU := func() {}
	if r.CPUProfile != "" {
		f, err := os.Create(r.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = pprof.StopCPUProfile
	}
	return func() {
		WriteMemProfile(prog, r.MemProfile)
		stopCPU()
	}, nil
}

// ShardFlags are the flags that send a sweep to sharddiag workers.
type ShardFlags struct {
	Connect string
	Shards  int
}

// RegisterShardFlags declares -connect -shards on fs.
func RegisterShardFlags(fs *flag.FlagSet) *ShardFlags {
	s := &ShardFlags{}
	fs.StringVar(&s.Connect, "connect", "", "comma-separated sharddiag worker addresses (host:port, or unix:/path); shard the sweep across them instead of running in-process")
	fs.IntVar(&s.Shards, "shards", 0, "shards to split the fault list into when -connect is set (0 = 4 per worker)")
	return s
}

// Validate checks -shards.
func (s *ShardFlags) Validate() error { return NonNegative("shards", s.Shards) }

// Dial connects to every -connect worker and returns a coordinator over
// them that splits sweeps into -shards shards; hangUp closes the
// connections.
func (s *ShardFlags) Dial(ctx context.Context) (co *shard.Coordinator, hangUp func(), err error) {
	conns, err := shard.DialAll(ctx, strings.Split(s.Connect, ","))
	if err != nil {
		return nil, nil, err
	}
	return &shard.Coordinator{Conns: conns, Shards: s.Shards}, func() {
		for _, wc := range conns {
			wc.Close()
		}
	}, nil
}

// NonNegative checks an integer flag whose zero selects a default.
func NonNegative(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("-%s must be non-negative, got %d", name, n)
	}
	return nil
}

// NonNegativeDuration checks a duration flag whose zero means none.
func NonNegativeDuration(name string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-%s must be non-negative, got %v", name, d)
	}
	return nil
}

// ValidateLanes checks a -lanes value.
func ValidateLanes(lanes int) error {
	if lanes < 0 || lanes > sim.MaxBatchLanes {
		return fmt.Errorf("-lanes %d out of range 0..%d", lanes, sim.MaxBatchLanes)
	}
	return nil
}

// SignalContext returns a context that Ctrl-C cancels and, for a
// positive timeout, the deadline ends. Sweeps stop at batch granularity
// on either and report the work they finished.
func SignalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	return ctx, func() {
		stop()
		cancel()
	}
}

// NewCache returns an artifact cache bounded by mb MiB (0 = unbounded).
func NewCache(mb int64) *pipeline.ArtifactCache {
	return pipeline.NewCacheWithBudget(pipeline.Budget{MaxBytes: mb << 20})
}
